import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_oracles import bmo_deltaN_classical_norm, dyadic_local_bmo, haar_function
from weight_oracles import from_callable

from wharm.bmo import (
    CARLESON_FLAVORS,
    CLASSICAL_FLAVORS,
    HALF_FLAVORS,
    bmo_deltaN_sides_norms,
    bmo_norm,
    bmo_norms,
    john_nirenberg_report,
)
from wharm.dyadic import DyadicCube, lattice_family, random_haar_sum, random_haar_sums
from wharm.errors import DomainError, ParameterError, RangeError
from wharm.grid import Grid, GridFunction, constant, restrict
from wharm.squarefn import TimeGrid
from wharm.weights import ap_constant, power_weight

ALL_FLAVORS = ["classical-w", "classical-wr", "carleson-haar", "carleson-heat-free", "carleson-heat-neumann"]


def _w_one(grid):
    return constant(grid, 1.0)


def test_constants_have_zero_norm(grid64, family64):
    w = _w_one(grid64)
    tg = TimeGrid.geometric(grid64)
    c = constant(grid64, -11.0)
    for flavor in ALL_FLAVORS:
        lats = family64 if flavor != "carleson-haar" else family64[0]
        assert bmo_norm(c, w, flavor, lats, tg=tg) == 0.0


def test_single_haar_hand_value(grid64, lat64):
    # classical-w norm of the unit Haar on the base cube is |Q0|^{-1/2}:
    # attained on Q0 (mean 0, |h| = |Q0|^{-1/2}); zero on all subcubes
    w = _w_one(grid64)
    h0 = haar_function(lat64, DyadicCube(0, (0,)), (0,))
    val = bmo_norm(h0, w, "classical-w", [lat64])
    assert abs(val - 2.0 ** -0.5) <= 1e-12


def test_john_nirenberg_ordering(rng, grid64, family64):
    w = GridFunction(grid64, np.exp(0.5 * rng.standard_normal(grid64.shape)))
    lat = family64[0]
    for _ in range(5):
        b = random_haar_sum(lat, rng, max_generation=3)
        n1 = bmo_norm(b, w, "classical-w", family64)
        nr = bmo_norm(b, w, "classical-wr", family64, r=2.0)
        assert n1 <= nr * (1 + 1e-12)


def test_shift_invariance_and_homogeneity(rng, grid64, family64):
    w = _w_one(grid64)
    lat = family64[0]
    b = random_haar_sum(lat, rng, max_generation=3)
    tg = TimeGrid.geometric(grid64)
    for flavor in ALL_FLAVORS:
        lats = family64 if flavor != "carleson-haar" else lat
        base = bmo_norm(b, w, flavor, lats, tg=tg)
        shifted = bmo_norm(GridFunction(grid64, b.values + 17.0), w, flavor, lats, tg=tg)
        scaled = bmo_norm(GridFunction(grid64, -3.0 * b.values), w, flavor, lats, tg=tg)
        assert abs(shifted - base) <= 1e-9 * max(base, 1e-12)
        assert abs(scaled - 3.0 * base) <= 1e-9 * max(base, 1e-12)


def test_carleson_haar_equals_wr2_band(rng):
    # CM_w = BMO_{w,2}: ratio within a band controlled by 4 [w]_{A^2}
    g = Grid(1, 1.0, 128)
    lats = lattice_family(g, 6)
    lat = lats[0]
    for wspec in (constant(g, 1.0), power_weight(g, 0.25)):
        apw = ap_constant(wspec, 2.0, lats)
        ratios = []
        for _ in range(8):
            b = random_haar_sum(lat, rng, max_generation=4)
            n_cm = bmo_norm(b, wspec, "carleson-haar", lat)
            n_wr = bmo_norm(b, wspec, "classical-wr", [lat], r=2.0)
            ratios.append(n_cm / n_wr)
        assert max(ratios) / min(ratios) <= 4.0 * apw


def test_heat_carleson_below_classical(rng):
    # the BMO_w -> BMO_{Delta,w} inclusion direction: one fitted constant
    g = Grid(1, 1.0, 128)
    lats = lattice_family(g, 6)
    lat = lats[0]
    w = _w_one(g)
    tg = TimeGrid.geometric(g)
    fitted = 0.0
    for _ in range(8):
        b = random_haar_sum(lat, rng, max_generation=4)
        n_heat = bmo_norm(b, w, "carleson-heat-free", lats, tg=tg)
        n_cl = bmo_norm(b, w, "classical-w", lats)
        fitted = max(fitted, n_heat / n_cl)
    assert fitted <= 10.0


def test_deltaN_of_sidewise_constant(grid64, family64):
    w = _w_one(grid64)
    sgn = from_callable(grid64, lambda x: np.sign(x[..., -1]))
    tg = TimeGrid.geometric(grid64)
    assert bmo_norm(sgn, w, "carleson-heat-neumann", family64, tg=tg) == 0.0
    # contrast: the odd-extension-style classical BMO of sign is positive
    half = restrict(sgn, "upper")
    assert bmo_norm(half, None, "odd-ext-half", family64) > 0.4


def test_deltaN_comparable_to_sides(rng, grid64, family64):
    w = _w_one(grid64)
    lat = family64[0]
    tg = TimeGrid.geometric(grid64)
    ratios = []
    for _ in range(8):
        b = random_haar_sum(lat, rng, max_generation=3)
        n = bmo_norm(b, w, "carleson-heat-neumann", family64, tg=tg)
        (sp,), (sm,) = bmo_deltaN_sides_norms(b.values[None], grid64, w, family64, tg=tg)
        if sp + sm > 0:
            ratios.append(n / (sp + sm))
    assert max(ratios) / min(ratios) <= 10.0


def test_deltaN_sides_norms_need_a_full_space_function(rng, grid64, family64):
    # the sides' even extensions are taken of a full-space function; a half
    # grid holds one side only
    half = grid64.with_domain("upper")
    with pytest.raises(DomainError, match="full-space"):
        bmo_deltaN_sides_norms(rng.standard_normal((2,) + half.shape), half, constant(half, 1.0), family64)


def test_john_nirenberg_report(rng):
    g = Grid(1, 1.0, 64)
    lats = lattice_family(g, 5)
    lat = lats[0]
    # p = 2 (predictor exponent 1) and p = 1.5 (exponent 1/(p-1) = 2), one
    # weight per symbol
    for count, p in ((20, 2.0), (6, 1.5)):
        ws = [GridFunction(g, np.exp(0.4 * rng.standard_normal(g.shape))) for _ in range(count)]
        symbols = random_haar_sums(lat, rng, count, max_generation=3)
        rep = john_nirenberg_report(symbols, g, ws, p, 2.0, lats)
        assert np.isfinite(rep["fitted_C"])
        assert len(rep["rows"]) == count
        for row in rep["rows"]:
            if "rho" in row:
                assert row["rho"] >= 1.0 - 1e-12 and row["p"] == p
    # unweighted special case: rho is the classical L^2/L^1 deviation ratio
    b = random_haar_sum(lat, rng, max_generation=3)
    rep1 = john_nirenberg_report(b.values[None], g, [_w_one(g)], 2.0, 2.0, lats)
    assert 1.0 - 1e-12 <= rep1["rows"][0]["rho"] < 10.0
    # constant symbols are skipped, not crashed on
    rep2 = john_nirenberg_report(np.ones((1,) + g.shape), g, [_w_one(g)], 2.0, 2.0, lats)
    assert rep2["rows"][0].get("skipped")


def test_john_nirenberg_r_range_check(grid64, family64):
    with pytest.raises(ParameterError):
        john_nirenberg_report(np.ones((1,) + grid64.shape), grid64, [_w_one(grid64)], 2.0, 3.0, family64)


@pytest.mark.parametrize("r", [1e30, 1e300])
def test_classical_wr_overflow_raises(r):
    # the norms read inf, weighted or not
    g = Grid(1, 1.0, 64)
    lats = lattice_family(g, 4)
    stack = 10.0 * random_haar_sums(lats[0], np.random.default_rng(0), 2, max_generation=3)
    for w in (None, power_weight(g, 0.5)):
        with pytest.raises(RangeError, match="left the floating-point range"):
            bmo_norms(stack, g, w, "classical-wr", lats, r=r)


def test_classical_wr_underflow_raises():
    # at r = 1000 the powers of these deviations underflow and the norms read
    # [0., 0.] with no error; r = 400 stays a number
    g = Grid(1, 1.0, 64)
    lats = lattice_family(g, 4)
    stack = 0.1 * random_haar_sums(lats[0], np.random.default_rng(0), 2, max_generation=3)
    assert np.all(bmo_norms(stack, g, None, "classical-wr", lats, r=400.0) > 0.2)
    with pytest.raises(RangeError, match="r = 1000.0 underflow"):
        bmo_norms(stack, g, None, "classical-wr", lats, r=1000.0)
    # a constant row has no deviation to underflow
    assert bmo_norms(np.zeros((1, 64)), g, None, "classical-wr", lats, r=1000.0)[0] == 0.0


def test_odd_extension_strict_inclusion():
    # log(x_n): bounded half-space BMO, exploding odd-extension BMO
    vals = {}
    for N in (128, 256):
        g = Grid(1, 1.0, N)
        lats = lattice_family(g, int(np.log2(N)) - 1)
        gu = g.with_domain("upper")
        b0 = GridFunction(gu, np.log(gu.axis_coords(0)))
        vals[N] = (
            bmo_norm(b0, None, "unweighted-half", lats),
            bmo_norm(b0, None, "odd-ext-half", lats),
        )
    assert abs(vals[256][0] - vals[128][0]) <= 0.2 * vals[128][0]
    assert vals[256][1] - vals[128][1] >= 0.5


def test_even_ext_flavor(rng, grid64, family64):
    gu = grid64.with_domain("upper")
    f = GridFunction(gu, rng.standard_normal(gu.shape))
    w = constant(gu, 1.0)
    val = bmo_norm(f, w, "even-ext-half", family64)
    assert val > 0
    with pytest.raises(DomainError):
        bmo_norm(constant(grid64, 1.0), w, "even-ext-half", family64)


def test_dyadic_local_bmo(rng, grid64, lat64):
    b = random_haar_sum(lat64, rng, max_generation=3)
    q0 = DyadicCube(0, (0,))
    child = DyadicCube(1, (0,))
    full = dyadic_local_bmo(b, lat64, q0)
    sub = dyadic_local_bmo(b, lat64, child)
    assert sub <= full * (1 + 1e-12)


def test_deltaN_classical_norm(rng, grid64, family64):
    lat = family64[0]
    b = random_haar_sum(lat, rng, max_generation=3)
    v = bmo_deltaN_classical_norm(b, family64)
    assert v > 0
    assert bmo_deltaN_classical_norm(constant(grid64, 2.0), family64) == 0.0


def test_carleson_heat_2d_smoke(rng):
    g = Grid(2, 1.0, 16)
    lats = lattice_family(g, 3)
    lat = lats[0]
    w = constant(g, 1.0)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0, steps_per_octave=4)
    b = random_haar_sum(lat, rng, max_generation=2)
    n_free = bmo_norm(b, w, "carleson-heat-free", lats, tg=tg)
    n_neu = bmo_norm(b, w, "carleson-heat-neumann", lats, tg=tg)
    n_cl = bmo_norm(b, w, "classical-w", lats)
    assert n_free > 0 and n_neu > 0 and n_cl > 0
    assert n_free / n_cl < 10.0
    assert bmo_norm(constant(g, 3.0), w, "carleson-heat-neumann", lats, tg=tg) == 0.0


def test_carleson_haar_equals_bmo2_unit_weight_exactly(rng, grid64, lat64):
    # with w = 1 and a single-cell-deep lattice, subtree Parseval makes the
    # Haar Carleson norm and the dyadic BMO_2 norm the same number
    w = _w_one(grid64)
    b = GridFunction(grid64, rng.standard_normal(grid64.shape))
    n_cm = bmo_norm(b, w, "carleson-haar", lat64)
    n_wr = bmo_norm(b, w, "classical-wr", [lat64], r=2.0)
    assert abs(n_cm - n_wr) <= 1e-10 * n_wr


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bmo_norms_of_a_stack_equal_the_per_row_loop(data):
    # every flavor, 1D and 2D, the unshifted lattice with any subset of the
    # 1/3-shifted ones; the half flavors run on either half grid, where the
    # unweighted-half scan masks the other half with NaN
    dim = data.draw(st.sampled_from([1, 2]))
    N = data.draw(st.sampled_from([8, 16, 32] if dim == 1 else [8, 16]))
    g = Grid(dim, 1.0, N)
    family = lattice_family(g, data.draw(st.integers(1, int(np.log2(N)) - 1)))
    shifted = data.draw(st.lists(st.booleans(), min_size=len(family) - 1, max_size=len(family) - 1))
    lats = [family[0]] + [lat for lat, keep in zip(family[1:], shifted) if keep]
    flavor = data.draw(st.sampled_from(CLASSICAL_FLAVORS + CARLESON_FLAVORS + HALF_FLAVORS))
    gf = g.with_domain(data.draw(st.sampled_from(["upper", "lower"]))) if flavor in HALF_FLAVORS else g
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((data.draw(st.integers(1, 4)),) + gf.shape)
    if data.draw(st.booleans()):
        values[0] = 1.5
    w = GridFunction(gf, np.exp(0.5 * rng.standard_normal(gf.shape)))
    r = data.draw(st.floats(1.0, 3.0))
    tg = TimeGrid.geometric(g)
    got = bmo_norms(values, gf, w, flavor, lats, r=r, tg=tg)
    assert got.tolist() == [bmo_norm(GridFunction(gf, v), w, flavor, lats, r=r, tg=tg) for v in values]
