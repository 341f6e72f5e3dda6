import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from tree_oracles import bmo_deltaN_classical_norm, cell_indices
from weight_oracles import ap_cube_quotient, conjugate_weight, cube_average, cube_mass, doubling_ratio

from wharm.dyadic import build_lattice, lattice_family
from wharm.errors import DomainError, ParameterError, RangeError, WeightError
from wharm.grid import Grid, GridFunction, constant
from wharm.weights import (
    a1_constant,
    ap_constant,
    ap_deltaN_constant,
    ap_quotient_on_box,
    bloom_weight,
    exp_log_bridge,
    log_weight,
    power_weight,
    one_sided_power_weight,
    weight_from_spec,
)

# golden value for [|x|^{1/2}]_{A^2} on L=1, N=256, lattice family depth 7,
# frozen from the exhaustive cube-scan oracle below
GOLDEN_AP_SQRT = 1.3268407394018105


def test_ap_of_one_is_one(family64, grid64):
    w = constant(grid64, 1.0)
    for p in (1.5, 2.0, 3.0):
        assert abs(ap_constant(w, p, family64) - 1.0) <= 1e-14


def test_ap_golden_value_and_oracle():
    g = Grid(1, 1.0, 256)
    lats = lattice_family(g, 7)
    w = power_weight(g, 0.5)
    val = ap_constant(w, 2.0, lats)
    # independent exhaustive scan over every cube of every lattice
    best = 0.0
    for lat in lats:
        for cube in lat.cubes:
            idx = np.ix_(*cell_indices(lat, cube))
            best = max(best, w.values[idx].mean() * (w.values[idx] ** -1.0).mean())
    assert abs(val - best) <= 1e-12 * best
    assert abs(val - GOLDEN_AP_SQRT) <= 1e-12


def test_ap_always_at_least_one(rng, family64, grid64):
    for _ in range(10):
        w = GridFunction(grid64, np.exp(rng.standard_normal(grid64.shape)))
        for p in (1.5, 2.0):
            assert ap_constant(w, p, family64) >= 1.0 - 1e-12


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_ap_and_a1_constants_are_at_least_one(data):
    # on every cube <w> <w^{-1/(p-1)}>^{p-1} >= 1 (Jensen) and <w> >= min w,
    # for random strictly positive weights, lattice families and p in (1, 4]
    dim = data.draw(st.sampled_from([1, 2]))
    N = data.draw(st.sampled_from([4, 8, 16, 32, 64] if dim == 1 else [4, 8, 16]))
    g = Grid(dim, 1.0, N)
    lats = lattice_family(g, data.draw(st.integers(1, int(np.log2(N)) - 1)))
    p = data.draw(st.floats(1.0, 4.0, exclude_min=True))
    # |log w| <= 200 (p - 1) keeps w^{-1/(p-1)} and its cube sums finite
    spread = min(3.0, 200.0 * (p - 1.0))
    logs = data.draw(arrays(np.float64, g.shape, elements=st.floats(-1.0, 1.0)))
    w = GridFunction(g, np.exp(spread * logs))
    assert ap_constant(w, p, lats) >= 1.0 - 1e-12
    assert a1_constant(w, lats) >= 1.0 - 1e-12


def test_one_sided_power_quotient_growth():
    # one-sided power weight: the classical A^p quotient on centered boxes
    # grows ~ a^alpha; the boxes start past the crossover scale of the two
    # power terms (below it the quotient provably dips for any alpha)
    g = Grid(1, 64.0, 4096)
    w = one_sided_power_weight(g, 0.5)
    qs = [ap_quotient_on_box(w, 2.0, [-a], [a]) for a in (8, 16, 32, 64)]
    assert all(qs[i] < qs[i + 1] for i in range(3))
    assert qs[-1] / qs[0] > 1.5


def test_quotient_box_must_lie_within_the_grid():
    # [-5, 5] on a grid of halfwidth 1 was clipped to the grid and returned
    # the whole grid's quotient, 1.21259791332209
    g = Grid(1, 1.0, 16)
    w = power_weight(g, 0.5)
    whole = ap_quotient_on_box(w, 2.0, [-1.0], [1.0])
    assert whole == 1.21259791332209
    for lo, hi in ((-5.0, 5.0), (-1.0, 1.01), (-1.01, 0.5), (np.nan, 0.5)):
        with pytest.raises(DomainError, match="reaches outside the grid"):
            ap_quotient_on_box(w, 2.0, [lo], [hi])
    # a box equal to the grid's extent stays valid, in 2D and on a wide grid
    wide = Grid(2, 64.0, 64)
    assert ap_quotient_on_box(constant(wide, 2.0), 2.0, [-64.0, -64.0], [64.0, 64.0]) == 1.0
    with pytest.raises(DomainError, match="axis 1"):
        ap_quotient_on_box(constant(wide, 2.0), 2.0, [-64.0, -64.0], [64.0, 65.0])


def test_ap_deltaN_of_one_is_two(family64, grid64):
    w = constant(grid64, 1.0)
    assert abs(ap_deltaN_constant(w, 2.0, family64) - 2.0) <= 1e-14


def test_one_sided_power_deltaN_finite_while_classical_grows():
    g = Grid(1, 64.0, 4096)
    lats = lattice_family(g, 6)
    w = one_sided_power_weight(g, 0.5)
    apn = ap_deltaN_constant(w, 2.0, lats)
    # deltaN quotient is stable across the same growing boxes (5% band)
    up = power_weight(g, 0.5)  # = w_{+,e}, exact cell averages
    lo = constant(g, 1.0)  # = w_{-,e}

    def deltaN_quotient(a):
        return ap_quotient_on_box(up, 2.0, [-a], [a]) + ap_quotient_on_box(lo, 2.0, [-a], [a])

    qs = [deltaN_quotient(a) for a in (8, 16, 32, 64)]
    assert max(qs) / min(qs) <= 1.05
    assert np.isfinite(apn)
    classical = [ap_quotient_on_box(w, 2.0, [-a], [a]) for a in (8, 16, 32, 64)]
    assert classical[-1] > classical[0]


def test_classical_weight_in_deltaN_class(family64, grid64):
    w = power_weight(grid64, 0.25)
    ap = ap_constant(w, 2.0, family64)
    apn = ap_deltaN_constant(w, 2.0, family64)
    assert apn <= 2.0 * 2.0 * ap  # [w_{+,e}] + [w_{-,e}] <= 2 C [w]


def test_doubling_of_lebesgue(grid64):
    w = constant(grid64, 1.0)
    assert abs(doubling_ratio(w, [-0.25], [0.25]) - 2.0) <= 1e-14
    g2 = Grid(2, 1.0, 16)
    w2 = constant(g2, 1.0)
    assert abs(doubling_ratio(w2, [-0.25, -0.25], [0.25, 0.25]) - 4.0) <= 1e-14


def test_nondoubling_closed_form_oracle():
    # w = x^{1/2} on x>0, 1 on x<0; Q_b = [b/16, 11b/16]:
    # w(Q_b) = (2/3)((11b/16)^{3/2} - (b/16)^{3/2}), w(2Q_b) = b/4 + (2/3) b^{3/2}
    g = Grid(1, 1.0, 8192)
    w = one_sided_power_weight(g, 0.5)
    for m in (1, 2, 16, 64):
        b = 16 * m * g.h
        got = doubling_ratio(w, [b / 16.0], [11.0 * b / 16.0])
        wq = (2.0 / 3.0) * ((11 * b / 16) ** 1.5 - (b / 16) ** 1.5)
        w2q = b / 4.0 + (2.0 / 3.0) * b ** 1.5
        assert abs(got - w2q / wq) <= 1e-8 * (w2q / wq)
    # ratio exceeds 10 for b small enough
    b = 16 * g.h
    assert doubling_ratio(w, [b / 16.0], [11.0 * b / 16.0]) > 10.0


def test_doubling_out_of_box_raises(grid64):
    w = constant(grid64, 1.0)
    with pytest.raises(DomainError):
        doubling_ratio(w, [0.5], [0.9])  # 2Q sticks out


def test_bounded_ap_implies_bounded_doubling(rng):
    # any w with moderate A^p constant has doubling ratios bounded across
    # random boxes (fitted constant, reported via the assertion cap)
    g = Grid(1, 1.0, 128)
    lats = lattice_family(g, 5)
    for _ in range(5):
        w = GridFunction(g, np.exp(0.4 * rng.standard_normal(g.shape)))
        if ap_constant(w, 2.0, lats) > 10.0:
            continue
        ratios = []
        for _ in range(100):
            c = rng.uniform(-0.4, 0.4)
            r = rng.uniform(2 * g.h, 0.25)
            ratios.append(doubling_ratio(w, [c - r], [c + r]))
        assert max(ratios) <= 64.0


def test_conjugate_weight_cube_identity(rng, grid64):
    lat = build_lattice(grid64, 4)
    w = GridFunction(grid64, np.exp(rng.standard_normal(grid64.shape)))
    for p in (1.5, 2.0, 3.0):
        pp = p / (p - 1.0)
        wc = conjugate_weight(w, p)
        for cube in lat.cubes:
            lhs = ap_cube_quotient(wc, pp, lat, cube)
            rhs = ap_cube_quotient(w, p, lat, cube) ** (pp - 1.0)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)
        # monotone power => the suprema are attained on the same cube
        a1 = ap_constant(wc, pp, [lat])
        a2 = ap_constant(w, p, [lat]) ** (pp - 1.0)
        assert abs(a1 - a2) <= 1e-10 * a2


def test_bloom_chain(rng):
    # (mu(B)/|B|)^{1/p} (lambda'(B)/|B|)^{1/p'} <= C nu(B)/|B| cube-wise
    g = Grid(1, 1.0, 64)
    lat = build_lattice(g, 5)
    fitted = 0.0
    for _ in range(10):
        mu = GridFunction(g, np.exp(0.5 * rng.standard_normal(g.shape)))
        lam = GridFunction(g, np.exp(0.5 * rng.standard_normal(g.shape)))
        nu = bloom_weight(mu, lam, 2.0)
        lamc = conjugate_weight(lam, 2.0)
        for cube in lat.cubes:
            lhs = cube_average(mu, lat, cube) ** 0.5 * cube_average(lamc, lat, cube) ** 0.5
            rhs = cube_average(nu, lat, cube)
            fitted = max(fitted, lhs / rhs)
    assert np.isfinite(fitted)
    assert fitted <= 8.0  # single fitted constant across the suite


def test_bloom_weight_values(rng, grid64):
    mu = GridFunction(grid64, np.exp(rng.standard_normal(grid64.shape)))
    lam = GridFunction(grid64, np.exp(rng.standard_normal(grid64.shape)))
    nu = bloom_weight(mu, lam, 2.5)
    expect = mu.values ** (1 / 2.5) * lam.values ** (-1 / 2.5)
    assert nu.grid == grid64
    assert np.max(np.abs(nu.values - expect) / expect) <= 1e-14


def test_exp_log_bridge_trivial(family64, grid64):
    w = exp_log_bridge(constant(grid64, 0.0), 1.0)
    assert np.all(w.values == 1.0)
    assert abs(ap_deltaN_constant(w, 2.0, family64) - 2.0) <= 1e-14


def test_exp_log_round_trip(grid64):
    w = one_sided_power_weight(grid64, 0.5)
    back = exp_log_bridge(log_weight(w), 1.0)
    assert np.max(np.abs(back.values - w.values) / w.values) <= 1e-12


def test_exp_log_bisection_curve(rng):
    # largest delta in (0, 2] keeping the Neumann A^p constant under 100

    g = Grid(1, 1.0, 64)
    lats = lattice_family(g, 5)
    lat = lats[0]
    from wharm.dyadic import random_haar_sum

    b = random_haar_sum(lat, rng, max_generation=3)
    norm = bmo_deltaN_classical_norm(b, lats)
    b = GridFunction(g, b.values / norm)
    lo, hi = 0.0, 2.0
    for _ in range(20):
        mid = (lo + hi) / 2.0
        try:
            ok = ap_deltaN_constant(exp_log_bridge(b, mid), 2.0, lats) <= 100.0
        except RangeError:
            ok = False
        lo, hi = (mid, hi) if ok else (lo, mid)
    assert lo > 0.0  # some positive delta always works


def test_parameter_errors(grid64, family64):
    w = constant(grid64, 1.0)
    with pytest.raises(ParameterError):
        ap_constant(w, 1.0, family64)
    with pytest.raises(WeightError):
        ap_constant(constant(grid64, 0.0), 2.0, family64)
    with pytest.raises(ParameterError):
        exp_log_bridge(constant(grid64, 1.0), -0.5)
    with pytest.raises(RangeError):
        exp_log_bridge(constant(grid64, 1000.0), 1.0)


def test_a1_constant(grid64, family64):
    w = constant(grid64, 2.0)
    assert abs(a1_constant(w, family64) - 1.0) <= 1e-14
    w2 = power_weight(grid64, -0.5)  # |x|^{-1/2} is A^1
    assert a1_constant(w2, family64) < 10.0


def test_weight_from_spec(grid64, tmp_path, rng):
    assert np.all(weight_from_spec({"kind": "one"}, grid64).values == 1.0)
    assert weight_from_spec({"kind": "power", "alpha": 0.5}, grid64).values.min() > 0
    assert weight_from_spec({"kind": "one-sided-power", "alpha": 0.5}, grid64).values.min() > 0
    assert weight_from_spec({"kind": "prop33", "alpha": 0.5}, grid64).values.min() > 0
    from wharm.grid import save_csv

    f = GridFunction(grid64, np.exp(rng.standard_normal(grid64.shape)))
    path = str(tmp_path / "w.csv")
    save_csv(f, path)
    assert np.array_equal(weight_from_spec({"kind": "grid", "file": path}, grid64).values, f.values)
    with pytest.raises(ParameterError):
        weight_from_spec({"kind": "nope"}, grid64)


@pytest.mark.parametrize("kind", ["grid", "exp_bmo"])
def test_weight_file_on_another_grid_is_rejected(tmp_path, rng, kind):
    from wharm.grid import save_csv

    path = str(tmp_path / "w.csv")
    save_csv(GridFunction(Grid(1, 1.0, 64), np.exp(rng.standard_normal(64))), path)
    for grid in (Grid(1, 1.0, 256), Grid(1, 2.0, 64), Grid(1, 1.0, 64, "upper")):
        with pytest.raises(DomainError, match="lives on"):
            weight_from_spec({"kind": kind, "file": path}, grid)


@pytest.mark.parametrize("spec,key", [
    ({"kind": "power"}, "alpha"),
    ({"kind": "one-sided-power"}, "alpha"),
    ({"kind": "prop33"}, "alpha"),
    ({"kind": "grid"}, "file"),
    ({"kind": "exp_bmo", "delta": 0.5}, "file"),
])
def test_weight_spec_missing_a_key_names_it(grid64, spec, key):
    with pytest.raises(ParameterError, match=repr(key)):
        weight_from_spec(spec, grid64)


@pytest.mark.parametrize("spec,key", [
    ({"kind": "one", "alhpa": 0.5}, "'alhpa'"),
    ({"kind": "power", "alpha": 0.5, "delta": 1.0}, "'delta'"),
    ({"kind": "power", "alpha": "0.5"}, "alpha"),
    ({"kind": "one-sided-power", "alpha": True}, "alpha"),
    ({"kind": "exp_bmo", "file": 3}, "file"),
    ({"kind": "exp_bmo", "file": "b.csv", "delta": "1"}, "delta"),
    ({"kind": ["one"]}, "kind"),
    ({"kind": "cubic"}, "'cubic'"),
    (["one"], "JSON object"),
])
def test_weight_spec_with_a_wrong_key_or_value_names_it(grid64, spec, key):
    # a value has the type of its kind's example value, and a key not of its kind is refused
    with pytest.raises(ParameterError, match=key):
        weight_from_spec(spec, grid64)


def test_weight_spec_integral_alpha_is_its_float(grid64):
    a, b = (weight_from_spec({"kind": "power", "alpha": alpha}, grid64) for alpha in (1, 1.0))
    assert np.array_equal(a.values, b.values)


def test_mass_table_consistency(rng):
    # the per-generation block sums that ap_constant reads, times the cell
    # volume, are the oracle's cube-by-cube masses on every lattice of the
    # family, the shifted ones wrapping around the grid
    for dim, N, depth in ((1, 64, 4), (2, 16, 3)):
        grid = Grid(dim, 1.0, N)
        w = GridFunction(grid, np.exp(rng.standard_normal(grid.shape)))
        for lat in lattice_family(grid, depth):
            masses = [cells.sum(axis=-1) * grid.cell_volume for cells in lat.generations(w.values)]
            for c in lat.cubes:
                want = cube_mass(w, lat, c)
                assert abs(masses[c.generation][c.index] - want) <= 1e-12 * want


def test_exp_bmo_weight_kind(tmp_path, rng, grid64):
    from wharm.grid import save_csv

    b = GridFunction(grid64, 0.3 * rng.standard_normal(grid64.shape))
    path = str(tmp_path / "b.csv")
    save_csv(b, path)
    w = weight_from_spec({"kind": "exp_bmo", "file": path, "delta": 0.7}, grid64)
    assert np.max(np.abs(w.values - np.exp(0.7 * b.values))) <= 1e-15
