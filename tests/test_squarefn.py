from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.fft import irfftn, next_fast_len, rfftn
from operator_oracles import phi_op, qt_op
from tree_oracles import generation_of_scale, haar_function, slab_times
from scipy.signal import fftconvolve

from wharm.atoms import atomic_decompose
from wharm.bmo import bmo_norm
from wharm.dyadic import DyadicCube, build_lattice, lattice_family, random_haar_sum, random_haar_sums
from wharm.errors import DomainError, GridAlignmentError, ParameterError
from wharm.grid import Grid, GridFunction, constant, extend_even, join_sides, restrict
from wharm.squarefn import (
    ConeSpec,
    TimeGrid,
    _fast_length,
    _radial_spectra,
    _radial_sums,
    area_function,
    g_star,
    haar_square_function,
    hardy_norm,
)
from wharm.weights import power_weight


@pytest.fixture
def tg256():
    g = Grid(1, 1.0, 256)
    return g, TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0)


def test_zero_input(tg256):
    g, tg = tg256
    S = area_function(constant(g, 0.0), "qt", ConeSpec("free"), tg)
    assert np.all(S.values == 0.0)
    assert np.all(g_star(constant(g, 0.0), "qt", 3, tg).values == 0.0)


def test_homogeneity(tg256, rng):
    g, tg = tg256
    f = GridFunction(g, rng.standard_normal(g.shape))
    S1 = area_function(f, "qt", ConeSpec("free"), tg)
    S2 = area_function(GridFunction(g, -2.5 * f.values), "qt", ConeSpec("free"), tg)
    assert np.max(np.abs(S2.values - 2.5 * S1.values)) <= 1e-12 * np.max(S1.values)


def test_l2_multiplier_oracle(tg256):
    # ||S f||_2 / ||f||_2 -> (v_1 int_0^inf s^4 e^{-2 s^2} ds/s)^{1/2} = 1/2
    g, tg = tg256
    x = g.points()[..., 0]
    f = GridFunction(g, np.exp(-((x / 0.08) ** 2)))
    S = area_function(f, "qt", ConeSpec("free"), tg)
    ratio = np.sqrt(np.sum(S.values ** 2)) / np.sqrt(np.sum(f.values ** 2))
    assert abs(ratio - 0.5) <= 0.05


def test_neumann_band_and_failure_of_pointwise_halving(tg256, rng):
    # True pointwise band: sqrt(1/2) S(f_{+,e}) <= S_N(f) <= S(f_{+,e}) on the
    # upper half-space.  The halving step that would force the left inequality
    # to an equality swaps the cone vertex for its reflection, so exact
    # equality fails for generic data (checked in the acceptance suite).
    g, tg = tg256
    f = GridFunction(g, rng.standard_normal(g.shape))
    sn = area_function(f, "qt", ConeSpec("neumann"), tg)
    sf = area_function(extend_even(restrict(f, "upper")), "qt", ConeSpec("free"), tg)
    up = g.points()[..., 0] > 0
    lo = np.sqrt(0.5) * sf.values[up]
    assert np.all(sn.values[up] >= lo * (1 - 1e-12))
    assert np.all(sn.values[up] <= sf.values[up] * (1 + 1e-12))


def test_neumann_cone_oracle_and_split_identity(rng):
    # brute-force oracle for the Neumann cone plus the exact bookkeeping
    # S_free(f_{+,e})(x)^2 = U(x) + U(x~) with U(z) the upper-restricted cone
    # integral at vertex z (the Neumann square function is U on the upper side)
    from wharm.operators import apply

    g = Grid(1, 1.0, 64)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0, steps_per_octave=4)
    f = GridFunction(g, rng.standard_normal(g.shape))
    fpe = extend_even(restrict(f, "upper"))
    x = g.points()[..., 0]
    up = x > 0
    U = np.zeros(g.shape)
    for t in tg.t_values:
        u2 = apply(qt_op("free", t), fpe).values ** 2
        for i in range(len(x)):
            ball = np.abs(x - x[i]) < t
            U[i] += u2[ball & up].sum() * g.h * tg.log_weight / t
    sn = area_function(f, "qt", ConeSpec("neumann"), tg)
    sf = area_function(fpe, "qt", ConeSpec("free"), tg)
    scale = np.max(sf.values ** 2)
    # Neumann square function equals U on the upper half (oracle agreement)
    assert np.max(np.abs(sn.values[up] ** 2 - U[up])) <= 1e-10 * scale
    # and the full cone splits exactly into the two reflected upper parts
    split = U + np.flip(U)
    assert np.max(np.abs(split - sf.values ** 2)) <= 1e-10 * scale


def test_heaviside_cone_locality(tg256, rng):
    g, tg = tg256
    f1 = GridFunction(g, rng.standard_normal(g.shape))
    bump = np.where(g.points()[..., 0] < 0, rng.standard_normal(g.shape), 0.0)
    f2 = GridFunction(g, f1.values + bump)
    s1 = area_function(f1, "qt", ConeSpec("neumann"), tg)
    s2 = area_function(f2, "qt", ConeSpec("neumann"), tg)
    up = g.points()[..., 0] > 0
    assert np.max(np.abs(s1.values[up] - s2.values[up])) <= 1e-12


def test_gstar_dominates_cone(tg256, rng):
    g, tg = tg256
    h = GridFunction(g, rng.standard_normal(g.shape))
    S = area_function(h, "qt", ConeSpec("free"), tg)
    for lam, n in ((3, 1),):
        Gs = g_star(h, "qt", lam * n, tg)
        c = 2.0 ** (-3 * n / 2.0)
        assert np.all(Gs.values >= c * S.values * (1 - 1e-6))


def test_gstar_weighted_bound_fitted(rng):
    # ||G*(h)||_{L^{p'}_{w'}} <= C ||h||_{L^{p'}_{w'}}: fitted C over a suite
    g = Grid(1, 1.0, 128)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0)
    w = power_weight(g, 0.25)
    wc = GridFunction(g, w.values ** (-1.0))  # conjugate at p = 2
    fitted = 0.0
    for _ in range(5):
        h = GridFunction(g, rng.standard_normal(g.shape))
        Gs = g_star(h, "qt", 4, tg)
        num = np.sum(Gs.values ** 2 * wc.values) ** 0.5
        den = np.sum(h.values ** 2 * wc.values) ** 0.5
        fitted = max(fitted, num / den)
    assert np.isfinite(fitted) and fitted <= 8.0


def test_hardy_norm_zero(tg256):
    g, tg = tg256
    w = constant(g, 1.0)
    assert hardy_norm(constant(g, 0.0), "heat-free", w, tg=tg) == 0.0


def test_hardy_norm_takes_a_grid_function_weight(tg256, rng):
    g, tg = tg256
    f = GridFunction(g, rng.standard_normal(g.shape))
    w = power_weight(g, 0.5)
    for flavor in ("heat-free", "heat-neumann", ("classical", 1)):
        assert hardy_norm(f, flavor, w.values, tg=tg) == hardy_norm(f, flavor, w, tg=tg)


def test_hardy_norm_reads_none_as_the_unit_weight_and_rejects_a_misshaped_one(tg256):
    g, tg = tg256
    f = GridFunction(g, np.sin(np.pi * g.axis_coords(0)))
    assert hardy_norm(f, "heat-free", None, tg=tg) == hardy_norm(f, "heat-free", np.ones(g.shape), tg=tg)
    with pytest.raises(DomainError):
        hardy_norm(f, "heat-free", np.ones(g.points_per_axis // 2), tg=tg)


def test_hardy_flavor_band(rng):
    # HeatFree vs Classical(LoG) on random Haar sums: one fitted band, C/c <= 20
    g = Grid(1, 1.0, 256)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0)
    lat = build_lattice(g, 8)
    w = constant(g, 1.0)
    ratios = []
    for _ in range(12):
        b = random_haar_sum(lat, rng, max_generation=4)
        n1 = hardy_norm(b, "heat-free", w, tg=tg)
        n2 = hardy_norm(b, ("classical", 1), w, tg=tg)
        ratios.append(n1 / n2)
    assert max(ratios) / min(ratios) <= 20.0


def test_hardy_neumann_sidewise_band(tg256, rng):
    # ||S_N f||_{L^1_w} against the side-wise free norms: the pointwise band
    # makes the ratio land in [sqrt(1/2), 1] exactly
    g, tg = tg256
    f = GridFunction(g, rng.standard_normal(g.shape))
    w = constant(g, 1.0)
    n_neu = hardy_norm(f, "heat-neumann", w, tg=tg)
    h = g.h
    up = g.points()[..., 0] > 0
    fpe = extend_even(restrict(f, "upper"))
    fme = extend_even(restrict(f, "lower"))
    sp = area_function(fpe, "qt", ConeSpec("free"), tg)
    sm = area_function(fme, "qt", ConeSpec("free"), tg)
    side_sum = float(np.sum(sp.values[up]) * h + np.sum(sm.values[~up]) * h)
    ratio = n_neu / (np.sqrt(0.5) * side_sum)
    assert 1.0 - 1e-12 <= ratio <= np.sqrt(2.0) + 1e-12


def test_haar_square_function_constant_detection(grid64, lat64):
    # S_psi(f) = 0 iff f is constant on the base cube
    assert np.all(haar_square_function(constant(grid64, 5.0), lat64).values == 0.0)
    h = haar_function(lat64, DyadicCube(2, (1,)), (0,))
    S = haar_square_function(h, lat64)
    assert np.max(S.values) > 0


def test_haar_hardy_norm_runs(grid64, lat64, rng):
    w = constant(grid64, 1.0)
    b = random_haar_sum(lat64, rng, max_generation=3)
    val = hardy_norm(b, "haar", w, lattice=lat64)
    assert val > 0


def test_time_grid_validation(grid64):
    with pytest.raises(ParameterError):
        TimeGrid.geometric(grid64, t_min=grid64.h / 4)
    with pytest.raises(ParameterError):
        TimeGrid.geometric(grid64, t_max=5.0 * grid64.halfwidth)
    for t_min, t_max in ((0.5, 0.1), (0.5, 0.5)):
        with pytest.raises(ParameterError):
            TimeGrid.geometric(grid64, t_min=t_min, t_max=t_max)
    tg = TimeGrid.geometric(grid64, t_min=2 * grid64.h, t_max=1.0, steps_per_octave=4)
    # geometric spacing with log-weight ln2/M
    assert abs(tg.t_values[4] / tg.t_values[0] - 2.0) <= 1e-12
    assert abs(tg.log_weight - np.log(2) / 4) <= 1e-15


@pytest.mark.parametrize(
    "bounds",
    [
        pytest.param({"t_min": np.nan}, id="nan"),
        pytest.param({"t_max": np.inf}, id="inf"),
        pytest.param({"t_min": 0.0}, id="zero"),
        pytest.param({"t_min": -0.1}, id="negative"),
        pytest.param({"t_min": 1e-6}, id="below-h"),
        pytest.param({"t_min": 100.0}, id="past-2L"),
        pytest.param({"t_max": 100.0}, id="t_max-past-2L"),
        pytest.param({"t_min": 0.2, "t_max": 0.1}, id="decreasing"),
        pytest.param({"t_min": 0.1, "t_max": 0.1}, id="repeated"),
        pytest.param({"t_min": [0.1, 0.2]}, id="array"),
        pytest.param({"steps_per_octave": 0}, id="no-steps"),
        pytest.param({"steps_per_octave": -2}, id="negative-steps"),
        pytest.param({"steps_per_octave": 2.5}, id="fractional-steps"),
    ],
)
def test_time_grid_rejects_bad_bounds(grid64, bounds):
    # geometric is the one constructor: its bounds keep every scale finite,
    # increasing and in [h, 2L] of its grid
    with pytest.raises(ParameterError):
        TimeGrid.geometric(grid64, **bounds)


@pytest.mark.parametrize("t_values", [[0.1, 0.2], [100.0], [1e-6]], ids=repr)
def test_a_time_grid_of_scales_alone_is_refused(t_values):
    # TimeGrid(t_values, steps_per_octave) held no grid: scales of 100 or
    # 1e-6 on a unit box gave heat Carleson and Hardy norms of 0.0
    with pytest.raises(ParameterError, match=r"^a TimeGrid is built by TimeGrid\.geometric"):
        TimeGrid(np.array(t_values), 1)


def _probe(g):
    return GridFunction(g, random_haar_sums(lattice_family(g, 4)[0], np.random.default_rng(0), 1, max_generation=3)[0])


def _carleson(f, tg):
    return bmo_norm(f, None, "carleson-heat-free", lattice_family(f.grid, 4), tg=tg)


def _hardy(f, tg):
    return hardy_norm(f, "heat-free", None, tg)


@pytest.mark.parametrize("grid, other, call", [
    (Grid(1, 10.0, 64), Grid(1, 1.0, 64), _carleson),
    (Grid(1, 10.0, 64), Grid(1, 1.0, 64), _hardy),
    (Grid(1, 1.0, 64), Grid(1, 1.0, 256), _hardy),
], ids=["carleson-wider", "hardy-wider", "hardy-finer"])
def test_a_time_grid_of_another_grid_gives_no_number(grid, other, call):
    # each gave another number with no error: 0.2428 for 0.3857, 4.670 for
    # 6.880 and 0.7556 for 0.6880
    f = _probe(grid)
    assert call(f, TimeGrid.geometric(grid)) == call(f, None)
    with pytest.raises(GridAlignmentError, match="^a time grid on Grid"):
        call(f, TimeGrid.geometric(other))


def test_a_time_grid_with_no_scale_in_a_slab_is_refused():
    # scales in [h, 2h] lie in no Whitney slab of generations 0..4 on 64
    # cells: the heat Carleson norm was 0.0 and the decomposition ended in
    # a raw ValueError
    g = Grid(1, 1.0, 64)
    f, tg = _probe(g), TimeGrid.geometric(g, t_min=g.h, t_max=2 * g.h)
    with pytest.raises(ParameterError, match=r"^no scale of the time grid \[0.03125, 0.0625\] .* generations 0\.\.4$"):
        bmo_norm(f, None, "carleson-heat-free", lattice_family(g, 4), tg=tg)
    with pytest.raises(ParameterError, match=r"generations 0\.\.1$"):
        atomic_decompose(f, None, build_lattice(g, 1), tg)


def test_empty_time_grid_no_longer_gives_zero_square_function(grid64):
    # an empty grid used to return S = 0 without an error
    with pytest.raises(ParameterError):
        area_function(constant(grid64, 1.0), "qt", ConeSpec("free"), TimeGrid(np.array([]), 8))


def test_time_grid_octaves_cover_the_scales_in_order(grid64):
    tg = TimeGrid.geometric(grid64, t_min=2 * grid64.h, t_max=1.0, steps_per_octave=3)
    runs = tg.octaves()
    assert all(len(r) == 3 for r in runs[:-1]) and 1 <= len(runs[-1]) <= 3
    assert np.array_equal(np.concatenate(runs), tg.t_values)


@pytest.mark.parametrize("steps", [1, 2, 3, 4, 8, 16])
@pytest.mark.parametrize("dim", [1, 2])
def test_slabs_match_both_per_scale_rules(dim, steps):
    # the scales of each cube's slab (ell/2, ell] and the generation whose
    # slab holds each scale give the same slabs, on grids of every size
    for N, L, cells in product([8 << i for i in range(10)], [0.5, 1.0, 2.0, 3.0, 64.0], [1.0, 2.0, 3.0]):
        g = Grid(dim, L, N)
        top = int(np.log2(N))
        tg = TimeGrid.geometric(g, t_min=cells * g.h, t_max=2.0 * L, steps_per_octave=steps)
        slabs = tg.slabs(top)
        per_cube = [(k, slab_times(tg, 2.0 * L * 2.0 ** -k)) for k in range(top + 1)]
        assert [k for k, _ in slabs] == [k for k, ts in per_cube if ts.size]
        assert all(np.array_equal(ts, dict(per_cube)[k]) for k, ts in slabs)
        owner = [generation_of_scale(g, t, top) for t in tg.t_values]
        assert [(k, ts.tolist()) for k, ts in slabs] == [
            (k, [t for t, o in zip(tg.t_values, owner) if o == k]) for k in sorted(set(owner) - {None})
        ]


def _per_scale_ball_sums(field, g, t):
    # the per-scale fftconvolve ball sum that the batched radial sums replaced
    N = g.points_per_axis
    if g.dim == 1:
        r = max(min(int(np.ceil(t / g.h)) - 1, N - 1), 0)
        k = np.ones(2 * r + 1)
        return np.convolve(field, k, mode="same") if k.size <= 3 else fftconvolve(field, k, mode="same")
    off = np.arange(-(N - 1), N)
    dx, dy = np.meshgrid(off, off, indexing="ij")
    return fftconvolve(field, ((dx ** 2 + dy ** 2) * g.h ** 2 < t * t).astype(float), mode="same")


def _per_scale_gstar_sums(field, g, t, lam):
    off = np.arange(-(g.points_per_axis - 1), g.points_per_axis) * g.h
    d = np.abs(off) if g.dim == 1 else np.sqrt(sum(m ** 2 for m in np.meshgrid(off, off, indexing="ij")))
    return fftconvolve(field, (t / (t + d)) ** lam, mode="same")


def _per_scale_square_function(f, generator, cone, tg, lam=None):
    from wharm.operators import apply

    g = f.grid
    acc = np.zeros(g.shape)
    for t in tg.t_values:
        op = phi_op(t, beta=1) if generator != "qt" else qt_op(cone, t)
        field = apply(op, f).values ** 2
        if lam is not None:
            acc += _per_scale_gstar_sums(field, g, t, lam) / t ** g.dim
        elif cone == "free":
            acc += _per_scale_ball_sums(field, g, t) / t ** g.dim
        else:
            up = _per_scale_ball_sums(join_sides(field, 0.0, g), g, t)
            lo = _per_scale_ball_sums(join_sides(0.0, field, g), g, t)
            acc += join_sides(up, lo, g) / t ** g.dim
    acc *= tg.log_weight * g.cell_volume
    return np.sqrt(np.maximum(acc, 0.0))


@pytest.mark.parametrize("dim,N", [(1, 128), (1, 256), (2, 16), (2, 32), (2, 64)])
@pytest.mark.parametrize("generator,cone", [("qt", "free"), ("qt", "neumann"), (("phi", 1), "free")])
def test_area_function_matches_the_per_scale_loop(dim, N, generator, cone, rng):
    # the batched radial sums against one apply and one fftconvolve per scale;
    # the FFT lengths differ, so agreement is to rounding, not bit for bit
    g = Grid(dim, 1.0, N)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0, steps_per_octave=4)
    f = GridFunction(g, rng.standard_normal(g.shape))
    want = _per_scale_square_function(f, generator, cone, tg)
    got = area_function(f, generator, ConeSpec(cone), tg).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize("dim,N", [(1, 256), (2, 32), (2, 64)])
def test_gstar_matches_the_per_scale_loop(dim, N, rng):
    g = Grid(dim, 1.0, N)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0, steps_per_octave=4)
    f = GridFunction(g, rng.standard_normal(g.shape))
    want = _per_scale_square_function(f, "qt", "free", tg, lam=3 * dim)
    got = g_star(f, "qt", 3 * dim, tg).values
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


@pytest.mark.parametrize("dim,N", [(1, 96), (2, 16), (2, 24)])
@pytest.mark.parametrize("cone", ["free", "neumann"])
def test_area_function_matches_direct_cone_sums(dim, N, cone, rng):
    # brute force: at every vertex, sum the squared field over the cells whose
    # centres lie strictly inside the disk of radius t (on the vertex's side
    # for the Neumann cone), one vertex and one scale at a time
    from wharm.operators import apply

    g = Grid(dim, 1.0, N)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0, steps_per_octave=4)
    f = GridFunction(g, rng.standard_normal(g.shape))
    cells = np.indices(g.shape).reshape(dim, -1).T
    upper = (g.points()[..., -1] > 0).ravel()
    fields = [apply(qt_op(cone, t), f).values.ravel() ** 2 for t in tg.t_values]
    acc = np.zeros(len(cells))
    for i, c in enumerate(cells):
        d = cells - c
        side = upper == upper[i] if cone == "neumann" else True
        for t, field in zip(tg.t_values, fields):
            disk = np.abs(d[:, 0]) < t / g.h if dim == 1 else (d ** 2).sum(axis=1) * g.h ** 2 < t * t
            acc[i] += field[disk & side].sum() / t ** dim
    want = np.sqrt(acc * tg.log_weight * g.cell_volume).reshape(g.shape)
    got = area_function(f, "qt", ConeSpec(cone), tg).values
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)


@pytest.mark.parametrize("dim,N", [(1, 64), (2, 32), (2, 24)])
@pytest.mark.parametrize("cells_per_t", [2, 4])
def test_radial_sums_of_a_delta_is_the_old_ball(dim, N, cells_per_t):
    # a unit mass at a corner, an edge or the centre spreads over exactly the
    # per-scale ball: nothing wraps around through the circular padding
    g = Grid(dim, 1.0, N)
    t = cells_per_t * g.h
    for cell in ((0,) * dim, (N - 1,) * dim, (N // 2,) * dim, (0,) + (N // 3,) * (dim - 1)):
        delta = np.zeros(g.shape)
        delta[cell] = 1.0
        want = np.round(_per_scale_ball_sums(delta, g, t))
        got = _radial_sums(delta[None], g, np.array([t]), [1.0])
        assert np.array_equal(np.round(got), want) and np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("N", [48, 64, 96, 256])
@pytest.mark.parametrize("dim", [1, 2])
def test_ball_supports_match_the_old_rule_at_every_geometric_scale(dim, N):
    # unit masses at opposite corners read the kernel at every offset that two
    # box cells span, positive and negative; the old rule, per dimension:
    # |d| <= ceil(t/h) - 1 in 1D and |d|^2 h^2 < t^2 in 2D
    g = Grid(dim, 1.0, N)
    d = np.indices(g.shape)
    for ts in TimeGrid.geometric(g).octaves():
        for corner in (0, N - 1):
            delta = np.zeros(g.shape)
            delta[(corner,) * dim] = 1.0
            stack = np.broadcast_to(delta, (len(ts),) + g.shape)
            for t, onehot in zip(ts, np.eye(len(ts))):
                row = _radial_sums(stack, g, ts, onehot)
                if dim == 1:
                    ball = d[0] <= max(min(int(np.ceil(t / g.h)) - 1, N - 1), 0)
                else:
                    ball = (d ** 2).sum(axis=0) * g.h ** 2 < t * t
                ball = np.flip(ball) if corner else ball
                assert np.array_equal(np.round(row), ball) and np.max(np.abs(row - ball)) <= 1e-12


def _scipy_radial_sums(fields, g, ts, lam=None):
    # the scipy.fft radial sums that numpy.fft replaced: the same wrapped
    # kernels on the same padded length, transformed by scipy.fft
    n, N, h = g.dim, g.points_per_axis, g.h
    r_max = N - 1 if lam is not None else min(int(np.ceil(ts[-1] / h)), N - 1)
    P = next_fast_len(N + r_max, real=True)
    o = np.minimum(np.arange(P), P - np.arange(P))
    mesh = np.meshgrid(*[o] * n, indexing="ij", sparse=True)
    d = o * h if n == 1 else np.sqrt(sum((m * h) ** 2 for m in mesh))
    kern = np.zeros((len(ts),) + (P,) * n)
    for k, t in zip(kern, ts):
        if lam is not None:
            k[...] = (t / (t + d)) ** lam
        elif n == 1:
            k[o < np.ceil(t / h)] = 1.0
        else:
            k[sum(m ** 2 for m in mesh) * h ** 2 < t * t] = 1.0
    axes = tuple(range(-n, 0))
    F = rfftn(fields, s=(P,) * n, axes=axes) * rfftn(kern, axes=axes).real
    return irfftn(F, s=(P,) * n, axes=axes)[(...,) + (slice(N),) * n]


def test_fast_length_is_the_real_next_fast_len():
    # the least 5-smooth integer >= n, as scipy.fft picks real transform lengths
    assert [_fast_length(n) for n in range(1, 4097)] == [next_fast_len(n, real=True) for n in range(1, 4097)]


@pytest.mark.parametrize("dim,N", [(1, 96), (1, 256), (2, 16), (2, 24), (2, 64)])
@pytest.mark.parametrize("gstar", [False, True])
def test_radial_sums_match_the_scipy_fft_copy(dim, N, gstar, rng):
    # every octave of a geometric time grid, ball kernels and the g* profile
    g = Grid(dim, 1.0, N)
    lam = 3 * dim if gstar else None
    for ts in TimeGrid.geometric(g, steps_per_octave=4).octaves():
        fields = rng.standard_normal((len(ts),) + g.shape) ** 2
        want = _scipy_radial_sums(fields, g, ts, lam)
        got = np.array([_radial_sums(fields, g, ts, onehot, lam) for onehot in np.eye(len(ts))])
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _per_scale_radial_sums(fields, g, ts, lam=None):
    # the radial sums before the octave's scales were added on the half
    # spectrum: the same forward transform and kernel spectra, one inverse
    # transform per scale
    n, N = g.dim, g.points_per_axis
    r_max = N - 1 if lam is not None else min(int(np.ceil(ts[-1] / g.h)), N - 1)
    P = _fast_length(N + r_max)
    axes = tuple(range(-n, 0))
    F = np.fft.rfftn(fields, s=(P,) * n, axes=axes)
    F *= _radial_spectra(n, g.h, tuple(ts), P, lam)
    return np.fft.irfftn(F, s=(P,) * n, axes=axes)[(...,) + (slice(N),) * n]


@pytest.mark.parametrize("dim,N", [(1, 128), (1, 256), (2, 32), (2, 64)])
@pytest.mark.parametrize("gstar", [False, True])
def test_one_hot_weights_give_the_per_scale_sums_bit_for_bit(dim, N, gstar, rng):
    # a zero weight adds zeros on the half spectrum, so one octave's sum with
    # a one-hot weight is that scale's own inverse transform
    g = Grid(dim, 1.0, N)
    lam = 3 * dim if gstar else None
    for ts in TimeGrid.geometric(g).octaves():
        fields = rng.standard_normal((len(ts),) + g.shape) ** 2
        want = _per_scale_radial_sums(fields, g, ts, lam)
        for onehot, row in zip(np.eye(len(ts)), want):
            assert np.array_equal(_radial_sums(fields, g, ts, onehot, lam), row)


@pytest.mark.parametrize("dim,N", [(1, 128), (1, 256), (2, 32), (2, 64)])
@pytest.mark.parametrize("kernel,side", [("ball", "free"), ("ball", "upper"), ("ball", "lower"), ("gstar", "free")])
def test_weighted_octave_sums_match_the_per_scale_loop(dim, N, kernel, side, rng):
    # the t^-n weighted octave sums of the free cone, of the two one-sided
    # stacks a Neumann cone sums, and of g*, against one fftconvolve per scale
    g = Grid(dim, 1.0, N)
    lam = 3 * dim if kernel == "gstar" else None
    for ts in TimeGrid.geometric(g).octaves():
        fields = rng.standard_normal((len(ts),) + g.shape) ** 2
        if side != "free":
            fields = join_sides(fields, 0.0, g) if side == "upper" else join_sides(0.0, fields, g)
        want = np.zeros(g.shape)
        for t, field in zip(ts, fields):
            per_scale = _per_scale_ball_sums(field, g, t) if lam is None else _per_scale_gstar_sums(field, g, t, lam)
            want += per_scale / t ** dim
        got = _radial_sums(fields, g, ts, 1.0 / ts ** dim, lam)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want)


def test_cached_kernel_spectra_are_read_only():
    g = Grid(2, 1.0, 16)
    ts = tuple(TimeGrid.geometric(g).octaves()[0])
    spectra = _radial_spectra(2, g.h, ts, 24, None)
    assert spectra is _radial_spectra(2, g.h, ts, 24, None)
    assert not spectra.flags.writeable
    with pytest.raises(ValueError):
        spectra[0] = 0.0


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_neumann_band_on_random_data(data):
    # sqrt(1/2) S_free(f_{+,e}) <= S_N(f) <= S_free(f_{+,e}) on the upper half;
    # values are 0 or of modulus 1e-300 to 1e3: each side is scaled by a power
    # of two near its maximum before squaring, so no square goes subnormal
    dim = data.draw(st.sampled_from([1, 2]))
    N = data.draw(st.sampled_from([8, 16, 32] if dim == 1 else [8, 12, 16]))
    g = Grid(dim, 1.0, N)
    value = st.one_of(st.just(0.0), st.floats(1e-300, 1e3), st.floats(-1e3, -1e-300))
    f = GridFunction(g, data.draw(arrays(np.float64, g.shape, elements=value)))
    tg = TimeGrid.geometric(g, steps_per_octave=data.draw(st.integers(1, 4)))
    sn = area_function(f, "qt", ConeSpec("neumann"), tg).values
    sf = area_function(extend_even(restrict(f, "upper")), "qt", ConeSpec("free"), tg).values
    up = g.points()[..., -1] > 0
    slack = 1e-12 * max(np.max(sf), np.finfo(float).tiny)
    assert np.all(sn[up] >= np.sqrt(0.5) * sf[up] - slack)
    assert np.all(sn[up] <= sf[up] + slack)


def test_neumann_band_holds_for_a_tiny_single_cell():
    # one cell of 2.18e-156 on 8^2 with one step per octave: unscaled, its
    # fields square to subnormal numbers and S_N exceeded S_free(f_{+,e}) by
    # 4.1e-9 of the maximum
    g = Grid(2, 1.0, 8)
    v = np.zeros(g.shape)
    v[2, 5] = 2.18e-156
    f = GridFunction(g, v)
    tg = TimeGrid.geometric(g, steps_per_octave=1)
    sn = area_function(f, "qt", ConeSpec("neumann"), tg).values
    sf = area_function(extend_even(restrict(f, "upper")), "qt", ConeSpec("free"), tg).values
    up = g.points()[..., -1] > 0
    slack = 1e-12 * np.max(sf)
    assert np.all(sn[up] >= np.sqrt(0.5) * sf[up] - slack)
    assert np.all(sn[up] <= sf[up] + slack)


def test_square_functions_scale_by_powers_of_two_exactly(rng):
    # S is 1-homogeneous and runs on f scaled near unit size by a power of
    # two, so scaling f by 2^k scales S by 2^k bit for bit, tiny data included
    g = Grid(2, 1.0, 16)
    f = rng.standard_normal(g.shape)
    tg = TimeGrid.geometric(g, steps_per_octave=2)
    for k in (-520, -60, 40):
        scaled = GridFunction(g, np.ldexp(f, k))
        for cone in ("free", "neumann"):
            want = np.ldexp(area_function(GridFunction(g, f), "qt", ConeSpec(cone), tg).values, k)
            assert np.array_equal(area_function(scaled, "qt", ConeSpec(cone), tg).values, want)
        want = np.ldexp(g_star(GridFunction(g, f), "qt", 2, tg).values, k)
        assert np.array_equal(g_star(scaled, "qt", 2, tg).values, want)


def test_norm_converges_in_time_resolution(rng):
    # doubling the per-octave resolution moves the Hardy norm only slightly
    g = Grid(1, 1.0, 128)
    lat = build_lattice(g, 6)
    b = random_haar_sum(lat, rng, max_generation=3)
    w = constant(g, 1.0)
    vals = []
    for M in (8, 16):
        tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0, steps_per_octave=M)
        vals.append(hardy_norm(b, "heat-free", w, tg=tg))
    assert abs(vals[1] - vals[0]) <= 0.02 * vals[0]


def test_neumann_band_2d(rng):
    g = Grid(2, 1.0, 16)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=1.0, steps_per_octave=4)
    f = GridFunction(g, rng.standard_normal(g.shape))
    sn = area_function(f, "qt", ConeSpec("neumann"), tg)
    sf = area_function(extend_even(restrict(f, "upper")), "qt", ConeSpec("free"), tg)
    up = g.points()[..., -1] > 0
    assert np.all(sn.values[up] >= np.sqrt(0.5) * sf.values[up] * (1 - 1e-12))
    assert np.all(sn.values[up] <= sf.values[up] * (1 + 1e-12))


def test_gstar_and_hardy_2d(rng):
    g = Grid(2, 1.0, 16)
    tg = TimeGrid.geometric(g, t_min=2 * g.h, t_max=0.5, steps_per_octave=4)
    f = GridFunction(g, rng.standard_normal(g.shape))
    S = area_function(f, "qt", ConeSpec("free"), tg)
    Gs = g_star(f, "qt", 6, tg)
    assert np.all(Gs.values >= 2.0 ** -3.0 * S.values * (1 - 1e-6))
    w = constant(g, 1.0)
    assert hardy_norm(f, "heat-neumann", w, tg=tg) > 0


@pytest.mark.parametrize("beta", [1.7, True, -3, None], ids=["1.7", "True", "-3", "missing"])
def test_a_classical_order_is_an_integer_at_least_zero(tg256, rng, beta):
    # 1.7 and True gave the beta = 1 norm, -3 a misleading non-finite error
    # and a missing order a raw IndexError
    g, tg = tg256
    f = GridFunction(g, rng.standard_normal(g.shape))
    flavor = ("classical",) if beta is None else ("classical", beta)
    with pytest.raises(ParameterError, match="^beta must"):
        hardy_norm(f, flavor, None, tg=tg)
    assert hardy_norm(f, ("classical", np.int64(1)), None, tg=tg) == hardy_norm(f, ("classical", 1), None, tg=tg)


@pytest.mark.parametrize("lam", [2.9, 0.5, 0, True], ids=["2.9", "0.5", "0", "True"])
def test_a_g_star_exponent_is_an_integer_at_least_one(tg256, rng, lam):
    # 2.9 computed lambda = 2 and 0.5 lambda = 0
    g, tg = tg256
    f = GridFunction(g, rng.standard_normal(g.shape))
    with pytest.raises(ParameterError, match="^lambda_exponent must"):
        g_star(f, "qt", lam, tg)
    assert np.array_equal(g_star(f, "qt", np.int64(2), tg).values, g_star(f, "qt", 2, tg).values)
