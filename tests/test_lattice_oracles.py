"""The generation-wise block scans against per-cube loops.

Each oracle walks every cube of every lattice of the full shifted family
(3 lattices in 1D, 9 in 2D) and gathers the cube's cells through
``cell_indices`` or ``mask``; the code under test reduces whole generations
of the block view at once.  Cube sums are taken in another order, so values
agree to a relative 1e-12, not bit for bit.
"""

import numpy as np
import pytest
from operator_oracles import qt_op
from tree_oracles import cell_indices, dyadic_local_bmo, haar_function, mask, parent, sidelength, slab_times

from wharm.atoms import atomic_decompose
from wharm.bmo import CARLESON_FLAVORS, CLASSICAL_FLAVORS, HALF_FLAVORS, bmo_norm
from wharm.dyadic import DyadicCube, lattice_family, signatures, weighted_maximal
from wharm.grid import Grid, GridFunction
from wharm.operators import apply
from wharm.sparse import cz_stopping
from wharm.squarefn import TimeGrid
from wharm.weights import a1_constant, ap_constant

REL = 1e-12


@pytest.fixture(params=[(1, 32, 4), (2, 16, 3)], ids=["1d", "2d"])
def setting(request):
    dim, N, max_gen = request.param
    rng = np.random.default_rng(31 + dim)
    g = Grid(dim, 1.0, N)
    f = GridFunction(g, rng.standard_normal(g.shape))
    w = GridFunction(g, np.exp(0.8 * rng.standard_normal(g.shape)))
    return g, lattice_family(g, max_gen), f, w


def cells(lat, cube):
    return np.ix_(*cell_indices(lat, cube))


def close(a, b):
    return abs(a - b) <= REL * max(abs(a), abs(b))


def oracle_classical(values, warr, lats, r=None):
    best = 0.0
    for lat in lats:
        for cube in lat.cubes:
            v = values[cells(lat, cube)]
            if np.isnan(v).any():
                continue
            dev = np.abs(v - v.mean())
            if r is None:
                den = v.size if warr is None else warr[cells(lat, cube)].sum()
                best = max(best, dev.sum() / den)
            else:
                wv = warr[cells(lat, cube)]
                best = max(best, (np.sum(dev ** r * wv ** (1.0 - r)) / wv.sum()) ** (1.0 / r))
    return best


def test_classical_flavors_match_oracle(setting):
    g, fam, f, w = setting
    assert close(bmo_norm(f, w, "classical-w", fam), oracle_classical(f.values, w.values, fam))
    for r in (1.0, 1.5, 2.0):
        got = bmo_norm(f, w, "classical-wr", fam, r=r)
        assert close(got, oracle_classical(f.values, w.values, fam, r=r))


def test_unweighted_half_skips_cubes_across_the_interface(setting):
    g, fam, f, w = setting
    half = g.points_per_axis // 2
    upper = GridFunction(g.with_domain("upper"), f.values[..., half:])
    marked = np.full(g.shape, np.nan)
    marked[..., half:] = upper.values
    expect = oracle_classical(marked, None, fam)
    assert expect > 0
    assert close(bmo_norm(upper, None, "unweighted-half", fam), expect)


def test_ap_and_a1_match_oracle(setting):
    g, fam, f, w = setting
    ap_best = a1_best = 0.0
    for lat in fam:
        for cube in lat.cubes:
            v = w.values[cells(lat, cube)]
            ap_best = max(ap_best, v.mean() * np.mean(v ** -0.5) ** 2.0)
            a1_best = max(a1_best, v.mean() / v.min())
    assert close(ap_constant(w, 3.0, fam), ap_best)
    assert close(a1_constant(w, fam), a1_best)


def test_dyadic_local_bmo_matches_oracle(setting):
    g, fam, f, w = setting
    lat = fam[-1]  # shifted along every axis, so some cubes wrap
    for q0 in (DyadicCube(0, (0,) * g.dim), DyadicCube(1, (1,) * g.dim)):
        for weighted in (False, True):
            best = 0.0
            for cube in lat.cubes:
                if not lat.contains(q0, cube):
                    continue
                v = f.values[cells(lat, cube)]
                den = w.values[cells(lat, cube)].sum() if weighted else v.size
                best = max(best, np.abs(v - v.mean()).sum() / den)
            got = dyadic_local_bmo(f, lat, q0, w if weighted else None)
            assert close(got, best)


def test_carleson_haar_matches_oracle(setting):
    g, fam, f, w = setting
    h_n = g.cell_volume
    best = 0.0
    for lat in fam:
        contrib = {}
        for cube in lat.cubes:
            energy = 0.0
            if cube.generation < lat.max_generation:
                for sig in signatures(g.dim):
                    c = np.sum(f.values * haar_function(lat, cube, sig).values) * h_n
                    energy += c * c
            contrib[cube] = energy * lat.measure(cube.generation) / (w.values[cells(lat, cube)].sum() * h_n)
        for top in lat.cubes:
            inner = sum(v for q, v in contrib.items() if lat.contains(top, q))
            best = max(best, inner / (w.values[cells(lat, top)].sum() * h_n))
    assert close(bmo_norm(f, w, "carleson-haar", fam), np.sqrt(best))


@pytest.mark.parametrize("neumann", [False, True], ids=["free", "neumann"])
def test_carleson_heat_matches_oracle(setting, neumann):
    g, fam, f, w = setting
    tg = TimeGrid.geometric(g)
    h_n, n = g.cell_volume, g.dim
    dyadic = fam[0]
    assert all(s == 0 for s in dyadic.shift_cells)
    # c_Q over the unshifted cubes, then for each P of each lattice the sum
    # over the unshifted Q whose cells lie inside P's (possibly wrapped) cells
    contrib = {}
    for q in dyadic.cubes:
        total = 0.0
        for t in slab_times(tg, sidelength(dyadic, q)):
            field = apply(qt_op("neumann" if neumann else "free", t), f).values
            total += tg.log_weight * t ** n * np.sum(field[cells(dyadic, q)] ** 2) * h_n
        contrib[q] = total / (w.values[cells(dyadic, q)].sum() * h_n)
    masks = {q: mask(dyadic, q) for q in dyadic.cubes}
    best = 0.0
    for lat in fam:
        for top in lat.cubes:
            if lat.cells_per_axis(top.generation) < 4:
                continue
            inside = mask(lat, top)
            inner = sum(contrib[q] for q, m in masks.items() if not np.any(m & ~inside))
            best = max(best, inner / (w.values[inside].sum() * h_n))
    flavor = "carleson-heat-neumann" if neumann else "carleson-heat-free"
    assert close(bmo_norm(f, w, flavor, fam, tg=tg), np.sqrt(best))


def test_weighted_maximal_matches_oracle(setting):
    g, fam, f, w = setting
    for lat in fam:
        expect = np.zeros(g.shape)
        for cube in lat.cubes:
            m = mask(lat, cube)
            avg = np.sum(np.abs(f.values[m]) * w.values[m]) / np.sum(w.values[m])
            expect[m] = np.maximum(expect[m], avg)
        got = weighted_maximal(f, w, lat).values
        assert np.all(np.abs(got - expect) <= REL * expect)


def test_cz_stopping_matches_oracle(setting):
    g, fam, f, w = setting
    selected = 0
    for lat in fam:
        for q0 in (DyadicCube(0, (0,) * g.dim), DyadicCube(1, (1,) * g.dim)):
            for alpha in (1.3, 2.0):
                fam_q0 = cz_stopping(w, lat, q0, alpha)
                base = w.values[cells(lat, q0)].mean()
                assert close(fam_q0.parent_average, base)
                # a strict subcube of q0 is selected iff its average passes
                # alpha * base and no strict ancestor below q0 passes
                expect = []
                for cube in lat.cubes:
                    if cube == q0 or not lat.contains(q0, cube):
                        continue
                    anc = parent(cube)
                    hit = False
                    while anc != q0:
                        hit = hit or w.values[cells(lat, anc)].mean() > alpha * base
                        anc = parent(anc)
                    if not hit and w.values[cells(lat, cube)].mean() > alpha * base:
                        expect.append(cube)
                assert fam_q0.selected == expect  # both in (generation, index) order
                for cube in expect:
                    assert close(fam_q0.averages[cube], w.values[cells(lat, cube)].mean())
                selected += len(expect)
    assert selected > 0


def _read_only(arr):
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


def test_lattice_scans_accept_read_only_inputs(setting):
    # on the unshifted lattice in 1D the block view is a view of the input
    # itself; a scan that wrote through it would raise here
    g, fam, f, w = setting
    fro = GridFunction(g, _read_only(f.values))
    wro = GridFunction(g, _read_only(w.values))
    half = g.points_per_axis // 2
    gu = g.with_domain("upper")
    f_up, w_up = GridFunction(gu, f.values[..., half:]), GridFunction(gu, w.values[..., half:])
    fro_up, wro_up = GridFunction(gu, _read_only(f_up.values)), GridFunction(gu, _read_only(w_up.values))
    assert ap_constant(wro, 2.0, fam) == ap_constant(w, 2.0, fam)
    for flavor in CLASSICAL_FLAVORS + CARLESON_FLAVORS:
        assert bmo_norm(fro, wro, flavor, fam) == bmo_norm(f, w, flavor, fam), flavor
    for flavor in HALF_FLAVORS:
        assert bmo_norm(fro_up, wro_up, flavor, fam) == bmo_norm(f_up, w_up, flavor, fam), flavor
    for lat in fam:
        assert np.array_equal(weighted_maximal(fro, wro, lat).values, weighted_maximal(f, w, lat).values)
        q0 = DyadicCube(0, (0,) * g.dim)
        assert cz_stopping(wro, lat, q0, 2.0).selected == cz_stopping(w, lat, q0, 2.0).selected
    got, want = atomic_decompose(fro, wro, fam[0]), atomic_decompose(f, w, fam[0])
    assert got.coefficients == want.coefficients
    assert np.array_equal(got.residual.values, want.residual.values)
