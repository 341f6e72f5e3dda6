import json
from itertools import product

import numpy as np
import pytest
from tree_oracles import cell_indices, extent, haar_function, haar_reconstruct, mask
from weight_oracles import cube_average

from wharm.dyadic import (
    DyadicCube,
    build_lattice,
    haar_coefficients,
    random_haar_sum,
    signatures,
    weighted_maximal,
)
from wharm.errors import GridAlignmentError, ParameterError, WeightError
from wharm.grid import Grid, GridFunction, constant
from wharm.weights import one_sided_power_weight


def test_lattice_counts():
    g = Grid(1, 1.0, 8)
    assert len(build_lattice(g, 3).cubes) == 15  # 1 + 2 + 4 + 8
    g2 = Grid(2, 1.0, 8)
    assert len(build_lattice(g2, 2).cubes) == 21  # 1 + 4 + 16


def test_cubes_are_built_on_first_use_in_generation_order():
    for g, shift in ((Grid(1, 1.0, 16), "third"), (Grid(2, 1.0, 16), ("none", "two_thirds"))):
        lat = build_lattice(g, 3, shift)
        assert "cubes" not in vars(lat)
        want = [DyadicCube(k, idx) for k in range(4) for idx in product(range(1 << k), repeat=g.dim)]
        assert lat.cubes == want and lat.cubes is lat.cubes


def test_shifted_lattice_count_matches():
    g = Grid(1, 1.0, 12)
    assert len(build_lattice(g, 2, "third").cubes) == len(build_lattice(g, 2).cubes)


def test_shift_is_one_label_or_one_per_axis():
    # a one-label tuple on a 2D grid was rolled onto both axes and labelled
    # ["third"] while holding the ("third", "third") lattice; an unknown label
    # raised a raw KeyError and three labels a raw ValueError
    g = Grid(2, 1.0, 16)
    assert build_lattice(g, 3, "third").shift_labels == ("third", "third")
    assert build_lattice(g, 3, ["none", "third"]).shift_cells == (0, 5)
    for shift in (("third",), "bogus", ("none", "bogus"), ("third", "none", "none"), 1):
        with pytest.raises(ParameterError, match="shift"):
            build_lattice(g, 3, shift)


def test_max_generation_is_an_integer():
    # True built a 3-cube lattice of generation True, and 2.5 raised a raw
    # TypeError from 1 << 2.5
    g = Grid(1, 1.0, 16)
    for bad in (True, False, 2.5, 2.0, "2", None, np.float64(2.0)):
        with pytest.raises(ParameterError, match="max_generation"):
            build_lattice(g, bad)
    # an integer read from JSON and a numpy integer build the same lattice
    assert build_lattice(g, json.loads("2")).cubes == build_lattice(g, np.int64(2)).cubes
    assert len(build_lattice(g, np.int32(2)).cubes) == 7


def test_alignment_error():
    g = Grid(1, 1.0, 12)
    with pytest.raises(GridAlignmentError):
        build_lattice(g, 3)  # 8 does not divide 12


def test_haar_orthonormality():
    g = Grid(1, 1.0, 16)
    lat = build_lattice(g, 4)
    hs = [
        (c, s, haar_function(lat, c, s))
        for c in lat.cubes
        if c.generation < lat.max_generation
        for s in signatures(1)
    ]
    for i, (c1, s1, h1) in enumerate(hs):
        for c2, s2, h2 in hs[i:]:
            ip = np.sum(h1.values * h2.values) * g.cell_volume
            expect = 1.0 if (c1, s1) == (c2, s2) else 0.0
            assert abs(ip - expect) <= 1e-12


def test_haar_orthonormality_2d():
    g = Grid(2, 1.0, 8)
    lat = build_lattice(g, 2)
    hs = [
        (c, s, haar_function(lat, c, s))
        for c in lat.cubes
        if c.generation < lat.max_generation
        for s in signatures(2)
    ]
    rng = np.random.default_rng(5)
    idx = rng.integers(0, len(hs), size=(60, 2))
    for i, j in idx:
        c1, s1, h1 = hs[i]
        c2, s2, h2 = hs[j]
        ip = np.sum(h1.values * h2.values) * g.cell_volume
        expect = 1.0 if (c1, s1) == (c2, s2) else 0.0
        assert abs(ip - expect) <= 1e-12


def test_constant_has_zero_coefficients():
    g = Grid(1, 1.0, 16)
    lat = build_lattice(g, 4)
    co = haar_coefficients(constant(g, 7.0), lat)
    assert max(abs(c) for c in co.values()) <= 1e-13


def test_haar_function_coefficient_is_delta():
    g = Grid(1, 1.0, 16)
    lat = build_lattice(g, 4)
    q0 = DyadicCube(0, (0,))
    h0 = haar_function(lat, q0, (0,))
    co = haar_coefficients(h0, lat)
    for (cube, sig), c in co.items():
        expect = 1.0 if (cube, sig) == (q0, (0,)) else 0.0
        assert abs(c - expect) <= 1e-12


def test_reconstruction_and_parseval(rng):
    for n, N, gen in ((1, 64, 6), (2, 16, 4)):
        g = Grid(n, 1.0, N)
        lat = build_lattice(g, gen)
        f = GridFunction(g, rng.standard_normal(g.shape))
        co = haar_coefficients(f, lat)
        mean = float(f.values.mean())
        rec = haar_reconstruct(co, lat, mean)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(rec.values - f.values)) <= 1e-10 * scale
        par = sum(c * c for c in co.values())
        l2 = float(np.sum((f.values - mean) ** 2) * g.cell_volume)
        assert abs(par - l2) <= 1e-10 * l2


def test_nestedness_including_shifted():
    g = Grid(1, 1.0, 16)
    for shift in ("none", "third", "two_thirds"):
        lat = build_lattice(g, 3, shift)
        masks = [frozenset(np.nonzero(mask(lat, c).reshape(-1))[0]) for c in lat.cubes]
        for i, mi in enumerate(masks):
            for mj in masks[i + 1:]:
                inter = mi & mj
                assert inter in (frozenset(), mi, mj)


def test_maximal_constant(grid64, lat64):
    w = constant(grid64, 1.0)
    m = weighted_maximal(constant(grid64, -3.0), w, lat64)
    assert np.allclose(m.values, 3.0, rtol=0, atol=1e-14)


def test_maximal_indicator(grid64, lat64):
    # g = 1_Q for a generation-1 cube: M g = 1 on Q, >= |Q|/|Q0| elsewhere
    w = constant(grid64, 1.0)
    q = DyadicCube(1, (0,))
    ind = GridFunction(grid64, mask(lat64, q).astype(float))
    m = weighted_maximal(ind, w, lat64)
    on = mask(lat64, q)
    assert np.all(m.values[on] == 1.0)
    assert np.all(m.values[~on] >= 0.5 - 1e-14)


def test_maximal_brute_force_oracle(rng):
    g = Grid(1, 1.0, 32)
    lat = build_lattice(g, 5)
    gfun = GridFunction(g, rng.standard_normal(g.shape))
    w = GridFunction(g, np.exp(rng.standard_normal(g.shape)))
    m = weighted_maximal(gfun, w, lat)
    # oracle: per point, loop over every cube containing it
    for i in range(0, 32, 3):
        best = 0.0
        for cube in lat.cubes:
            cells = cell_indices(lat, cube)[0]
            if i in cells:
                num = np.sum(np.abs(gfun.values[cells]) * w.values[cells])
                den = np.sum(w.values[cells])
                best = max(best, num / den)
        assert abs(m.values[i] - best) <= 1e-12 * best


def test_maximal_dominates_cube_averages(rng):
    g = Grid(1, 1.0, 32)
    lat = build_lattice(g, 4)
    gfun = GridFunction(g, rng.standard_normal(g.shape))
    w = GridFunction(g, np.exp(0.5 * rng.standard_normal(g.shape)))
    m = weighted_maximal(gfun, w, lat)
    for cube in lat.cubes:
        cells = cell_indices(lat, cube)[0]
        avg = np.sum(gfun.values[cells] * w.values[cells]) / np.sum(w.values[cells])
        assert np.all(m.values[cells] >= abs(avg) - 1e-12)


def test_maximal_half_mass_tie_is_exact():
    # w depends on x_2 only and Omega is the half x_1 < 0, so every cell of
    # x_1 > 0 sees the base cube's average w(Omega)/w(Q) = 1/2 exactly; the
    # threshold M_w 1_Omega > 1/2 (atoms' Omega~) must not catch these cells
    for N in (16, 32, 64):
        g = Grid(2, 1.0, N)
        ind = np.zeros(g.shape)
        ind[: N // 2] = 1.0
        m = weighted_maximal(GridFunction(g, ind), one_sided_power_weight(g, 0.5), build_lattice(g, 3))
        assert np.all(m.values[N // 2:] == 0.5)
        assert np.all(m.values[: N // 2] == 1.0)


def test_maximal_rejects_nonpositive_weight(grid64, lat64):
    with pytest.raises(WeightError):
        weighted_maximal(constant(grid64, 1.0), constant(grid64, 0.0), lat64)


def test_weighted_bmo_coefficient_bound(rng):
    # |<b, h_Q>| <= 4 sqrt|Q| <w>_Q ||b||_{BMO_D(w)} on random instances
    from wharm.bmo import bmo_norm

    g = Grid(1, 1.0, 32)
    lat = build_lattice(g, 5)
    for _ in range(10):
        b = random_haar_sum(lat, rng, max_generation=3)
        w = GridFunction(g, np.exp(0.6 * rng.standard_normal(g.shape)))
        norm = bmo_norm(b, w, "classical-w", [lat])
        if norm == 0:
            continue
        co = haar_coefficients(b, lat)
        for (cube, sig), c in co.items():
            bound = 4.0 * np.sqrt(lat.measure(cube.generation)) * cube_average(w, lat, cube) * norm
            assert abs(c) <= bound * (1 + 1e-9)


def test_blocks_wrapped_cube(rng):
    arr = rng.standard_normal((8, 8))
    lat = build_lattice(Grid(2, 1.0, 8), 2, ("third", "none"))
    # shift 8 // 3 = 2 cells: generation-1 cube (1, 0) covers rows
    # [6, 6+4) mod 8 = {6,7,0,1} and columns {0,1,2,3}
    cells = lat.blocks(arr, 1)[1, 0]
    expect = arr[np.ix_([6, 7, 0, 1], [0, 1, 2, 3])]
    assert np.array_equal(cells, expect.reshape(-1))
    assert abs(cells.sum() - expect.sum()) <= 1e-12


def test_extent_is_the_cube_box_or_none_when_wrapped():
    for dim, N, shift in ((1, 24, "third"), (1, 24, "two_thirds"), (2, 12, ("third", "none"))):
        g = Grid(dim, 1.0, N)
        lat = build_lattice(g, 2, shift)
        for cube in lat.cubes:
            idx = cell_indices(lat, cube)
            ext = extent(lat, cube)
            if any(np.any(np.diff(i) != 1) for i in idx):
                assert ext is None
                continue
            lo, hi = ext
            assert np.allclose(lo, [-1.0 + i[0] * g.h for i in idx], rtol=0, atol=1e-15)
            assert np.allclose(hi, [-1.0 + (i[-1] + 1) * g.h for i in idx], rtol=0, atol=1e-15)
