"""The Carleson heat scan against per-scale, per-slab loops.

The oracle adds each Whitney slab's block sums one scale at a time and reads
each lattice's box sums slab by slab, rebuilding the cube ranges of every
top generation from scratch (``sums_inside``).  bmo_norms gathers all box
sums of a lattice through one cached plan and adds scales and slabs with one
call each, in the same order, so the norms agree bit for bit.
"""

from itertools import product

import numpy as np
import pytest

from wharm.bmo import _two_period_prefix, bmo_norms
from wharm.dyadic import build_lattice, lattice_family
from wharm.grid import Grid, GridFunction
from wharm.operators import apply_scales
from wharm.squarefn import TimeGrid


def sums_inside(prefix, lat, js):
    """For each generation j of js, the sum of a per-cube table of one
    unshifted generation over the unshifted cubes inside each generation-j
    cube P of lat, shape lead + (2^j,)*n, from the table's two-period prefix.

    Axis by axis, the cubes inside P form the periodic index range
    [ceil(s/m), floor((s+M)/m)) for P's first cell s, P's side M and the
    table's cube side m (all in cells); each box is summed from the prefix
    table's 2^n corners over the outer product of the per-axis ranges.
    """
    N = lat.grid.points_per_axis
    m = 2 * N // (prefix.shape[-1] - 1)
    counts = [1 << j for j in js]
    sides = [lat.cells_per_axis(j) for j in js]
    ranges = []
    for shift in lat.shift_cells:
        start = np.concatenate([(shift + M * np.arange(c)) % N for M, c in zip(sides, counts)])
        lo = -(-start // m)
        hi = np.maximum((start + np.repeat(sides, counts)) // m, lo)
        ranges.append((hi, lo))
    n = len(ranges)
    out = 0.0
    for corner in product((0, 1), repeat=n):
        # corner[a] = 1 takes the low end on axis a, with sign -1
        index = (...,) + tuple(r[c].reshape((-1,) + (1,) * (n - 1 - a)) for a, (r, c) in enumerate(zip(ranges, corner)))
        out = out - prefix[index] if sum(corner) % 2 else out + prefix[index]
    ends = np.cumsum(counts)
    return [out[(...,) + (slice(e - c, e),) * n] for e, c in zip(ends, counts)]


def oracle_carleson_heat(values, grid, warr, lats, tg, neumann):
    n, h_n, lw = grid.dim, grid.cell_volume, tg.log_weight
    dyadic = next(lat for lat in lats if not any(lat.shift_cells))
    prefixes = []
    for k, ts in tg.slabs(grid, dyadic.max_generation):
        acc = np.zeros((len(values),) + (1 << k,) * n)
        for t, fields in zip(ts, apply_scales("qt", "neumann" if neumann else "free", ts, values, grid=grid)):
            acc += lw * t ** n * dyadic.blocks(fields ** 2, k).sum(axis=-1) * h_n
        prefixes.append(_two_period_prefix(acc / (dyadic.blocks(warr, k).sum(axis=-1) * h_n), n))
    best = np.zeros(len(values))
    for lat in lats:
        js = [j for j in range(lat.max_generation + 1) if lat.cells_per_axis(j) >= 4]
        inner = {}
        for prefix in prefixes:
            # cubes coarser than P never fit inside it
            fits = [j for j in js if prefix.shape[-1] > 2 << j]
            if fits:
                for j, sums in zip(fits, sums_inside(prefix, lat, fits)):
                    inner[j] = inner.get(j, 0.0) + sums
        for j, wcells in enumerate(lat.generations(warr)):
            if j in inner:
                q = inner[j] / (wcells.sum(axis=-1) * h_n)
                best = np.maximum(best, q.reshape(len(values), -1).max(axis=1, initial=0.0))
    return np.sqrt(best)


def stack(grid, rows, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((rows,) + grid.shape)
    w = GridFunction(grid, np.exp(0.7 * rng.standard_normal(grid.shape)))
    return values, w


def assert_oracle(values, grid, w, lats, tg):
    for neumann in (False, True):
        flavor = "carleson-heat-neumann" if neumann else "carleson-heat-free"
        got = bmo_norms(values, grid, w, flavor, lats, tg=tg)
        want = oracle_carleson_heat(values, grid, w.values, lats, tg, neumann)
        assert got.tolist() == want.tolist(), flavor


CASES = [
    pytest.param(1, 64, None, 1, id="1d-one-row"),
    pytest.param(1, 64, None, 7, id="1d-many-rows"),
    pytest.param(1, 128, 3, 5, id="1d-shallow"),
    pytest.param(2, 16, None, 1, id="2d-one-row"),
    pytest.param(2, 16, 2, 4, id="2d-shallow-many-rows"),
]


@pytest.mark.parametrize("dim,N,max_gen,rows", CASES)
def test_carleson_heat_equals_the_slab_loop_oracle(dim, N, max_gen, rows):
    # the whole family: the unshifted lattice and every 1/3-shifted one
    g = Grid(dim, 1.0, N)
    values, w = stack(g, rows, 7 * dim + rows)
    assert_oracle(values, g, w, lattice_family(g, max_gen), TimeGrid.geometric(g))


@pytest.mark.parametrize("dim,N", [(1, 64), (2, 16)])
def test_coarse_slabs_fit_under_few_tops(dim, N):
    # scales only in the two coarsest slabs: the finest tops hold no slab
    # and the coarser ones only some (k >= j); a single shifted lattice
    g = Grid(dim, 1.0, N)
    values, w = stack(g, 3, 11)
    tg = TimeGrid.geometric(g, t_min=0.3, t_max=1.0)
    assert [k for k, _ in tg.slabs(g, 3)] == [1, 2]
    family = lattice_family(g, 3)
    assert_oracle(values, g, w, [family[0], family[-1]], tg)


def test_same_grid_different_depths_share_no_plan():
    # one process, one N, two max_generation: the cached plan of one depth
    # must not serve the other, also for one shifted lattice under the
    # same slabs (the depth of the unshifted lattice sets the slabs)
    g = Grid(1, 1.0, 128)
    values, w = stack(g, 4, 3)
    tg = TimeGrid.geometric(g)
    for max_gen in (6, 3, 6, 4):
        assert_oracle(values, g, w, lattice_family(g, max_gen), tg)
    dyadic = build_lattice(g, 6)
    for max_gen in (5, 2, 5):
        assert_oracle(values, g, w, [dyadic, build_lattice(g, max_gen, "third")], tg)


@pytest.mark.parametrize("dim,N", [(1, 64), (2, 16)])
def test_a_lone_axis_adds_its_scales_in_loop_order(dim, N):
    # one row and one cube: the coarsest slab (scales up to 2L) holds its 8
    # scales along an axis that is alone, where a pairwise sum rounds
    # differently for some of these rows; the depth-0 lattice makes the norm
    # that cube's own contribution
    g = Grid(dim, 1.0, N)
    tg = TimeGrid.geometric(g, t_max=2.0)
    assert [(k, ts.size) for k, ts in tg.slabs(g, 0)] == [(0, 8)]
    for seed in range(12):
        values, w = stack(g, 1, seed)
        assert_oracle(values, g, w, [build_lattice(g, 0)], tg)


def test_nine_slabs_under_the_coarsest_top():
    # the generation-0 top holds 9 slabs, along an axis that is alone
    g = Grid(1, 1.0, 512)
    values, w = stack(g, 1, 5)
    tg = TimeGrid.geometric(g, t_max=2.0)
    assert len(tg.slabs(g, 8)) == 9
    assert_oracle(values, g, w, lattice_family(g), tg)
