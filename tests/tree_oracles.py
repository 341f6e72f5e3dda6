"""The dyadic tree one cube at a time, for the oracles that walk it.

The library reads whole generations of the block view and never steps from
a cube to its parent or children; the tests' stack walks and ancestor climbs
do, through children and parent.  The library also takes the Whitney slab of
each generation from TimeGrid.slabs; the oracles take it one cube or one
scale at a time, by the two rules it replaced: slab_times (the scales of one
cube's slab) and generation_of_scale (the generation whose slab holds one
scale).
"""

from itertools import product

import numpy as np

from wharm.dyadic import DyadicCube


def children(lat, cube):
    """The 2^n cubes of the next generation inside cube; none at the finest."""
    if cube.generation >= lat.max_generation:
        return []
    return [
        DyadicCube(cube.generation + 1, tuple(2 * i + o for i, o in zip(cube.index, off)))
        for off in product((0, 1), repeat=lat.grid.dim)
    ]


def parent(cube):
    """The cube of the previous generation holding cube; None for the base cube."""
    if cube.generation == 0:
        return None
    return DyadicCube(cube.generation - 1, tuple(i // 2 for i in cube.index))


def slab_times(tg, ell: float):
    """The scales of tg in the Whitney slab (ell/2, ell] of a cube of side ell."""
    ts = tg.t_values
    return ts[(ts > ell / 2.0 + 1e-12 * ell) & (ts <= ell * (1.0 + 1e-12))]


def generation_of_scale(grid, t: float, max_generation: int):
    """The generation k with l_k/2 < t <= l_k, or None outside 0..max_generation."""
    k = int(np.floor(np.log2(2.0 * grid.halfwidth / t) + 1e-9))
    return k if 0 <= k <= max_generation else None
