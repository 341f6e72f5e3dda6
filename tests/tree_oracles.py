"""The dyadic tree one cube at a time, for the oracles that walk it.

The library reads whole generations of the block view and never steps from
a cube to its parent or children; the tests' stack walks and ancestor climbs
do, through these two functions.
"""

from itertools import product

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
