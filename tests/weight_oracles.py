"""Per-cube weight quantities the tests check the library against.

cube_mass reads one cube's cells, cube_average divides by |Q|, and the A^p
quotient and the conjugate weight are built from it cube by cube; the
library itself scans whole generations of the block view.
from_callable samples a closed-form test function or weight at the cell
centers, doubling_ratio compares a box's mass with its double's, and
save_binary writes the binary format that grid.load_binary reads.
"""

import json

import numpy as np

from tree_oracles import cell_indices

from wharm.errors import DomainError, ParameterError
from wharm.grid import GridFunction
from wharm.weights import box_cell_ranges


def from_callable(grid, fn) -> GridFunction:
    """Sample a callable f(x) (x an array of shape (..., dim)) at cell centers."""
    return GridFunction(grid, np.asarray(fn(grid.points()), dtype=float).reshape(grid.shape))


def cube_mass(w: GridFunction, lat, cube, s: float = 1.0) -> float:
    """w^s(Q) = sum over Q of w^s * h^n, read from the cells of Q only."""
    cells = w.values[np.ix_(*cell_indices(lat, cube))]
    return float((cells if s == 1.0 else cells ** s).sum()) * w.grid.cell_volume


def cube_average(w: GridFunction, lat, cube, s: float = 1.0) -> float:
    """<w^s>_Q = w^s(Q) / |Q|."""
    return cube_mass(w, lat, cube, s) / lat.measure(cube.generation)


def ap_cube_quotient(w: GridFunction, p: float, lat, cube) -> float:
    """<w>_Q <w^{-1/(p-1)}>_Q^{p-1} for one cube."""
    a = cube_average(w, lat, cube)
    b = cube_average(w, lat, cube, -1.0 / (p - 1.0))
    return a * b ** (p - 1.0)


def conjugate_weight(w: GridFunction, p: float) -> GridFunction:
    """w' = w^{1-p'} = w^{-1/(p-1)}."""
    if p <= 1:
        raise ParameterError("conjugate weight needs p > 1")
    return GridFunction(w.grid, w.values ** (-1.0 / (p - 1.0)))


def doubling_ratio(w, lo, hi) -> float:
    """w(2Q)/w(Q) for the coordinate box Q = prod [lo_a, hi_a], 2Q concentric,
    of a GridFunction weight w: each mass a sum over the box's cells."""
    g = w.grid
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    c = (lo + hi) / 2.0
    lo2, hi2 = c - (hi - lo), c + (hi - lo)
    L = g.halfwidth
    if np.any(lo2 < -L - 1e-12) or np.any(hi2 > L + 1e-12):
        raise DomainError("2Q sticks out of the grid box")

    def mass(a, b):
        box = tuple(slice(*r) for r in box_cell_ranges(g, a, b))
        return float(w.values[box].sum()) * g.cell_volume

    return mass(lo2, hi2) / mass(lo, hi)


def save_binary(f: GridFunction, path: str) -> None:
    """JSON header at `path`, float64 column (C order) at `path` + '.bin'."""
    g = f.grid
    header = {
        "dim": g.dim,
        "halfwidth": g.halfwidth,
        "points_per_axis": g.points_per_axis,
        "domain": g.domain,
        "dtype": "float64",
        "count": int(f.values.size),
    }
    with open(path, "w") as fh:
        json.dump(header, fh, indent=1)
    f.values.astype("<f8").tofile(path + ".bin")
