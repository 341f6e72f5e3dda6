"""Per-cube weight quantities the tests check the library against.

cube_average reads one cube's cells through Weight.cube_mass, and the A^p
quotient, the conjugate weight and the Bloom lambda' are built from it cube
by cube; the library itself scans whole generations of the block view.
"""

from wharm.errors import ParameterError
from wharm.grid import GridFunction
from wharm.weights import Weight


def cube_average(w: Weight, lat, cube, s: float = 1.0) -> float:
    """<w^s>_Q = w^s(Q) / |Q|."""
    return w.cube_mass(lat, cube, s) / lat.cell_measure(cube)


def ap_cube_quotient(w: Weight, p: float, lat, cube) -> float:
    """<w>_Q <w^{-1/(p-1)}>_Q^{p-1} for one cube."""
    a = cube_average(w, lat, cube)
    b = cube_average(w, lat, cube, -1.0 / (p - 1.0))
    return a * b ** (p - 1.0)


def conjugate_weight(w: Weight, p: float) -> Weight:
    """w' = w^{1-p'} = w^{-1/(p-1)}."""
    if p <= 1:
        raise ParameterError("conjugate weight needs p > 1")
    return Weight(GridFunction(w.grid, w.array ** (-1.0 / (p - 1.0))))


def lam_conjugate(triple) -> Weight:
    """lambda' = lambda^{-1/(p-1)} of a Bloom WeightTriple."""
    return conjugate_weight(triple.lam, triple.p)
