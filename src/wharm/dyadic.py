"""Dyadic lattices, Haar system, Haar coefficients, weighted maximal function.

A lattice is the full dyadic tree under the base cube [-L, L]^n, generations
0..max_generation, optionally translated by a whole number of grid cells per
axis (the grid-aligned stand-in for the 1/3-trick).  Translated cubes wrap
around the box periodically, matching the periodic convention of the Fourier
backend; as cell sets they keep the dyadic nesting property.

Every sum over lattice cubes goes through one block view.  A cell array
rolled by -shift_cells and cut along each axis into 2^k runs of N/2^k cells
holds the generation-k cubes as blocks: ``lat.blocks(arr, k)[index]`` lists
the cells of the cube with that index.  Reducing over the last axis gives
the sum, mean or minimum of every cube of a generation at once, and
``lat.spread`` puts per-cube values back on the cells.  The view acts on the
last grid.dim axes of an array, so a stack of functions (S, *grid.shape)
is cut row by row in one call, and ``lat.generations`` rolls a shifted
lattice's array once for all of its generations.

The Haar system runs on the same view, one generation at a time:
haar_generation takes every <f, h_Q^eps> of a generation from the sums over
the children, and haar_synthesis, its transpose, puts a generation's
coefficients back on the cells.  Both take leading axes, so a stack of
functions is one call per generation.  random_haar_sums draws a stack of
random Haar sums with one normal draw for the whole stack and one synthesis
per generation; random_haar_sum is its stack of one.  No function here
reads one cube's cells on the full grid: the tests keep that per-cube
geometry (a cube's cell indices, side, coordinate box and mask, one
h_Q^eps) as their reference.

lattices_on is the one rule by which an entry reads a lattice argument: one
lattice or a nonempty family, each lattice on the entry's own grid, so that
a lattice of another grid never cuts a function's cells (GridAlignmentError).

All integrals are exact cell sums (midpoint rule), so cube masses and Haar
coefficients are bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .errors import GridAlignmentError, ParameterError
from .grid import FULL, Grid, GridFunction, is_integer, weight_cells

SHIFT_NAMES = {"none": 0, "third": 1, "two_thirds": 2}


@dataclass(frozen=True)
class DyadicCube:
    """One cube of a lattice: generation k and per-axis index in [0, 2^k)."""

    generation: int
    index: tuple

    def __repr__(self):
        return f"Q(g{self.generation},{list(self.index)})"


def split_blocks(arr: np.ndarray, count: int, dim: int) -> np.ndarray:
    """Cut each of the last dim axes of arr into `count` equal runs: shape
    lead + (count,)*dim + (cells,) for the leading axes lead.

    Entry [..., i] lists the cells of block i in C order (a copy when dim > 1).
    """
    b = arr.ndim - dim
    lead, runs = arr.shape[:b], [size // count for size in arr.shape[b:]]
    split = arr.reshape(lead + tuple(d for run in runs for d in (count, run)))
    order = list(range(b)) + list(range(b, b + 2 * dim, 2)) + list(range(b + 1, b + 2 * dim, 2))
    return split.transpose(order).reshape(lead + (count,) * dim + (math.prod(runs),))


class DyadicLattice:
    """Complete dyadic tree of cubes over a full-space grid."""

    def __init__(self, grid: Grid, max_generation: int, shift=None):
        if grid.domain != FULL:
            raise GridAlignmentError("lattices are built over full-space grids")
        N = grid.points_per_axis
        if not is_integer(max_generation):
            raise ParameterError(f"max_generation must be an integer, got {max_generation!r}")
        if max_generation < 0 or N % (1 << max_generation) != 0:
            raise GridAlignmentError(f"2^{max_generation} must divide points_per_axis={N}")
        self.grid = grid
        self.max_generation = max_generation
        if shift is None:
            shift = "none"
        if isinstance(shift, str):
            shift = (shift,) * grid.dim
        labels = tuple(shift) if isinstance(shift, (tuple, list)) else ()
        if len(labels) != grid.dim or not all(isinstance(s, str) and s in SHIFT_NAMES for s in labels):
            raise ParameterError(f"shift is one label or {grid.dim} labels of {list(SHIFT_NAMES)}, got {shift!r}")
        self.shift_labels = labels
        self.shift_cells = tuple(SHIFT_NAMES[s] * (N // 3) for s in self.shift_labels)

    @cached_property
    def cubes(self) -> list:
        """Every cube, coarsest generation first, built on first use."""
        return [
            DyadicCube(k, idx)
            for k in range(self.max_generation + 1)
            for idx in product(range(1 << k), repeat=self.grid.dim)
        ]

    # -- geometry ----------------------------------------------------------
    def cells_per_axis(self, generation: int) -> int:
        return self.grid.points_per_axis >> generation

    def measure(self, generation: int) -> float:
        """|Q| of every cube of a generation."""
        return (2.0 * self.grid.halfwidth * 2.0 ** (-generation)) ** self.grid.dim

    # -- tree --------------------------------------------------------------
    def contains(self, outer: DyadicCube, inner: DyadicCube) -> bool:
        """Tree containment inner <= outer (same lattice)."""
        if inner.generation < outer.generation:
            return False
        shift = inner.generation - outer.generation
        return all(i >> shift == o for i, o in zip(inner.index, outer.index))

    # -- block view --------------------------------------------------------
    def _rolled(self, arr: np.ndarray) -> np.ndarray:
        """arr with the lattice's shift undone on its last grid.dim axes."""
        if not any(self.shift_cells):
            return arr
        n = self.grid.dim
        return np.roll(arr, [-s for s in self.shift_cells], axis=tuple(range(-n, 0)))

    def blocks(self, arr: np.ndarray, k: int) -> np.ndarray:
        """Generation-k cubes of a cell array: entry [..., index] lists the cube's cells.

        The cube index and the cells are the last grid.dim axes of arr; leading
        axes (a stack of functions) ride along, and each row is cut exactly as
        it would be alone.  On the unshifted lattice the result may be a view
        of arr; read it only.
        """
        return split_blocks(self._rolled(arr), 1 << k, self.grid.dim)

    def generations(self, arr: np.ndarray):
        """blocks(arr, k) for k = 0..max_generation, from one roll of arr."""
        rolled = self._rolled(arr)
        for k in range(self.max_generation + 1):
            yield split_blocks(rolled, 1 << k, self.grid.dim)

    def spread(self, per_cube: np.ndarray, k: int) -> np.ndarray:
        """Cell array holding each generation-k cube's value on the cube's cells.

        per_cube holds the cube index on its last grid.dim axes; leading axes
        ride along.
        """
        N = self.grid.points_per_axis
        m = self.cells_per_axis(k)
        return per_cube[(...,) + np.ix_(*(((np.arange(N) - s) % N) // m for s in self.shift_cells))]


def build_lattice(grid: Grid, max_generation: int, shift=None) -> DyadicLattice:
    """Build the complete dyadic tree; shift is one label of {none, third,
    two_thirds} for every axis, or one per axis (ParameterError otherwise)."""
    return DyadicLattice(grid, max_generation, shift)


def lattices_on(lattices, grid: Grid = None, one: bool = False) -> list:
    """The lattice argument of an entry as a list, the one rule by which every
    entry reads its lattices: one DyadicLattice or, unless one is set, a
    nonempty iterable of them (ParameterError), each on grid itself, by
    default the first lattice's grid (GridAlignmentError naming both grids).
    The lattices are not copied."""
    lats = [lattices] if isinstance(lattices, DyadicLattice) else [] if one else list(lattices)
    if not lats or not all(isinstance(lat, DyadicLattice) for lat in lats):
        raise ParameterError(f"needs {'one DyadicLattice' if one else 'one or more DyadicLattices'}, "
                             f"got {lattices!r:.60}")
    grid = grid or lats[0].grid
    for lat in lats:
        if lat.grid != grid:
            raise GridAlignmentError(f"a lattice on {lat.grid} read on {grid}")
    return lats


def lattice_family(grid: Grid, max_generation: int = None):
    """Unshifted plus all per-axis 1/3-shifted lattices (3^n in total), to
    max_generation, by default the finest whose cubes hold two cells.

    Supremum-type quantities (A^p, BMO) scan this family as the grid-aligned
    proxy for 'all cubes'.
    """
    if max_generation is None:
        max_generation = int(np.log2(grid.points_per_axis)) - 1
    return [DyadicLattice(grid, max_generation, labels)
            for labels in product(("none", "third", "two_thirds"), repeat=grid.dim)]


# ---------------------------------------------------------------------------
# Haar system.  Signatures are tuples in {0,1}^n minus all-ones; component 0
# is the cancellative factor (left minus right), component 1 the normalized
# indicator.  Haar functions attach to cubes of generation < max_generation.

def signatures(dim: int):
    return [s for s in product((0, 1), repeat=dim) if s != (1,) * dim]


def _haar_signs(dim: int) -> np.ndarray:
    """Sign of each child (C order of its offsets) in h_Q^eps, one row per signature."""
    return np.array([
        [(-1.0) ** sum(o for o, s in zip(off, sig) if s == 0) for off in product((0, 1), repeat=dim)]
        for sig in signatures(dim)
    ])


def haar_generation(values: np.ndarray, lat: DyadicLattice, k: int) -> np.ndarray:
    """<f, h_Q^eps> for every generation-k cube Q (k < max_generation).

    Shape lead + (2^k,)*n + (number of signatures,) for values of shape
    lead + grid shape; the half-cube sums of Q are the sums over its
    generation-(k+1) children.
    """
    g = lat.grid
    children = split_blocks(lat.blocks(values, k + 1).sum(axis=-1), 1 << k, g.dim)
    scale = (lat.cells_per_axis(k) * g.h) ** (-g.dim / 2.0) * g.cell_volume
    return children @ _haar_signs(g.dim).T * scale


def haar_coefficients(f: GridFunction, lat: DyadicLattice) -> dict:
    """All <f, h_Q^eps> by exact cell sums; keys (cube, signature)."""
    lattices_on(lat, f.grid, one=True)
    sigs = signatures(f.grid.dim)
    coeffs = {}
    for k in range(lat.max_generation):
        c = haar_generation(f.values, lat, k)
        for idx in np.ndindex(c.shape[:-1]):
            for sig, val in zip(sigs, c[idx].tolist()):
                coeffs[(DyadicCube(k, idx), sig)] = val
    return coeffs


def haar_synthesis(coeffs: np.ndarray, lat: DyadicLattice, k: int, out: np.ndarray = None) -> np.ndarray:
    """Add sum_Q sum_eps c[Q, eps] h_Q^eps over the generation-k cubes into out.

    The transpose of haar_generation: coeffs has the shape lead + (2^k,)*n +
    (number of signatures,), and out the shape lead + grid shape; leading
    axes (a stack of functions) ride along, each row as it would alone.
    Each signature's coefficients times its _haar_signs row and the cube
    scale land on the generation-(k+1) children, which lat.spread puts on
    the cells.  Signatures are added one at a time, so a caller going
    generation by generation adds each cell's terms in the order of a loop
    over lat.cubes and signatures.  out defaults to zeros and is returned.
    """
    g = lat.grid
    m = lat.cells_per_axis(k)
    if m < 2:
        raise GridAlignmentError("cube has a single cell per axis; no Haar function")
    n, count = g.dim, 1 << k
    lead = coeffs.shape[: coeffs.ndim - n - 1]
    if out is None:
        out = np.zeros(lead + g.shape)
    scale = (m * g.h) ** (-n / 2.0)
    # axes (cube index per axis, child offset per axis) interleaved per axis
    # give the child's generation-(k+1) index 2 i + o
    b = len(lead)
    order = list(range(b)) + [b + a for axis in range(n) for a in (axis, n + axis)]
    for c, signs in zip(np.moveaxis(coeffs, -1, 0), _haar_signs(n)):
        children = (c[..., None] * (signs * scale)).reshape(lead + (count,) * n + (2,) * n)
        out += lat.spread(children.transpose(order).reshape(lead + (2 * count,) * n), k + 1)
    return out


def random_haar_sums(lat: DyadicLattice, rng, count: int, weight=None, max_generation=None) -> np.ndarray:
    """count random finite Haar sums over the generations below
    max_generation, as a stack of shape (count, *grid.shape).

    Each coefficient is a standard normal times sqrt|Q| <weight>_Q (times
    sqrt|Q| without a weight); weight is read on the lattice's grid by
    grid.weight_cells.  All coefficients are one draw with a row per sum,
    in the order (generation, cube index, signature): the stream of count
    successive random_haar_sum calls, which leaves rng in the same state.
    Each generation's std is computed once, and one haar_synthesis call per
    generation serves the whole stack.
    """
    g = lat.grid
    wcells = None if weight is None else weight_cells(weight, g)
    top = lat.max_generation if max_generation is None else min(max_generation, lat.max_generation)
    shapes = [(1 << k,) * g.dim + (len(signatures(g.dim)),) for k in range(top)]
    sizes = [math.prod(shape) for shape in shapes]
    draws = np.split(rng.standard_normal((count, sum(sizes))), np.cumsum(sizes)[:-1], axis=1)
    vals = np.zeros((count,) + g.shape)
    for k, (shape, drawn) in enumerate(zip(shapes, draws)):
        measure = lat.measure(k)
        std = np.sqrt(measure)
        if wcells is not None:
            # <weight>_Q = weight(Q) / |Q| from the block sums
            std = std * (lat.blocks(wcells, k).sum(axis=-1) * g.cell_volume / measure)[..., None]
        haar_synthesis(drawn.reshape((count,) + shape) * std, lat, k, vals)
    return vals


def random_haar_sum(lat: DyadicLattice, rng, weight=None, max_generation=None) -> GridFunction:
    """One random finite Haar sum: the stack of one of random_haar_sums.

    Its coefficients are one standard normal each, in the order
    (generation, cube index, signature), the stream of one scalar draw per
    coefficient.
    """
    return GridFunction(lat.grid, random_haar_sums(lat, rng, 1, weight, max_generation)[0])


def weighted_maximal(g: GridFunction, w, lat: DyadicLattice) -> GridFunction:
    """Dyadic weighted Hardy-Littlewood maximal function over the lattice cubes.

    (M_w g)(x) = max over cubes Q containing x of w(Q)^{-1} sum_Q |g| w h^n.
    w is read by grid.weight_cells and lat by lattices_on.
    """
    lattices_on(lat, g.grid, one=True)
    wv = weight_cells(w, g.grid)
    return GridFunction(g.grid, maximal_cells(np.abs(g.values) * wv, wv, lat))


def maximal_cells(num: np.ndarray, wv: np.ndarray, lat: DyadicLattice) -> np.ndarray:
    """weighted_maximal on cell arrays, num = |g| wv for the weight's cells wv;
    leading axes of num (a stack of functions) ride along, each row as alone."""
    out = np.zeros(num.shape)
    for k, (nums, ws) in enumerate(zip(lat.generations(num), lat.generations(wv))):
        out = np.maximum(out, lat.spread(nums.sum(axis=-1) / ws.sum(axis=-1), k))
    return out
