"""Muckenhoupt weight classes: classical A^p, the reflection-Neumann class,
the Bloom weight, exp/log bridge.

A weight is a positive function on a grid: a GridFunction, a cell array or
None (the unit weight), and every entry reads it through grid.weight_cells.
The factories return GridFunctions that rule has checked.  The box quotient,
log_weight and bloom_weight place their result on the weight's own grid, so
they take a GridFunction (mu's, for bloom_weight) and nothing else.

Cube masses w(Q) are exact cell sums.  The lattice scans take them one
generation at a time from the block view of the lattice (every cube's sum
or minimum in one reduction), and masses of coordinate boxes are plain
slice sums.  Analytic 1D profiles (power weights and the one-sided power
weight) are sampled as exact cell averages via their antiderivatives, so
masses over cell-aligned boxes coincide with the continuum integrals.
"""

from __future__ import annotations

import numpy as np

from .dyadic import lattices_on
from .errors import DomainError, ParameterError, RangeError, WeightError
from .grid import Grid, GridFunction, checked_config, checked_p, extensions, load, weight_cells


def _checked(w: GridFunction) -> GridFunction:
    """w itself, once grid.weight_cells has found it a weight."""
    weight_cells(w, w.grid)
    return w


def _own_cells(w, entry: str):
    """(cells, grid) of a weight that must carry its own grid."""
    if not isinstance(w, GridFunction):
        raise WeightError(f"{entry} places its result on the weight's own grid: "
                          f"it takes a GridFunction, and a {type(w).__name__} carries no grid")
    return weight_cells(w, w.grid), w.grid


def _finite_power(arr: np.ndarray, s: float) -> np.ndarray:
    out = arr if s == 1.0 else arr ** s
    if not np.all(np.isfinite(out)):
        raise RangeError(f"w^{s} overflows on this grid")
    return out


def bloom_weight(mu, lam, p: float) -> GridFunction:
    """The Bloom weight nu = mu^{1/p} lambda^{-1/p} of mu, lambda in A^p, on
    mu's grid; lambda is read there by grid.weight_cells."""
    p = checked_p(p)
    mu, grid = _own_cells(mu, "bloom_weight")
    return GridFunction(grid, mu ** (1.0 / p) * weight_cells(lam, grid) ** (-1.0 / p))


def ap_constant(w, p: float, lattices) -> float:
    """Dyadic A^p characteristic: sup of the A^p quotient over all supplied
    lattices; p = 1 is a1_constant.  The characteristics take no grid: the
    lattices are held to the first one's grid (dyadic.lattices_on) and w is
    read there (grid.weight_cells)."""
    checked_p(p)
    lats = lattices_on(lattices)
    w1 = weight_cells(w, lats[0].grid)
    w2 = _finite_power(w1, -1.0 / (p - 1.0))
    best = 0.0
    for lat in lats:
        for b1, b2 in zip(lat.generations(w1), lat.generations(w2)):
            q = b1.mean(axis=-1) * b2.mean(axis=-1) ** (p - 1.0)
            best = max(best, float(q.max()))
    return best


def ap_constant_per_lattice(w, p: float, lattices) -> list:
    """[w]_{A^p} computed lattice by lattice (for reports)."""
    return [{"shift": list(lat.shift_labels), "ap": ap_constant(w, p, [lat])} for lat in lattices_on(lattices)]


def a1_constant(w, lattices) -> float:
    """A^1 characteristic with ess-inf taken as the grid minimum over the cube."""
    lats = lattices_on(lattices)
    warr = weight_cells(w, lats[0].grid)
    best = 0.0
    for lat in lats:
        for cells in lat.generations(warr):
            best = max(best, float((cells.mean(axis=-1) / cells.min(axis=-1)).max()))
    return best


def ap_deltaN_constant(w, p: float, lattices) -> float:
    """[w_{+,e}]_{A^p} + [w_{-,e}]_{A^p}: the reflection-Neumann weight class of
    a weight on the lattices' full-space grid."""
    lats = lattices_on(lattices)
    warr = weight_cells(w, lats[0].grid)
    lower, upper = extensions(warr, lats[0].grid, 1.0)
    return ap_constant(upper, p, lats) + ap_constant(lower, p, lats)


# ---------------------------------------------------------------------------
# coordinate boxes (not necessarily lattice cubes)

def box_cell_ranges(grid: Grid, lo, hi):
    """Per-axis [start, stop) cell-index ranges of centers inside the box,
    which must lie within the grid's cells (DomainError)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    ranges, edge = [], grid.h / 2.0 + 1e-12 * grid.halfwidth
    for a in range(grid.dim):
        c = grid.axis_coords(a)
        if not (lo[a] >= c[0] - edge and hi[a] <= c[-1] + edge):
            raise DomainError(f"the box [{lo[a]}, {hi[a]}] on axis {a} reaches outside the grid")
        start = int(np.searchsorted(c, lo[a]))
        stop = int(np.searchsorted(c, hi[a]))
        ranges.append((start, stop))
    return ranges


def ap_quotient_on_box(w, p: float, lo, hi) -> float:
    """The A^p quotient evaluated on one coordinate box (cell sums) of the
    grid of w, a GridFunction."""
    checked_p(p)
    warr, grid = _own_cells(w, "ap_quotient_on_box")
    ranges = box_cell_ranges(grid, lo, hi)
    cells = 1
    for st, sp in ranges:
        if sp <= st:
            raise DomainError("box contains no grid cells")
        cells *= sp - st
    box = tuple(slice(st, sp) for st, sp in ranges)
    vol = cells * grid.cell_volume
    m1 = float(warr[box].sum()) * grid.cell_volume / vol
    m2 = float(_finite_power(warr, -1.0 / (p - 1.0))[box].sum()) * grid.cell_volume / vol
    return m1 * m2 ** (p - 1.0)


# ---------------------------------------------------------------------------
# exp / log bridge

def exp_log_bridge(b: GridFunction, delta: float) -> GridFunction:
    """e^{delta b} as a weight (the BMO -> A^p direction of the bridge)."""
    if delta <= 0:
        raise ParameterError("delta must be positive")
    z = delta * b.values
    if np.max(z) > 700.0:
        raise RangeError(f"exp overflow at delta={delta}")
    return _checked(GridFunction(b.grid, np.exp(z)))


def log_weight(w) -> GridFunction:
    """log w of a GridFunction weight w (the A^p -> BMO direction of the bridge)."""
    warr, grid = _own_cells(w, "log_weight")
    return GridFunction(grid, np.log(warr))


# ---------------------------------------------------------------------------
# analytic weight factory; 1D profiles are exact cell averages

def _cell_average_profile(grid: Grid, axis: int, antiderivative):
    """Per-cell averages of a 1D profile along one axis, from its antiderivative."""
    c = grid.axis_coords(axis)
    h = grid.h
    lo, hi = c - h / 2.0, c + h / 2.0
    vals = (antiderivative(hi) - antiderivative(lo)) / h
    shape = [1] * grid.dim
    shape[axis] = len(c)
    return vals.reshape(shape)


def power_weight(grid: Grid, alpha: float) -> GridFunction:
    """|x|^alpha: exact cell averages in n = 1, cell-center samples in n = 2."""
    if alpha <= -1:
        raise ParameterError("power weight needs alpha > -1 for local integrability")
    if grid.dim == 1:
        def F(x):
            return np.sign(x) * np.abs(x) ** (alpha + 1.0) / (alpha + 1.0)

        vals = _cell_average_profile(grid, 0, F) * np.ones(grid.shape)
    else:
        pts = grid.points()
        r = np.sqrt(np.sum(pts ** 2, axis=-1))
        vals = r ** alpha
    return _checked(GridFunction(grid, vals))


def one_sided_power_weight(grid: Grid, alpha: float) -> GridFunction:
    """x_n^alpha on x_n > 0, constant 1 on x_n < 0 (exact cell averages in x_n)."""
    if alpha <= -1:
        raise ParameterError("needs alpha > -1")

    def F(x):
        out = np.array(x, dtype=float)
        pos = x > 0
        out[pos] = x[pos] ** (alpha + 1.0) / (alpha + 1.0)
        return out

    prof = _cell_average_profile(grid, grid.dim - 1, F)
    vals = prof * np.ones(grid.shape)
    return _checked(GridFunction(grid, vals))


def weight_from_spec(spec: dict, grid: Grid) -> GridFunction:
    """Config-driven weights: {kind: one|power|one-sided-power|grid|exp_bmo, ...}.

    A grid or exp_bmo file must hold a function on grid itself.  A key its
    kind does not take is refused, and a value needs the type checked_config
    asks of the example value beside its key."""
    if not isinstance(spec, dict):
        raise ParameterError(f"a weight spec is a JSON object, got {spec!r}")
    kind = spec.get("kind", "one")
    takes = {"one": {}, "power": {"alpha": 0.0}, "one-sided-power": {"alpha": 0.0}, "prop33": {"alpha": 0.0},
             "grid": {"file": ""}, "exp_bmo": {"file": "", "delta": 1.0}}
    if not isinstance(kind, str) or kind not in takes:
        raise ParameterError(f"unknown weight kind {kind!r}")
    spec = checked_config(spec, {"kind": "", **takes[kind]}, f"weight kind {kind!r}")

    def value(key):
        if key not in spec:
            raise ParameterError(f"weight kind {kind!r} needs {key!r}")
        return spec[key]

    def loaded():
        f = load(value("file"))
        if f.grid != grid:
            raise DomainError(f"weight file {spec['file']} lives on {f.grid}, not on {grid}")
        return f

    if kind == "one":
        return _checked(GridFunction(grid, np.ones(grid.shape)))
    if kind == "power":
        return power_weight(grid, value("alpha"))
    if kind in ("one-sided-power", "prop33"):
        return one_sided_power_weight(grid, value("alpha"))
    if kind == "grid":
        return _checked(loaded())
    return exp_log_bridge(loaded(), spec.get("delta", 1.0))
