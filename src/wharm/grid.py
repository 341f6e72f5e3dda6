"""Cell-centered grids on a box in R^n and the half-space extension calculus.

The computational domain is the box [-L, L]^n sampled at cell centers
x_k = -L + (k + 1/2) h with h = 2L / N.  No sample ever sits on the
hyperplane x_n = 0, so restriction to a half-space and the reflection
x -> (x', -x_n) are exact index operations (the last axis is x_n).
One primitive, extensions, builds every extension across x_n = 0: those of
the sides a grid holds, in storage order (Grid.sides), in one buffer, which
the quadrature reflections and the Delta_N objects of bmo and weights read.
Entries read function values by one rule, function_cells (one function or
a stack of them, finite, on the entry's grid), weights by another,
weight_cells (None or positive cells), every real or integer parameter by
a third, scalar (finite, no bool, inside the entry's bounds), every array
of scales by scale_array (nonempty, 1D, finite and positive), and every
named choice by choice (a string among the entry's names).
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ParameterError, WeightError

FULL = "full"
UPPER = "upper"
LOWER = "lower"


def scalar(name: str, x, low=-math.inf, high=math.inf, strict: bool = False, integer: bool = False):
    """x itself when it is an admissible value of the parameter name, the one
    rule by which every entry reads a real or integer argument: a real number
    a float holds (no NaN, no inf, no integer past the largest float), or with
    integer a Python or numpy integer, never a bool, with low <= x <= high
    (low < x when strict).  Else ParameterError naming the parameter, its
    bounds and x."""
    if not isinstance(x, numbers.Integral if integer else numbers.Real) or isinstance(x, bool):
        raise ParameterError(f"{name} must be {'an integer' if integer else 'a real number'}, got {name} = {x!r}")
    if not ((low < x if strict else low <= x) and x <= high and (integer or abs(x) <= sys.float_info.max)):
        bounds = f"lie in {'(' if strict else '['}{low}, {high}{']' if high < math.inf else ')'}"
        raise ParameterError(f"{name} must {'be finite' if -low == high == math.inf else bounds}, got {name} = {x!r}")
    return x


def choice(name: str, x, choices, error=ParameterError):
    """x itself when it is a str among choices, the one rule by which every
    entry reads a kind, family, backend, flavor, generator, domain, side,
    shift label or experiment name, so that no list or array reaches a test
    or a cache key.  Else error naming the parameter, its choices and x."""
    if not (isinstance(x, str) and x in choices):
        raise error(f"{name} must be one of {', '.join(choices)}, got {name} = {x!r}")
    return x


def scale_array(name: str, x) -> np.ndarray:
    """x as a float array when it is an admissible array of scales, the one
    rule by which apply_scales reads its scales: a nonempty 1D array
    of real numbers (no bool, no string), each finite and > 0.  Else
    ParameterError naming the parameter."""
    try:
        ts = np.asarray(x)
    except ValueError:  # a ragged nesting, refused as an object array is
        ts = np.asarray(None)
    if ts.dtype.kind not in "iuf" or ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts) & (ts > 0)):
        raise ParameterError(f"{name} must be a nonempty 1D array of finite reals > 0")
    return ts.astype(float)


def checked_config(cfg, defaults: dict, owner: str) -> dict:
    """The values of a config file's object cfg for owner, whose keys and
    their defaults are defaults: a key owner does not take is refused, and a
    value must have its default's type.  An integer (a None default stands
    for one) is read by scalar, at least 0 for a seed and 1 for any other; a
    float is any real number scalar reads (json.load reads NaN and Infinity),
    and comes back as a float; a list is a nonempty JSON list; a flag is a
    JSON boolean and a string a string."""
    if not isinstance(cfg, dict):
        raise ParameterError(f"{owner} needs a JSON object, got {cfg!r}")
    unknown = ", ".join(repr(key) for key in sorted(set(cfg) - set(defaults)))
    if unknown:
        raise ParameterError(f"{owner} takes no key {unknown}; its keys are {', '.join(defaults)}")
    checked = {}
    for key, value in cfg.items():
        default = defaults[key]
        if default is None or type(default) is int:
            value = scalar(key, value, 0 if key == "seed" else 1, integer=True)
        elif isinstance(default, float):
            value = float(scalar(key, value))
        elif isinstance(default, bool) and not isinstance(value, bool):
            raise ParameterError(f"{key} must be a JSON boolean, got {value!r}")
        elif isinstance(default, (list, tuple)) and not (isinstance(value, list) and len(value) > 0):
            raise ParameterError(f"{key} must be a nonempty list, got {value!r}")
        elif isinstance(default, str) and not isinstance(value, str):
            raise ParameterError(f"{key} must be a string, got {value!r}")
        checked[key] = value
    return checked


def checked_p(p) -> float:
    """p itself when it is a real number in (1, inf), the one rule for the
    exponent p of every norm, characteristic and report: scalar at p > 1."""
    return scalar("p", p, 1, strict=True)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid over [-L, L]^n, optionally one half-space.

    dim: n in {1, 2}.  halfwidth: L.  points_per_axis: N (even); the last
    axis holds N/2 points on a half grid.  domain: "full" | "upper" | "lower".
    """

    dim: int
    halfwidth: float
    points_per_axis: int
    domain: str = FULL

    def __post_init__(self):
        # the sizes may come from a file: a float 8.0 or a nan must not pass
        scalar("dim", self.dim, 1, 2, integer=True)
        if scalar("points_per_axis", self.points_per_axis, 2, integer=True) % 2 != 0:
            raise ParameterError(f"points_per_axis must be even, got {self.points_per_axis!r}")
        scalar("halfwidth", self.halfwidth, 0, strict=True)
        # the kernels and time scales square h and 2L: both squares must be normal floats
        h, span = 2.0 * self.halfwidth / self.points_per_axis, 2.0 * self.halfwidth
        if not (h * h >= sys.float_info.min and span * span <= sys.float_info.max):
            raise ParameterError(f"halfwidth {self.halfwidth!r} puts h^2 or (2L)^2 outside the normal float range")
        choice("domain", self.domain, (FULL, UPPER, LOWER))

    @property
    def h(self) -> float:
        return 2.0 * self.halfwidth / self.points_per_axis

    @property
    def shape(self) -> tuple:
        n, N = self.dim, self.points_per_axis
        if self.domain == FULL:
            return (N,) * n
        return (N,) * (n - 1) + (N // 2,)

    @property
    def cell_volume(self) -> float:
        return self.h ** self.dim

    def axis_coords(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one array axis."""
        N, h, L = self.points_per_axis, self.h, self.halfwidth
        full = -L + (np.arange(N) + 0.5) * h
        if axis == self.dim - 1 and self.domain != FULL:
            return full[N // 2:] if self.domain == UPPER else full[: N // 2]
        return full

    def points(self) -> np.ndarray:
        """All grid points, shape (*grid.shape, dim)."""
        axes = [self.axis_coords(a) for a in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack(mesh, axis=-1)

    @property
    def sides(self) -> tuple:
        """The sides of x_n = 0 that the grid holds, in storage order."""
        return (LOWER, UPPER) if self.domain == FULL else (self.domain,)

    def with_domain(self, domain: str) -> "Grid":
        return Grid(self.dim, self.halfwidth, self.points_per_axis, domain)


@dataclass
class GridFunction:
    """Real values sampled at the grid points (one value per cell center)."""

    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = function_cells(self.values, self.grid)

    def copy(self) -> "GridFunction":
        return GridFunction(self.grid, self.values.copy())


def constant(grid: Grid, c: float) -> GridFunction:
    return GridFunction(grid, np.full(grid.shape, float(c)))


def function_cells(x, grid: Grid, stack: bool = False) -> np.ndarray:
    """The cell array of a function argument on grid, the one rule by which
    every entry reads function values: a GridFunction on grid itself, or what
    np.asarray reads as a float array of grid's shape; with stack, a stack of
    functions, one leading axis (S, *grid.shape).  A function on another grid
    or where a stack is due, what is no float array, a wrong shape and a
    non-finite cell are refused (DomainError)."""
    if isinstance(x, GridFunction):
        if stack or x.grid != grid:
            raise DomainError(f"a function on {x.grid} read {'as a stack ' * stack}on {grid}")
        x = x.values
    try:
        cells = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise DomainError(f"cannot read a {type(x).__name__} as function values") from None
    if cells.shape[stack:] != grid.shape:
        raise DomainError(f"values of shape {cells.shape} read {'as a stack ' * stack}on a grid of shape {grid.shape}")
    if not np.all(np.isfinite(cells)):
        raise DomainError("function values must be finite in every cell")
    return cells


def weight_cells(w, grid: Grid) -> np.ndarray:
    """The cell array of a weight argument on grid, the one rule by which
    every weighted norm and characteristic reads its weight: None is the
    unit weight; what is no float array, and a value that is not positive
    and finite, is refused (WeightError); else w is a function on grid, read
    by function_cells (DomainError for another grid or a wrong shape)."""
    if w is None:
        return np.ones(grid.shape)
    try:
        cells = np.asarray(w.values if isinstance(w, GridFunction) else w, dtype=float)
    except (TypeError, ValueError):
        raise WeightError(f"cannot read a {type(w).__name__} as a weight") from None
    if not np.all((cells > 0.0) & np.isfinite(cells)):
        raise WeightError("a weight must be positive and finite in every cell")
    return function_cells(w, grid)


def restrict(f: GridFunction, side: str) -> GridFunction:
    """Restriction of a full-space function to one half-space (bit-exact copy)."""
    if f.grid.domain != FULL:
        raise DomainError("restrict expects a full-space grid function")
    choice("side", side, (UPPER, LOWER))
    N = f.grid.points_per_axis
    half = N // 2
    sl = slice(half, None) if side == UPPER else slice(None, half)
    vals = f.values[..., sl].copy()
    return GridFunction(f.grid.with_domain(side), vals)


def extensions(values: np.ndarray, grid: Grid, sign: float) -> np.ndarray:
    """Each side's extension across x_n = 0 of values on grid, one full-grid
    array per side of grid.sides in a (sides, *lead, *full grid) buffer: the
    side's own half copied, the mirror half sign times its reflection.  Sign 1
    gives the even extension, -1 the odd one and nan an all-NaN mirror, cells
    outside the half-space.  Leading axes ride along."""
    half = grid.points_per_axis // 2
    upper, lower = slice(half, None), slice(None, half)
    buf = np.empty((len(grid.sides),) + values.shape[:-1] + (2 * half,))
    for ext, side in zip(buf, grid.sides):
        own, mirror = (upper, lower) if side == UPPER else (lower, upper)
        ext[..., own] = values[..., own] if grid.domain == FULL else values
        np.multiply(ext[..., own][..., ::-1], sign, out=ext[..., mirror])
    return buf


def extend_even(f: GridFunction) -> GridFunction:
    """Even extension g with g(x') = g(x) under the reflection x -> x~."""
    if f.grid.domain == FULL:
        raise DomainError("extension expects a half-space grid function")
    return GridFunction(f.grid.with_domain(FULL), extensions(f.values, f.grid, 1.0)[0])


def join_sides(upper, lower, grid: Grid) -> np.ndarray:
    """Full-grid array equal to `upper` on x_n > 0 and to `lower` on x_n < 0.

    Each side is a scalar or a full-grid array of which only its own half is read.
    """
    return np.where(grid.axis_coords(grid.dim - 1) > 0, upper, lower)


# ---------------------------------------------------------------------------
# serialization: flat CSV (index coordinates then value) and JSON header +
# raw float64 binary column.

def save_csv(f: GridFunction, path: str) -> None:
    g = f.grid
    idx = np.indices(g.shape).reshape(g.dim, -1).T
    vals = f.values.reshape(-1, 1)
    data = np.hstack([idx.astype(float), vals])
    header = ",".join([f"i{a}" for a in range(g.dim)] + ["value"])
    meta = f"# dim={g.dim} halfwidth={g.halfwidth!r} points_per_axis={g.points_per_axis} domain={g.domain}"
    fmt = ["%d"] * g.dim + ["%.17g"]
    with open(path, "w") as fh:
        fh.write(meta + "\n")
        fh.write(header + "\n")
        np.savetxt(fh, data, fmt=fmt, delimiter=",")


def load_csv(path: str) -> GridFunction:
    with open(path) as fh:
        meta = fh.readline().strip()
        if not meta.startswith("#"):
            raise DomainError("missing grid metadata line in CSV")
        tokens = meta[1:].split()
        loose = [tok for tok in tokens if "=" not in tok]
        if loose:
            raise DomainError(f"CSV metadata token {loose[0]!r} is not key=value")
        kv = dict(tok.split("=", 1) for tok in tokens)
        fh.readline()  # column header
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DomainError(f"CSV rows must hold numbers only: {exc}") from None
    missing = [key for key in ("dim", "halfwidth", "points_per_axis", "domain") if key not in kv]
    if missing:
        raise DomainError(f"CSV metadata misses {', '.join(missing)}")
    try:
        # an integer where it spells one, so that Grid rejects a dim of 1.5
        dim, points = (int(kv[key]) if kv[key].lstrip("+-").isdigit() else float(kv[key])
                       for key in ("dim", "points_per_axis"))
        grid = Grid(dim, float(kv["halfwidth"]), points, kv["domain"])
    except ValueError:
        raise DomainError(f"CSV metadata {meta!r} holds a value that is not a number") from None
    if data.shape[1] != grid.dim + 1:
        raise DomainError(f"CSV rows need {grid.dim} index columns and one value column")
    idx = data[:, : grid.dim].astype(int)
    if np.any(idx != data[:, : grid.dim]) or np.any((idx < 0) | (idx >= np.array(grid.shape))):
        raise DomainError("CSV row with a non-integer or out-of-range cell index")
    counts = np.zeros(grid.shape, dtype=int)
    np.add.at(counts, tuple(idx.T), 1)
    if np.any(counts > 1):
        raise DomainError(f"CSV lists {int(np.sum(counts > 1))} cells more than once")
    if np.any(counts == 0):
        raise DomainError(f"CSV misses {int(np.sum(counts == 0))} of {counts.size} cells")
    vals = np.empty(grid.shape)
    vals[tuple(idx.T)] = data[:, grid.dim]
    return GridFunction(grid, vals)


def load_binary(path: str) -> GridFunction:
    with open(path) as fh:
        header = json.load(fh)
    keys = ("dim", "halfwidth", "points_per_axis", "domain", "dtype", "count")
    missing = [key for key in keys if key not in header]
    if missing:
        raise DomainError(f"binary header misses {', '.join(missing)}")
    if header["dtype"] != "float64":
        raise DomainError(f"binary column dtype {header['dtype']!r} is not float64")
    grid = Grid(header["dim"], header["halfwidth"], header["points_per_axis"], header["domain"])
    if header["count"] != int(np.prod(grid.shape)):
        raise DomainError(f"header count {header['count']} does not match the {grid.shape} grid")
    vals = np.fromfile(path + ".bin", dtype="<f8")
    if vals.size != header["count"]:
        raise DomainError("binary column length does not match header count")
    return GridFunction(grid, vals.reshape(grid.shape))


def load(path: str) -> GridFunction:
    """A grid function from a .csv file (load_csv) or a binary header (load_binary)."""
    return load_csv(path) if path.endswith(".csv") else load_binary(path)
