"""BMO-type norms: classical weighted BMO and its r-variants, the Haar
Carleson-measure norm, semigroup Carleson norms for the free and reflection
Neumann Laplacians, and the half-space extension variants.

Carleson boxes follow the Whitney convention Q^ = Q x (l(Q)/2, l(Q)], so the
boxes of the dyadic cubes below a top cube P tile P x (0, l(P)] exactly.
Suprema over P run over every cube of the supplied lattice family with
l(P) >= 4h (each such P holds a full Whitney slab above the time grid);
inner sums always run over the unshifted dyadic cubes contained in P.  The
family is read once per call by dyadic.lattices_on, on the function's grid
(on its full grid for the half flavors, which scan an extension).

Every scan works on the lattice block view (dyadic.DyadicLattice.blocks),
one generation at a time: a generation's cubes are reduced together and
only lattices and generations are looped over.  The scans take a stack of
functions (S, *grid.shape) in one weight, whose rows ride along the block
view and the batched applies as a leading axis: bmo_norms gives S norms,
each equal bit for bit to its row's bmo_norm, the stack of one.

The semigroup Carleson norms make one reduction per Whitney slab (its
batched apply squared in place, the block sums of all its scales added in
one call, into one two-period prefix table) and, per lattice, one gather per
prefix corner from the concatenated tables, by a read-only plan cached per
lattice geometry (_scan_plan), and one reduction per top generation.  The
reductions are add.accumulate, which adds in loop order where add.reduce
sums pairwise along a lone axis: the norms equal per-scale and per-slab loops
bit for bit.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

import numpy as np

from .dyadic import haar_generation, lattices_on, split_blocks
from .errors import DomainError, ParameterError, RangeError
from .grid import FULL, GridFunction, checked_p, choice, extensions, function_cells, scalar, weight_cells
from .operators import apply_scales
from .squarefn import TimeGrid, time_grid

CLASSICAL_FLAVORS = ("classical-w", "classical-wr")
CARLESON_FLAVORS = ("carleson-haar", "carleson-heat-free", "carleson-heat-neumann")
HALF_FLAVORS = ("unweighted-half", "odd-ext-half", "even-ext-half")


def _mean_deviation(v: np.ndarray, wv: np.ndarray, r=None) -> np.ndarray:
    """The weighted mean-deviation functional of each block of a block view;
    RangeError when a large r overflows a power (whose inf * 0 is a NaN that
    _row_max would skip as a cube outside the domain)."""
    dev = np.abs(v - v.mean(axis=-1, keepdims=True))
    if r is None:
        return dev.sum(axis=-1) / wv.sum(axis=-1)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return ((dev ** r * wv ** (1.0 - r)).sum(axis=-1) / wv.sum(axis=-1)) ** (1.0 / r)
    except FloatingPointError:
        raise RangeError(f"the mean deviations at r = {r!r} left the floating-point range") from None


def _row_max(q: np.ndarray) -> np.ndarray:
    """Each row's maximum over its trailing axes, NaN entries skipped, at least 0."""
    return np.max(q, axis=tuple(range(1, q.ndim)), where=~np.isnan(q), initial=0.0)


def _classical_sup(values: np.ndarray, warr: np.ndarray, lats: list, r=None) -> np.ndarray:
    """sup over cubes of the weighted mean-deviation functional, for each
    row of the stack values (S, *grid.shape); warr is the one weight of every
    row (ones for the unweighted norm: a sum of ones is the cell count).

    values may contain NaN to mark cells outside the admissible domain;
    cubes touching such cells are skipped.
    """
    best = np.zeros(len(values))
    for lat in lats:
        for v, wv in zip(lat.generations(values), lat.generations(warr)):
            best = np.maximum(best, _row_max(_mean_deviation(v, wv, r)))
    return best


def _carleson_haar(values: np.ndarray, grid, warr: np.ndarray, lats: list) -> np.ndarray:
    best = np.zeros(len(values))
    n = grid.dim
    for lat in lats:
        wmasses = [cells.sum(axis=-1) * grid.cell_volume for cells in lat.generations(warr)]
        # subtree[Q] = sum over Q' <= Q of the Haar energy of Q' |Q'| / w(Q'),
        # built from the finest generation (no Haar functions) up by summing
        # child blocks
        subtree = np.zeros((len(values),) + (1 << lat.max_generation,) * n)
        for k in range(lat.max_generation - 1, -1, -1):
            wmass = wmasses[k]
            energy = (haar_generation(values, lat, k) ** 2).sum(axis=-1)
            measure = (lat.cells_per_axis(k) * grid.h) ** n
            subtree = energy * measure / wmass + split_blocks(subtree, 1 << k, n).sum(axis=-1)
            best = np.maximum(best, _row_max(subtree / wmass))
    if not np.all(np.isfinite(best)):
        raise RangeError("the Haar Carleson sums left the floating-point range")
    return np.sqrt(best)


def _two_period_prefix(table: np.ndarray, n: int) -> np.ndarray:
    """Prefix sums of per-cube tables tiled twice along each of the last n
    axes, shape lead + (2m+1,)*n: entry [..., i] is the sum over the tiled
    cells below i on every axis."""
    lead = table.ndim - n
    prefix = np.pad(np.tile(table, (1,) * lead + (2,) * n), [(0, 0)] * lead + [(1, 0)] * n)
    for axis in range(lead, table.ndim):
        np.cumsum(prefix, axis=axis, out=prefix)
    return prefix


@lru_cache(maxsize=64)
def _scan_plan(N: int, dim: int, shift_cells: tuple, max_generation: int, slab_generations: tuple) -> tuple:
    """(corners, counts) of one lattice: counts[j] slabs fit inside its generation-j
    cubes P, for j = 0, 1, ... while P has 4 cells per axis or more and a slab fits;
    row c of corners is corner c (product((0, 1), repeat=dim) order) of every box
    sum, ordered (j, slab, P), as a flat index into the slabs' concatenated tables."""
    offsets = np.cumsum([0] + [((2 << k) + 1) ** dim for k in slab_generations])
    parts, counts = [np.zeros((1 << dim, 0), dtype=np.intp)], []
    for j in range(max_generation + 1):
        M, fitting = N >> j, [(s, k) for s, k in enumerate(slab_generations) if k >= j]
        if M < 4 or not fitting:
            break
        counts.append(len(fitting))
        start = (np.array(shift_cells)[:, None] + M * np.arange(1 << j)) % N
        for s, k in fitting:
            # per axis, the cubes of side m = N >> k inside P: [ceil(start/m), floor((start+M)/m))
            lo = -(-start // (N >> k))
            ends = np.stack([np.maximum((start + M) // (N >> k), lo), lo])
            boxes = [np.ix_(*ends[list(corner), range(dim)]) for corner in product((0, 1), repeat=dim)]
            parts.append(offsets[s] + np.stack([np.ravel_multi_index(b, ((2 << k) + 1,) * dim).ravel() for b in boxes]))
    corners = np.concatenate(parts, axis=1)
    corners.flags.writeable = False
    return corners, tuple(counts)


def _carleson_heat(values: np.ndarray, grid, warr: np.ndarray, lats: list, tg: TimeGrid, neumann: bool) -> np.ndarray:
    """(sup_P w(P)^{-1} sum_{Q subset P} c_Q)^{1/2} per row, c_Q = int_{Q^} |G_t f|^2 t^n
    / w(Q) dy dt/t, by one reduction per Whitney slab and the _scan_plan gathers."""
    n, S, lw, h_n = grid.dim, len(values), tg.log_weight, grid.cell_volume
    dyadic = next((l for l in lats if all(s == 0 for s in l.shift_cells)), None)
    if dyadic is None:
        # inner sums run over unshifted dyadic cubes (block sums rely on it)
        raise ParameterError("semigroup Carleson norms need the unshifted lattice in the family")
    slabs = tg.slabs(dyadic.max_generation)
    tables = [np.zeros((S, 0))]
    for k, ts in slabs:
        # one Whitney slab, one octave of scales, every row: one batched apply
        fields = apply_scales("qt", "neumann" if neumann else "free", ts, values, grid=grid)
        sums = dyadic.blocks(np.square(fields, out=fields), k).sum(axis=-1)
        sums *= np.reshape([lw * t ** n for t in ts], (-1,) + (1,) * (sums.ndim - 1))
        sums *= h_n
        acc = np.add.accumulate(sums)[-1] / (dyadic.blocks(warr, k).sum(axis=-1) * h_n)
        tables.append(_two_period_prefix(acc, n).reshape(S, -1))
    table = np.concatenate(tables, axis=1)
    # an overflow would reach the corner sums as inf - inf = NaN, which _row_max skips
    if not np.all(np.isfinite(table)):
        raise RangeError("the semigroup Carleson sums left the floating-point range")
    best = np.zeros(S)
    for lat in lats:
        corners, counts = _scan_plan(grid.points_per_axis, n, lat.shift_cells, lat.max_generation,
                                     tuple(k for k, _ in slabs))
        sums = table[:, corners[0]]
        for c, index in enumerate(corners[1:], 1):
            (np.subtract if bin(c).count("1") % 2 else np.add)(sums, table[:, index], out=sums)
        tops = np.split(sums, np.cumsum([count << n * j for j, count in enumerate(counts)]), axis=1)
        for count, top, wcells in zip(counts, tops, lat.generations(warr)):
            inner = np.add.accumulate(top.reshape(S, count, -1), axis=1)[:, -1]
            best = np.maximum(best, _row_max(inner / (wcells.sum(axis=-1).reshape(-1) * h_n)))
    return np.sqrt(best)


def bmo_norms(values, grid, w, flavor: str, lattices, r: float = 2.0, tg: TimeGrid = None) -> np.ndarray:
    """BMO-type norms of every row of a stack of functions on grid, values of
    shape (S, *grid.shape) read by grid.function_cells, in one weight w: an
    array of S norms.

    classical-w     sup_Q w(Q)^{-1} int_Q |f - <f>_Q|
    classical-wr    (sup_Q w(Q)^{-1} int_Q |f - <f>_Q|^r w^{1-r})^{1/r}
    carleson-haar   sup_P (w(P)^{-1} sum_{Q subset P} <f,h_Q>^2 |Q|/w(Q))^{1/2}
    carleson-heat-* Whitney-box semigroup Carleson norms (free / Neumann)
    unweighted-half classical BMO over cubes inside the half-space
    odd-ext-half    unweighted classical BMO of the odd extension
    even-ext-half   classical BMO of the even extension, weight extended evenly

    The rows share every lattice scan and every batched apply, and each row's
    norm equals its bmo_norm bit for bit.  w is read by grid.weight_cells
    (None is the unit weight) and r (>= 1) by grid.scalar; the flavors that
    do not use them check them and ignore them.
    The lattices are read by dyadic.lattices_on on grid itself, or on its
    full grid for the half flavors, whose functions are extended to it.
    """
    values, r = function_cells(values, grid, stack=True), scalar("r", r, 1)
    warr = weight_cells(w, grid)
    choice("flavor", flavor, CLASSICAL_FLAVORS + CARLESON_FLAVORS + HALF_FLAVORS)
    lats = lattices_on(lattices, grid.with_domain(FULL) if flavor in HALF_FLAVORS else grid)
    if flavor == "classical-w":
        return _classical_sup(values, warr, lats)
    if flavor == "classical-wr":
        best = _classical_sup(values, warr, lats, r=r)
        # a non-constant row deviates on the generation-0 cube: a zero sup is underflow
        flat = values.reshape(len(values), int(np.prod(grid.shape)))
        if np.any((best == 0) & np.any(flat != flat[:, :1], axis=1)):
            raise RangeError(f"the mean deviations at r = {r!r} underflow to 0")
        return best
    if flavor == "carleson-haar":
        return _carleson_haar(values, grid, warr, lats)
    if flavor in ("carleson-heat-free", "carleson-heat-neumann"):
        return _carleson_heat(values, grid, warr, lats, time_grid(tg, grid), neumann=flavor == "carleson-heat-neumann")
    return _half_flavor_norms(values, grid, warr, flavor, lats)


def bmo_norm(f: GridFunction, w, flavor: str, lattices, r: float = 2.0, tg: TimeGrid = None) -> float:
    """BMO-type norm of f for the requested flavor (see bmo_norms): the stack of one."""
    return float(bmo_norms(f.values[None], f.grid, w, flavor, lattices, r=r, tg=tg)[0])


def _half_flavor_norms(values: np.ndarray, grid, warr: np.ndarray, flavor: str, lats: list) -> np.ndarray:
    """Classical BMO of each row's own side alone (a NaN mirror) or of its odd
    or even extension; only the even one reads the weight, extended evenly."""
    if grid.domain == FULL:
        raise DomainError(f"{flavor} expects a half-space function")
    sign = {"unweighted-half": np.nan, "odd-ext-half": -1.0, "even-ext-half": 1.0}[flavor]
    if flavor != "even-ext-half":
        warr = np.ones(grid.shape)
    return _classical_sup(extensions(values, grid, sign)[0], extensions(warr, grid, 1.0)[0], lats)


def bmo_deltaN_sides_norms(values: np.ndarray, grid, w, lattices, tg: TimeGrid = None):
    """For each row of a stack of full-space functions, ||f_{+,e}|| and
    ||f_{-,e}|| in the free-Laplacian Carleson norm with the matching
    even-extended weights, as two arrays; their sum is equivalent to the
    Neumann norm.  The stack is read by grid.function_cells."""
    if grid.domain != FULL:
        raise DomainError("the sides' even extensions are taken of a full-space function")
    wm, wp = extensions(weight_cells(w, grid), grid, 1.0)
    fm, fp = extensions(function_cells(values, grid, stack=True), grid, 1.0)
    return (bmo_norms(fp, grid, wp, "carleson-heat-free", lattices, tg=tg),
            bmo_norms(fm, grid, wm, "carleson-heat-free", lattices, tg=tg))


def john_nirenberg_report(symbols, grid, weights, p: float, r: float, lattices) -> dict:
    """rho = ||b||_{w,r} / ||b||_w for every row b of the stack symbols, of
    shape (S, *grid.shape) read by grid.function_cells, in the weight
    w = weights[i % len(weights)] of its row i, plus the A^p-based predictor.

    Asserts rho >= 1 (Hoelder, exact for cell sums) and reports the fitted
    constant max rho / [w]_{A^p}^{max(1, 1/(p-1))}.  Each weight's rows are
    one stack: their norms come from one batched scan per flavor and [w]_{A^p}
    is computed once.  The rows keep the order of symbols.
    """
    from .weights import ap_constant

    # r may reach p' up to its rounding
    scalar("r", r, 1, checked_p(p) / (p - 1.0) + 1e-12)
    if not weights:
        raise ParameterError("John-Nirenberg needs at least one weight")
    symbols, count = function_cells(symbols, grid, stack=True), len(weights)
    rows = [{"skipped": "constant symbol"} for _ in symbols]
    for j, w in enumerate(weights):
        stack = symbols[j::count]
        nw = bmo_norms(stack, grid, w, "classical-w", lattices)
        nwr = bmo_norms(stack, grid, w, "classical-wr", lattices, r=r)
        apw = ap_constant(w, p, lattices) if np.any(nw != 0.0) else None
        for i, a, b in zip(range(j, len(symbols), count), nw.tolist(), nwr.tolist()):
            if a != 0.0:
                rows[i] = {"rho": b / a, "ap": apw, "predictor": apw ** max(1.0, 1.0 / (p - 1.0)), "p": p, "r": r}
                if b / a < 1.0 - 1e-12:
                    raise AssertionError(f"John-Nirenberg ordering violated: rho={b / a}")
    fitted = max((row["rho"] / row["predictor"] for row in rows if "rho" in row), default=0.0)
    return {"rows": rows, "fitted_C": fitted}
