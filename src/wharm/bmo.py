"""BMO-type norms: classical weighted BMO and its r-variants, the Haar
Carleson-measure norm, semigroup Carleson norms for the free and reflection
Neumann Laplacians, and the half-space extension variants.

Carleson boxes follow the Whitney convention Q^ = Q x (l(Q)/2, l(Q)], so the
boxes of the dyadic cubes below a top cube P tile P x (0, l(P)] exactly.
Suprema over P run over every cube of the supplied lattice family with
l(P) >= 4h (each such P holds a full Whitney slab above the time grid);
inner sums always run over the unshifted dyadic cubes contained in P.

Every scan works on the lattice block view (dyadic.DyadicLattice.blocks),
one generation at a time: a generation's cubes are reduced together and
only lattices and generations are looped over.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .dyadic import DyadicLattice, _iter_lattices, haar_generation, split_blocks
from .errors import DomainError, ParameterError
from .grid import FULL, GridFunction, extend_even, extend_odd, join_sides, sided_even_extensions
from .operators import apply_scales
from .squarefn import TimeGrid
from .weights import Weight, as_weight

CLASSICAL_FLAVORS = ("classical-w", "classical-wr")
CARLESON_FLAVORS = ("carleson-haar", "carleson-heat-free", "carleson-heat-neumann")
HALF_FLAVORS = ("unweighted-half", "odd-ext-half", "even-ext-half")


def _mean_deviation(v: np.ndarray, wv, r=None) -> np.ndarray:
    """The (weighted) mean-deviation functional of each block of a block view."""
    dev = np.abs(v - v.mean(axis=-1, keepdims=True))
    if r is None:
        den = v.shape[-1] if wv is None else wv.sum(axis=-1)
        return dev.sum(axis=-1) / den
    return ((dev ** r * wv ** (1.0 - r)).sum(axis=-1) / wv.sum(axis=-1)) ** (1.0 / r)


def _classical_sup(values: np.ndarray, warr, lattices, r=None) -> float:
    """sup over cubes of the (weighted) mean-deviation functional.

    values may contain NaN to mark cells outside the admissible domain;
    cubes touching such cells are skipped.
    """
    best = 0.0
    for lat in _iter_lattices(lattices):
        for k in range(lat.max_generation + 1):
            wv = None if warr is None else lat.blocks(warr, k)
            q = _mean_deviation(lat.blocks(values, k), wv, r)
            best = float(np.max(q, where=~np.isnan(q), initial=best))
    return best


def _carleson_haar(f: GridFunction, w: Weight, lattices) -> float:
    best = 0.0
    g = f.grid
    for lat in _iter_lattices(lattices):
        # subtree[Q] = sum over Q' <= Q of the Haar energy of Q' |Q'| / w(Q'),
        # built from the finest generation (no Haar functions) up by summing
        # child blocks
        subtree = np.zeros((1 << lat.max_generation,) * g.dim)
        for k in range(lat.max_generation - 1, -1, -1):
            wmass = lat.blocks(w.array, k).sum(axis=-1) * g.cell_volume
            energy = (haar_generation(f.values, lat, k) ** 2).sum(axis=-1)
            measure = (lat.cells_per_axis(k) * g.h) ** g.dim
            subtree = energy * measure / wmass + split_blocks(subtree, 1 << k).sum(axis=-1)
            best = max(best, float((subtree / wmass).max()))
    return float(np.sqrt(best))


def _two_period_prefix(table: np.ndarray) -> np.ndarray:
    """Prefix sums of a per-cube table tiled twice along every axis, shape (2m+1,)*n:
    entry [i] is the sum over the tiled cells below i on every axis."""
    prefix = np.pad(np.tile(table, (2,) * table.ndim), [(1, 0)] * table.ndim)
    for axis in range(table.ndim):
        np.cumsum(prefix, axis=axis, out=prefix)
    return prefix


def _sums_inside(prefix: np.ndarray, lat: DyadicLattice, js) -> list:
    """For each generation j of js, the sum of a per-cube table of one
    unshifted generation over the unshifted cubes inside each generation-j
    cube P of lat, shape (2^j,)*n.  prefix is the table's _two_period_prefix.

    Axis by axis, the cubes inside P form the periodic index range
    [ceil(s/m), floor((s+M)/m)) for P's first cell s, P's side M and the
    table's cube side m (all in cells).  The ranges of every P of every j
    are read at once: each box is summed from the prefix table's 2^n corners,
    over the outer product of the per-axis ranges, and each j's diagonal
    block is kept.
    """
    N = lat.grid.points_per_axis
    m = 2 * N // (prefix.shape[0] - 1)
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
        index = tuple(r[c].reshape((-1,) + (1,) * (n - 1 - a)) for a, (r, c) in enumerate(zip(ranges, corner)))
        out = out - prefix[index] if sum(corner) % 2 else out + prefix[index]
    ends = np.cumsum(counts)
    return [out[(slice(e - c, e),) * n] for e, c in zip(ends, counts)]


def _slab_times(tg: TimeGrid, ell: float):
    ts = tg.t_values
    return ts[(ts > ell / 2.0 + 1e-12 * ell) & (ts <= ell * (1.0 + 1e-12))]


def _carleson_heat(f: GridFunction, w: Weight, lattices, tg: TimeGrid, neumann: bool) -> float:
    g = f.grid
    if g.domain != FULL:
        raise DomainError("semigroup Carleson norms are evaluated on full-space data")
    n = g.dim
    lats = _iter_lattices(lattices)
    dyadic = next((l for l in lats if all(s == 0 for s in l.shift_cells)), None)
    if dyadic is None:
        # inner sums run over unshifted dyadic cubes (block sums rely on it)
        raise ParameterError("semigroup Carleson norms need the unshifted lattice in the family")
    lw = tg.log_weight
    h_n = g.cell_volume
    warr = w.array

    # per-generation cube contributions c_Q = int_{Q^} |G_t f|^2 t^n/w(Q) dy dt/t
    family = "neumann" if neumann else "free"
    prefixes = []
    for k in range(dyadic.max_generation + 1):
        ell = 2.0 * g.halfwidth * 2.0 ** (-k)
        ts = _slab_times(tg, ell)
        if len(ts) == 0:
            continue
        acc = np.zeros((1 << k,) * n)
        # one Whitney slab, one octave of scales: one batched apply
        for t, field in zip(ts, apply_scales("qt", family, ts, f)):
            acc += lw * t ** n * dyadic.blocks(field ** 2, k).sum(axis=-1) * h_n
        prefixes.append(_two_period_prefix(acc / (dyadic.blocks(warr, k).sum(axis=-1) * h_n)))

    best = 0.0
    for lat in lats:
        js = [j for j in range(lat.max_generation + 1) if lat.cells_per_axis(j) >= 4]
        inner = dict.fromkeys(js, 0.0)
        for prefix in prefixes:
            # cubes coarser than P never fit inside it
            fits = [j for j in js if len(prefix) > 2 << j]
            if fits:
                for j, sums in zip(fits, _sums_inside(prefix, lat, fits)):
                    inner[j] = inner[j] + sums
        for j, total in inner.items():
            wmass = lat.blocks(warr, j).sum(axis=-1) * h_n
            best = max(best, float((total / wmass).max()))
    return float(np.sqrt(max(best, 0.0)))


def bmo_norm(f: GridFunction, w, flavor: str, lattices, r: float = 2.0, tg: TimeGrid = None) -> float:
    """BMO-type norm of f for the requested flavor.

    classical-w     sup_Q w(Q)^{-1} int_Q |f - <f>_Q|
    classical-wr    (sup_Q w(Q)^{-1} int_Q |f - <f>_Q|^r w^{1-r})^{1/r}
    carleson-haar   sup_P (w(P)^{-1} sum_{Q subset P} <f,h_Q>^2 |Q|/w(Q))^{1/2}
    carleson-heat-* Whitney-box semigroup Carleson norms (free / Neumann)
    unweighted-half classical BMO over cubes inside the half-space
    odd-ext-half    unweighted classical BMO of the odd extension
    even-ext-half   classical BMO of the even extension, weight extended evenly
    """
    if flavor == "classical-w":
        return float(_classical_sup(f.values, as_weight(w).array, lattices))
    if flavor == "classical-wr":
        if r < 1.0:
            raise ParameterError("classical-wr needs r >= 1")
        return float(_classical_sup(f.values, as_weight(w).array, lattices, r=r))
    if flavor == "carleson-haar":
        return _carleson_haar(f, as_weight(w), lattices)
    if flavor == "carleson-heat-free":
        return _carleson_heat(f, as_weight(w), lattices, tg or TimeGrid.geometric(f.grid), neumann=False)
    if flavor == "carleson-heat-neumann":
        return _carleson_heat(f, as_weight(w), lattices, tg or TimeGrid.geometric(f.grid), neumann=True)
    if flavor in HALF_FLAVORS:
        return _half_flavor_norm(f, w, flavor, lattices)
    raise ParameterError(f"unknown BMO flavor {flavor!r}")


def _half_flavor_norm(f: GridFunction, w, flavor: str, lattices) -> float:
    g = f.grid
    if flavor == "unweighted-half":
        if g.domain == FULL:
            raise DomainError("unweighted-half expects a half-space function")
        ext, full_grid = extend_even(f).values, g.with_domain(FULL)
        if g.domain == "upper":
            full = join_sides(ext, np.nan, full_grid)
        else:
            full = join_sides(np.nan, ext, full_grid)
        return float(_classical_sup(full, None, lattices))
    if flavor == "odd-ext-half":
        if g.domain == FULL:
            raise DomainError("odd-ext-half expects a half-space function")
        return float(_classical_sup(extend_odd(f).values, None, lattices))
    if flavor == "even-ext-half":
        if g.domain == FULL:
            raise DomainError("even-ext-half expects a half-space function")
        we = extend_even(as_weight(w).values)
        return float(_classical_sup(extend_even(f).values, we.values, lattices))
    raise ParameterError(flavor)


def bmo_deltaN_norm(f: GridFunction, w, lattices, tg: TimeGrid = None) -> float:
    """The reflection-Neumann semigroup Carleson norm (full-space data)."""
    return bmo_norm(f, w, "carleson-heat-neumann", lattices, tg=tg)


def bmo_deltaN_sides(f: GridFunction, w, lattices, tg: TimeGrid = None):
    """(||f_{+,e}||, ||f_{-,e}||) in the free-Laplacian Carleson norm with the
    matching even-extended weights; their sum is equivalent to bmo_deltaN_norm."""
    fp, fm = sided_even_extensions(f)
    wp, wm = sided_even_extensions(as_weight(w).values)
    np_ = bmo_norm(fp, Weight(wp), "carleson-heat-free", lattices, tg=tg)
    nm = bmo_norm(fm, Weight(wm), "carleson-heat-free", lattices, tg=tg)
    return np_, nm


def bmo_deltaN_classical_norm(f: GridFunction, lattices) -> float:
    """Unweighted BMO_{Delta_N}: classical BMO of both even extensions, summed."""
    fp, fm = sided_even_extensions(f)
    return float(_classical_sup(fp.values, None, lattices) + _classical_sup(fm.values, None, lattices))


def dyadic_local_bmo(f: GridFunction, lat: DyadicLattice, q0, w=None) -> float:
    """sup over lattice cubes Q contained in q0 of the mean-deviation functional."""
    warr = None if w is None else as_weight(w).array
    best = 0.0
    for k in range(q0.generation, lat.max_generation + 1):
        depth = k - q0.generation
        inside = tuple(slice(i << depth, (i + 1) << depth) for i in q0.index)
        wv = None if warr is None else lat.blocks(warr, k)[inside]
        best = max(best, float(_mean_deviation(lat.blocks(f.values, k)[inside], wv).max()))
    return float(best)


def john_nirenberg_report(suite, lattices) -> dict:
    """rho = ||b||_{w,r} / ||b||_w per instance plus the A^p-based predictor.

    Asserts rho >= 1 (Hoelder, exact for cell sums) and reports the fitted
    constant max rho / [w]_{A^p}^{max(1, 1/(p-1))}.
    """
    from .weights import ap_constant

    rows = []
    fitted = 0.0
    for item in suite:
        b, w, p, r = item
        if r < 1.0 or r > p / (p - 1.0) + 1e-12:
            raise ParameterError("John-Nirenberg needs 1 <= r <= p'")
        nw = bmo_norm(b, w, "classical-w", lattices)
        if nw == 0.0:
            rows.append({"skipped": "constant symbol"})
            continue
        nwr = bmo_norm(b, w, "classical-wr", lattices, r=r)
        rho = nwr / nw
        apw = ap_constant(w, p, lattices)
        predictor = apw ** max(1.0, 1.0 / (p - 1.0))
        rows.append({"rho": rho, "ap": apw, "predictor": predictor, "p": p, "r": r})
        fitted = max(fitted, rho / predictor)
        if rho < 1.0 - 1e-12:
            raise AssertionError(f"John-Nirenberg ordering violated: rho={rho}")
    return {"rows": rows, "fitted_C": fitted}
