"""(1,p,0)-atoms, whose one moment condition is mean zero, and the
level-set atomic decomposition of Hardy-space functions driven by the
compactly supported reproducing pair psi(t sqrt(L)) . t^2 L e^{-t^2 L}.

The decomposition follows the level sets Omega_k = {S(f) > 2^k}, their
maximal-function dilations Omega~_k, and the cube classes
B_k = {Q : w(Q cap Omega_k) > w(Q)/2 >= w(Q cap Omega_{k+1})}; atoms are the
Whitney-box pieces of the reproducing formula grouped under the maximal
cubes of each B_k with coefficients 2^k w(Qbar).

Cubes are held in per-generation arrays, never walked one by one: a cube's
level k, and its owner, the coarsest ancestor-or-self in its B_k (a cube
whose parent is outside B_k may still have a higher ancestor inside it).
The maximal cubes own themselves; bucket labels and the coefficients (block
sums of w) come from the same arrays.

The time integral is truncated to the supplied TimeGrid, so the multiplier
sum reconstructs only the frequency band the grid resolves; the residual
field carries everything else explicitly (the mean, the unresolved band,
pieces over cubes that never enter any B_k, and mass clipped outside 3Qbar).

A decomposition holds each atom on its support box 3Qbar only (AtomRecord),
and its atoms sequence builds the full-grid Atom on access.  The level sets
Omega_k are one boolean stack and the Whitney pieces one stack of rows; the
atoms whose Qbar share a generation share a box size, so each generation is
cut, zeroed and checked at once, and only the sums across atoms run atom
by atom, in sorted (k, id) order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .dyadic import DyadicCube, DyadicLattice, lattices_on, maximal_cells
from .errors import DecompositionError, DomainError, ParameterError
from .grid import Grid, GridFunction, checked_p, weight_cells
from .operators import FOURIER, QUADRATURE, apply_scales, free_multipliers, from_spectrum, psi_op, psi_reach, spectrum
from .squarefn import ConeSpec, TimeGrid, area_function, time_grid


_UNASSIGNED = -(10 ** 6)  # assignment level of a cube in no B_k
_BUCKET_SLICE = 8  # bucket masks per batched real transform


def _dawson(x: float, terms: int = 60) -> float:
    """Dawson's integral F(x) = int_0^inf e^{-s^2} sin(2 x s) ds by its series
    sum_k (-1)^k 2^k x^{2k+1} / (1 3 ... (2k+1)) (Abramowitz & Stegun, ch. 7)."""
    total, term = 0.0, x
    for k in range(terms):
        total += term
        term *= -2.0 * x * x / (2 * k + 3)
    return total


@cache
def calderon_constant() -> float:
    """1 / int_0^inf psi(s) s^2 e^{-s^2} ds/s for the qt/psi reproducing pair.

    With psi(s) = (2 sin(s/2) - sin s) / s the integral is 2 F(1/4) - F(1/2)
    for Dawson's integral F.
    """
    return 1.0 / (2.0 * _dawson(0.25) - _dawson(0.5))


@dataclass
class Atom:
    """Candidate (1,p,0)-atom supported in a box around a dyadic cube.

    The support box is the threefold dilate of the cube taken modulo the
    periodic box, so edge atoms keep the kernel mass the periodic backend
    wraps around.
    """

    cube: DyadicCube
    support: np.ndarray
    values: GridFunction
    p: float
    weight: object
    level: int = 0


def check_atom(atom: Atom) -> dict:
    """Pass/fail per atom condition with measured slack.

    (1) support inside the declared box (exact mask);
    (2) mean zero: sum a h^n = 0 within 1e-10 ||a||_1;
    (3) ||a||_{L^p_w} <= w(box)^{1/p - 1} (1 + 1e-9), w the atom's weight,
    read by grid.weight_cells, and p by grid.checked_p.
    The support must be a boolean array of the grid's shape (DomainError).
    """
    g, support = atom.values.grid, atom.support
    if not (isinstance(support, np.ndarray) and support.dtype == bool and support.shape == g.shape):
        raise DomainError(f"an atom's support must be a boolean array of shape {g.shape}, got {support!r:.60}")
    warr = weight_cells(atom.weight, g)
    return _check_cells(checked_p(atom.p), atom.values.values[None], support[None], warr[None], g.cell_volume)[0]


def _check_cells(p: float, vals: np.ndarray, mask: np.ndarray, warr: np.ndarray, cell_volume: float) -> list:
    """check_atom on a stack of atoms, one dict per row: their values, support
    masks and weight cells, all of one shape (A, *cells), each mask holding
    as many cells (the full grid, or the support boxes with all-true masks).
    Every sum runs over one row as it would alone; the powers are Python
    float powers."""
    rows, axes = len(vals), tuple(range(1, vals.ndim))
    support = (vals[~mask] == 0.0).reshape(rows, -1).all(axis=1).tolist()
    moments = (np.sum(vals, axis=axes) * cell_volume).tolist()
    l1 = (np.sum(np.abs(vals), axis=axes) * cell_volume).tolist()
    powers = (np.sum(np.abs(vals) ** p * warr, axis=axes) * cell_volume).tolist()
    masses = (warr[mask].reshape(rows, -1).sum(axis=1) * cell_volume).tolist()
    checks = []
    for support_ok, moment, mass_l1, power, wq in zip(support, moments, l1, powers, masses):
        tol = 1e-10 * max(mass_l1, 1e-300)
        norm, bound = power ** (1.0 / p), wq ** (1.0 / p - 1.0)
        moment_ok, norm_ok = abs(moment) <= tol, norm <= bound * (1.0 + 1e-9)
        checks.append(dict(support_ok=support_ok, moment=moment, moment_tolerance=tol, moment_ok=moment_ok, norm=norm,
                           bound=bound, norm_ok=norm_ok, rescale=bound / norm if norm > 0 else math.inf,
                           ok=support_ok and moment_ok and norm_ok))
    return checks


class AtomRecord(NamedTuple):
    """One atom on its support box: the cube Qbar, the level k, the box (one
    cell index array per axis, increasing) and the atom's values on the box."""

    cube: DyadicCube
    level: int
    box: tuple
    local: np.ndarray


class AtomSequence(Sequence):
    """The atoms of a decomposition, read-only.  Each is held on its support
    box (AtomRecord); item i is built as the full-grid Atom on access."""

    def __init__(self, grid: Grid, records: list, p: float, weight):
        self.grid, self.records, self.p, self.weight = grid, records, p, weight

    def __len__(self) -> int:
        return len(self.records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        cube, level, box, local = self.records[i]
        support = np.zeros(self.grid.shape, dtype=bool)
        values = np.zeros(self.grid.shape)
        cells = np.ix_(*box)
        support[cells] = True
        values[cells] = local
        return Atom(cube, support, GridFunction(self.grid, values), self.p, self.weight, level)


@dataclass
class AtomicDecomposition:
    atoms: AtomSequence
    coefficients: list
    residual: GridFunction
    report: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        """Coefficients, cube ids, and per-atom validity slack."""
        atoms = []
        for lam, a, chk in zip(self.coefficients, self.atoms.records, self.report.get("atom_checks", [])):
            atoms.append(
                {
                    "coefficient": lam,
                    "level": a.level,
                    "cube": {"generation": a.cube.generation, "index": list(a.cube.index)},
                    "support_ok": chk.get("support_ok"),
                    "moment_slack": abs(chk["moment"]),
                    "norm_over_bound": chk["norm"] / chk["bound"] if chk.get("bound") else None,
                }
            )
        summary = {k: v for k, v in self.report.items() if k != "atom_checks"}
        return {"atoms": atoms, "summary": summary}


def _cube_ids(lat: DyadicLattice, k: int) -> np.ndarray:
    """Ids of the generation-k cubes, on the cube index axes: 2^(n k) plus the
    C-order position, so ids sort as (generation, index) do."""
    n = lat.grid.dim
    return (1 << (n * k)) + np.arange(1 << (n * k)).reshape((1 << k,) * n)


def _owners(lat: DyadicLattice, assignment: dict) -> dict:
    """Each cube's owner, its coarsest ancestor-or-self in its own B_k, as a
    _cube_ids id (-1 for a cube in no B_k), one array per generation.

    The generations go coarsest first, with one array per level k holding
    every cube's coarsest ancestor-or-self in B_k, or -1: a cube inherits the
    entry of its ancestor in the previous generation of assignment (index
    >> gap), and where that is -1 it takes its own id if it is in B_k itself.
    """
    levels = np.unique(np.concatenate([a.ravel() for a in assignment.values()]))
    levels = levels[levels > _UNASSIGNED]
    n = lat.grid.dim
    owners, above, prev = {}, None, None
    for k_gen in sorted(assignment):
        ids, level = _cube_ids(lat, k_gen), assignment[k_gen]
        if above is None:
            inherited = np.full((len(levels),) + ids.shape, -1)
        else:
            up = np.arange(1 << k_gen) >> (k_gen - prev)
            inherited = above[(slice(None),) + np.ix_(*(up,) * n)]
        inside = level == levels.reshape((-1,) + (1,) * n)
        above, prev = np.where(inside & (inherited < 0), ids, inherited), k_gen
        # a cube in B_k has an entry >= 0 at level k, and it is in no other level
        owners[k_gen] = np.where(inside, above, -1).max(axis=0, initial=-1)
    return owners


def _maximal_counts(lat: DyadicLattice, assignment: dict, owners: dict) -> dict:
    """{k: number of maximal cubes of B_k}, the levels in order of first
    appearance (generations coarsest first, cubes in C order)."""
    gens = sorted(assignment)
    level = np.concatenate([assignment[k].ravel() for k in gens])
    tops = np.concatenate([(owners[k] == _cube_ids(lat, k)).ravel() for k in gens])
    found, first = np.unique(level[level > _UNASSIGNED], return_index=True)
    return {int(k): int(np.count_nonzero(tops & (level == k))) for k in found[np.argsort(first)]}


def _bucket_labels(lat: DyadicLattice, k_gen: int, levels: np.ndarray, owners: np.ndarray):
    """(keys, labels): the buckets (k, id of Qbar) of one generation's cubes in
    order of first appearance (C order of the cubes), None for the cubes in no
    B_k, and the cell array of each cell's index into keys."""
    found, first, inverse = np.unique(owners.ravel(), return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    level = levels.ravel()
    keys = [None if q < 0 else (int(level[i]), q) for q, i in zip(found[order].tolist(), first[order].tolist())]
    return keys, lat.spread(rank[inverse].reshape(owners.shape), k_gen)


def _masked_transform(masks: np.ndarray, g: Grid):
    """u -> spectrum(np.where(masks, u, 0.0), g), bit for bit: in 2D (rfft on the
    last axis, then fft on the other) only the rows holding a mask cell take the rfft."""
    if g.dim == 1:
        return lambda u: spectrum(np.where(masks, u, 0.0), g)
    b, i = np.nonzero(masks.any(axis=-1))
    held, half = masks[b, i], np.zeros(masks.shape[:-1] + (g.points_per_axis // 2 + 1,), dtype=complex)

    def transform(u):
        half[b, i] = np.fft.rfft(np.where(held, u[i], 0.0))
        return np.fft.fft(half, axis=-2)

    return transform


def _whitney_pieces(f: GridFunction, lat: DyadicLattice, slabs: list, log_weight: float, assignment, owners):
    """Whitney pieces of the reproducing formula over slabs of dt/t weight
    log_weight (TimeGrid.slabs), bucketed under (k, id of Qbar), as (keys,
    pieces): the buckets in row order, None for the cubes in no B_k (the
    unassigned remainder), and the stack (len(keys), *grid.shape) of pieces.

    The scales of one Whitney slab share one generation's buckets, so a piece
    is summed in the spectral domain: piece = irfft(sum_t m_t rfft(1_key u_t))
    with u_t the qt fields of one apply_scales and m_t the psi multipliers.
    Every bucket owns one row of a spectrum array, numbered in order of first
    appearance.  _BUCKET_SLICE buckets at a time, their rows are gathered
    once per slab, each scale's masked copies of u_t take one real transform
    (_masked_transform, on the grid rows they hold) added onto them in
    place, and the rows are scattered back once.  They are inverted into the
    stack _BUCKET_SLICE at a time, so the temporaries stay bounded, and the
    stack takes the spectrum array's own buffer.  psi is the quadrature
    stencil in 1D and the Fourier multiplier in 2D.  The stencil has compact
    support, so there each piece is zeroed outside the cells its slabs reach
    (psi_reach): the clipped mass holds no round-off.
    """
    g = f.grid
    psi_backend = QUADRATURE if g.dim == 1 else FOURIER
    plan, row = [], {}
    # finest slab first: every piece's spectrum sums its scales in increasing order
    for k_gen, ts in reversed(slabs):
        keys, labels = _bucket_labels(lat, k_gen, assignment[k_gen], owners[k_gen])
        plan.append((ts, [row.setdefault(key, len(row)) for key in keys], labels))
    half = g.shape[:-1] + (g.points_per_axis // 2 + 1,)
    # -0.0 + x is x bit for bit, so a row's first term lands unchanged
    spectra = np.full((len(row),) + half, complex(-0.0, -0.0))
    reach = np.zeros((len(row),) + g.shape, dtype=bool) if psi_backend == QUADRATURE else None
    for ts, rows, labels in plan:
        masks = labels == np.arange(len(rows)).reshape((-1,) + (1,) * g.dim)
        psi = free_multipliers(psi_op(ts[0], backend=psi_backend), g, ts)
        if reach is not None:
            reach[rows] |= psi_reach(masks, ts, g)
        fields = apply_scales("qt", "free", ts, f)
        # a batch's spectrum rows stay in cache over the slab's scales, which
        # every row still sums in increasing order
        for lo in range(0, len(rows), _BUCKET_SLICE):
            batch_rows, transform = rows[lo:lo + _BUCKET_SLICE], _masked_transform(masks[lo:lo + _BUCKET_SLICE], g)
            rows_sum = spectra[batch_rows]
            for m, u in zip(psi, fields):
                batch = transform(u)
                batch *= m
                rows_sum += batch
            spectra[batch_rows] = rows_sum
    weight = log_weight * calderon_constant()
    # a batch's piece rows end before the spectrum rows not yet inverted begin
    pieces = spectra.view(float).reshape(-1)[:len(row) * math.prod(g.shape)].reshape((len(row),) + g.shape)
    for lo in range(0, len(row), _BUCKET_SLICE):
        block = pieces[lo:lo + _BUCKET_SLICE]
        block[...] = from_spectrum(spectra[lo:lo + _BUCKET_SLICE], g)
        if reach is not None:
            block[~reach[lo:lo + _BUCKET_SLICE]] = 0.0
        block *= weight
    return list(row), pieces


def atomic_decompose(f: GridFunction, w, lat: DyadicLattice, tg: TimeGrid = None,
                     p: float = 2.0) -> AtomicDecomposition:
    """Level-set atomic decomposition of f against the weight w, read by
    grid.weight_cells (None is the unit weight), over the unshifted lattice
    lat on f's grid (dyadic.lattices_on) and the scales of tg on it (time_grid).

    Atoms are (1,p,0)-atoms supported in 3Qbar, p read by grid.checked_p;
    coefficients are 2^k w(Qbar).  Raises DecompositionError when the square
    function vanishes identically.
    """
    g = f.grid
    lattices_on(lat, g, one=True)
    if any(s != 0 for s in lat.shift_cells):
        raise ParameterError("use the unshifted lattice for the decomposition")
    checked_p(p)
    warr = weight_cells(w, g)
    tg = time_grid(tg, g)
    slabs = tg.slabs(lat.max_generation)

    S = area_function(f, "qt", ConeSpec("free"), tg)
    smax = float(np.max(S.values))
    if smax <= 0.0:
        raise DecompositionError("square function vanishes; nothing to decompose")
    positive = S.values[S.values > 0]
    kmin = int(np.floor(np.log2(np.min(positive)))) - 1
    kmax = int(np.ceil(np.log2(smax)))
    ks = list(range(kmin, kmax + 1))

    h_n, n, N = g.cell_volume, g.dim, g.points_per_axis
    omega = S.values > np.array([2.0 ** k for k in ks]).reshape((-1,) + (1,) * n)

    # per-generation assignment: the unique k with the B_k sandwich property,
    # the number of levels whose Omega_k holds more than half of w(Q)
    assignment, masses = {}, {}
    for k_gen, _ in slabs:
        wq = lat.blocks(warr, k_gen).sum(axis=-1)
        count = np.count_nonzero(lat.blocks(warr * omega, k_gen).sum(axis=-1) > wq / 2.0, axis=0)
        assignment[k_gen] = np.where(count > 0, kmin - 1 + count, _UNASSIGNED)
        masses[k_gen] = wq

    owners = _owners(lat, assignment)
    maximal = _maximal_counts(lat, assignment, owners)
    keys, pieces = _whitney_pieces(f, lat, slabs, tg.log_weight, assignment, owners)

    # the atoms in sorted (k, id of Qbar) order.  The boxes of one generation
    # of Qbar share their size, so each generation's box values are gathered
    # from the pieces at once, the boxes zeroed in place (what is left is the
    # mass clipped outside 3Qbar) and its atoms checked as one stack
    found = sorted((key, r) for r, key in enumerate(keys) if key is not None)
    level, ids, rows = np.array([(k, q, r) for (k, q), r in found], dtype=int).reshape(-1, 3).T
    gens = np.array([(q.bit_length() - 1) // n for q in ids.tolist()], dtype=int)
    records, lams, checks, terms = ([None] * len(found) for _ in range(4))
    for k_gen in np.unique(gens).tolist():
        at = np.flatnonzero(gens == k_gen)
        index = np.unravel_index(ids[at] - (1 << n * k_gen), (1 << k_gen,) * n)
        lam = np.array([2.0 ** k * x for k, x in zip(level[at].tolist(), (masses[k_gen][index] * h_n).tolist())])
        # 3Qbar modulo the periodic box, increasing along each axis (so in the
        # grid's C order): N consecutive cells where 3m >= N are the whole axis
        m, shape = lat.cells_per_axis(k_gen), (len(at),) + (1,) * n
        box = tuple(np.sort((i[:, None] * m - m + np.arange(min(3 * m, N))) % N, axis=1) for i in index)
        cells = tuple(b.reshape(shape[:a + 1] + (-1,) + shape[a + 2:]) for a, b in enumerate(box))
        in_pieces = (rows[at].reshape(shape),) + cells
        local = pieces[in_pieces] / lam.reshape(shape)
        pieces[in_pieces] = 0.0
        scaled = lam.reshape(shape) * local
        stacked = _check_cells(p, local, np.ones(local.shape, dtype=bool), warr[cells], h_n)
        for j, (i, cube_index) in enumerate(zip(at.tolist(), zip(*(x.tolist() for x in index)))):
            records[i] = AtomRecord(DyadicCube(k_gen, cube_index), found[i][0][0], tuple(b[j] for b in box), local[j])
            lams[i], checks[i], terms[i] = float(lam[j]), stacked[j], (tuple(c[j] for c in cells), scaled[j])
    # the pieces are spent: their absolute values give each row's clipped mass
    outside = (np.abs(pieces, out=pieces).sum(axis=tuple(range(1, n + 1))) * h_n).tolist()
    clipped = 0.0
    recon = np.zeros(g.shape)
    for r, (where, term) in zip(rows.tolist(), terms):
        clipped += outside[r]
        recon[where] += term
    residual = GridFunction(g, f.values - recon)

    s_l1w = float(np.sum(S.values * warr) * h_n)
    f_l1w = float(np.sum(np.abs(f.values) * warr) * h_n)
    # coefficient chain: sum_k 2^k w(Qbar) <= C sum_k 2^k w(Omega~_k)
    #                                      <= C' sum_k 2^k w(Omega_k) <= C'' ||S f||_{L^1_w}
    tops = sorted(maximal)
    top_rows = np.array(tops, dtype=int) - kmin
    omega_mass = omega_tilde_mass = 0.0
    for k, om, mt in zip(tops, omega[top_rows], maximal_cells(warr * omega[top_rows], warr, lat) > 0.5):
        omega_mass += 2.0 ** k * float(np.sum(warr[om]) * h_n)
        omega_tilde_mass += 2.0 ** k * float(np.sum(warr[mt]) * h_n)
    report = {
        "levels": maximal,
        "n_atoms": len(records),
        "coefficient_sum": float(np.sum(np.abs(lams))),
        "omega_mass_sum": omega_mass,
        "omega_tilde_mass_sum": omega_tilde_mass,
        "square_function_l1w": s_l1w,
        "fitted_coefficient_constant": float(np.sum(np.abs(lams)) / s_l1w) if s_l1w > 0 else math.inf,
        "residual_l1w": float(np.sum(np.abs(residual.values) * warr) * h_n),
        "input_l1w": f_l1w,
        "clipped_mass": clipped,
        "unassigned_l1": outside[keys.index(None)] if None in keys else 0.0,
        "atom_checks": checks,
    }
    return AtomicDecomposition(AtomSequence(g, records, p, w), lams, residual, report)
