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
and its atoms sequence builds the full-grid Atom on access; the atom checks
run on the box.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cache
from typing import NamedTuple

import numpy as np

from .dyadic import DyadicCube, DyadicLattice, lattices_on, weighted_maximal
from .errors import DecompositionError, ParameterError
from .grid import Grid, GridFunction, weight_cells
from .operators import FOURIER, QUADRATURE, apply_scales, free_multipliers, from_spectrum, psi_op, psi_reach, spectrum
from .squarefn import ConeSpec, TimeGrid, area_function


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
    read by grid.weight_cells.
    """
    g = atom.values.grid
    warr = weight_cells(atom.weight, g)
    return _check_cells(atom.p, atom.values.values, atom.support, warr, g.cell_volume)


def _check_cells(p: float, vals: np.ndarray, mask: np.ndarray, warr: np.ndarray, cell_volume: float) -> dict:
    """check_atom on cell arrays: the atom's values, its support mask and the
    weight's cells, all of one shape (the full grid, or an atom's support box
    with an all-true mask)."""
    support_ok = bool(np.all(vals[~mask] == 0.0))
    moment = float(np.sum(vals) * cell_volume)
    tol = 1e-10 * max(float(np.sum(np.abs(vals)) * cell_volume), 1e-300)
    moment_ok = abs(moment) <= tol
    norm = float(np.sum(np.abs(vals) ** p * warr) * cell_volume) ** (1.0 / p)
    wq = float(np.sum(warr[mask]) * cell_volume)
    bound = wq ** (1.0 / p - 1.0)
    norm_ok = norm <= bound * (1.0 + 1e-9)
    return {
        "support_ok": support_ok,
        "moment": moment,
        "moment_tolerance": tol,
        "moment_ok": moment_ok,
        "norm": norm,
        "bound": bound,
        "norm_ok": bool(norm_ok),
        "rescale": bound / norm if norm > 0 else math.inf,
        "ok": bool(support_ok and moment_ok and norm_ok),
    }


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


def _support_box(lat: DyadicLattice, cube: DyadicCube) -> tuple:
    """3Qbar taken modulo the periodic box (unshifted lattice cubes): one
    increasing cell index array per axis, every cell where 3m >= N.  Increasing,
    so the box reads its cells in the grid's C order, as a full-grid mask does."""
    N = lat.grid.points_per_axis
    m = lat.cells_per_axis(cube.generation)
    if 3 * m >= N:
        return (np.arange(N),) * len(cube.index)
    return tuple(np.sort((i * m - m + np.arange(3 * m)) % N) for i in cube.index)


def _cube_ids(lat: DyadicLattice, k: int) -> np.ndarray:
    """Ids of the generation-k cubes, on the cube index axes: 2^(n k) plus the
    C-order position, so ids sort as (generation, index) do."""
    n = lat.grid.dim
    return (1 << (n * k)) + np.arange(1 << (n * k)).reshape((1 << k,) * n)


def _cube_of(lat: DyadicLattice, cube_id: int) -> DyadicCube:
    """The cube of a _cube_ids id."""
    n = lat.grid.dim
    k = (cube_id.bit_length() - 1) // n
    return DyadicCube(k, tuple(int(i) for i in np.unravel_index(cube_id - (1 << (n * k)), (1 << k,) * n)))


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


def _whitney_pieces(f: GridFunction, lat: DyadicLattice, tg: TimeGrid, assignment, owners):
    """Whitney pieces of the reproducing formula, bucketed under (k, id of
    Qbar), and the unassigned remainder.

    The scales of one Whitney slab share one generation's buckets, so a piece
    is summed in the spectral domain: piece = irfft(sum_t m_t rfft(1_key u_t))
    with u_t the qt fields of one apply_scales and m_t the psi multipliers.
    Every bucket owns one row of a spectrum array, numbered in order of first
    appearance.  _BUCKET_SLICE buckets at a time, at each scale of the slab
    their masked copies of u_t take one real transform (_masked_transform,
    on the grid rows they hold) and are added onto their rows; the rows are
    inverted _BUCKET_SLICE at a time at the end, so the stacked temporaries
    stay bounded.  psi is the quadrature stencil in 1D and the Fourier
    multiplier in 2D.  The stencil has compact support, so there each piece
    is zeroed outside the cells its slabs reach (psi_reach): the clipped
    mass holds no round-off.
    """
    g = f.grid
    psi_backend = QUADRATURE if g.dim == 1 else FOURIER
    slabs, row = [], {}
    # finest slab first: every piece's spectrum sums its scales in increasing order
    for k_gen, ts in reversed(tg.slabs(g, lat.max_generation)):
        keys, labels = _bucket_labels(lat, k_gen, assignment[k_gen], owners[k_gen])
        slabs.append((ts, [row.setdefault(key, len(row)) for key in keys], labels))
    half = g.shape[:-1] + (g.points_per_axis // 2 + 1,)
    # -0.0 + x is x bit for bit, so a row's first term lands unchanged
    spectra = np.full((len(row),) + half, complex(-0.0, -0.0))
    reach = np.zeros((len(row),) + g.shape, dtype=bool) if psi_backend == QUADRATURE else None
    for ts, rows, labels in slabs:
        masks = labels == np.arange(len(rows)).reshape((-1,) + (1,) * g.dim)
        psi = free_multipliers(psi_op(ts[0], backend=psi_backend), g, ts)
        if reach is not None:
            reach[rows] |= psi_reach(masks, ts, g)
        fields = apply_scales("qt", "free", ts, f)
        # a batch's spectrum rows stay in cache over the slab's scales, which
        # every row still sums in increasing order
        for lo in range(0, len(rows), _BUCKET_SLICE):
            batch_rows, transform = rows[lo:lo + _BUCKET_SLICE], _masked_transform(masks[lo:lo + _BUCKET_SLICE], g)
            for m, u in zip(psi, fields):
                batch = transform(u)
                batch *= m
                spectra[batch_rows] += batch
    weight = tg.log_weight * calderon_constant()
    pieces = {}
    keys = list(row)
    for lo in range(0, len(keys), _BUCKET_SLICE):
        values = from_spectrum(spectra[lo:lo + _BUCKET_SLICE], g)
        for i, (key, v) in enumerate(zip(keys[lo:], values), lo):
            pieces[key] = weight * (np.where(reach[i], v, 0.0) if reach is not None else v)
    unassigned = pieces.pop(None, np.zeros(g.shape))
    return pieces, unassigned


def atomic_decompose(
    f: GridFunction,
    w,
    lat: DyadicLattice,
    tg: TimeGrid = None,
    p: float = 2.0,
) -> AtomicDecomposition:
    """Level-set atomic decomposition of f against the weight w, read by
    grid.weight_cells (None is the unit weight), over the unshifted lattice
    lat on f's grid (dyadic.lattices_on).

    Atoms are (1,p,0)-atoms supported in 3Qbar; coefficients are 2^k w(Qbar).
    Raises DecompositionError when the square function vanishes identically.
    """
    g = f.grid
    lattices_on(lat, g, one=True)
    if any(s != 0 for s in lat.shift_cells):
        raise ParameterError("use the unshifted lattice for the decomposition")
    warr = weight_cells(w, g)
    tg = tg or TimeGrid.geometric(g)

    S = area_function(f, "qt", ConeSpec("free"), tg)
    smax = float(np.max(S.values))
    if smax <= 0.0:
        raise DecompositionError("square function vanishes; nothing to decompose")
    positive = S.values[S.values > 0]
    kmin = int(np.floor(np.log2(np.min(positive)))) - 1
    kmax = int(np.ceil(np.log2(smax)))
    ks = list(range(kmin, kmax + 1))

    h_n = g.cell_volume
    omega_masks = {k: S.values > 2.0 ** k for k in ks}

    # per-generation assignment: the unique k with the B_k sandwich property,
    # the number of levels whose Omega_k holds more than half of w(Q)
    assignment, masses = {}, {}
    for k_gen, _ in tg.slabs(g, lat.max_generation):
        wq = lat.blocks(warr, k_gen).sum(axis=-1)
        count = sum(lat.blocks(warr * omega_masks[k], k_gen).sum(axis=-1) > wq / 2.0 for k in ks)
        assignment[k_gen] = np.where(count > 0, kmin - 1 + count, _UNASSIGNED)
        masses[k_gen] = wq

    owners = _owners(lat, assignment)
    maximal = _maximal_counts(lat, assignment, owners)
    pieces, unassigned = _whitney_pieces(f, lat, tg, assignment, owners)

    # each piece is fresh: its box values are copied out and the box zeroed in
    # place, leaving the mass clipped outside 3Qbar
    records, lams, clipped = [], [], 0.0
    recon = np.zeros(g.shape)
    for k, owner in sorted(pieces):
        qbar, raw = _cube_of(lat, owner), pieces.pop((k, owner))
        lam = 2.0 ** k * (float(masses[qbar.generation][qbar.index]) * h_n)
        box = _support_box(lat, qbar)
        cells = np.ix_(*box)
        local = raw[cells] / lam
        raw[cells] = 0.0
        clipped += float(np.sum(np.abs(raw)) * h_n)
        recon[cells] += lam * local
        records.append(AtomRecord(qbar, k, box, local))
        lams.append(lam)
    residual = GridFunction(g, f.values - recon)

    s_l1w = float(np.sum(S.values * warr) * h_n)
    f_l1w = float(np.sum(np.abs(f.values) * warr) * h_n)
    # coefficient chain: sum_k 2^k w(Qbar) <= C sum_k 2^k w(Omega~_k)
    #                                      <= C' sum_k 2^k w(Omega_k) <= C'' ||S f||_{L^1_w}
    omega_mass = 0.0
    omega_tilde_mass = 0.0
    for k in sorted(maximal):
        om = omega_masks[k]
        omega_mass += 2.0 ** k * float(np.sum(warr[om]) * h_n)
        mt = weighted_maximal(GridFunction(g, om.astype(float)), warr, lat)
        omega_tilde_mass += 2.0 ** k * float(np.sum(warr[mt.values > 0.5]) * h_n)
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
        "unassigned_l1": float(np.sum(np.abs(unassigned)) * h_n),
        "atom_checks": [
            _check_cells(p, r.local, np.ones(r.local.shape, dtype=bool), warr[np.ix_(*r.box)], h_n) for r in records
        ],
    }
    return AtomicDecomposition(AtomSequence(g, records, p, w), lams, residual, report)
