"""(1,p,beta)-atoms and the level-set atomic decomposition of Hardy-space
functions driven by the compactly supported reproducing pair
psi(t sqrt(L)) . t^2 L e^{-t^2 L}.

The decomposition follows the level sets Omega_k = {S(f) > 2^k}, their
maximal-function dilations Omega~_k, and the cube classes
B_k = {Q : w(Q cap Omega_k) > w(Q)/2 >= w(Q cap Omega_{k+1})}; atoms are the
Whitney-box pieces of the reproducing formula grouped under the maximal
cubes of each B_k with coefficients 2^k w(Qbar).

The time integral is truncated to the supplied TimeGrid, so the multiplier
sum reconstructs only the frequency band the grid resolves; the residual
field carries everything else explicitly (the mean, the unresolved band,
pieces over cubes that never enter any B_k, and mass clipped outside 3Qbar).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache
from itertools import groupby

import numpy as np

from .dyadic import DyadicCube, DyadicLattice, weighted_maximal
from .errors import DecompositionError, ParameterError
from .grid import FULL, Grid, GridFunction
from .operators import QUADRATURE, apply_scales, free_multipliers, from_spectrum, psi_op, psi_reach, spectrum
from .squarefn import ConeSpec, TimeGrid, area_function
from .weights import as_weight


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
    """Candidate (1,p,beta)-atom supported in a box around a dyadic cube.

    The support box is the threefold dilate of the cube taken modulo the
    periodic box, so edge atoms keep the kernel mass the periodic backend
    wraps around; the nominal center and sidelength are carried for the
    moment tolerances.
    """

    cube: DyadicCube
    support: np.ndarray
    values: GridFunction
    center: np.ndarray
    sidelength: float
    order: int
    p: float
    weight: object
    level: int = 0

    def support_mask(self) -> np.ndarray:
        return self.support


def check_atom(atom: Atom, p: float = None, beta: int = None, w=None) -> dict:
    """Pass/fail per atom condition with measured slack.

    (1) support inside the declared box (exact mask);
    (2) moments sum a (x - c)^alpha h^n = 0 for |alpha| <= beta,
        tolerance 1e-10 ||a||_1 l^|alpha|;
    (3) ||a||_{L^p_w} <= w(box)^{1/p - 1} (1 + 1e-9).
    """
    p = atom.p if p is None else p
    beta = atom.order if beta is None else beta
    w = atom.weight if w is None else w
    g = atom.values.grid
    vals = atom.values.values
    mask = atom.support_mask()
    support_ok = bool(np.all(vals[~mask] == 0.0))

    pts = g.points()
    center = atom.center
    ell = atom.sidelength
    l1 = float(np.sum(np.abs(vals)) * g.cell_volume)
    moments = []
    moments_ok = True
    for alphas in _multi_indices(g.dim, beta):
        mono = np.ones(g.shape)
        for a, e in enumerate(alphas):
            if e:
                mono *= (pts[..., a] - center[a]) ** e
        mval = float(np.sum(vals * mono) * g.cell_volume)
        tol = 1e-10 * max(l1, 1e-300) * ell ** sum(alphas)
        ok = abs(mval) <= tol
        moments_ok &= ok
        moments.append({"alpha": list(alphas), "value": mval, "tolerance": tol, "ok": ok})

    warr = as_weight(w).array if w is not None else np.ones(g.shape)
    norm = float(np.sum(np.abs(vals) ** p * warr) * g.cell_volume) ** (1.0 / p)
    wq = float(np.sum(warr[mask]) * g.cell_volume)
    bound = wq ** (1.0 / p - 1.0)
    norm_ok = norm <= bound * (1.0 + 1e-9)
    return {
        "support_ok": support_ok,
        "moments": moments,
        "moments_ok": bool(moments_ok),
        "norm": norm,
        "bound": bound,
        "norm_ok": bool(norm_ok),
        "rescale": bound / norm if norm > 0 else math.inf,
        "ok": bool(support_ok and moments_ok and norm_ok),
    }


def _multi_indices(dim: int, beta: int):
    if dim == 1:
        return [(e,) for e in range(beta + 1)]
    out = []
    for e1 in range(beta + 1):
        for e2 in range(beta + 1 - e1):
            out.append((e1, e2))
    return out


@dataclass
class AtomicDecomposition:
    atoms: list
    coefficients: list
    residual: GridFunction
    report: dict = field(default_factory=dict)

    def reconstruction(self) -> GridFunction:
        g = self.residual.grid
        vals = self.residual.values.copy()
        for lam, a in zip(self.coefficients, self.atoms):
            vals += lam * a.values.values
        return GridFunction(g, vals)

    def to_json(self) -> dict:
        """Coefficients, cube ids, and per-atom validity slack."""
        atoms = []
        for lam, a, chk in zip(self.coefficients, self.atoms, self.report.get("atom_checks", [])):
            atoms.append(
                {
                    "coefficient": lam,
                    "level": a.level,
                    "cube": {"generation": a.cube.generation, "index": list(a.cube.index)},
                    "support_ok": chk.get("support_ok"),
                    "moment_slack": max(abs(m["value"]) for m in chk.get("moments", [{"value": 0.0}])),
                    "norm_over_bound": chk["norm"] / chk["bound"] if chk.get("bound") else None,
                }
            )
        summary = {k: v for k, v in self.report.items() if k != "atom_checks"}
        return {"atoms": atoms, "summary": summary}


def _generation_of_scale(grid: Grid, t: float, max_generation: int):
    """Whitney slab owner: the generation k with l_k/2 < t <= l_k."""
    ell0 = 2.0 * grid.halfwidth
    k = int(np.floor(np.log2(ell0 / t) + 1e-9))
    if k < 0 or k > max_generation:
        return None
    return k


def _support_mask(lat: DyadicLattice, cube: DyadicCube) -> np.ndarray:
    """3Qbar taken modulo the periodic box (unshifted lattice cubes)."""
    N = lat.grid.points_per_axis
    m = lat.cells_per_axis(cube.generation)
    axes = []
    for a in range(lat.grid.dim):
        s0 = cube.index[a] * m
        if 3 * m >= N:
            axes.append(np.arange(N))
        else:
            axes.append(np.unique((s0 - m + np.arange(3 * m)) % N))
    mask = np.zeros(lat.grid.shape, dtype=bool)
    mask[np.ix_(*axes)] = True
    return mask


def _bucket_labels(lat: DyadicLattice, k_gen: int, levels: np.ndarray, cube_bucket: dict):
    """(keys, labels): the buckets (k, Qbar) of one generation's cubes in order
    of first appearance, None for the unassigned cubes, and the cell array of
    each cell's index into keys."""
    keys, index = [], {}
    per_cube = np.empty(levels.shape, dtype=int)
    for idx in np.ndindex(levels.shape):
        k = int(levels[idx])
        key = None if k <= _UNASSIGNED else (k, cube_bucket[(k, DyadicCube(k_gen, idx))])
        if key not in index:
            index[key] = len(keys)
            keys.append(key)
        per_cube[idx] = index[key]
    return keys, lat.spread(per_cube, k_gen)


def _whitney_pieces(f: GridFunction, lat: DyadicLattice, tg: TimeGrid, assignment, cube_bucket, psi_backend):
    """Whitney pieces of the reproducing formula, bucketed under (k, Qbar), and
    the unassigned remainder.

    The scales of one Whitney slab share one generation's buckets, so a piece
    is summed in the spectral domain: piece = irfft(sum_t m_t rfft(1_key u_t))
    with u_t the qt fields of one apply_scales and m_t the psi multipliers.
    At each scale _BUCKET_SLICE masked copies of u_t take one real transform;
    each key's spectrum is inverted once at the end, _BUCKET_SLICE keys at a
    time, so the stacked temporaries stay bounded.  The quadrature stencil
    has compact support, so there each piece is zeroed outside the cells its
    slabs reach (psi_reach): the clipped mass then holds no round-off.
    """
    g = f.grid
    spectra, reach = {}, {}
    gen_of = [_generation_of_scale(g, t, lat.max_generation) for t in tg.t_values]
    for k_gen, group in groupby(zip(gen_of, tg.t_values), key=lambda pair: pair[0]):
        if k_gen is None:
            continue
        ts = np.array([t for _, t in group])
        keys, labels = _bucket_labels(lat, k_gen, assignment[k_gen], cube_bucket)
        psi = free_multipliers(psi_op(ts[0], backend=psi_backend), g, ts)
        if psi_backend == QUADRATURE:
            for key, cells in zip(keys, psi_reach(labels == np.arange(len(keys))[:, None], ts, g)):
                reach[key] = reach.get(key, False) | cells
        for m, u in zip(psi, apply_scales("qt", "free", ts, f)):
            for lo in range(0, len(keys), _BUCKET_SLICE):
                ids = np.arange(lo, min(lo + _BUCKET_SLICE, len(keys))).reshape((-1,) + (1,) * g.dim)
                batch = spectrum(np.where(labels == ids, u, 0.0), g)
                batch *= m
                for key, F in zip(keys[lo:], batch):
                    if key in spectra:
                        spectra[key] += F
                    else:
                        spectra[key] = F.copy()
    weight = tg.log_weight * calderon_constant()
    keys = list(spectra)
    pieces = {}
    for lo in range(0, len(keys), _BUCKET_SLICE):
        batch = keys[lo:lo + _BUCKET_SLICE]
        values = from_spectrum(np.stack([spectra.pop(key) for key in batch]), g)
        for key, v in zip(batch, values):
            pieces[key] = weight * (np.where(reach[key], v, 0.0) if reach else v)
    unassigned = pieces.pop(None, np.zeros(g.shape))
    return pieces, unassigned


def atomic_decompose(
    f: GridFunction,
    w,
    lat: DyadicLattice,
    tg: TimeGrid = None,
    p: float = 2.0,
    psi_backend: str = "auto",
) -> AtomicDecomposition:
    """Level-set atomic decomposition of f against the weight w.

    Atoms are (1,p,0)-atoms supported in 3Qbar; coefficients are 2^k w(Qbar).
    Raises DecompositionError when the square function vanishes identically.
    """
    g = f.grid
    if g.domain != FULL:
        raise ParameterError("atomic decomposition runs on full-space data")
    if any(s != 0 for s in lat.shift_cells):
        raise ParameterError("use the unshifted lattice for the decomposition")
    w = as_weight(w)
    tg = tg or TimeGrid.geometric(g)
    if psi_backend == "auto":
        psi_backend = "quadrature" if g.dim == 1 else "fourier"

    S = area_function(f, "qt", ConeSpec("free"), tg)
    smax = float(np.max(S.values))
    if smax <= 0.0:
        raise DecompositionError("square function vanishes; nothing to decompose")
    positive = S.values[S.values > 0]
    kmin = int(np.floor(np.log2(np.min(positive)))) - 1
    kmax = int(np.ceil(np.log2(smax)))
    ks = list(range(kmin, kmax + 1))

    h_n = g.cell_volume

    warr = w.array
    omega_masks = {k: S.values > 2.0 ** k for k in ks}
    omega_masks[kmax + 1] = np.zeros(g.shape, dtype=bool)
    gens = sorted({_generation_of_scale(g, t, lat.max_generation) for t in tg.t_values} - {None})

    # per-generation assignment: the unique k with the B_k sandwich property
    assignment = {}
    for k_gen in gens:
        wq = lat.blocks(warr, k_gen).sum(axis=-1)
        conds = []
        for k in ks + [kmax + 1]:
            wo = lat.blocks(warr * omega_masks[k], k_gen).sum(axis=-1)
            conds.append(wo > wq / 2.0)
        conds = np.array(conds[:-1])  # condition at kmax+1 is identically false
        count = conds.sum(axis=0)
        assignment[k_gen] = np.where(count > 0, kmin - 1 + count, _UNASSIGNED)

    # B_k cube lists and their maximal elements
    members = {}
    for k_gen in gens:
        arr = assignment[k_gen]
        for idx in np.ndindex(arr.shape):
            k = int(arr[idx])
            if k > _UNASSIGNED:
                members.setdefault(k, []).append(DyadicCube(k_gen, idx))
    maximal = {}
    cube_bucket = {}
    for k, lst in members.items():
        byset = set(lst)
        tops = []
        for q in lst:
            anc = lat.parent(q)
            is_max = True
            while anc is not None:
                if anc in byset:
                    is_max = False
                    break
                anc = lat.parent(anc)
            if is_max:
                tops.append(q)
        tops.sort(key=lambda c: (c.generation, c.index))
        maximal[k] = tops
        top_set = set(tops)
        for q in lst:
            owner = q if q in top_set else None
            if owner is None:
                for t_ in tops:
                    if lat.contains(t_, q):
                        owner = t_
                        break
            cube_bucket[(k, q)] = owner

    pieces, unassigned = _whitney_pieces(f, lat, tg, assignment, cube_bucket, psi_backend)

    atoms = []
    lams = []
    clipped = 0.0
    for (k, qbar), raw in sorted(pieces.items(), key=lambda kv: (kv[0][0], kv[0][1].generation, kv[0][1].index)):
        lam = 2.0 ** k * w.cube_mass(lat, qbar)
        mask = _support_mask(lat, qbar)
        vals = np.where(mask, raw, 0.0)
        clipped += float(np.sum(np.abs(raw - vals)) * h_n)
        ext = lat.extent(qbar)
        center = (ext[0] + ext[1]) / 2.0 if ext is not None else np.zeros(g.dim)
        atoms.append(
            Atom(
                qbar,
                mask,
                GridFunction(g, vals / lam),
                center=center,
                sidelength=3.0 * lat.sidelength(qbar),
                order=0,
                p=p,
                weight=w,
                level=k,
            )
        )
        lams.append(lam)

    recon = np.zeros(g.shape)
    for lam, a in zip(lams, atoms):
        recon += lam * a.values.values
    residual = GridFunction(g, f.values - recon)

    s_l1w = float(np.sum(S.values * warr) * h_n)
    f_l1w = float(np.sum(np.abs(f.values) * warr) * h_n)
    # coefficient chain: sum_k 2^k w(Qbar) <= C sum_k 2^k w(Omega~_k)
    #                                      <= C' sum_k 2^k w(Omega_k) <= C'' ||S f||_{L^1_w}
    omega_mass = 0.0
    omega_tilde_mass = 0.0
    for k in sorted(maximal):
        om = omega_masks.get(k)
        if om is None:
            continue
        omega_mass += 2.0 ** k * float(np.sum(warr[om]) * h_n)
        mt = weighted_maximal(GridFunction(g, om.astype(float)), w.values, lat)
        omega_tilde_mass += 2.0 ** k * float(np.sum(warr[mt.values > 0.5]) * h_n)
    report = {
        "levels": {int(k): len(v) for k, v in maximal.items()},
        "n_atoms": len(atoms),
        "coefficient_sum": float(np.sum(np.abs(lams))),
        "omega_mass_sum": omega_mass,
        "omega_tilde_mass_sum": omega_tilde_mass,
        "square_function_l1w": s_l1w,
        "fitted_coefficient_constant": float(np.sum(np.abs(lams)) / s_l1w) if s_l1w > 0 else math.inf,
        "residual_l1w": float(np.sum(np.abs(residual.values) * warr) * h_n),
        "input_l1w": f_l1w,
        "clipped_mass": clipped,
        "unassigned_l1": float(np.sum(np.abs(unassigned)) * h_n),
        "atom_checks": [check_atom(a) for a in atoms],
    }
    return AtomicDecomposition(atoms, lams, residual, report)
