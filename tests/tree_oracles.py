"""The dyadic tree one cube at a time, for the oracles that walk it.

The library reads whole generations of the block view and never steps from
a cube to its parent or children; the tests' stack walks and ancestor climbs
do, through children and parent.  The library also takes the Whitney slab of
each generation from TimeGrid.slabs; the oracles take it one cube or one
scale at a time, by the two rules it replaced: slab_times (the scales of one
cube's slab) and generation_of_scale (the generation whose slab holds one
scale).

The library's tests also keep here what only they call: haar_reconstruct
(a Haar expansion back to values, one synthesis per generation),
dyadic_local_bmo and bmo_deltaN_classical_norm, bmo_good_function (the
Calderon-Zygmund good part of a BMO function) and reconstruction (an atomic
decomposition summed back).  full_grid_atoms builds a decomposition's atoms
as the library did before it held them on their support boxes: each atom a
full-grid array and a full-grid support mask (support_mask, 3Qbar modulo the
periodic box), checked on the full grid.  box_atoms_by_atom cuts them onto
their boxes one atom at a time, as the library did before it cut and checked
a generation of atoms at once: cube_of reads an atom's cube from its id,
support_box its box, and check_cells is the scalar atom check on one atom's
cells.  omega_sums_by_level takes the level sets' masses one level at a
time, each Omega~_k from its own weighted_maximal.

The per-cube geometry lives here too, for the tests that index one cube of
the full grid: cell_indices (a cube's wrapped cell indices per axis),
sidelength and extent (its side and, unless it wraps, its coordinate box),
mask (its cells as a boolean grid) and haar_function (one h_Q^eps on the
full grid).  So do the per-cube sparse collections that the block view
replaced, as the reference they are tested against: recursion_by_cube (the
cubes and carriers of a stopping-time recursion, each carrier its cube minus
its kids), greedy_by_cube (the greedy Carleson fill, one cube at a time),
verify_by_cube, carleson_constant_by_cube and sparse_apply_by_cube.
"""

import math
from itertools import product

import numpy as np

from wharm.atoms import Atom, AtomRecord, check_atom
from wharm.bmo import _classical_sup, _mean_deviation
from wharm.dyadic import DyadicCube, haar_synthesis, signatures, weighted_maximal
from wharm.errors import GridAlignmentError
from wharm.grid import GridFunction, extensions, weight_cells
from wharm.sparse import TOL, cz_stopping


def children(lat, cube):
    """The 2^n cubes of the next generation inside cube; none at the finest."""
    if cube.generation >= lat.max_generation:
        return []
    return [
        DyadicCube(cube.generation + 1, tuple(2 * i + o for i, o in zip(cube.index, off)))
        for off in product((0, 1), repeat=lat.grid.dim)
    ]


def parent(cube):
    """The cube of the previous generation holding cube; None for the base cube."""
    if cube.generation == 0:
        return None
    return DyadicCube(cube.generation - 1, tuple(i // 2 for i in cube.index))


def cell_indices(lat, cube):
    """Per-axis integer index arrays of cube's cells (for np.ix_); wrapped order."""
    N = lat.grid.points_per_axis
    m = lat.cells_per_axis(cube.generation)
    return tuple(
        (lat.shift_cells[a] + cube.index[a] * m + np.arange(m)) % N
        for a in range(lat.grid.dim)
    )


def sidelength(lat, cube) -> float:
    """The side length of cube."""
    return 2.0 * lat.grid.halfwidth * 2.0 ** (-cube.generation)


def extent(lat, cube):
    """(lo, hi) coordinate arrays of cube when its cells do not wrap, else None."""
    N = lat.grid.points_per_axis
    m = lat.cells_per_axis(cube.generation)
    starts = [(s + i * m) % N for s, i in zip(lat.shift_cells, cube.index)]
    if any(start + m > N for start in starts):
        return None
    L, h = lat.grid.halfwidth, lat.grid.h
    lo = np.array([-L + start * h for start in starts])
    hi = np.array([-L + (start + m) * h for start in starts])
    return lo, hi


def mask(lat, cube) -> np.ndarray:
    """The cells of cube as a boolean array of the grid's shape."""
    out = np.zeros(lat.grid.shape, dtype=bool)
    out[np.ix_(*cell_indices(lat, cube))] = True
    return out


def cell_count(lat, cubes) -> int:
    """The number of cells in the cubes, counted with multiplicity."""
    return sum(lat.cells_per_axis(c.generation) ** lat.grid.dim for c in cubes)


def generation_means(arr, lat) -> list:
    """Cube averages of a cell array, one array per generation of the lattice."""
    return [cells.mean(axis=-1) for cells in lat.generations(arr)]


def haar_function(lat, cube, sig) -> GridFunction:
    """h_Q^eps as a grid function (unit L^2 norm under cell sums)."""
    g = lat.grid
    m = lat.cells_per_axis(cube.generation)
    if m < 2:
        raise GridAlignmentError("cube has a single cell per axis; no Haar function")
    N = g.points_per_axis
    vals = np.zeros(g.shape)
    scale = (m * g.h) ** (-g.dim / 2.0)
    half = m // 2
    axis_parts = []
    for a in range(g.dim):
        s0 = lat.shift_cells[a] + cube.index[a] * m
        left = (s0 + np.arange(half)) % N
        right = (s0 + half + np.arange(half)) % N
        axis_parts.append((left, right))
    for halves in product((0, 1), repeat=g.dim):
        sign = 1.0
        for a, hlf in enumerate(halves):
            if sig[a] == 0 and hlf == 1:
                sign = -sign
        idx = tuple(axis_parts[a][hlf] for a, hlf in enumerate(halves))
        vals[np.ix_(*idx)] = sign * scale
    return GridFunction(g, vals)


def slab_times(tg, ell: float):
    """The scales of tg in the Whitney slab (ell/2, ell] of a cube of side ell."""
    ts = tg.t_values
    return ts[(ts > ell / 2.0 + 1e-12 * ell) & (ts <= ell * (1.0 + 1e-12))]


def generation_of_scale(grid, t: float, max_generation: int):
    """The generation k with l_k/2 < t <= l_k, or None outside 0..max_generation."""
    k = int(np.floor(np.log2(2.0 * grid.halfwidth / t) + 1e-9))
    return k if 0 <= k <= max_generation else None


def haar_reconstruct(coeffs: dict, lat, base_mean: float) -> GridFunction:
    """Sum of coeff * h_Q^eps plus the base-cube mean, one synthesis per generation."""
    n = lat.grid.dim
    column = {sig: e for e, sig in enumerate(signatures(n))}
    generations = {}
    for (cube, sig), c in coeffs.items():
        k = cube.generation
        if k not in generations:
            generations[k] = np.zeros((1 << k,) * n + (len(column),))
        generations[k][cube.index + (column[sig],)] = c
    vals = np.full(lat.grid.shape, float(base_mean))
    for k in sorted(generations):
        haar_synthesis(generations[k], lat, k, vals)
    return GridFunction(lat.grid, vals)


def dyadic_local_bmo(f: GridFunction, lat, q0, w=None) -> float:
    """sup over lattice cubes Q contained in q0 of the mean-deviation functional."""
    warr = np.ones(f.grid.shape) if w is None else w.values
    best = 0.0
    for k in range(q0.generation, lat.max_generation + 1):
        depth = k - q0.generation
        inside = tuple(slice(i << depth, (i + 1) << depth) for i in q0.index)
        wv = lat.blocks(warr, k)[inside]
        best = max(best, float(_mean_deviation(lat.blocks(f.values, k)[inside], wv).max()))
    return float(best)


def bmo_deltaN_classical_norm(f: GridFunction, lattices) -> float:
    """Unweighted BMO_{Delta_N}: classical BMO of both even extensions, summed."""
    fm, fp = extensions(f.values[None], f.grid, 1.0)
    ones = np.ones(f.grid.shape)
    return float(_classical_sup(fp, ones, lattices)[0] + _classical_sup(fm, ones, lattices)[0])


def bmo_good_function(b: GridFunction, w, lat, q0, alpha: float):
    """a = 1_{Q0} b - sum_R (b - <b>_R) 1_R with R from the w-stopping family.

    a agrees with b outside the selected cubes, is flat on each of them, and
    lands in unweighted dyadic BMO over Q0 with norm at most
    2 alpha <w>_{Q0} ||b||_{BMO_D(w), D(Q0)}.
    """
    fam = cz_stopping(w, lat, q0, alpha)
    means = generation_means(b.values, lat)
    vals = np.zeros(b.grid.shape)
    mask0 = mask(lat, q0)
    vals[mask0] = b.values[mask0]
    for R in fam.selected:
        vals[np.ix_(*cell_indices(lat, R))] = means[R.generation][R.index]
    return GridFunction(b.grid, vals), fam


def reconstruction(dec) -> GridFunction:
    """The residual plus every coefficient times its atom: f again."""
    vals = dec.residual.values.copy()
    for lam, a in zip(dec.coefficients, dec.atoms):
        vals += lam * a.values.values
    return GridFunction(dec.residual.grid, vals)


def support_mask(lat, cube) -> np.ndarray:
    """3Qbar taken modulo the periodic box (unshifted lattice cubes): the outer
    product of one cell mask per axis."""
    N = lat.grid.points_per_axis
    m = lat.cells_per_axis(cube.generation)
    out = None
    for i in cube.index:
        axis = np.zeros(N, dtype=bool)
        axis[(i * m - m + np.arange(3 * m)) % N] = True
        out = axis if out is None else np.logical_and.outer(out, axis)
    return out


def full_grid_atoms(f: GridFunction, w, lat, pieces: dict, report: dict, p: float = 2.0):
    """(atoms, coefficients, residual, report) of atomic_decompose from its
    Whitney pieces {(k, id of Qbar): field} (_whitney_pieces' first output)
    and its report, each atom built on the full grid: the piece kept on
    support_mask, divided by 2^k w(Qbar), and checked by check_atom.  The
    report's entries that read the atoms are rebuilt; the others are kept."""
    g = f.grid
    warr, h_n = weight_cells(w, g), g.cell_volume
    atoms, lams, clipped = [], [], 0.0
    for k, owner in sorted(pieces):
        qbar, raw = cube_of(lat, owner), pieces[(k, owner)]
        lam = 2.0 ** k * (float(lat.blocks(warr, qbar.generation).sum(axis=-1)[qbar.index]) * h_n)
        keep = support_mask(lat, qbar)
        vals = np.where(keep, raw, 0.0)
        clipped += float(np.sum(np.abs(raw - vals)) * h_n)
        atoms.append(Atom(qbar, keep, GridFunction(g, vals / lam), p=p, weight=w, level=k))
        lams.append(lam)
    recon = np.zeros(g.shape)
    for lam, a in zip(lams, atoms):
        recon += lam * a.values.values
    residual = GridFunction(g, f.values - recon)
    report = {
        **report,
        "n_atoms": len(atoms),
        "coefficient_sum": float(np.sum(np.abs(lams))),
        "residual_l1w": float(np.sum(np.abs(residual.values) * warr) * h_n),
        "clipped_mass": clipped,
        "atom_checks": [check_atom(a) for a in atoms],
    }
    return atoms, lams, residual, report


def cube_of(lat, cube_id: int) -> DyadicCube:
    """The cube of an atoms._cube_ids id: 2^(n k) plus the C-order position."""
    n = lat.grid.dim
    k = (cube_id.bit_length() - 1) // n
    return DyadicCube(k, tuple(int(i) for i in np.unravel_index(cube_id - (1 << (n * k)), (1 << k,) * n)))


def support_box(lat, cube) -> tuple:
    """3Qbar taken modulo the periodic box (unshifted lattice cubes): one
    increasing cell index array per axis, every cell where 3m >= N."""
    N = lat.grid.points_per_axis
    m = lat.cells_per_axis(cube.generation)
    if 3 * m >= N:
        return (np.arange(N),) * len(cube.index)
    return tuple(np.sort((i * m - m + np.arange(3 * m)) % N) for i in cube.index)


def check_cells(p: float, vals, mask, warr, cell_volume: float) -> dict:
    """check_atom on one atom's cell arrays, all of one shape."""
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


def box_atoms_by_atom(f: GridFunction, w, lat, pieces: dict, p: float = 2.0):
    """(records, coefficients, residual, report entries) of atomic_decompose
    from its Whitney pieces {(k, id of Qbar) or None: field}, one atom at a
    time in sorted (k, id) order: the piece's box values copied out and
    divided by 2^k w(Qbar), the box zeroed in a copy of the piece, whose
    absolute sum is the clipped mass, the atom's term added onto the
    reconstruction and the atom checked on its box by check_cells."""
    g = f.grid
    warr, h_n = weight_cells(w, g), g.cell_volume
    records, lams, checks, clipped = [], [], [], 0.0
    recon = np.zeros(g.shape)
    for k, owner in sorted(key for key in pieces if key is not None):
        qbar, raw = cube_of(lat, owner), pieces[(k, owner)].copy()
        lam = 2.0 ** k * (float(lat.blocks(warr, qbar.generation).sum(axis=-1)[qbar.index]) * h_n)
        box = support_box(lat, qbar)
        cells = np.ix_(*box)
        local = raw[cells] / lam
        raw[cells] = 0.0
        clipped += float(np.sum(np.abs(raw)) * h_n)
        recon[cells] += lam * local
        records.append(AtomRecord(qbar, k, box, local))
        lams.append(lam)
        checks.append(check_cells(p, local, np.ones(local.shape, dtype=bool), warr[cells], h_n))
    unassigned = pieces.get(None, np.zeros(g.shape))
    report = {
        "n_atoms": len(records),
        "clipped_mass": clipped,
        "unassigned_l1": float(np.sum(np.abs(unassigned)) * h_n),
        "atom_checks": checks,
    }
    return records, lams, GridFunction(g, f.values - recon), report


def omega_sums_by_level(S: GridFunction, w, lat, levels) -> tuple:
    """(sum_k 2^k w(Omega_k), sum_k 2^k w(Omega~_k)) over levels, Omega_k =
    {S > 2^k} and Omega~_k = {M_w 1_{Omega_k} > 1/2}, one level at a time."""
    g = S.grid
    warr, h_n = weight_cells(w, g), g.cell_volume
    omega_mass = omega_tilde_mass = 0.0
    for k in levels:
        om = S.values > 2.0 ** k
        omega_mass += 2.0 ** k * float(np.sum(warr[om]) * h_n)
        mt = weighted_maximal(GridFunction(g, om.astype(float)), warr, lat)
        omega_tilde_mass += 2.0 ** k * float(np.sum(warr[mt.values > 0.5]) * h_n)
    return omega_mass, omega_tilde_mass


def recursion_by_cube(children_rule, lat, q0, alpha):
    """The cubes of build_sparse_from_recursion in (generation, index) order
    and their carriers {cube: cell array}: each cube minus its kids."""
    cubes, carriers, stack = [], {}, [q0]
    while stack:
        cube = stack.pop()
        cubes.append(cube)
        kids = list(children_rule(cube)) if cube.generation < lat.max_generation else []
        own = mask(lat, cube)
        for c in kids:
            own &= ~mask(lat, c)
        carriers[cube] = own.astype(float)
        stack.extend(kids)
    cubes.sort(key=lambda c: (c.generation, c.index))
    return cubes, carriers


def greedy_by_cube(lat, cubes, eta):
    """The carriers {cube: cell array} of carleson_to_sparse, or None: cube by
    cube, finest generation first, each takes eta |Q| of the mass left in Q."""
    free = np.ones(lat.grid.shape)
    carriers = {}
    for q in sorted(cubes, key=lambda c: c.generation, reverse=True):
        cells = np.ix_(*cell_indices(lat, q))
        left = free[cells]
        need, have = eta * left.size, left.sum()
        if need > have * (1 + TOL):
            return None
        take = left * (min(1.0, need / have) if have > 0 else 0.0)
        free[cells] = left - take
        carriers[q] = np.zeros(lat.grid.shape)
        carriers[q][cells] = take
    return carriers


def verify_by_cube(lat, cubes, carriers, eta) -> bool:
    """|E_Q| >= eta |Q|, E_Q inside Q, and no cell claimed more than once."""
    total = np.zeros(lat.grid.shape)
    for q in cubes:
        mass = carriers[q]
        total += mass
        if mass.sum() < eta * lat.cells_per_axis(q.generation) ** lat.grid.dim * (1 - TOL):
            return False
        if np.any(mass < 0) or np.any(mass[~mask(lat, q)]):
            return False
    return bool(np.max(total, initial=0.0) <= 1.0 + TOL)


def carleson_constant_by_cube(lat, cubes) -> float:
    """max over members Q of sum_{P in S, P below Q} |P| / |Q| (exact cell counts)."""
    return max((cell_count(lat, [p for p in cubes if lat.contains(q, p)]) / cell_count(lat, [q]) for q in cubes),
               default=0.0)


def sparse_apply_by_cube(lat, cubes, f: GridFunction) -> np.ndarray:
    """sum over the cubes, in their order, of <f>_Q 1_Q."""
    means = generation_means(f.values, lat)
    out = np.zeros(f.grid.shape)
    for q in cubes:
        out[np.ix_(*cell_indices(lat, q))] += means[q.generation][q.index]
    return out
