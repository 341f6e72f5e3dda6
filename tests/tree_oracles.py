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
decomposition summed back).
"""

from itertools import product

import numpy as np

from wharm.bmo import _classical_sup, _mean_deviation
from wharm.dyadic import DyadicCube, haar_synthesis, signatures
from wharm.grid import GridFunction, extensions
from wharm.sparse import _generation_means, cz_stopping
from wharm.weights import as_weight


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
    warr = np.ones(f.grid.shape) if w is None else as_weight(w).array
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
    means = _generation_means(b.values, lat)
    vals = np.zeros(b.grid.shape)
    mask0 = lat.mask(q0)
    vals[mask0] = b.values[mask0]
    for R in fam.selected:
        vals[np.ix_(*lat.cell_indices(R))] = means[R.generation][R.index]
    return GridFunction(b.grid, vals), fam


def reconstruction(dec) -> GridFunction:
    """The residual plus every coefficient times its atom: f again."""
    vals = dec.residual.values.copy()
    for lam, a in zip(dec.coefficients, dec.atoms):
        vals += lam * a.values.values
    return GridFunction(dec.residual.grid, vals)
