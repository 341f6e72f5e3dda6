"""Calderon-Zygmund stopping times, sparse collections with certified
carriers, sparse operators, and the weighted-BMO good-function decomposition.

A collection is eta-sparse when each cube Q owns a carrier E_Q inside Q with
|E_Q| >= eta |Q| and the carriers are pairwise disjoint; it is Lambda-Carleson
when the cubes below any member pack at most Lambda times its measure.  The
two notions are equivalent with eta = 1/Lambda (Lerner-Nazarov, "Intuitive
dyadic calculus").  The constructive direction (Carleson -> carriers) is
built here rather than assumed: a greedy fill over the cubes of one lattice,
finest generation first, hands each cube eta |Q| of the cell mass still free
inside it.  Carriers are cell masses in [0, 1]; those of a stopping-time
recursion are whole cells.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube, DyadicLattice, split_blocks
from .errors import ParameterError, SparsityError
from .grid import GridFunction, cell_values

# relative tolerance of carrier masses against eta |Q| and of cell totals against 1
TOL = 1e-9


@dataclass
class StoppingFamily:
    """Maximal subcubes R of a parent with <dens>_R > alpha <dens>_parent."""

    parent: DyadicCube
    alpha: float
    selected: list
    parent_average: float
    averages: dict

    def total_child_cells(self, lat: DyadicLattice) -> int:
        m = 0
        for R in self.selected:
            m += lat.cells_per_axis(R.generation) ** lat.grid.dim
        return m


def _generation_means(arr: np.ndarray, lat: DyadicLattice) -> list:
    """Cube averages of a cell array, one array per generation of the lattice."""
    return [cells.mean(axis=-1) for cells in lat.generations(arr)]


def cz_stopping(dens, lat: DyadicLattice, q0: DyadicCube, alpha: float) -> StoppingFamily:
    """Calderon-Zygmund selection at level alpha over the subtree of q0.

    A cube strictly below q0 is selected when its average exceeds alpha times
    q0's and no cube strictly between it and q0 passes that test.  Only q0's
    cells are read, cut into each deeper generation's cubes as blocks cuts
    them (means equal _generation_means bit for bit), coarsest first, with a
    mask of the cubes with a passing ancestor below q0; each generation's
    passing cubes outside the mask are selected, in (generation, index) order.
    """
    if alpha <= 1.0:
        raise ParameterError("cz_stopping needs alpha > 1")
    dim = lat.grid.dim
    block = np.abs(cell_values(dens))[np.ix_(*lat.cell_indices(q0))]
    base = float(split_blocks(block, 1, dim).mean(axis=-1)[(0,) * dim])
    selected, averages = [], {}
    covered = np.full((1,) * dim, not base > 0)
    for k in range(q0.generation + 1, lat.max_generation + 1):
        if covered.all():
            break
        for axis in range(dim):
            covered = covered.repeat(2, axis=axis)
        corner = np.array(q0.index) * covered.shape[0]
        sub = split_blocks(block, covered.shape[0], dim).mean(axis=-1)
        passing = sub > alpha * base
        for idx in np.argwhere(passing & ~covered):
            selected.append(DyadicCube(k, tuple((idx + corner).tolist())))
            averages[selected[-1]] = float(sub[tuple(idx)])
        covered |= passing
    fam = StoppingFamily(q0, alpha, selected, base, averages)
    # invariants are structural for exact cell sums; treat as internal checks
    dimfac = 2 ** lat.grid.dim
    for R in selected:
        a = averages[R]
        assert a > alpha * base * (1 - 1e-12)
        assert a <= dimfac * alpha * base * (1 + 1e-12)
    cells_q0 = lat.cells_per_axis(q0.generation) ** lat.grid.dim
    assert fam.total_child_cells(lat) <= cells_q0 / alpha * (1 + 1e-12)
    return fam


@dataclass
class SparseCollection:
    """Dyadic cubes with pairwise-disjoint carriers E_Q and certified eta.

    A carrier is a cell-mass array in [0, 1], the share of each cell that
    E_Q claims; whole-cell carriers are the 0/1 case.
    """

    lattice: DyadicLattice
    cubes: list
    carriers: dict
    eta: float

    def verify(self) -> bool:
        """|E_Q| >= eta |Q|, E_Q inside Q, and no cell claimed more than once."""
        total = np.zeros(self.lattice.grid.shape)
        for q in self.cubes:
            mass = self.carriers[q]
            total += mass
            cells = self.lattice.cells_per_axis(q.generation) ** self.lattice.grid.dim
            if mass.sum() < self.eta * cells * (1 - TOL):
                return False
            if np.any(mass < 0) or np.any(mass[~self.lattice.mask(q)]):
                return False
        return bool(np.max(total, initial=0.0) <= 1.0 + TOL)

    def carleson_constant(self) -> float:
        """max over members Q of sum_{P in S, P below Q} |P| / |Q| (exact cell counts)."""
        lat = self.lattice
        worst = 0.0
        for q in self.cubes:
            cq = lat.cells_per_axis(q.generation) ** lat.grid.dim
            packed = sum(
                lat.cells_per_axis(p.generation) ** lat.grid.dim
                for p in self.cubes
                if lat.contains(q, p)
            )
            worst = max(worst, packed / cq)
        return worst

    def to_json(self) -> dict:
        """Per cube: the [start, stop) runs of flat cells its carrier touches, and its mass."""
        out = []
        for q in self.cubes:
            mass = self.carriers[q]
            touched = np.concatenate(([False], mass.reshape(-1) != 0, [False]))
            runs = np.flatnonzero(touched[1:] != touched[:-1]).reshape(-1, 2).tolist()
            out.append({"generation": q.generation, "index": list(q.index),
                        "carrier_runs": runs, "carrier_mass": float(mass.sum())})
        return {"eta": self.eta, "cubes": out}


def build_sparse_from_recursion(children_rule, lat: DyadicLattice, q0: DyadicCube, alpha: float) -> SparseCollection:
    """Recurse children_rule from q0; certifies eta = 1 - 1/alpha sparseness.

    children_rule(cube) must return lattice subcubes with total measure at
    most |cube|/alpha, else SparsityError names the offender.
    """
    if alpha <= 1.0:
        raise ParameterError("needs alpha > 1")
    cubes = []
    carriers = {}
    stack = [q0]
    dim = lat.grid.dim
    while stack:
        cube = stack.pop()
        cubes.append(cube)
        kids = list(children_rule(cube)) if cube.generation < lat.max_generation else []
        cell_budget = lat.cells_per_axis(cube.generation) ** dim / alpha
        kid_cells = sum(lat.cells_per_axis(c.generation) ** dim for c in kids)
        if kid_cells > cell_budget * (1 + 1e-12):
            raise SparsityError(f"children of {cube} carry {kid_cells} cells > |Q|/alpha")
        mask = lat.mask(cube)
        for c in kids:
            mask &= ~lat.mask(c)
        carriers[cube] = mask.astype(float)
        stack.extend(kids)
    cubes.sort(key=lambda c: (c.generation, c.index))
    return SparseCollection(lat, cubes, carriers, 1.0 - 1.0 / alpha)


def sparse_operator_apply(coll: SparseCollection, f: GridFunction) -> GridFunction:
    """A_S f = sum over members of <f>_Q 1_Q."""
    lat = coll.lattice
    means = _generation_means(f.values, lat)
    out = np.zeros(f.grid.shape)
    for q in coll.cubes:
        out[np.ix_(*lat.cell_indices(q))] += means[q.generation][q.index]
    return GridFunction(f.grid, out)


def carleson_to_sparse(lat: DyadicLattice, cubes, eta: float):
    """Carriers with |E_Q| >= eta |Q| by a greedy fill; None when infeasible.

    Cubes take their turn finest generation first, and each claims eta |Q|
    of the cell mass still free inside Q, in proportion to what each cell
    has left.  Cubes of one lattice are nested or disjoint, so at Q's
    turn the free mass inside Q is |Q| - sum_{P in S, P strictly below Q}
    eta |P|: the fill succeeds exactly when the family is (1/eta)-Carleson.
    Carriers are fractional cell masses, the granularity the equivalence
    needs (whole-cell carriers need not exist at eta = 1/Lambda).
    """
    free = np.ones(lat.grid.shape)
    carriers = {}
    for q in sorted(cubes, key=lambda c: c.generation, reverse=True):
        cells = np.ix_(*lat.cell_indices(q))
        left = free[cells]
        need, have = eta * left.size, left.sum()
        if need > have * (1 + TOL):
            return None
        take = left * (min(1.0, need / have) if have > 0 else 0.0)
        free[cells] = left - take
        carriers[q] = np.zeros(lat.grid.shape)
        carriers[q][cells] = take
    return SparseCollection(lat, list(cubes), carriers, eta)
