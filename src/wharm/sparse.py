"""Calderon-Zygmund stopping times, sparse collections with certified
carriers, and sparse operators.

A collection is eta-sparse when each cube Q owns a carrier E_Q inside Q with
|E_Q| >= eta |Q| and the carriers are pairwise disjoint; it is Lambda-Carleson
when the cubes below any member pack at most Lambda times its measure.  The
two notions are equivalent with eta = 1/Lambda (Lerner-Nazarov, "Intuitive
dyadic calculus").  The constructive direction (Carleson -> carriers) is
built here rather than assumed: a greedy fill over the cubes of one lattice,
finest generation first, hands each cube eta |Q| of the cell mass still free
inside it.  Carriers are cell masses in [0, 1]; those of a stopping-time
recursion are whole cells.

A collection lives on the lattice's block view, one generation at a time:
members[k] flags the generation-k members, and carriers[k] holds all of
their carriers in one cell array (cubes of one generation are disjoint).
The checks, the Carleson constant, the sparse operator and the greedy fill
read whole generations of block sums; only a stopping-time recursion's
children rule and to_json go cube by cube.  The lattice is a collection's
only grid; the sparse operator and cz_stopping hold it to the grid of their
function or density (dyadic.lattices_on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dyadic import DyadicCube, DyadicLattice, lattices_on, split_blocks
from .errors import ParameterError, SparsityError
from .grid import GridFunction, function_cells

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


def cz_stopping(dens, lat: DyadicLattice, q0: DyadicCube, alpha: float) -> StoppingFamily:
    """Calderon-Zygmund selection at level alpha over the subtree of q0.

    A cube strictly below q0 is selected when its average exceeds alpha times
    q0's and no cube strictly between it and q0 passes that test.  Only q0's
    cells are read, cut into each deeper generation's cubes as lat.blocks
    cuts them (means equal the block means of the whole density bit for bit),
    coarsest first, with a mask of the cubes with a passing ancestor below
    q0; each generation's passing cubes outside the mask are selected, in
    (generation, index) order.  dens is read on lat's grid by
    grid.function_cells, and a GridFunction lives on that grid (lattices_on).
    """
    if alpha <= 1.0:
        raise ParameterError("cz_stopping needs alpha > 1")
    lattices_on(lat, getattr(dens, "grid", None), one=True)
    density = np.abs(function_cells(dens, lat.grid))
    dim, m = lat.grid.dim, lat.cells_per_axis(q0.generation)
    block = lat.blocks(density, q0.generation)[q0.index].reshape((m,) * dim)
    base = float(block.mean())
    selected, averages, cells = [], {}, 0
    covered = np.full((1,) * dim, not base > 0)
    for k in range(q0.generation + 1, lat.max_generation + 1):
        if covered.all():
            break
        for axis in range(dim):
            covered = covered.repeat(2, axis=axis)
        corner = np.array(q0.index) * covered.shape[0]
        sub = split_blocks(block, covered.shape[0], dim).mean(axis=-1)
        passing = sub > alpha * base
        new = passing & ~covered
        # internal checks: a selected cube's parent failed, so <dens>_R <= 2^n alpha <dens>_q0
        assert np.all(sub[new] <= 2 ** dim * alpha * base * (1 + 1e-12))
        cells += np.count_nonzero(new) * lat.cells_per_axis(k) ** dim
        for idx in np.argwhere(new):
            selected.append(DyadicCube(k, tuple((idx + corner).tolist())))
            averages[selected[-1]] = float(sub[tuple(idx)])
        covered |= passing
    assert cells <= m ** dim / alpha * (1 + 1e-12)
    return StoppingFamily(q0, alpha, selected, base, averages)


def _flag(members: dict, lat: DyadicLattice, cube: DyadicCube) -> None:
    """Mark cube a member; SparsityError when it is no cube of lat or a member already."""
    k, index = cube.generation, tuple(cube.index)
    if not (0 <= k <= lat.max_generation and len(index) == lat.grid.dim
            and all(0 <= i < 1 << k for i in index)):
        raise SparsityError(f"{cube} is not a cube of the lattice")
    if members[k][index]:
        raise SparsityError(f"{cube} occurs twice in the collection")
    members[k][index] = True


@dataclass
class SparseCollection:
    """Dyadic cubes with pairwise-disjoint carriers E_Q and certified eta.

    members[k] is a boolean array of shape (2^k,)*n flagging the generation-k
    members, for every generation of the lattice.  carriers[k] is a cell-mass
    array in [0, 1]: on the cells of a generation-k member, the share of each
    cell that its E_Q claims, and 0 off them; whole-cell carriers are the 0/1
    case.
    """

    lattice: DyadicLattice
    members: dict
    carriers: dict
    eta: float

    @property
    def cubes(self) -> list:
        """The members in (generation, index) order."""
        return [DyadicCube(k, tuple(i)) for k, flags in self.members.items() for i in np.argwhere(flags).tolist()]

    def verify(self) -> bool:
        """|E_Q| >= eta |Q|, E_Q inside Q, and no cell claimed more than once."""
        lat, total = self.lattice, np.zeros(self.lattice.grid.shape)
        for k, flags in self.members.items():
            mass = self.carriers[k]
            sums, need = lat.blocks(mass, k).sum(axis=-1), self.eta * lat.cells_per_axis(k) ** lat.grid.dim
            if np.any(mass < 0) or np.any(sums[~flags]) or np.any(sums[flags] < need * (1 - TOL)):
                return False
            total += mass
        return bool(np.max(total, initial=0.0) <= 1.0 + TOL)

    def carleson_constant(self) -> float:
        """max over members Q of sum_{P in S, P below Q} |P| / |Q| (exact cell counts).

        The member cells below each cube are summed from the finest generation
        up, each generation adding its children's blocks to its own.
        """
        lat, n = self.lattice, self.lattice.grid.dim
        worst, below = 0.0, np.zeros((2 << lat.max_generation,) * n, dtype=np.int64)
        for k in range(lat.max_generation, -1, -1):
            flags, cells = self.members[k], lat.cells_per_axis(k) ** n
            below = flags * cells + split_blocks(below, 1 << k, n).sum(axis=-1)
            worst = max(worst, float((below[flags] / cells).max(initial=0.0)))
        return worst

    def to_json(self) -> dict:
        """Per cube, in (generation, index) order: the [start, stop) runs of
        flat cells its carrier touches, and its mass."""
        out = []
        for k, flags in self.members.items():
            owner = self.lattice.spread(np.arange(flags.size).reshape(flags.shape), k)
            for i in np.flatnonzero(flags):
                mass = np.where(owner == i, self.carriers[k], 0.0)
                touched = np.concatenate(([False], mass.reshape(-1) != 0, [False]))
                runs = np.flatnonzero(touched[1:] != touched[:-1]).reshape(-1, 2).tolist()
                out.append({"generation": k, "index": [int(j) for j in np.unravel_index(i, flags.shape)],
                            "carrier_runs": runs, "carrier_mass": float(mass.sum())})
        return {"eta": self.eta, "cubes": out}


def build_sparse_from_recursion(children_rule, lat: DyadicLattice, q0: DyadicCube, alpha: float) -> SparseCollection:
    """Recurse children_rule from q0; certifies eta = 1 - 1/alpha sparseness.

    children_rule(cube) must return distinct lattice cubes strictly inside
    cube with total measure at most |cube|/alpha; a kid outside its parent,
    a cube reached twice or a kid set over budget raises SparsityError
    naming the offender.  Each cell is carried by the finest member holding
    it: the member minus its kids.
    """
    if alpha <= 1.0:
        raise ParameterError("needs alpha > 1")
    dim = lat.grid.dim
    members = {k: np.zeros((1 << k,) * dim, dtype=bool) for k in range(lat.max_generation + 1)}
    _flag(members, lat, q0)
    stack = [q0]
    while stack:
        cube = stack.pop()
        kids = list(children_rule(cube)) if cube.generation < lat.max_generation else []
        kid_cells = sum(lat.cells_per_axis(c.generation) ** dim for c in kids)
        if kid_cells > lat.cells_per_axis(cube.generation) ** dim / alpha * (1 + 1e-12):
            raise SparsityError(f"children of {cube} carry {kid_cells} cells > |Q|/alpha")
        for c in kids:
            if not (cube.generation < c.generation <= lat.max_generation and lat.contains(cube, c)):
                raise SparsityError(f"child {c} of {cube} is not strictly inside it")
            _flag(members, lat, c)
        stack.extend(kids)
    finest = np.full(lat.grid.shape, -1)
    for k, flags in members.items():
        finest[lat.spread(flags, k)] = k
    return SparseCollection(lat, members, {k: (finest == k).astype(float) for k in members}, 1.0 - 1.0 / alpha)


def sparse_operator_apply(coll: SparseCollection, f: GridFunction) -> GridFunction:
    """A_S f = sum over members of <f>_Q 1_Q, coarsest generation first; the
    collection's lattice lives on f's grid (lattices_on)."""
    lattices_on(coll.lattice, f.grid, one=True)
    lat, out = coll.lattice, np.zeros(f.grid.shape)
    for k, cells in enumerate(lat.generations(f.values)):
        out += lat.spread(np.where(coll.members[k], cells.mean(axis=-1), 0.0), k)
    return GridFunction(f.grid, out)


def carleson_to_sparse(lat: DyadicLattice, cubes, eta: float):
    """Carriers with |E_Q| >= eta |Q| by a greedy fill; None when infeasible.

    Generations take their turn finest first, and each member claims
    eta |Q| of the cell mass still free inside Q, in proportion to what each
    cell has left.  Cubes of one lattice are nested or disjoint, so at Q's
    turn the free mass inside Q is |Q| - sum_{P in S, P strictly below Q}
    eta |P|: the fill succeeds exactly when the family is (1/eta)-Carleson.
    Carriers are fractional cell masses, the granularity the equivalence
    needs (whole-cell carriers need not exist at eta = 1/Lambda).  A cube
    listed twice, or not of lat, raises SparsityError.
    """
    if not eta > 0:
        raise ParameterError(f"carleson_to_sparse needs eta > 0, got {eta!r}")
    members = {k: np.zeros((1 << k,) * lat.grid.dim, dtype=bool) for k in range(lat.max_generation + 1)}
    for q in cubes:
        _flag(members, lat, q)
    free, carriers = np.ones(lat.grid.shape), {}
    for k in range(lat.max_generation, -1, -1):
        need, have = eta * lat.cells_per_axis(k) ** lat.grid.dim, lat.blocks(free, k).sum(axis=-1)
        if np.any(members[k] & (need > have * (1 + TOL))):
            return None
        share = np.minimum(1.0, np.divide(need, have, out=np.zeros_like(have), where=members[k] & (have > 0)))
        carriers[k] = free * lat.spread(share, k)
        free = free - carriers[k]
    return SparseCollection(lat, members, dict(sorted(carriers.items())), eta)
