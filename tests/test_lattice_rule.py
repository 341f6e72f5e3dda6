"""One lattice rule (dyadic.lattices_on) behind every entry that takes a
lattice: a family on another grid of the same shape, a family of another
size and an empty family raise the same named error everywhere, and a
family on the entry's own grid gives the numbers it always gave."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import wharm
from wharm.atoms import atomic_decompose
from wharm.bmo import (
    CARLESON_FLAVORS,
    CLASSICAL_FLAVORS,
    HALF_FLAVORS,
    bmo_deltaN_sides_norms,
    bmo_norm,
    bmo_norms,
    john_nirenberg_report,
)
from wharm.dyadic import DyadicCube, build_lattice, haar_coefficients, lattice_family, random_haar_sum, weighted_maximal
from wharm.errors import DomainError, GridAlignmentError, ParameterError
from wharm.grid import Grid, GridFunction, restrict
from wharm.sparse import build_sparse_from_recursion, cz_stopping, sparse_operator_apply
from wharm.squarefn import TimeGrid, haar_square_function, hardy_norm
from wharm.weights import a1_constant, ap_constant, ap_constant_per_lattice, ap_deltaN_constant, power_weight

GRID = Grid(1, 1.0, 64)
HALF = GRID.with_domain("upper")
DEPTH = 5
# the same shape with other cells, and another size
OTHERS = {"wide": Grid(1, 4.0, 64), "fine": Grid(1, 1.0, 128)}
TG = TimeGrid.geometric(GRID)

# entries whose lattice is their only grid: nothing to compare it with
OWN_GRID = {
    "dyadic.haar_generation": "reads a cell array in the shape of the lattice's own grid",
    "dyadic.haar_synthesis": "writes a cell array in the shape of the lattice's own grid",
    "dyadic.maximal_cells": "reads cell arrays in the shape of the lattice's own grid",
    "dyadic.random_haar_sums": "draws on the lattice's grid and reads its weight there (grid.weight_cells)",
    "dyadic.random_haar_sum": "draws on the lattice's grid and reads its weight there (grid.weight_cells)",
    "sparse.SparseCollection": "a collection lives on its lattice",
    "sparse.build_sparse_from_recursion": "builds a collection on the lattice it is given",
    "sparse.carleson_to_sparse": "builds a collection on the lattice it is given",
}


def _f():
    return random_haar_sum(build_lattice(GRID, DEPTH), np.random.default_rng(0), max_generation=4)


def _rule_entries():
    """(name, kind, call(lattices)) of every entry under the lattice rule.

    kind "grid": a family held to the function's grid; "first": a family
    held to its first lattice's grid (the weight characteristics, which take
    no grid); "one": a single lattice held to the function's grid."""
    f = _f()
    stack = np.stack([f.values, -f.values])
    half = stack[:, 32:]
    lat = build_lattice(GRID, DEPTH)
    coll = build_sparse_from_recursion(lambda c: [], lat, lat.cubes[0], 2.0)
    entries = [(f"bmo.bmo_norms-{flavor}", "grid",
                lambda lats, flavor=flavor: bmo_norms(stack, GRID, None, flavor, lats, tg=TG))
               for flavor in CLASSICAL_FLAVORS + CARLESON_FLAVORS]
    entries += [(f"bmo.bmo_norms-{flavor}", "grid",
                 lambda lats, flavor=flavor: bmo_norms(half, HALF, None, flavor, lats))
                for flavor in HALF_FLAVORS]
    entries += [
        ("bmo.bmo_norm", "grid", lambda lats: bmo_norm(f, None, "classical-w", lats)),
        ("bmo.bmo_deltaN_sides_norms", "grid", lambda lats: bmo_deltaN_sides_norms(stack, GRID, None, lats, tg=TG)),
        ("bmo.john_nirenberg_report", "grid", lambda lats: john_nirenberg_report(stack, GRID, [None], 2.0, 2.0, lats)),
        ("weights.ap_constant", "first", lambda lats: ap_constant(None, 2.0, lats)),
        ("weights.ap_constant_per_lattice", "first", lambda lats: ap_constant_per_lattice(None, 2.0, lats)),
        ("weights.a1_constant", "first", lambda lats: a1_constant(None, lats)),
        ("weights.ap_deltaN_constant", "first", lambda lats: ap_deltaN_constant(None, 2.0, lats)),
        ("dyadic.weighted_maximal", "one", lambda lat: weighted_maximal(f, None, lat)),
        ("dyadic.haar_coefficients", "one", lambda lat: haar_coefficients(f, lat)),
        ("squarefn.haar_square_function", "one", lambda lat: haar_square_function(f, lat)),
        ("squarefn.hardy_norm", "one", lambda lat: hardy_norm(f, "haar", None, lattice=lat)),
        ("atoms.atomic_decompose", "one", lambda lat: atomic_decompose(f, None, lat, TG)),
        ("sparse.sparse_operator_apply", "one", lambda lat: sparse_operator_apply(
            type(coll)(lat, coll.members, coll.carriers, coll.eta), f)),
        ("sparse.cz_stopping", "one", lambda lat: cz_stopping(f, lat, DyadicCube(0, (0,)), 2.0)),
    ]
    return entries


ENTRIES = _rule_entries()


def _own(kind):
    return build_lattice(GRID, DEPTH) if kind == "one" else lattice_family(GRID, DEPTH)


def _foreign(kind, grid):
    """A lattice argument that does not live on GRID: a family on grid, or for
    the entries held to their first lattice, GRID's first lattice and the
    rest on grid."""
    if kind == "one":
        return build_lattice(grid, DEPTH)
    family = lattice_family(grid, DEPTH)
    return lattice_family(GRID, DEPTH)[:1] + family[1:] if kind == "first" else family


@pytest.mark.parametrize("name, kind, call", ENTRIES, ids=[name for name, _, _ in ENTRIES])
def test_an_entry_takes_its_own_lattices(name, kind, call):
    call(_own(kind))


@pytest.mark.parametrize("other", list(OTHERS))
@pytest.mark.parametrize("name, kind, call", ENTRIES, ids=[name for name, _, _ in ENTRIES])
def test_an_entry_refuses_lattices_on_another_grid(name, kind, call, other):
    with pytest.raises(GridAlignmentError, match="read on"):
        call(_foreign(kind, OTHERS[other]))


@pytest.mark.parametrize("name, kind, call", [e for e in ENTRIES if e[1] != "one"],
                         ids=[name for name, kind, _ in ENTRIES if kind != "one"])
def test_a_family_entry_refuses_an_empty_family(name, kind, call):
    with pytest.raises(ParameterError, match="one or more"):
        call([])


@pytest.mark.parametrize("name, kind, call", [e for e in ENTRIES if e[1] == "one"],
                         ids=[name for name, kind, _ in ENTRIES if kind == "one"])
def test_a_single_lattice_entry_refuses_a_list(name, kind, call):
    for arg in ([build_lattice(GRID, DEPTH)], None):
        with pytest.raises(ParameterError, match="one DyadicLattice"):
            call(arg)


def test_the_characteristics_read_the_weight_on_the_first_lattice():
    # they take no grid: a weight on GRID with a family wholly on another grid
    # is a weight read on another grid
    w = power_weight(GRID, 0.5)
    family = lattice_family(OTHERS["wide"], DEPTH)
    for call in (lambda: ap_constant(w, 2.0, family), lambda: a1_constant(w, family),
                 lambda: ap_deltaN_constant(w, 2.0, family), lambda: ap_constant_per_lattice(w, 2.0, family)):
        with pytest.raises(DomainError, match="read on"):
            call()


def test_carleson_haar_on_its_own_family_keeps_its_number():
    # the rule compares grids only: the number on the function's own family stays
    norm = bmo_norm(_f(), None, "carleson-haar", lattice_family(GRID, DEPTH))
    assert norm == pytest.approx(2.325030774638835, rel=1e-12)


@pytest.mark.parametrize("other", list(OTHERS))
def test_carleson_haar_refuses_a_family_of_another_grid(other):
    # it gave 4.65006 on the wide family and 1.64405 on the fine one
    with pytest.raises(GridAlignmentError):
        bmo_norm(_f(), None, "carleson-haar", lattice_family(OTHERS[other]))


@pytest.mark.parametrize("flavor", ["classical-w", "classical-wr", "carleson-haar"])
def test_an_empty_family_is_refused(flavor):
    # each gave 0.0
    with pytest.raises(ParameterError):
        bmo_norm(_f(), None, flavor, [])


@pytest.mark.parametrize("flavor", ["classical-w", "carleson-haar"])
def test_a_half_space_function_is_not_scanned_by_full_space_cubes(flavor):
    # the full family's cubes cut the half grid's cells as if they were a full grid's
    with pytest.raises(GridAlignmentError):
        bmo_norm(restrict(_f(), "upper"), None, flavor, lattice_family(GRID, DEPTH))


def test_a_lattice_or_density_of_another_size_is_a_named_error():
    # each ended in a raw NumPy ValueError
    f, fine = _f(), build_lattice(OTHERS["fine"], DEPTH)
    with pytest.raises(GridAlignmentError):
        weighted_maximal(f, None, fine)
    coll = build_sparse_from_recursion(lambda c: [], fine, fine.cubes[0], 2.0)
    with pytest.raises(GridAlignmentError):
        sparse_operator_apply(coll, f)
    with pytest.raises(DomainError, match="shape"):
        cz_stopping(f.values, fine, fine.cubes[0], 2.0)
    with pytest.raises(GridAlignmentError):
        cz_stopping(GridFunction(OTHERS["wide"], f.values), build_lattice(GRID, DEPTH), fine.cubes[0], 2.0)


def _lattice_entries():
    """Qualified names of the public functions, methods and classes of wharm
    with a parameter named lattices, lattice, lat or coll."""
    found = set()
    for info in pkgutil.iter_modules(wharm.__path__):
        module = importlib.import_module(f"wharm.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [(name, obj)] if inspect.isfunction(obj) else []
            if inspect.isclass(obj):
                # a class by its constructor, then its public methods
                members += [(name if key == "__init__" else f"{name}.{key}", value) for key, value in vars(obj).items()
                            if (key == "__init__" or not key.startswith("_")) and inspect.isfunction(value)]
            for qualified, fn in members:
                if {"lattices", "lattice", "lat", "coll"} & set(inspect.signature(fn).parameters):
                    found.add(f"{info.name}.{qualified}")
    return found


def test_every_entry_that_takes_a_lattice_is_under_the_rule_or_on_its_own_grid():
    # the rule itself is among them
    ruled = {name.split("-")[0] for name, _, _ in ENTRIES} | {"dyadic.lattices_on"}
    assert not ruled & set(OWN_GRID)
    assert _lattice_entries() - ruled - set(OWN_GRID) == set()
    # neither list names an entry that no longer takes a lattice
    assert ruled | set(OWN_GRID) <= _lattice_entries()
