"""One function rule (grid.function_cells) behind every entry that reads
function values: one function, or a stack of them along one leading axis, on
the entry's own grid.  The same bad argument gives the same error everywhere.
Guards walk the public callables of every wharm module, so that an entry
taking function values, or an exponent p, cannot miss its rule."""

import importlib
import inspect
import pkgutil
from dataclasses import replace

import numpy as np
import pytest

import wharm
from wharm.atoms import atomic_decompose, check_atom
from wharm.bmo import CARLESON_FLAVORS, CLASSICAL_FLAVORS, HALF_FLAVORS, bmo_deltaN_sides_norms, bmo_norms
from wharm.bmo import john_nirenberg_report
from wharm.dyadic import DyadicCube, lattice_family, random_haar_sums
from wharm.errors import DomainError, GridAlignmentError, ParameterError
from wharm.grid import Grid, GridFunction, checked_p, constant
from wharm.harness import run_john_nirenberg, run_riesz_ap_characterization, run_two_weight_commutator
from wharm.operators import apply, apply_scales, assemble_matrix, commutator, commutator_norms, riesz
from wharm.operators import weighted_operator_norm
from wharm.sparse import cz_stopping
from wharm.squarefn import TimeGrid
from wharm.weights import ap_constant, ap_constant_per_lattice, ap_deltaN_constant, ap_quotient_on_box, bloom_weight

GRID = Grid(1, 1.0, 32)
HALF = GRID.with_domain("upper")
LATS = lattice_family(GRID, 4)
TG = TimeGrid.geometric(GRID)
R = riesz("neumann", 1)
STACK = random_haar_sums(LATS[0], np.random.default_rng(3), 2, max_generation=3)
F = GridFunction(GRID, STACK[0])


def _wider(grid):
    """A grid of grid's shape on a box four times wider: its cells are not grid's."""
    return Grid(grid.dim, 4.0 * grid.halfwidth, grid.points_per_axis, grid.domain)


# entries that read a stack (S, *grid.shape): (name, grid, good stack, call(x))
STACK_ENTRIES = [
    ("bmo_deltaN_sides_norms", GRID, STACK, lambda x: bmo_deltaN_sides_norms(x, GRID, None, LATS, tg=TG)),
    ("john_nirenberg_report", GRID, STACK, lambda x: john_nirenberg_report(x, GRID, [None], 2.0, 2.0, LATS)),
    ("commutator_norms", GRID, STACK, lambda x: commutator_norms(x, R, GRID)),
    ("apply_scales", GRID, STACK, lambda x: apply_scales("qt", "free", [0.1, 0.2], x, grid=GRID)),
]
STACK_ENTRIES += [(f"bmo_norms-{flavor}", GRID, STACK, lambda x, flavor=flavor: bmo_norms(x, GRID, None, flavor, LATS))
                  for flavor in CLASSICAL_FLAVORS + CARLESON_FLAVORS]
STACK_ENTRIES += [(f"bmo_norms-{flavor}", HALF, STACK[:, 16:],
                   lambda x, flavor=flavor: bmo_norms(x, HALF, None, flavor, LATS)) for flavor in HALF_FLAVORS]

# entries that read one function on grid: (name, grid, good cells, call(x));
# a commutator reads its symbol on the grid its operator acts on
ONE_ENTRIES = [
    ("GridFunction", GRID, STACK[0], lambda x: GridFunction(GRID, x)),
    ("cz_stopping", GRID, STACK[0], lambda x: cz_stopping(x, LATS[0], DyadicCube(0, (0,)), 2.0)),
    ("weighted_operator_norm", GRID, STACK[0], lambda x: weighted_operator_norm(commutator(x, R), GRID)),
    ("apply", GRID, STACK[0], lambda x: apply(commutator(x, R), F)),
    ("assemble_matrix", GRID, STACK[0], lambda x: assemble_matrix(commutator(x, R), GRID)),
]

# the error an entry raises for a bad argument, where it is no DomainError
NAMED = {("cz_stopping", "other-grid"): GridAlignmentError}


def _one_cell(good, value):
    """good with value in one cell of its last row, the others clean."""
    bad = np.array(good, dtype=float)
    bad[(-1,) * bad.ndim] = value
    return bad


# a bad argument, made from (grid, good cells)
BAD = {
    "nan": lambda grid, good: _one_cell(good, np.nan),
    "inf": lambda grid, good: _one_cell(good, np.inf),
    "wrong-shape": lambda grid, good: np.ones(good.shape[:-1] + (good.shape[-1] + 2,)),
    "dict": lambda grid, good: {"kind": "one"},
    "str": lambda grid, good: "one",
    "other-grid": lambda grid, good: GridFunction(_wider(grid), good[(0,) * (good.ndim - grid.dim)]),
}


def _expect(name, bad, call, x):
    error = NAMED.get((name.split("-")[0], bad), DomainError)
    try:
        call(x)
    except error:
        return
    except Exception as exc:
        pytest.fail(f"{name} raised {type(exc).__name__} for the {bad} argument: {exc}")
    pytest.fail(f"{name} took the {bad} argument")


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("name, grid, good, call", STACK_ENTRIES, ids=[e[0] for e in STACK_ENTRIES])
def test_a_stack_entry_refuses_a_bad_stack(name, grid, good, call, bad):
    # a NaN cell in one row of a stack gave bmo_norms the clean row's number
    # for the bad row; a dict or a string ended in raw NumPy errors
    _expect(name, bad, call, BAD[bad](grid, good))


@pytest.mark.parametrize("bad", list(BAD))
@pytest.mark.parametrize("name, grid, good, call", ONE_ENTRIES, ids=[e[0] for e in ONE_ENTRIES])
def test_a_one_function_entry_refuses_a_bad_function(name, grid, good, call, bad):
    _expect(name, bad, call, BAD[bad](grid, good))


@pytest.mark.parametrize("name, grid, good, call", STACK_ENTRIES, ids=[e[0] for e in STACK_ENTRIES])
def test_a_stack_entry_refuses_one_function(name, grid, good, call):
    for one in (GridFunction(grid, good[0]), good[0]):
        _expect(name, "one-function", call, one)


@pytest.mark.parametrize("name, grid, good, call", ONE_ENTRIES, ids=[e[0] for e in ONE_ENTRIES])
def test_a_one_function_entry_refuses_a_stack(name, grid, good, call):
    _expect(name, "stack", call, np.stack([good, good]))


def _bits(x):
    """x with every number as its exact bytes or repr, for == comparison."""
    if isinstance(x, GridFunction):
        return _bits(x.values)
    if isinstance(x, np.ndarray):
        return x.shape, x.tobytes()
    if isinstance(x, dict):
        return {key: _bits(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(value) for value in x]
    return repr(x)


@pytest.mark.parametrize("name, grid, good, call", ONE_ENTRIES, ids=[e[0] for e in ONE_ENTRIES])
def test_a_function_and_its_cells_are_read_alike(name, grid, good, call):
    assert _bits(call(GridFunction(grid, good))) == _bits(call(good))


@pytest.mark.parametrize("name, grid, good, call", STACK_ENTRIES, ids=[e[0] for e in STACK_ENTRIES])
def test_a_stack_and_its_nested_lists_are_read_alike(name, grid, good, call):
    assert _bits(call(good.tolist())) == _bits(call(good))


def test_the_symbol_of_a_commutator_is_read_on_the_operator_grid():
    # a symbol sampled on a box four times wider has the grid's shape: it was
    # read as the grid's cells without a word
    wide = GridFunction(_wider(GRID), STACK[0])
    with pytest.raises(DomainError, match="read on"):
        weighted_operator_norm(commutator(wide, R), GRID)
    with pytest.raises(DomainError, match="read on"):
        apply(commutator(wide, R), F)


# entries that read an exponent p: (name, call(p))
P_ENTRIES = [
    ("checked_p", checked_p),
    ("atomic_decompose", lambda p: atomic_decompose(F, None, LATS[0], TG, p=p)),
    ("check_atom", lambda p: check_atom(replace(atomic_decompose(F, None, LATS[0], TG).atoms[0], p=p))),
    ("john_nirenberg_report", lambda p: john_nirenberg_report(STACK, GRID, [None], p, 1.0, LATS)),
    ("commutator_norms", lambda p: commutator_norms(STACK, R, GRID, p=p)),
    ("weighted_operator_norm", lambda p: weighted_operator_norm(R, GRID, p=p)),
    ("bloom_weight", lambda p: bloom_weight(constant(GRID, 1.0), None, p)),
    ("ap_constant", lambda p: ap_constant(None, p, LATS)),
    ("ap_constant_per_lattice", lambda p: ap_constant_per_lattice(None, p, LATS)),
    ("ap_deltaN_constant", lambda p: ap_deltaN_constant(None, p, LATS)),
    ("ap_quotient_on_box", lambda p: ap_quotient_on_box(constant(GRID, 1.0), p, [-0.5], [0.5])),
    ("run_two_weight_commutator", lambda p: run_two_weight_commutator(points_per_axis=32, symbols=2, p=p)),
    ("run_riesz_ap_characterization", lambda p: run_riesz_ap_characterization(points_per_axis=32, p=p)),
    ("run_john_nirenberg", lambda p: run_john_nirenberg(points_per_axis=32, instances=3, p=p)),
]


# riesz-ap takes p = 2 alone, since its Riesz norms are L^2 norms
P_MESSAGES = {"run_riesz_ap_characterization": "p = 2 only"}


@pytest.mark.parametrize("p", [1, 0.5, 0, -1, np.inf, np.nan], ids=["1", "0.5", "0", "-1", "inf", "nan"])
@pytest.mark.parametrize("name, call", P_ENTRIES, ids=[e[0] for e in P_ENTRIES])
def test_every_p_entry_refuses_a_p_outside_one_to_infinity(name, call, p):
    # the atoms read p on their own: p = -1 passed 4 of 5 atoms, p = nan ran
    # and p = 0 ended in a raw ZeroDivisionError
    with pytest.raises(ParameterError, match=P_MESSAGES.get(name, "p must lie in")):
        call(p)


def _public_callables():
    """{name: callable} of every public function and class a wharm module
    defines, its exception types aside."""
    found = {}
    for info in pkgutil.iter_modules(wharm.__path__):
        module = importlib.import_module(f"wharm.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isclass(obj) and issubclass(obj, Exception)):
                found[name] = obj
    return found


def _takers(names: set) -> set:
    return {name for name, obj in _public_callables().items() if set(inspect.signature(obj).parameters) & names}


# public callables with a parameter named values, symbols or dens that are no entry of the function rule
FUNCTION_EXEMPT = {
    "Atom": "its values are a GridFunction, whose constructor is an entry",
    "haar_generation": "a building block: it reads cells on its lattice's own grid, from entries that read them",
    "extensions": "a building block: it extends cells on the caller's own grid, read by the caller",
    "run_two_weight_commutator": "an experiment: symbols is the number of symbols it draws",
    "run_bmo_coincidence": "an experiment: symbols is the number of symbols it draws",
}
FUNCTION_PARAMETERS = {"values", "symbols", "dens"}

# public callables with a parameter named p that are no entry of the p rule
P_EXEMPT = {
    "Atom": "an atom's p is read by check_atom, an entry",
    "AtomSequence": "it hands the p that atomic_decompose read on to the atoms it builds",
}


def test_every_public_callable_taking_function_values_is_an_entry():
    entries = {name.split("-")[0] for name, *_ in STACK_ENTRIES + ONE_ENTRIES}
    takers = _takers(FUNCTION_PARAMETERS)
    loose = sorted(takers - entries - set(FUNCTION_EXEMPT))
    assert not loose, f"these take function values, but are no entry here and not exempt: {loose}"
    idle = sorted(set(FUNCTION_EXEMPT) - takers)
    assert not idle, f"exempt but take no function values: {idle}"


def test_every_public_callable_taking_p_is_an_entry():
    # atomic_decompose took p outside the rule, and nothing noticed
    entries = {name for name, _ in P_ENTRIES}
    takers = _takers({"p"})
    loose = sorted(takers - entries - set(P_EXEMPT))
    assert not loose, f"these take p, but are no entry here and not exempt: {loose}"
    assert not set(P_EXEMPT) - takers, f"exempt but take no p: {sorted(set(P_EXEMPT) - takers)}"
