"""One function rule (grid.function_cells) behind every entry that reads
function values: one function, or a stack of them along one leading axis, on
the entry's own grid.  The same bad argument gives the same error everywhere.
One scalar rule (grid.scalar) behind every real or integer parameter: finite,
no bool, inside the bounds its entry states, and one (grid.scale_array)
behind every array of scales.  One choice rule (grid.choice) behind every
named choice: a str among the entry's names.  One rule (squarefn.time_grid)
behind every time grid argument: None or a TimeGrid of the entry's own grid.
Guards walk the public callables of every wharm module, so that an entry
taking function values, a scalar or a name cannot miss its rule."""

import importlib
import inspect
import pkgutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import wharm
from wharm.atoms import atomic_decompose, check_atom
from wharm.bmo import CARLESON_FLAVORS, CLASSICAL_FLAVORS, HALF_FLAVORS, bmo_deltaN_sides_norms, bmo_norm, bmo_norms
from wharm.bmo import john_nirenberg_report
from wharm.dyadic import DyadicCube, DyadicLattice, build_lattice, lattice_family, random_haar_sum, random_haar_sums
from wharm.errors import BackendError, DomainError, GridAlignmentError, ParameterError, WharmError
from wharm.grid import Grid, GridFunction, checked_p, choice, constant, restrict, scalar
from wharm.harness import EXPERIMENTS, run
from wharm.kernels import psi_stencil
from wharm.operators import OperatorHandle, apply, apply_scales, assemble_matrix, commutator, commutator_norms
from wharm.operators import psi_op, psi_reach, riesz, semigroup, weighted_operator_norm
from wharm.sparse import build_sparse_from_recursion, carleson_to_sparse, cz_stopping
from wharm.squarefn import ConeSpec, TimeGrid, area_function, g_star, hardy_norm, time_grid
from wharm.weights import ap_constant, ap_constant_per_lattice, ap_deltaN_constant, ap_quotient_on_box, bloom_weight
from wharm.weights import exp_log_bridge, one_sided_power_weight, power_weight, weight_from_spec

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


def _run(experiment, key):
    """call(x): harness.run of experiment on the config {key: x}, as a config file gives it."""
    return lambda x: run(experiment, {key: x})


P_OUT = [1, 0.5, 0, -1]
Q0 = DyadicCube(0, (0,))

# entries that read a scalar parameter: {"callable.parameter": (call(x), values out of its range)}
SCALAR_ENTRIES = {
    "scalar.x": (lambda x: scalar("x", x, 0, 1), [-1, 2]),
    "checked_p.p": (checked_p, P_OUT),
    "Grid.dim": (lambda x: Grid(x, 1.0, 32), [0, 3]),
    "Grid.halfwidth": (lambda x: Grid(1, x, 32), [0.0, -1.0]),
    "Grid.points_per_axis": (lambda x: Grid(1, 1.0, x), [0, -2]),
    "DyadicLattice.max_generation": (lambda x: DyadicLattice(GRID, x), [-1]),
    "build_lattice.max_generation": (lambda x: build_lattice(GRID, x), [-1]),
    "lattice_family.max_generation": (lambda x: lattice_family(GRID, x), [-1]),
    "random_haar_sums.count": (lambda x: random_haar_sums(LATS[0], np.random.default_rng(0), x), [-1]),
    "random_haar_sums.max_generation": (
        lambda x: random_haar_sums(LATS[0], np.random.default_rng(0), 2, max_generation=x), [-3]),
    "random_haar_sum.max_generation": (
        lambda x: random_haar_sum(LATS[0], np.random.default_rng(0), max_generation=x), [-3]),
    "OperatorHandle.t": (lambda x: OperatorHandle("qt", t=x), [0.0, -0.1]),
    # a Riesz component is at least 1 on the handle and at most dim where it acts
    "OperatorHandle.j": (lambda x: apply(OperatorHandle("riesz", j=x), F), [0, 2]),
    "OperatorHandle.beta": (lambda x: OperatorHandle("phi", t=0.1, beta=x), [-3]),
    "semigroup.t": (lambda x: semigroup("free", x), [0.0]),
    "psi_op.t": (psi_op, [0.0]),
    "riesz.j": (lambda x: apply(riesz("free", x), F), [0, 2]),
    "apply_scales.beta": (lambda x: apply_scales("phi", "free", [0.1], F, beta=x), [-3]),
    "commutator_norms.p": (lambda x: commutator_norms(STACK, R, GRID, p=x), P_OUT),
    "commutator_norms.seed": (lambda x: commutator_norms(STACK, R, GRID, seed=x), [-1]),
    "weighted_operator_norm.p": (lambda x: weighted_operator_norm(R, GRID, p=x), P_OUT),
    "weighted_operator_norm.seed": (lambda x: weighted_operator_norm(R, GRID, seed=x), [-1]),
    # the stencil spans 2t/h cells: past 4L it is refused unbuilt
    "psi_stencil.t": (lambda x: psi_stencil(x, GRID), [0.0, 4.5]),
    "TimeGrid.geometric.t_min": (lambda x: TimeGrid.geometric(GRID, t_min=x), [GRID.h / 2, 3.0]),
    "TimeGrid.geometric.t_max": (lambda x: TimeGrid.geometric(GRID, t_max=x), [2 * GRID.h, 2.5]),
    "TimeGrid.geometric.steps_per_octave": (lambda x: TimeGrid.geometric(GRID, steps_per_octave=x), [0]),
    "area_function.beta": (lambda x: area_function(F, ("phi", x), ConeSpec(), TG), [-3]),
    "g_star.lambda_exponent": (lambda x: g_star(F, "qt", x, TG), [0]),
    "bmo_norms.r": (lambda x: bmo_norms(STACK, GRID, None, "classical-wr", LATS, r=x), [0.5]),
    "bmo_norm.r": (lambda x: bmo_norm(F, None, "classical-wr", LATS, r=x), [0.5]),
    "john_nirenberg_report.p": (lambda x: john_nirenberg_report(STACK, GRID, [None], x, 1.0, LATS), P_OUT),
    "john_nirenberg_report.r": (lambda x: john_nirenberg_report(STACK, GRID, [None], 2.0, x, LATS), [0.5, 3.0]),
    "cz_stopping.alpha": (lambda x: cz_stopping(STACK[0], LATS[0], Q0, x), [1.0, 0.5]),
    "build_sparse_from_recursion.alpha": (lambda x: build_sparse_from_recursion(lambda c: [], LATS[0], Q0, x), [1]),
    "carleson_to_sparse.eta": (lambda x: carleson_to_sparse(LATS[0], [Q0], x), [0.0, 1.5]),
    "power_weight.alpha": (lambda x: power_weight(GRID, x), [-1.0, -2.0]),
    "one_sided_power_weight.alpha": (lambda x: one_sided_power_weight(GRID, x), [-1.0]),
    "exp_log_bridge.delta": (lambda x: exp_log_bridge(F, x), [0.0]),
    "atomic_decompose.p": (lambda x: atomic_decompose(F, None, LATS[0], TG, p=x), P_OUT),
    # the atoms read p on their own: p = -1 passed 4 of 5 atoms, p = nan ran
    # and p = 0 ended in a raw ZeroDivisionError
    "check_atom.p": (lambda x: check_atom(replace(atomic_decompose(F, None, LATS[0], TG).atoms[0], p=x)), P_OUT),
    "bloom_weight.p": (lambda x: bloom_weight(constant(GRID, 1.0), None, x), P_OUT),
    "ap_constant.p": (lambda x: ap_constant(None, x, LATS), P_OUT),
    "ap_constant_per_lattice.p": (lambda x: ap_constant_per_lattice(None, x, LATS), P_OUT),
    "ap_deltaN_constant.p": (lambda x: ap_deltaN_constant(None, x, LATS), P_OUT),
    "ap_quotient_on_box.p": (lambda x: ap_quotient_on_box(constant(GRID, 1.0), x, [-0.5], [0.5]), P_OUT),
}

# an experiment's scalars are read from its config through harness.run: the
# values out of range of each key; a tolerance of a report's pass test may
# be any finite real, and riesz-ap takes p = 2 alone (its Riesz norms are L^2 norms)
CONFIG_OUT = {"dim": [0, 3], "halfwidth": [0.0, -1.0], "points_per_axis": [0], "max_generation": [0],
              "p": [1.0, 0.5], "r": [0.5, 3.0], "symbols": [0], "instances": [0], "seed": [-1],
              "band_cap": [], "growth_floor": [], "commutator_variation_cap": []}
EXPERIMENT_NAMES = {fn.__name__: name for name, fn in EXPERIMENTS.items()}


# parameters that are scalars whatever their annotation
SCALAR_NAMES = {"p", "r", "t", "j", "beta", "alpha", "eta", "delta", "seed", "count", "max_generation", "t_min",
                "t_max", "steps_per_octave", "lambda_exponent", "dim", "halfwidth", "points_per_axis"}


def _is_scalar(key, parameter) -> bool:
    """parameter is a scalar: its name says so, it is annotated int or float, or its default is a number."""
    annotation = getattr(parameter.annotation, "__forward_arg__", parameter.annotation)
    default = parameter.default
    number = isinstance(default, (int, float)) and not isinstance(default, bool)
    return key in SCALAR_NAMES or annotation in ("int", "float") or number


for _fn, _name in EXPERIMENT_NAMES.items():
    for _key, _parameter in inspect.signature(EXPERIMENTS[_name]).parameters.items():
        if _is_scalar(_key, _parameter):
            SCALAR_ENTRIES[f"{_fn}.{_key}"] = (_run(_name, _key), CONFIG_OUT[_key])
SCALAR_ENTRIES["run_riesz_ap_characterization.p"] = (_run("riesz-ap", "p"), [1.0, 3.0])

# every entry refuses these, and each value out of its range
BAD_SCALARS = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf, "True": True, "str": "2"}
SCALAR_CASES = [(entry, value) for entry, (_, out) in SCALAR_ENTRIES.items()
                for value in list(BAD_SCALARS.values()) + out]


@pytest.mark.parametrize("entry, value", SCALAR_CASES, ids=[f"{e}-{v!r}" for e, v in SCALAR_CASES])
def test_every_scalar_entry_refuses_a_bad_value(entry, value):
    # r = nan gave classical-wr norms 0.0 and r = inf 1.0, alpha = nan ended
    # in a bare AssertionError and a negative seed in a raw ValueError; the
    # message is the rule's, so no entry decides on its own
    parameter = entry.rsplit(".", 1)[1]
    with pytest.raises(ParameterError, match=f"^{parameter} must (be|lie)") as info:
        SCALAR_ENTRIES[entry][0](value)
    assert f", got {parameter} = " in str(info.value)


@pytest.mark.parametrize("x", [2, np.int64(2), 2.0, np.float64(2.5), 10 ** 400], ids=repr)
def test_the_scalar_rule_returns_its_argument(x):
    integer = isinstance(x, (int, np.integer))
    assert scalar("x", x, 1, integer=integer) is x


def test_a_real_past_the_float_range_is_refused():
    # a config's integer 10**400 for a float key ended in a raw OverflowError from float()
    with pytest.raises(ParameterError, match="must be finite"):
        scalar("x", 10 ** 400)
    with pytest.raises(ParameterError, match="^halfwidth must be finite"):
        run("riesz-ap", {"halfwidth": 10 ** 400})


# one rule (grid.scale_array) reads an array of scales: "ab" ended in a raw
# ValueError and a dict in a raw TypeError at both entries, a ragged list in
# a raw ValueError, and True and "0.1" were read as the scales 1.0 and 0.1
SCALE_ENTRIES = {"apply_scales.ts": lambda x: apply_scales("qt", "free", x, F)}
BAD_SCALES = ["ab", {"t": 0.1}, [True], ["0.1"], [[0.1], [0.1, 0.2]], [], [[0.1, 0.2]], [0.1, np.nan], [0.0]]


@pytest.mark.parametrize("ts", BAD_SCALES, ids=repr)
@pytest.mark.parametrize("entry", SCALE_ENTRIES)
def test_every_array_of_scales_is_read_by_one_rule(entry, ts):
    name = entry.rsplit(".", 1)[1]
    with pytest.raises(ParameterError, match=f"^{name} must be a nonempty 1D array of finite reals > 0$"):
        SCALE_ENTRIES[entry](ts)


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

# public scalar parameters that are no entry of the scalar rule
SCALAR_EXEMPT = {
    "scalar.low": "the rule's own bounds, which each entry states",
    "scalar.high": "the rule's own bounds, which each entry states",
    "Atom.p": "an atom's p is read by check_atom, an entry",
    "AtomSequence.p": "it hands the p that atomic_decompose read on to the atoms it builds",
    "Atom.level": "the level set of an atom, which atomic_decompose numbers",
    "AtomRecord.level": "the level set of an atom, which atomic_decompose numbers",
    "DyadicCube.generation": "a cube's label: an entry taking a cube checks that it is a cube of its lattice",
    "StoppingFamily.alpha": "a result: cz_stopping read alpha",
    "StoppingFamily.parent_average": "a result, computed by cz_stopping",
    "SparseCollection.eta": "a result: carleson_to_sparse or build_sparse_from_recursion read it",
    "constant.c": "a function value, read by grid.function_cells",
    "extensions.sign": "a building block: its callers pass 1, -1 or nan",
    "split_blocks.count": "a building block: its callers cut by their lattice's generations",
    "split_blocks.dim": "a building block: its callers cut by their grid's dim",
    "signatures.dim": "a building block: its callers pass their grid's dim",
    "haar_generation.k": "a building block: its callers run over their lattice's generations",
    "haar_synthesis.k": "a building block: its callers run over their lattice's generations",
    "riesz_normalization.n": "a building block of riesz_free, whose callers pass their grid's dim",
    "heat_free.t": "a building block of the quadrature kernel table, whose OperatorHandle read t",
    "qt_free.t": "a building block of the quadrature kernel table, whose OperatorHandle read t",
    "riesz_free.j": "a building block of the quadrature kernel table, whose OperatorHandle and _scales read j",
}


def test_every_public_callable_taking_function_values_is_an_entry():
    entries = {name.split("-")[0] for name, *_ in STACK_ENTRIES + ONE_ENTRIES}
    takers = _takers(FUNCTION_PARAMETERS)
    loose = sorted(takers - entries - set(FUNCTION_EXEMPT))
    assert not loose, f"these take function values, but are no entry here and not exempt: {loose}"
    idle = sorted(set(FUNCTION_EXEMPT) - takers)
    assert not idle, f"exempt but take no function values: {idle}"


def test_every_public_scalar_parameter_is_an_entry():
    # atomic_decompose took p outside the rule, and nothing noticed
    found = {f"{name}.{key}" for name, obj in _public_callables().items()
             for key, parameter in inspect.signature(obj).parameters.items() if _is_scalar(key, parameter)}
    loose = sorted(found - set(SCALAR_ENTRIES) - set(SCALAR_EXEMPT))
    assert not loose, f"these are scalar parameters, but no entry here and not exempt: {loose}"
    assert not set(SCALAR_EXEMPT) - found, f"exempt but no scalar parameter: {sorted(set(SCALAR_EXEMPT) - found)}"


# entries that read a name: {"callable.parameter": (call(x), a name it takes)}
CHOICE_ENTRIES = {
    "choice.x": (lambda x: choice("x", x, ("a", "b")), "a"),
    "OperatorHandle.kind": (lambda x: OperatorHandle(x, t=0.1), "qt"),
    "OperatorHandle.family": (lambda x: OperatorHandle("qt", x, t=0.1), "neumann"),
    "OperatorHandle.backend": (lambda x: OperatorHandle("qt", t=0.1, backend=x), "quadrature"),
    "semigroup.family": (lambda x: semigroup(x, 0.1), "free"),
    "semigroup.backend": (lambda x: semigroup("free", 0.1, backend=x), "fourier"),
    "psi_op.backend": (lambda x: psi_op(0.1, backend=x), "quadrature"),
    "riesz.family": (lambda x: riesz(x, 1), "dirichlet"),
    "riesz.backend": (lambda x: riesz("free", 1, backend=x), "fourier"),
    "apply_scales.kind": (lambda x: apply_scales(x, "free", [0.1], F), "qt"),
    "apply_scales.family": (lambda x: apply_scales("qt", x, [0.1], F), "free"),
    "Grid.domain": (lambda x: Grid(1, 1.0, 8, x), "upper"),
    "restrict.side": (lambda x: restrict(F, x), "lower"),
    "DyadicLattice.shift": (lambda x: DyadicLattice(GRID, 3, x), "third"),
    "build_lattice.shift": (lambda x: build_lattice(GRID, 3, x), "two_thirds"),
    "ConeSpec.kind": (ConeSpec, "neumann"),
    "area_function.generator": (lambda x: area_function(F, x, ConeSpec(), TG), "qt"),
    "g_star.generator": (lambda x: g_star(F, x, 2, TG), "qt"),
    "hardy_norm.flavor": (lambda x: hardy_norm(F, x, None, TG, LATS[0]), "haar"),
    "bmo_norms.flavor": (lambda x: bmo_norms(STACK, GRID, None, x, LATS), "classical-w"),
    "bmo_norm.flavor": (lambda x: bmo_norm(F, None, x, LATS), "carleson-haar"),
    # the kind of a weight is a key of its spec
    "weight_from_spec.kind": (lambda x: weight_from_spec({"kind": x}, GRID), "one"),
    "run.name": (lambda x: run(x, {}), "riesz-ap"),
}
# entries whose default None is a name: a lattice's shift is "none" by default
NONE_IS_A_NAME = {"DyadicLattice.shift", "build_lattice.shift"}

# public parameters named as a choice that are no entry of the choice rule
CHOICE_EXEMPT = {
    "choice.name": "the rule's own label of the parameter it reads",
    "scalar.name": "a label: the parameter its message names",
    "scale_array.name": "a label: the parameter its message names",
    "experiment.name": "it registers an experiment under its name, which run reads",
}
CHOICE_PARAMETERS = {"kind", "family", "backend", "flavor", "generator", "domain", "side", "shift", "name"}


def _bad_names(entry, valid):
    """The values every entry refuses: none is a str among its names."""
    bad = {"bogus": "bogus", "None": None, "list": ["x"], "two-array": np.array(["x", "y"]),
           "one-array": np.array([valid])}
    return {key: value for key, value in bad.items() if not (value is None and entry in NONE_IS_A_NAME)}


CHOICE_CASES = [(entry, key, value) for entry, (_, valid) in CHOICE_ENTRIES.items()
                for key, value in _bad_names(entry, valid).items()]


@pytest.mark.parametrize("entry, bad, value", CHOICE_CASES, ids=[f"{e}-{b}" for e, b, _ in CHOICE_CASES])
def test_every_choice_entry_refuses_a_bad_name(entry, bad, value):
    # an array domain built a Grid that a cache then could not hash, an array
    # side, BMO or Hardy flavor or generator ended in numpy's ambiguous truth
    # value, a list experiment name in a raw TypeError, and a one-element
    # array Hardy flavor gave a norm; the message is the rule's everywhere
    parameter = entry.rsplit(".", 1)[1]
    error = BackendError if parameter == "backend" else ParameterError
    with pytest.raises(error, match=f"^{parameter} must be one of ") as info:
        CHOICE_ENTRIES[entry][0](value)
    assert f", got {parameter} = " in str(info.value)


@pytest.mark.parametrize("entry", [e for e in CHOICE_ENTRIES if e != "run.name"])
def test_every_choice_entry_takes_its_name(entry):
    call, valid = CHOICE_ENTRIES[entry]
    call(valid)


def test_the_choice_rule_returns_its_argument():
    name = "".join(["fu", "ll"])  # equal to "full", not the same object
    assert choice("domain", name, ("full", "upper")) is name


def test_every_public_choice_parameter_is_an_entry():
    found = {f"{name}.{key}" for name, obj in _public_callables().items()
             for key in inspect.signature(obj).parameters if key in CHOICE_PARAMETERS}
    loose = sorted(found - set(CHOICE_ENTRIES) - set(CHOICE_EXEMPT))
    assert not loose, f"these are named choices, but no entry here and not exempt: {loose}"
    assert not set(CHOICE_EXEMPT) - found, f"exempt but no choice parameter: {sorted(set(CHOICE_EXEMPT) - found)}"


# entries that read a time grid, each on GRID, where None is the default: {name: call(tg)}
TIME_GRID_ENTRIES = {
    "bmo_norms": lambda tg: bmo_norms(STACK, GRID, None, "carleson-heat-neumann", LATS, tg=tg),
    "bmo_norm": lambda tg: bmo_norm(F, None, "carleson-heat-free", LATS, tg=tg),
    "bmo_deltaN_sides_norms": lambda tg: bmo_deltaN_sides_norms(STACK, GRID, None, LATS, tg=tg),
    "hardy_norm": lambda tg: hardy_norm(F, ("classical", 1), None, tg=tg),
    "atomic_decompose": lambda tg: atomic_decompose(F, None, LATS[0], tg=tg),
    "area_function": lambda tg: area_function(F, "qt", ConeSpec(), tg),
    "g_star": lambda tg: g_star(F, "qt", 2, tg),
    "time_grid": lambda tg: time_grid(tg, GRID),
}
TIME_GRID_CASES = [(entry, tg) for entry in TIME_GRID_ENTRIES for tg in ["x", 5, 0, TG.t_values]]
# grids of other cells: one of GRID's shape on a wider box, and a finer one
OTHER_GRIDS = {"wider": _wider(GRID), "finer": Grid(1, 1.0, 64)}


@pytest.mark.parametrize("entry, tg", TIME_GRID_CASES, ids=[f"{e}-{t!r:.8}" for e, t in TIME_GRID_CASES])
def test_every_time_grid_entry_refuses_what_is_no_time_grid(entry, tg):
    # tg = "x" and tg = 5 ended in a raw AttributeError, and tg = 0 was taken
    # as the default grid by `tg or TimeGrid.geometric(...)`
    with pytest.raises(ParameterError, match="^tg must be a TimeGrid"):
        TIME_GRID_ENTRIES[entry](tg)


@pytest.mark.parametrize("other", OTHER_GRIDS)
@pytest.mark.parametrize("entry", TIME_GRID_ENTRIES)
def test_every_time_grid_entry_refuses_a_time_grid_of_another_grid(entry, other):
    # a time grid's scales mean something against its own grid's h and L
    # alone: one of another grid gave another number with no error
    with pytest.raises(GridAlignmentError) as info:
        TIME_GRID_ENTRIES[entry](TimeGrid.geometric(OTHER_GRIDS[other]))
    assert str(info.value) == f"a time grid on {OTHER_GRIDS[other]} read on {GRID}"


@pytest.mark.parametrize("entry", ["area_function", "g_star"])
def test_a_square_function_takes_the_default_time_grid_of_its_grid(entry):
    # None was refused here while every other entry took it as the default
    assert np.array_equal(TIME_GRID_ENTRIES[entry](None).values, TIME_GRID_ENTRIES[entry](TG).values)


def test_every_public_time_grid_parameter_is_an_entry():
    takers = {name for name, obj in _public_callables().items() if "tg" in inspect.signature(obj).parameters}
    assert takers == set(TIME_GRID_ENTRIES)


@pytest.mark.parametrize("t", [1e300, 1e7], ids=repr)
@pytest.mark.parametrize("call", [
    lambda t: apply(psi_op(t, backend="quadrature"), constant(GRID, 1.0)),
    lambda t: psi_reach(np.ones(GRID.shape, dtype=bool), [0.1, t], GRID),
    lambda t: psi_stencil(t, GRID),
], ids=["apply", "psi_reach", "psi_stencil"])
def test_a_quadrature_psi_scale_past_the_box_is_refused_unbuilt(call, t):
    # t = 1e300 ended in a raw ValueError from numpy and t = 1e7 built a
    # stencil of 2t/h cells, gigabytes, first (psi_stencil itself, which
    # knew no grid, kept doing so after its callers had bounded t)
    tracemalloc.start()
    try:
        with pytest.raises(ParameterError, match=r"^t must lie in \(0, 4.0\], got t = "):
            call(t)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


def test_a_quadrature_psi_scale_up_to_the_box_is_computed():
    # every TimeGrid scale is at most 2L up to rounding; 4L is the bound itself
    for t in (2.0 * GRID.halfwidth, 4.0 * GRID.halfwidth):
        assert np.all(np.isfinite(apply(psi_op(t, backend="quadrature"), F).values))


# calls that ended in a raw Python or numpy error, or gave a number
PROBES = {
    "array-domain": lambda: Grid(1, 1.0, 8, np.array("full")),
    "list-experiment": lambda: run(["riesz-ap"], {}),
    "array-side": lambda: restrict(F, np.array(["upper", "lower"])),
    "array-bmo-flavor": lambda: bmo_norm(F, None, np.array(["classical-w", "x"]), LATS),
    "array-hardy-flavor": lambda: hardy_norm(F, np.array(["haar", "x"]), None),
    "array-generator": lambda: area_function(F, np.array(["qt", "qt"]), ConeSpec("free"), TG),
    "one-array-hardy-flavor": lambda: hardy_norm(F, np.array(["heat-free"]), None),
    "str-tg-bmo": lambda: bmo_norm(F, None, "carleson-heat-free", LATS, tg="x"),
    "str-tg-hardy": lambda: hardy_norm(F, "heat-free", None, tg="x"),
    "int-tg-atoms": lambda: atomic_decompose(F, None, LATS[0], tg=5),
    "zero-tg-bmo": lambda: bmo_norms(STACK, GRID, None, "carleson-heat-free", LATS, tg=0),
    # a cone or an inner handle of the wrong type ended in a raw AttributeError
    "str-cone": lambda: area_function(F, "qt", "free", TG),
    "str-inner": lambda: commutator_norms(np.ones((1, 32)), "riesz", GRID),
}


@pytest.mark.parametrize("probe", PROBES)
def test_a_probed_call_raises_a_toolkit_error(probe):
    with pytest.raises(WharmError):
        PROBES[probe]()


@pytest.mark.parametrize("flavor", [("heat-free",), ("heat-free", 1), "classical", ("classical",), ("classical", 1, 2),
                                    ()], ids=repr)
def test_a_hardy_flavor_takes_an_order_only_when_classical(flavor):
    with pytest.raises(ParameterError):
        hardy_norm(F, flavor, None, TG)
