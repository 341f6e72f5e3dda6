"""One weight rule (grid.weight_cells) behind every weighted entry: the same
bad weight gives the same error everywhere, and None is the unit weight bit
for bit.  A guard walks the public callables of every wharm module, so that
an entry taking a weight cannot miss these checks."""

import importlib
import inspect
import pkgutil
from dataclasses import replace

import numpy as np
import pytest

import wharm
from wharm.atoms import AtomicDecomposition, atomic_decompose, check_atom
from wharm.bmo import CARLESON_FLAVORS, CLASSICAL_FLAVORS, HALF_FLAVORS, bmo_deltaN_sides_norms, bmo_norm, bmo_norms
from wharm.dyadic import lattice_family, random_haar_sum, random_haar_sums, weighted_maximal
from wharm.errors import DomainError, WeightError
from wharm.grid import Grid, GridFunction, constant
from wharm.operators import commutator, commutator_norms, riesz, weighted_operator_norm
from wharm.squarefn import TimeGrid, hardy_norm
from wharm.weights import (
    a1_constant,
    ap_constant,
    ap_constant_per_lattice,
    ap_deltaN_constant,
    ap_quotient_on_box,
    bloom_weight,
    log_weight,
    power_weight,
)

GRID = Grid(1, 1.0, 32)
HALF = GRID.with_domain("upper")


def _one_cell(value):
    """Ones on the grid's shape but value in one cell."""

    def make(shape):
        w = np.ones(shape)
        w[..., 3] = value
        return w

    return make


# a bad weight and the error every entry raises for it
BAD = {
    "zero": (_one_cell(0.0), WeightError),
    "negative": (_one_cell(-1.0), WeightError),
    "nan": (_one_cell(np.nan), WeightError),
    "inf": (_one_cell(np.inf), WeightError),
    "wrong-size": (lambda shape: np.ones(shape[-1] + 2), DomainError),
}


def _unchecked(grid, cells):
    """A GridFunction on grid holding cells as given: its constructor refuses
    a non-finite value or a wrong shape, which a weight entry must refuse
    itself."""
    f = GridFunction(grid, np.ones(grid.shape))
    f.values = np.asarray(cells, dtype=float)
    return f


# entries that put their result on the weight's own grid, and so take a
# GridFunction only: (name, call(w))
GRIDLESS = [
    ("ap_quotient_on_box", lambda w: ap_quotient_on_box(w, 2.0, [-0.5], [0.5])),
    ("log_weight", log_weight),
    ("bloom_weight-mu", lambda w: bloom_weight(w, None, 2.0)),
]

# public callables that take a weight but are no entry of the rule
EXEMPT = {
    "weight_cells": "it is the rule itself",
    "Atom": "an atom's weight field is read by check_atom, an entry",
    "AtomSequence": "it hands the weight atomic_decompose read on to the atoms it builds",
    "john_nirenberg_report": "it passes its weights on to bmo_norms and ap_constant, both entries",
    "run_bmo_coincidence": "an experiment: it takes weight specs, read by weight_from_spec",
    "run_john_nirenberg": "an experiment: it takes weight specs, read by weight_from_spec",
}
WEIGHT_PARAMETERS = {"w", "weight", "weights", "mu", "lam"}


@pytest.fixture(scope="module")
def entries():
    """(name, grid, call(w)) of every entry that reads a weight on a grid of its own."""
    lats = lattice_family(GRID, 4)
    tg = TimeGrid.geometric(GRID)
    stack = random_haar_sums(lats[0], np.random.default_rng(3), 2, max_generation=3)
    f = GridFunction(GRID, stack[0])
    half = stack[:, HALF.points_per_axis // 2:]
    R = riesz("neumann", 1)
    atom = atomic_decompose(f, constant(GRID, 1.0), lats[0], tg).atoms[0]
    calls = [
        ("weighted_operator_norm", GRID, lambda w: weighted_operator_norm(commutator(f, R), GRID, w, w)),
        ("commutator_norms", GRID, lambda w: commutator_norms(stack, R, GRID, w, w)),
        ("hardy_norm", GRID, lambda w: hardy_norm(f, "heat-free", w, tg=tg)),
        ("hardy_norm-haar", GRID, lambda w: hardy_norm(f, "haar", w, lattice=lats[0])),
        ("weighted_maximal", GRID, lambda w: weighted_maximal(f, w, lats[0])),
        ("check_atom", GRID, lambda w: check_atom(replace(atom, weight=w))),
        ("atomic_decompose", GRID, lambda w: atomic_decompose(f, w, lats[0], tg)),
        ("bmo_deltaN_sides_norms", GRID, lambda w: bmo_deltaN_sides_norms(stack, GRID, w, lats, tg=tg)),
        ("ap_constant", GRID, lambda w: ap_constant(w, 2.0, lats)),
        ("a1_constant", GRID, lambda w: a1_constant(w, lats)),
        ("ap_deltaN_constant", GRID, lambda w: ap_deltaN_constant(w, 2.0, lats)),
        ("ap_constant_per_lattice", GRID, lambda w: ap_constant_per_lattice(w, 2.0, lats)),
        ("bloom_weight-lam", GRID, lambda w: bloom_weight(power_weight(GRID, 0.25), w, 2.0)),
        ("bmo_norm", GRID, lambda w: bmo_norm(f, w, "classical-w", lats)),
        ("random_haar_sums", GRID,
         lambda w: random_haar_sums(lats[0], np.random.default_rng(5), 2, weight=w, max_generation=3)),
        ("random_haar_sum", GRID, lambda w: random_haar_sum(lats[0], np.random.default_rng(5), weight=w)),
    ]
    calls += [(f"bmo_norms-{flavor}", GRID, lambda w, flavor=flavor: bmo_norms(stack, GRID, w, flavor, lats, tg=tg))
                for flavor in CLASSICAL_FLAVORS + CARLESON_FLAVORS]
    calls += [(f"bmo_norms-{flavor}", HALF, lambda w, flavor=flavor: bmo_norms(half, HALF, w, flavor, lats))
                for flavor in HALF_FLAVORS]
    return calls


@pytest.mark.parametrize("other", [{"kind": "one"}, "one", [1.0, "x"]], ids=["spec", "str", "mixed"])
def test_every_entry_refuses_what_is_no_float_array(entries, other):
    # a weight spec passed for its weight raised a raw TypeError, a string a
    # raw ValueError
    for name, _, call in entries:
        with pytest.raises(WeightError, match=f"cannot read a {type(other).__name__} as a weight"):
            call(other)


@pytest.mark.parametrize("bad", list(BAD))
def test_every_entry_rejects_a_bad_weight_alike(entries, bad):
    make, error = BAD[bad]
    for name, grid, call in entries:
        try:
            call(make(grid.shape))
        except error:
            continue
        except Exception as exc:
            pytest.fail(f"{name} raised {type(exc).__name__}: {exc}")
        pytest.fail(f"{name} took the {bad} weight")


def test_every_entry_rejects_a_weight_on_another_grid(entries):
    # |x|^{1/2} sampled on a box four times wider has the grid's shape but
    # not its cells: read as this grid's, it gave hardy_norm about twice the
    # norm in the weight on the grid itself
    for name, grid, call in entries:
        w = power_weight(Grid(grid.dim, 4.0 * grid.halfwidth, grid.points_per_axis, grid.domain), 0.5)
        call(power_weight(grid, 0.5))
        with pytest.raises(DomainError, match="read on"):
            call(w)
            pytest.fail(f"{name} took a weight on {w.grid}")


def _bits(x):
    """x with every number as its exact bytes or repr, for == comparison."""
    if isinstance(x, AtomicDecomposition):
        return _bits([x.to_json(), x.coefficients, x.residual])
    if isinstance(x, GridFunction):
        return _bits(x.values)
    if isinstance(x, np.ndarray):
        return x.shape, x.tobytes()
    if isinstance(x, dict):
        return {key: _bits(value) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(value) for value in x]
    return repr(x)


def test_none_is_the_unit_weight_bit_for_bit(entries):
    for name, grid, call in entries:
        assert _bits(call(None)) == _bits(call(np.ones(grid.shape))), name


def test_random_haar_sums_reads_its_weight_on_the_lattice_grid():
    # a power weight sampled on a box four times wider has the lattice grid's
    # shape: read as its cells, it moved the draw by as much as the draw's maximum
    lat = lattice_family(GRID, 4)[0]
    own = random_haar_sums(lat, np.random.default_rng(5), 3, weight=power_weight(GRID, 0.5))
    assert np.array_equal(own, random_haar_sums(lat, np.random.default_rng(5), 3, weight=power_weight(GRID, 0.5).values))
    with pytest.raises(DomainError, match="read on"):
        random_haar_sums(lat, np.random.default_rng(5), 3, weight=power_weight(Grid(1, 4.0, 32), 0.5))


def test_bloom_weight_reads_lambda_on_the_grid_of_mu():
    # a lambda from a box four times wider moved nu by up to 29%, labelled with mu's grid
    mu = power_weight(GRID, 0.25)
    nu = bloom_weight(mu, power_weight(GRID, 0.5), 2.0)
    assert nu.grid == GRID
    assert np.array_equal(nu.values, mu.values ** 0.5 * power_weight(GRID, 0.5).values ** -0.5)
    with pytest.raises(DomainError, match="read on"):
        bloom_weight(mu, power_weight(Grid(1, 4.0, 32), 0.5), 2.0)


@pytest.mark.parametrize("bad", list(BAD))
def test_every_gridless_entry_rejects_a_bad_weight_alike(bad):
    make, error = BAD[bad]
    for name, call in GRIDLESS:
        with pytest.raises(error):
            call(_unchecked(GRID, make(GRID.shape)))
            pytest.fail(f"{name} took the {bad} weight")


@pytest.mark.parametrize("other", [None, np.ones(GRID.shape), [1.0] * GRID.points_per_axis],
                         ids=["none", "array", "list"])
def test_gridless_entries_refuse_what_carries_no_grid(other):
    # ap_quotient_on_box and log_weight raised "cannot interpret <class
    # 'numpy.ndarray'> as a weight" for an array ap_constant takes
    for name, call in GRIDLESS:
        with pytest.raises(WeightError, match=f"{name.split('-')[0]} .* carries no grid"):
            call(other)


def test_gridless_entries_work_on_the_weight_own_grid():
    wide = Grid(1, 4.0, 32)
    w = power_weight(wide, 0.5)
    assert log_weight(w).grid == wide and bloom_weight(w, None, 2.0).grid == wide
    # the quotient of a constant weight is one on any box of its grid
    assert ap_quotient_on_box(constant(wide, 3.0), 2.0, [-2.0], [1.0]) == 1.0


def _public_callables():
    """{module.name: callable} of every public function and class a wharm
    module defines, its exception types aside."""
    found = {}
    for info in pkgutil.iter_modules(wharm.__path__):
        module = importlib.import_module(f"wharm.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                continue
            if not (inspect.isclass(obj) and issubclass(obj, Exception)):
                found[f"{info.name}.{name}"] = obj
    return found


def test_every_public_callable_taking_a_weight_is_an_entry(entries):
    # ap_quotient_on_box and log_weight took a weight outside the checks
    # above, and nothing noticed
    public = _public_callables()
    covered = {name.split("-")[0] for name, *_ in entries + GRIDLESS} | set(EXEMPT)
    takers = {qualified.split(".")[1] for qualified, obj in public.items()
              if set(inspect.signature(obj).parameters) & WEIGHT_PARAMETERS}
    assert not takers - covered, f"these take a weight, but are no entry here and not exempt: {sorted(takers - covered)}"
    assert not set(EXEMPT) - takers, f"exempt but take no weight: {sorted(set(EXEMPT) - takers)}"
