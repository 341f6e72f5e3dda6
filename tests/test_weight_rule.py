"""One weight rule (grid.weight_cells) behind every weighted entry: the same
bad weight gives the same error everywhere, and None is the unit weight bit
for bit."""

import numpy as np
import pytest

from wharm.atoms import AtomicDecomposition, atomic_decompose, check_atom
from wharm.bmo import CARLESON_FLAVORS, CLASSICAL_FLAVORS, HALF_FLAVORS, bmo_deltaN_sides_norms, bmo_norms
from wharm.dyadic import lattice_family, random_haar_sums, weighted_maximal
from wharm.errors import DomainError, WeightError
from wharm.grid import Grid, GridFunction, constant
from wharm.operators import commutator, commutator_norms, riesz, weighted_operator_norm
from wharm.squarefn import TimeGrid, hardy_norm
from wharm.weights import Weight, WeightTriple, a1_constant, ap_constant, ap_deltaN_constant, power_weight

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


@pytest.fixture(scope="module")
def entries():
    """(name, grid, call(w)) of every entry that takes a weight."""
    lats = lattice_family(GRID, 4)
    tg = TimeGrid.geometric(GRID)
    stack = random_haar_sums(lats[0], np.random.default_rng(3), 2, max_generation=3)
    f = GridFunction(GRID, stack[0])
    half = stack[:, HALF.points_per_axis // 2:]
    R = riesz("neumann", 1)
    atom = atomic_decompose(f, Weight(constant(GRID, 1.0)), lats[0], tg).atoms[0]
    calls = [
        ("weighted_operator_norm", GRID, lambda w: weighted_operator_norm(commutator(f, R), GRID, w, w)),
        ("commutator_norms", GRID, lambda w: commutator_norms(stack, R, GRID, w, w)),
        ("hardy_norm", GRID, lambda w: hardy_norm(f, "heat-free", w, tg=tg)),
        ("hardy_norm-haar", GRID, lambda w: hardy_norm(f, "haar", w, lattice=lats[0])),
        ("weighted_maximal", GRID, lambda w: weighted_maximal(f, w, lats[0])),
        ("check_atom", GRID, lambda w: check_atom(atom, w=w)),
        ("atomic_decompose", GRID, lambda w: atomic_decompose(f, w, lats[0], tg)),
        ("bmo_deltaN_sides_norms", GRID, lambda w: bmo_deltaN_sides_norms(stack, GRID, w, lats, tg=tg)),
        ("ap_constant", GRID, lambda w: ap_constant(w, 2.0, lats)),
        ("a1_constant", GRID, lambda w: a1_constant(w, lats)),
        ("ap_deltaN_constant", GRID, lambda w: ap_deltaN_constant(w, 2.0, lats)),
    ]
    calls += [(f"bmo_norms-{flavor}", GRID, lambda w, flavor=flavor: bmo_norms(stack, GRID, w, flavor, lats, tg=tg))
                for flavor in CLASSICAL_FLAVORS + CARLESON_FLAVORS]
    calls += [(f"bmo_norms-{flavor}", HALF, lambda w, flavor=flavor: bmo_norms(half, HALF, w, flavor, lats))
                for flavor in HALF_FLAVORS]
    return calls


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
        for other in (w, w.values):
            with pytest.raises(DomainError, match="read on"):
                call(other)
                pytest.fail(f"{name} took a {type(other).__name__} on {other.grid}")


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
    assert np.array_equal(own, random_haar_sums(lat, np.random.default_rng(5), 3, weight=power_weight(GRID, 0.5).array))
    with pytest.raises(DomainError, match="read on"):
        random_haar_sums(lat, np.random.default_rng(5), 3, weight=power_weight(Grid(1, 4.0, 32), 0.5))


def test_weight_triple_reads_lambda_on_the_grid_of_mu():
    # a lambda from a box four times wider moved nu by up to 29%, labelled with mu's grid
    mu = power_weight(GRID, 0.25)
    nu = WeightTriple(mu, power_weight(GRID, 0.5), 2.0).nu
    assert np.array_equal(nu.array, mu.array ** 0.5 * power_weight(GRID, 0.5).array ** -0.5)
    with pytest.raises(DomainError, match="read on"):
        WeightTriple(mu, power_weight(Grid(1, 4.0, 32), 0.5), 2.0)
