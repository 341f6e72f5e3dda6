import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from operator_oracles import dense_weighted_norm, sparse_operator_matrix
from tree_oracles import (
    bmo_good_function,
    carleson_constant_by_cube,
    cell_count,
    cell_indices,
    children,
    dyadic_local_bmo,
    generation_means,
    greedy_by_cube,
    haar_function,
    mask,
    parent,
    recursion_by_cube,
    sparse_apply_by_cube,
    verify_by_cube,
)
from weight_oracles import cube_average, cube_mass

from wharm import sparse
from wharm.dyadic import (
    DyadicCube,
    build_lattice,
    haar_coefficients,
    lattice_family,
    random_haar_sum,
)
from wharm.errors import ParameterError, SparsityError
from wharm.grid import Grid, GridFunction, constant, function_cells
from wharm.sparse import (
    build_sparse_from_recursion,
    carleson_to_sparse,
    sparse_operator_apply,
)
from wharm.weights import ap_constant

Q0 = DyadicCube(0, (0,))


def _cz_stopping_walk(dens, lat, q0, alpha):
    """Oracle for cz_stopping: a stack walk over the children from q0 that
    selects a passing cube and descends below the others.  Returns the
    selected cubes in (generation, index) order, their averages and q0's."""
    means = generation_means(np.abs(function_cells(dens, lat.grid)), lat)

    def avg(cube):
        return float(means[cube.generation][cube.index])

    base = avg(q0)
    selected, averages = [], {}
    stack = children(lat, q0)
    while stack:
        cube = stack.pop()
        a = avg(cube)
        if base > 0 and a > alpha * base:
            selected.append(cube)
            averages[cube] = a
        else:
            stack.extend(children(lat, cube))
    selected.sort(key=lambda c: (c.generation, c.index))
    return selected, averages, base


def cz_stopping(dens, lat, q0, alpha):
    """wharm.sparse.cz_stopping, checked against the stack walk: every test of
    this module that selects stopping cubes runs through this check."""
    fam = sparse.cz_stopping(dens, lat, q0, alpha)
    assert (fam.selected, fam.averages, fam.parent_average) == _cz_stopping_walk(dens, lat, q0, alpha)
    return fam


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_stopping_matches_the_walk_on_2d_haar_symbols(seed):
    # the 2D Haar sums of the hardy-atoms-2d benchmark workload at this seed,
    # through the same recursion: every cube of the collection is checked
    g = Grid(2, 1.0, 64)
    lat = build_lattice(g, 5)
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(6):
        dens = np.abs(random_haar_sum(lat, rng, max_generation=4).values)
        coll = build_sparse_from_recursion(lambda c: cz_stopping(dens, lat, c, 2.0).selected, lat, lat.cubes[0], 2.0)
        checked += len(coll.cubes)
    assert checked > 60


@pytest.mark.parametrize("dim,N", [(1, 64), (2, 64)])
def test_stopping_below_deeper_cubes_of_shifted_lattices(dim, N):
    # cz_stopping reads only q0's cells; from q0 at generations 0-3 of every
    # shifted lattice (cubes that wrap around the box included), the
    # selections, their averages and q0's equal the walk on the
    # generation_means of the whole density, bit for bit
    g = Grid(dim, 1.0, N)
    rng = np.random.default_rng(23)
    dens = GridFunction(g, np.exp(1.5 * rng.standard_normal(g.shape)))
    selected = 0
    for lat in lattice_family(g, 5):
        for k in range(4):
            for index in {(0,) * dim, ((1 << k) - 1,) * dim, tuple(rng.integers(0, 1 << k, size=dim).tolist())}:
                selected += len(cz_stopping(dens, lat, DyadicCube(k, index), 1.5).selected)
    assert selected > 0


def test_stopping_on_constant_is_empty(grid64, lat64):
    fam = cz_stopping(constant(grid64, 1.0), lat64, Q0, 2.0)
    assert fam.selected == []


def test_stopping_hand_example(grid64, lat64):
    # w = 1 + 3 on one generation-2 cube: <w>_{Q*} = 4 > 2 <w>_{Q0} = 3.5
    qstar = DyadicCube(2, (1,))
    w = constant(grid64, 1.0)
    w.values[np.ix_(*cell_indices(lat64, qstar))] += 3.0
    fam = cz_stopping(w, lat64, Q0, 2.0)
    assert fam.selected == [qstar]


def test_stopping_brute_force_rescan(rng):
    g = Grid(1, 1.0, 64)
    lat = build_lattice(g, 5)
    for _ in range(100):
        dens = GridFunction(g, np.exp(rng.standard_normal(g.shape)))
        alpha = rng.uniform(1.2, 3.0)
        fam = cz_stopping(dens, lat, Q0, alpha)
        base = dens.values.mean()
        sel = set(fam.selected)
        # oracle: a cube is selected iff its average exceeds the threshold and
        # no strict ancestor's does
        for cube in lat.cubes:
            if cube.generation == 0:
                continue
            avg = dens.values[np.ix_(*cell_indices(lat, cube))].mean()
            anc = parent(cube)
            anc_hit = False
            while anc is not None and anc.generation > 0:
                if dens.values[np.ix_(*cell_indices(lat, anc))].mean() > alpha * base:
                    anc_hit = True
                    break
                anc = parent(anc)
            expect = avg > alpha * base and not anc_hit
            assert (cube in sel) == expect
        # mass bound is exact in cell counts
        assert cell_count(lat, fam.selected) <= 64 / alpha * (1 + 1e-12)


def test_sparse_from_trivial_rule(grid64, lat64):
    coll = build_sparse_from_recursion(lambda c: [], lat64, Q0, 2.0)
    assert coll.cubes == [Q0]
    assert coll.eta == 0.5
    assert coll.carriers[Q0.generation].sum() == 64
    assert coll.verify()


def test_sparse_from_cz_recursion(rng):
    g = Grid(1, 1.0, 64)
    lat = build_lattice(g, 6)
    w = GridFunction(g, np.exp(1.2 * rng.standard_normal(g.shape)))
    coll = build_sparse_from_recursion(lambda c: cz_stopping(w, lat, c, 2.0).selected, lat, Q0, 2.0)
    assert coll.eta == 0.5
    assert coll.verify()
    # sparse => Carleson with Lambda = 1/eta, exact cell counts
    assert coll.carleson_constant() <= 1.0 / coll.eta + 1e-12


def test_sparsity_error_on_bad_rule(grid64, lat64):
    # emitting both generation-1 children violates the alpha = 2 mass budget
    def rule(cube):
        return children(lat64, cube) if cube.generation == 0 else []

    with pytest.raises(SparsityError):
        build_sparse_from_recursion(rule, lat64, Q0, 2.0)


def test_carleson_to_sparse_flow(rng):
    g = Grid(1, 1.0, 64)
    lat = build_lattice(g, 6)
    w = GridFunction(g, np.exp(1.2 * rng.standard_normal(g.shape)))
    coll = build_sparse_from_recursion(lambda c: cz_stopping(w, lat, c, 2.0).selected, lat, Q0, 2.0)
    lam = coll.carleson_constant()
    back = carleson_to_sparse(lat, coll.cubes, 1.0 / lam)
    assert back is not None
    assert back.eta == 1.0 / lam
    assert back.verify()


def test_carleson_to_sparse_infeasible():
    # the full tree at depth 2 is 3-Carleson; eta = 1/2 carriers cannot exist
    g = Grid(1, 1.0, 16)
    lat = build_lattice(g, 2)
    assert carleson_to_sparse(lat, list(lat.cubes), 0.5) is None
    assert carleson_to_sparse(lat, list(lat.cubes), 1.0 / 3.0) is not None


FAMILIES = {
    "1d": lattice_family(Grid(1, 1.0, 32), 5),
    "2d": lattice_family(Grid(2, 1.0, 16), 4),
}


def packing_constant(lat, cubes):
    """max over members Q of sum |P| / |Q| over members P whose cells lie in Q's, exactly."""
    cells = {q: set(np.flatnonzero(mask(lat, q))) for q in cubes}
    return max(
        Fraction(sum(len(cells[p]) for p in cubes if cells[p] <= cells[q]), len(cells[q]))
        for q in cubes
    )


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_carleson_to_sparse_iff_packing(data):
    # random subfamilies of a shifted lattice; eta = 1/Lambda exactly or random
    lat = data.draw(st.sampled_from(FAMILIES[data.draw(st.sampled_from(sorted(FAMILIES)))]))
    depth = data.draw(st.integers(0, lat.max_generation))
    pool = [q for q in lat.cubes if q.generation <= depth]
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40, unique=True))
    lam = packing_constant(lat, picks)
    exact = float(1 / lam)
    eta = data.draw(st.one_of(st.just(exact), st.floats(0.01, 1.0)))
    assume(eta == exact or abs(Fraction(eta) * lam - 1) > 1e-6)
    coll = carleson_to_sparse(lat, picks, eta)
    assert (coll is not None) == (eta == exact or Fraction(eta) * lam <= 1)
    if coll is not None:
        assert coll.verify()


def assert_matches_by_cube(coll, lat, cubes, carriers, f):
    """coll against the per-cube collection (cubes, carriers) at coll.eta, bit
    for bit: members, Carleson constant, verify, carriers summed per
    generation, and A_S f with the cubes added in (generation, index) order."""
    assert coll.cubes == sorted(cubes, key=lambda c: (c.generation, c.index))
    assert coll.carleson_constant() == carleson_constant_by_cube(lat, cubes)
    assert coll.verify() == verify_by_cube(lat, cubes, carriers, coll.eta)
    for k, mass in coll.carriers.items():
        want = np.zeros(lat.grid.shape)
        for q in cubes:
            if q.generation == k:
                want += carriers[q]
        assert np.array_equal(mass, want)
    assert np.array_equal(sparse_operator_apply(coll, f).values, sparse_apply_by_cube(lat, coll.cubes, f))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_greedy_fill_matches_the_per_cube_fill(data):
    # the families of test_carleson_to_sparse_iff_packing, shifted lattices included
    lat = data.draw(st.sampled_from(FAMILIES[data.draw(st.sampled_from(sorted(FAMILIES)))]))
    depth = data.draw(st.integers(0, lat.max_generation))
    pool = [q for q in lat.cubes if q.generation <= depth]
    picks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40, unique=True))
    eta = data.draw(st.one_of(st.just(float(1 / packing_constant(lat, picks))), st.floats(0.01, 1.0)))
    f = GridFunction(lat.grid, np.random.default_rng(5).standard_normal(lat.grid.shape))
    coll, carriers = carleson_to_sparse(lat, picks, eta), greedy_by_cube(lat, picks, eta)
    assert (coll is None) == (carriers is None)
    if coll is not None:
        assert coll.eta == eta
        assert_matches_by_cube(coll, lat, picks, carriers, f)


@pytest.mark.parametrize("seed", [3, 7, 11])
def test_stopping_collections_match_the_per_cube_code_on_2d_haar_symbols(seed):
    # the CZ families of the hardy-atoms-2d benchmark workload at this seed:
    # the recursion and the greedy fill over its cubes
    g = Grid(2, 1.0, 64)
    lat = build_lattice(g, 5)
    rng = np.random.default_rng(seed)
    for _ in range(6):
        f = random_haar_sum(lat, rng, max_generation=4)
        dens = np.abs(f.values)

        def rule(c):
            return sparse.cz_stopping(dens, lat, c, 2.0).selected

        coll = build_sparse_from_recursion(rule, lat, lat.cubes[0], 2.0)
        cubes, carriers = recursion_by_cube(rule, lat, lat.cubes[0], 2.0)
        assert coll.eta == 0.5
        assert_matches_by_cube(coll, lat, cubes, carriers, f)
        back = carleson_to_sparse(lat, coll.cubes, coll.eta)
        assert back.eta == coll.eta
        assert_matches_by_cube(back, lat, cubes, greedy_by_cube(lat, cubes, coll.eta), f)


def test_carleson_to_sparse_refuses_a_repeated_cube():
    # a repeated cube would be one member with one carrier, counted twice in the Carleson constant
    lat = build_lattice(Grid(1, 1.0, 16), 2)
    with pytest.raises(SparsityError, match=re.escape(f"{Q0} occurs twice")):
        carleson_to_sparse(lat, [Q0, Q0], 0.5)


@pytest.mark.parametrize("cube", [DyadicCube(3, (0,)), DyadicCube(1, (2,)), DyadicCube(1, (-1,)), DyadicCube(1, (0, 0))])
def test_carleson_to_sparse_refuses_a_cube_off_the_lattice(cube):
    lat = build_lattice(Grid(1, 1.0, 16), 2)
    with pytest.raises(SparsityError, match=re.escape(f"{cube} is not a cube of the lattice")):
        carleson_to_sparse(lat, [Q0, cube], 0.5)


@pytest.mark.parametrize("eta", [0.0, -0.5, float("nan"), 1.5])
def test_carleson_to_sparse_refuses_eta_outside_zero_one(eta):
    lat = build_lattice(Grid(1, 1.0, 16), 2)
    with pytest.raises(ParameterError, match=r"^eta must lie in \(0, 1\]"):
        carleson_to_sparse(lat, [Q0], eta)


def _rule_from(table):
    return lambda cube: table.get(cube, [])


def test_recursion_refuses_a_kid_outside_its_parent():
    lat = build_lattice(Grid(1, 1.0, 16), 2)
    q1, stray = DyadicCube(1, (0,)), DyadicCube(2, (3,))
    with pytest.raises(SparsityError, match=re.escape(f"child {stray} of {q1} is not strictly inside it")):
        build_sparse_from_recursion(_rule_from({Q0: [q1], q1: [stray]}), lat, Q0, 2.0)


def test_recursion_refuses_the_same_kid_twice():
    lat = build_lattice(Grid(1, 1.0, 16), 2)
    kid = DyadicCube(2, (0,))
    with pytest.raises(SparsityError, match=re.escape(f"{kid} occurs twice")):
        build_sparse_from_recursion(_rule_from({Q0: [kid, kid]}), lat, Q0, 2.0)


def test_recursion_refuses_a_cube_reached_from_two_parents():
    # within budget at alpha = 1.2, but Q(g3,[0]) is a kid of Q0 and of Q(g1,[0])
    lat = build_lattice(Grid(1, 1.0, 32), 4)
    q1, q3 = DyadicCube(1, (0,)), DyadicCube(3, (0,))
    with pytest.raises(SparsityError, match=re.escape(f"{q3} occurs twice")):
        build_sparse_from_recursion(_rule_from({Q0: [q1, q3], q1: [q3]}), lat, Q0, 1.2)


def test_sparse_operator_basic(grid64, lat64, rng):
    coll = build_sparse_from_recursion(lambda c: [], lat64, Q0, 2.0)
    f = GridFunction(grid64, rng.standard_normal(grid64.shape))
    out = sparse_operator_apply(coll, f)
    assert np.allclose(out.values, f.values.mean(), rtol=0, atol=1e-14)


def test_sparse_operator_monotone_linear_positive(grid64, rng):
    lat = build_lattice(grid64, 5)
    w = GridFunction(grid64, np.exp(rng.standard_normal(grid64.shape)))
    coll = build_sparse_from_recursion(lambda c: cz_stopping(w, lat, c, 2.0).selected, lat, Q0, 2.0)
    f = GridFunction(grid64, rng.standard_normal(grid64.shape))
    gpos = GridFunction(grid64, np.abs(rng.standard_normal(grid64.shape)))
    bigger = GridFunction(grid64, f.values + gpos.values)
    af, ab = sparse_operator_apply(coll, f), sparse_operator_apply(coll, bigger)
    assert np.all(ab.values >= af.values - 1e-12)
    ag = sparse_operator_apply(coll, gpos)
    assert np.max(np.abs(ab.values - af.values - ag.values)) <= 1e-12
    assert np.all(ag.values >= -1e-14)
    # A_S f >= <f>_Q on each member for nonnegative f
    for q in coll.cubes:
        cells = cell_indices(lat, q)[0]
        assert np.all(ag.values[cells] >= gpos.values[cells].mean() - 1e-12)


def test_sparse_operator_weighted_bound(rng):
    # ||A_S||_{L^2(w)} <= C [w]_{A^2} / eta with a single fitted C
    g = Grid(1, 1.0, 64)
    lat = build_lattice(g, 6)
    lats = [lat]
    fitted = 0.0
    for i in range(20):
        dens = GridFunction(g, np.exp(rng.uniform(0.5, 1.5) * rng.standard_normal(g.shape)))
        coll = build_sparse_from_recursion(
            lambda c: cz_stopping(dens, lat, c, 2.0).selected, lat, Q0, 2.0
        )
        w = GridFunction(g, np.exp(0.6 * rng.standard_normal(g.shape)))
        M = sparse_operator_matrix(coll, g)
        val = dense_weighted_norm(M, w, w)
        fitted = max(fitted, val * coll.eta / ap_constant(w, 2.0, lats))
    assert np.isfinite(fitted) and fitted <= 16.0


def test_good_function_posts(rng):
    g = Grid(1, 1.0, 64)
    lat = build_lattice(g, 6)
    for i in range(20):
        b = random_haar_sum(lat, rng, max_generation=4)
        w = GridFunction(g, np.exp(0.8 * rng.standard_normal(g.shape)))
        a, fam = bmo_good_function(b, w, lat, Q0, 2.0)
        selected_mask = np.zeros(g.shape, dtype=bool)
        for R in fam.selected:
            idx = np.ix_(*cell_indices(lat, R))
            selected_mask[idx] = True
            assert np.allclose(a.values[idx], b.values[idx].mean(), rtol=0, atol=1e-12)
        assert np.array_equal(a.values[~selected_mask], b.values[~selected_mask])
        # averages and Haar coefficients agree on cubes not inside the family
        cb = haar_coefficients(b, lat)
        ca = haar_coefficients(a, lat)
        for cube in lat.cubes:
            inside = any(lat.contains(R, cube) for R in fam.selected)
            if inside:
                continue
            mb = b.values[np.ix_(*cell_indices(lat, cube))].mean()
            ma = a.values[np.ix_(*cell_indices(lat, cube))].mean()
            assert abs(mb - ma) <= 1e-12 * max(1.0, abs(mb))
            if cube.generation < lat.max_generation:
                for sig in ((0,),):
                    assert abs(cb[(cube, sig)] - ca[(cube, sig)]) <= 1e-11


def test_good_function_bmo_bound(rng):
    # ||a||_{BMO_D[Q0]} <= 2 alpha <w>_{Q0} ||b||_{BMO_D(w), D(Q0)} at alpha = 2
    g = Grid(1, 1.0, 64)
    lat = build_lattice(g, 6)
    for i in range(20):
        b = random_haar_sum(lat, rng, max_generation=4)
        w = GridFunction(g, np.exp(0.8 * rng.standard_normal(g.shape)))
        a, fam = bmo_good_function(b, w, lat, Q0, 2.0)
        na = dyadic_local_bmo(a, lat, Q0)
        nb = dyadic_local_bmo(b, lat, Q0, w=w)
        bound = 2.0 * 2.0 * cube_average(w, lat, Q0) * nb
        assert na <= bound * (1 + 1e-9)


def test_good_function_trivial_cases(grid64, lat64, rng):
    # huge alpha: empty family, a = b on Q0
    b = random_haar_sum(lat64, rng, max_generation=3)
    w = GridFunction(grid64, np.exp(0.2 * rng.standard_normal(grid64.shape)))
    a, fam = bmo_good_function(b, w, lat64, Q0, 1e6)
    assert fam.selected == []
    assert np.array_equal(a.values, b.values)
    # flat weight never selects: a = b for a Haar symbol too
    h = haar_function(lat64, Q0, (0,))
    a2, fam2 = bmo_good_function(h, constant(grid64, 1.0), lat64, Q0, 2.0)
    assert fam2.selected == []
    assert np.array_equal(a2.values, h.values)


def test_pairing_bound(rng):
    # sum_Q |<b,h_Q>||<f,h_Q>| <= C ||b||_{BMO_D(w)} sum_{Q in S} <|f|>_Q w(Q)
    g = Grid(1, 1.0, 64)
    lat = build_lattice(g, 6)
    fitted = 0.0
    for i in range(10):
        b = random_haar_sum(lat, rng, max_generation=4)
        f = GridFunction(g, rng.standard_normal(g.shape))
        w = GridFunction(g, np.exp(0.5 * rng.standard_normal(g.shape)))
        cb = haar_coefficients(b, lat)
        cf = haar_coefficients(f, lat)
        lhs = sum(abs(cb[k]) * abs(cf[k]) for k in cb)
        absf = GridFunction(g, np.abs(f.values))

        def rule(cube):
            # maximal subcubes entering either the w-stopping or |f|-stopping
            sel_w = {c for c in cz_stopping(w.values, lat, cube, 4.0).selected}
            sel_f = {c for c in cz_stopping(absf, lat, cube, 4.0).selected}
            both = sel_w | sel_f
            return [c for c in both if not any(lat.contains(o, c) for o in both if o != c)]

        coll = build_sparse_from_recursion(rule, lat, Q0, 2.0)
        nb = dyadic_local_bmo(b, lat, Q0, w=w)
        if nb == 0:
            continue
        rhs = sum(
            np.abs(f.values[np.ix_(*cell_indices(lat, q))]).mean() * cube_mass(w, lat, q)
            for q in coll.cubes
        )
        fitted = max(fitted, lhs / (nb * rhs))
    assert np.isfinite(fitted) and fitted <= 32.0


def test_collection_serialization(grid64, rng):
    lat = build_lattice(grid64, 4)
    w = GridFunction(grid64, np.exp(rng.standard_normal(grid64.shape)))
    coll = build_sparse_from_recursion(lambda c: cz_stopping(w, lat, c, 2.0).selected, lat, Q0, 2.0)
    blob = coll.to_json()
    assert blob["eta"] == 0.5
    assert len(blob["cubes"]) == len(coll.cubes)
    total = sum(b - a for cube in blob["cubes"] for a, b in cube["carrier_runs"])
    assert total == sum(c.sum() for c in coll.carriers.values())


def test_collection_serialization_fractional():
    # the full depth-2 tree at eta = 1/3 owns every cell in thirds
    g = Grid(1, 1.0, 16)
    lat = build_lattice(g, 2)
    coll = carleson_to_sparse(lat, list(lat.cubes), 1.0 / 3.0)
    assert coll.verify()
    blob = coll.to_json()
    assert blob["eta"] == 1.0 / 3.0
    for cube, q in zip(blob["cubes"], coll.cubes):
        mass = np.where(mask(lat, q), coll.carriers[q.generation], 0.0).reshape(-1)
        assert 0 < mass.max() < 1
        assert cube["carrier_mass"] == pytest.approx(lat.cells_per_axis(q.generation) / 3.0, rel=1e-12)
        touched = np.zeros(mass.size, dtype=bool)
        for a, b in cube["carrier_runs"]:
            touched[a:b] = True
        assert np.array_equal(touched, mass != 0)
    assert sum(c["carrier_mass"] for c in blob["cubes"]) == pytest.approx(16.0, rel=1e-12)


def test_stopping_alpha_validation(grid64, lat64):
    with pytest.raises(ParameterError):
        cz_stopping(constant(grid64, 1.0), lat64, Q0, 1.0)


# on a max-generation-4 lattice these raised a raw IndexError, selected
# nothing, selected the off-lattice Q(g4,[-2]) and raised a raw ValueError
@pytest.mark.parametrize("cube", [DyadicCube(2, (7,)), DyadicCube(6, (0,)), DyadicCube(1, (-1,)),
                                  DyadicCube(1, (0, 0))])
def test_stopping_refuses_a_q0_off_the_lattice(cube):
    grid = Grid(1, 1.0, 64)
    dens = GridFunction(grid, np.where(np.arange(64) == 57, 5.0, 0.1))
    lat = build_lattice(grid, 4)
    assert cz_stopping(dens, lat, DyadicCube(1, (1,)), 4.0).selected == [DyadicCube(4, (14,))]
    with pytest.raises(SparsityError, match=re.escape(f"{cube} is not a cube of the lattice")):
        sparse.cz_stopping(dens, lat, cube, 4.0)


def test_a_cube_whose_generation_or_index_is_no_integer_is_refused():
    # a float generation ended in a raw TypeError from 1 << k, a float index
    # in a raw IndexError from the member flags
    grid = Grid(1, 1.0, 16)
    lat = build_lattice(grid, 3)
    dens = constant(grid, 1.0)
    with pytest.raises(SparsityError, match="is not a cube of the lattice"):
        cz_stopping(dens, lat, DyadicCube(1.0, (0,)), 2.0)
    with pytest.raises(SparsityError, match="is not a cube of the lattice"):
        carleson_to_sparse(lat, [DyadicCube(1.0, (0,))], 0.5)
    with pytest.raises(SparsityError, match="is not a cube of the lattice"):
        carleson_to_sparse(lat, [DyadicCube(1, (0.0,))], 0.5)
