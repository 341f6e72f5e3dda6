import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from operator_oracles import qt_op
from tree_oracles import cell_indices, cube_of, full_grid_atoms, generation_of_scale, haar_function, parent, reconstruction
from tree_oracles import mask as cube_mask
from weight_oracles import cube_mass

from wharm import atoms
from wharm.atoms import Atom, atomic_decompose, calderon_constant, check_atom
from wharm.dyadic import DyadicCube, build_lattice, random_haar_sum
from wharm.errors import DecompositionError, DomainError
from wharm.grid import Grid, GridFunction, constant
from wharm.kernels import psi_multiplier
from wharm.operators import apply, psi_op, spectrum
from wharm.squarefn import ConeSpec, TimeGrid, area_function
from wharm.weights import weight_from_spec


def _unit_weight(g):
    return constant(g, 1.0)


def _atom_from_values(g, vals, mask, p=2.0, w=None):
    return Atom(DyadicCube(0, (0,) * g.dim), mask, GridFunction(g, vals), p, w or _unit_weight(g))


def test_zero_function_is_vacuous_atom(grid64):
    mask = np.zeros(grid64.shape, dtype=bool)
    mask[10:20] = True
    rep = check_atom(_atom_from_values(grid64, np.zeros(grid64.shape), mask))
    assert rep["ok"]


def test_haar_atom_rescale_report(grid64, lat64):
    # unit Haar on the base cube: mean zero; L^2 norm 1 vs bound |Q0|^{-1/2}
    # = 2^{-1/2} < 1, so condition (3) fails until rescaled by the reported factor
    h0 = haar_function(lat64, DyadicCube(0, (0,)), (0,))
    mask = np.ones(grid64.shape, dtype=bool)
    atom = _atom_from_values(grid64, h0.values, mask)
    rep = check_atom(atom)
    assert rep["moment_ok"]
    assert not rep["norm_ok"]
    assert abs(rep["rescale"] - 2.0 ** -0.5) <= 1e-12
    rescaled = _atom_from_values(grid64, h0.values * rep["rescale"], mask)
    assert check_atom(rescaled)["ok"]
    # a deep-generation Haar satisfies the bound outright (|Q| < 1)
    hq = haar_function(lat64, DyadicCube(3, (2,)), (0,))
    mask_q = cube_mask(lat64, DyadicCube(3, (2,)))
    atom_q = _atom_from_values(grid64, hq.values, mask_q)
    assert check_atom(atom_q)["ok"]


def test_nonzero_mean_fails_condition_two(grid64):
    mask = np.zeros(grid64.shape, dtype=bool)
    mask[4:12] = True
    vals = np.where(mask, 1.0, 0.0)
    rep = check_atom(_atom_from_values(grid64, vals, mask))
    assert not rep["moment_ok"]
    assert rep["moment"] > rep["moment_tolerance"] > 0


def test_support_violation_detected(grid64):
    mask = np.zeros(grid64.shape, dtype=bool)
    mask[4:12] = True
    vals = np.zeros(grid64.shape)
    vals[20] = 1.0
    vals[5] = -1.0
    rep = check_atom(_atom_from_values(grid64, vals, mask))
    assert not rep["support_ok"]


@pytest.mark.parametrize("support", ["int", "float", "short", "2d"])
def test_check_atom_refuses_a_support_that_is_no_boolean_mask_of_the_grid(grid64, support):
    # an integer 0/1 mask was read as fancy indices and gave a wrong bound or
    # a raw IndexError; a float mask ended in a raw TypeError
    mask = np.zeros(grid64.shape, dtype=bool)
    mask[:32] = True
    vals = np.where(mask, 1.0, 0.0)
    vals[16:32] = -1.0
    assert check_atom(_atom_from_values(grid64, vals, mask))["ok"]
    bad = {"int": mask.astype(int), "float": mask.astype(float), "short": mask[:48],
           "2d": np.ones(grid64.shape * 2, dtype=bool)}[support]
    with pytest.raises(DomainError, match="boolean array"):
        check_atom(_atom_from_values(grid64, vals, bad))


def test_decompose_zero_raises(grid64):
    lat = build_lattice(grid64, 6)
    with pytest.raises(DecompositionError):
        atomic_decompose(constant(grid64, 0.0), _unit_weight(grid64), lat)


def _packet(g, rng, count=3):
    x = g.points()[..., 0]
    v = np.zeros(g.shape)
    for _ in range(count):
        c = rng.uniform(-0.35, 0.35)
        s = rng.uniform(0.1, 0.2)
        v += rng.standard_normal() * (x - c) / s * np.exp(-(((x - c) / s) ** 2) / 2)
    return GridFunction(g, v)


def test_decompose_smooth_packets(rng):
    # band-limited, mean-zero test data: residual below 1e-3, exact supports,
    # machine-zero atom means, coefficient sum controlled by ||S f||_{L^1_w}
    g = Grid(1, 1.0, 256)
    lat = build_lattice(g, 8)
    w = _unit_weight(g)
    tg = TimeGrid.geometric(g, t_min=g.h, t_max=2.0, steps_per_octave=16)
    fitted = 0.0
    for i in range(6):
        f = _packet(g, rng)
        dec = atomic_decompose(f, w, lat, tg)
        rep = dec.report
        assert rep["residual_l1w"] <= 1e-3 * rep["input_l1w"]
        assert all(c["support_ok"] for c in rep["atom_checks"])
        for atom, chk in zip(dec.atoms, rep["atom_checks"]):
            l1 = np.sum(np.abs(atom.values.values)) * g.cell_volume
            assert abs(chk["moment"]) <= 1e-10 * max(l1, 1e-300)
        fitted = max(fitted, rep["fitted_coefficient_constant"])
        # reconstruction identity is exact by construction
        rec = reconstruction(dec)
        assert np.max(np.abs(rec.values - f.values)) <= 1e-12 * max(1.0, np.max(np.abs(f.values)))
    assert np.isfinite(fitted) and fitted <= 8.0


def test_decompose_single_haar(grid64, rng):
    # one Haar function: a dominant atom at (or above) that cube's scale and
    # coefficient sum within a factor 4 of ||S f||_{L^1}
    g = Grid(1, 1.0, 256)
    lat = build_lattice(g, 8)
    w = _unit_weight(g)
    cube = DyadicCube(3, (5,))
    f = haar_function(lat, cube, (0,))
    tg = TimeGrid.geometric(g, t_min=g.h, t_max=2.0, steps_per_octave=8)
    dec = atomic_decompose(f, w, lat, tg)
    rep = dec.report
    lead = int(np.argmax(np.abs(dec.coefficients)))
    assert dec.atoms[lead].cube.generation <= cube.generation
    assert rep["coefficient_sum"] <= 4.0 * rep["square_function_l1w"]
    assert rep["coefficient_sum"] >= 0.25 * rep["square_function_l1w"]


def test_level_set_machinery(rng):
    # Omega nesting and the B_k sandwich re-derived independently
    from wharm.squarefn import ConeSpec, area_function

    g = Grid(1, 1.0, 64)
    lat = build_lattice(g, 6)
    w = GridFunction(g, np.exp(0.3 * rng.standard_normal(g.shape)))
    f = _packet(g, rng, count=2)
    tg = TimeGrid.geometric(g, t_min=g.h, t_max=2.0, steps_per_octave=8)
    S = area_function(f, "qt", ConeSpec("free"), tg)
    kmax = int(np.ceil(np.log2(S.values.max())))
    kmin = int(np.floor(np.log2(S.values[S.values > 0].min()))) - 1
    masks = {k: S.values > 2.0 ** k for k in range(kmin, kmax + 2)}
    for k in range(kmin, kmax + 1):
        assert np.all(masks[k + 1] <= masks[k])  # Omega_{k+1} subset Omega_k
    # every cube with the half-mass property lands in exactly one B_k
    for cube in lat.cubes:
        idx = np.ix_(*cell_indices(lat, cube))
        wq = w.values[idx].sum()
        ks = [
            k
            for k in range(kmin, kmax + 1)
            if w.values[idx][masks[k][idx]].sum() > wq / 2.0
            and w.values[idx][masks[k + 1][idx]].sum() <= wq / 2.0
        ]
        hits = sum(
            1
            for k in range(kmin, kmax + 1)
            if w.values[idx][masks[k][idx]].sum() > wq / 2.0
        )
        assert len(ks) == (1 if hits > 0 else 0)


def test_psi_compact_support_verification():
    # quadrature stencil: exactly zero kernel mass outside |x - y| <= t (mod box);
    # the Fourier-sampled multiplier only localizes up to spectral ringing,
    # whose measured leakage is reported (well above the 1e-8 aspiration)
    g = Grid(1, 1.0, 256)
    t = 0.125
    delta = np.zeros(g.shape)
    delta[128] = 1.0 / g.h
    imp_quad = apply(psi_op(t, backend="quadrature"), GridFunction(g, delta)).values
    imp_four = apply(psi_op(t, backend="fourier"), GridFunction(g, delta)).values
    x = g.points()[..., 0]
    outside = np.abs(x - x[128]) > t + g.h
    total = np.sum(np.abs(imp_quad)) * g.h
    assert np.all(imp_quad[outside] == 0.0)
    assert total > 0
    leak = np.sum(np.abs(imp_four[outside])) * g.h / total
    assert leak < 0.05  # measured Gibbs leakage, documented in the ledger


def test_calderon_constant_value():
    # I0 = int psi(s) s e^{-s^2} ds computed independently on a fine grid
    s = np.linspace(1e-8, 40.0, 2_000_001)
    val = np.trapezoid(psi_multiplier(s) * s * np.exp(-s * s), s)
    assert abs(1.0 / calderon_constant() - val) <= 1e-8


def test_calderon_constant_matches_quadrature():
    # the Dawson series against adaptive quadrature of the same integral
    from scipy.integrate import quad

    val, _ = quad(lambda s: psi_multiplier(s) * s * np.exp(-s * s), 0.0, 40.0, limit=200)
    assert abs(1.0 / calderon_constant() - val) <= 1e-15 * val


def test_atoms_have_unit_normalization_convention(rng):
    # lambda_{k,Q} = 2^k w(Q): spot-check against the report levels
    g = Grid(1, 1.0, 128)
    lat = build_lattice(g, 7)
    w = _unit_weight(g)
    f = _packet(g, rng)
    tg = TimeGrid.geometric(g, t_min=g.h, t_max=2.0, steps_per_octave=8)
    dec = atomic_decompose(f, w, lat, tg)
    for lam, atom in zip(dec.coefficients, dec.atoms):
        expect = 2.0 ** atom.level * cube_mass(w, lat, atom.cube)
        assert abs(lam - expect) <= 1e-12 * abs(expect)


def test_decomposition_json_and_coefficient_chain(rng):
    g = Grid(1, 1.0, 128)
    lat = build_lattice(g, 7)
    w = _unit_weight(g)
    f = _packet(g, rng)
    tg = TimeGrid.geometric(g, t_min=g.h, t_max=2.0, steps_per_octave=8)
    dec = atomic_decompose(f, w, lat, tg)
    blob = dec.to_json()
    assert len(blob["atoms"]) == len(dec.atoms)
    assert all("coefficient" in a and "cube" in a for a in blob["atoms"])
    rep = dec.report
    # two-link chain with fitted constants:
    # sum |lambda| <= C sum 2^k w(Omega~_k) and the latter <= C' ||S f||_{L^1_w}
    assert rep["coefficient_sum"] <= 4.0 * rep["omega_tilde_mass_sum"]
    assert rep["omega_tilde_mass_sum"] <= 8.0 * rep["square_function_l1w"]
    assert rep["omega_mass_sum"] <= rep["omega_tilde_mass_sum"] * (1 + 1e-12)


def test_decompose_2d_smoke(rng):
    g = Grid(2, 1.0, 16)
    lat = build_lattice(g, 4)
    w = _unit_weight(g)
    pts = g.points()
    v = (pts[..., 0] - 0.1) * np.exp(-np.sum(pts ** 2, axis=-1) / (2 * 0.15 ** 2))
    f = GridFunction(g, v - v.mean())
    tg = TimeGrid.geometric(g, t_min=g.h, t_max=1.0, steps_per_octave=6)
    dec = atomic_decompose(f, w, lat, tg)
    rep = dec.report
    assert rep["n_atoms"] >= 1
    assert all(c["support_ok"] for c in rep["atom_checks"])
    rec = reconstruction(dec)
    assert np.max(np.abs(rec.values - f.values)) <= 1e-12 * max(1.0, np.max(np.abs(f.values)))
    assert np.isfinite(rep["residual_l1w"])


def _per_bucket_pieces(f, lat, tg, assignment, owners):
    """Oracle for atoms._whitney_pieces: one qt apply per scale and one psi
    apply per (scale, bucket), the masks built cube by cube; psi is the
    quadrature stencil in 1D and the Fourier multiplier in 2D."""
    g = f.grid
    N = g.points_per_axis
    cpsi = calderon_constant()
    lw = tg.log_weight
    pieces = {}
    unassigned = np.zeros(g.shape)
    for t in tg.t_values:
        k_gen = generation_of_scale(g, t, lat.max_generation)
        if k_gen is None:
            continue
        u = apply(qt_op("free", t), f).values
        arr = assignment[k_gen]
        buckets = {}
        none_mask = np.zeros(g.shape, dtype=bool)
        m = N >> k_gen
        for idx in np.ndindex(arr.shape):
            k = int(arr[idx])
            sl = tuple(slice(i * m, (i + 1) * m) for i in idx)
            if k <= atoms._UNASSIGNED:
                none_mask[sl] = True
                continue
            key = (k, int(owners[k_gen][idx]))
            buckets.setdefault(key, np.zeros(g.shape, dtype=bool))[sl] = True
        handle = psi_op(t, backend="quadrature" if g.dim == 1 else "fourier")
        for key, mask in buckets.items():
            pieces.setdefault(key, np.zeros(g.shape))
            pieces[key] += lw * cpsi * apply(handle, GridFunction(g, np.where(mask, u, 0.0))).values
        if none_mask.any():
            unassigned += lw * cpsi * apply(handle, GridFunction(g, np.where(none_mask, u, 0.0))).values
    return pieces, unassigned


def _as_rows(pieces, unassigned):
    """The (keys, stack) of atoms._whitney_pieces from a dict of pieces and
    the unassigned remainder, which is the row of the key None."""
    return list(pieces) + [None], np.stack(list(pieces.values()) + [unassigned])


def _by_key(whitney):
    """atoms._whitney_pieces' (keys, stack) as ({(k, id of Qbar): piece},
    the unassigned remainder or None)."""
    pieces = dict(zip(*whitney))
    return pieces, pieces.pop(None, None)


def _assert_close(a, b, where):
    if isinstance(a, dict):
        assert a.keys() == b.keys(), where
        for key in a:
            _assert_close(a[key], b[key], f"{where}/{key}")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), where
        for i, (x, y) in enumerate(zip(a, b)):
            _assert_close(x, y, f"{where}[{i}]")
    elif isinstance(a, (bool, str, np.bool_)) or a is None:
        assert a == b, where
    else:
        x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        assert np.all(np.abs(x - y) <= 1e-12 * np.maximum(np.abs(x), np.abs(y)) + 1e-300), where


def _assert_field_close(a, b, where):
    # the sum over a slab's scales runs in the spectral domain, so a cell where
    # the pieces nearly cancel keeps an error relative to the field's maximum,
    # not to its own value
    assert np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), where


def _assert_report_close(got, want):
    """The report within 1e-12 relative, but for the atoms' moment values:
    each vanishes up to round-off, which moves with the order of summation,
    so it is held within 1e-5 of its tolerance (worst measured 1.7e-6)."""

    def without_moment_values(report):
        return {**report, "atom_checks": [{**c, "moment": 0.0} for c in report["atom_checks"]]}

    for m, n in zip(got["atom_checks"], want["atom_checks"], strict=True):
        assert abs(m["moment"] - n["moment"]) <= 1e-5 * n["moment_tolerance"], "moment"
    _assert_close(without_moment_values(got), without_moment_values(want), "report")


@pytest.mark.parametrize("dim,N,max_gen,psi_backend", [(1, 128, 7, "quadrature"), (2, 32, 5, "fourier")])
def test_batched_pieces_match_the_per_bucket_oracle(dim, N, max_gen, psi_backend, monkeypatch):
    g = Grid(dim, 1.0, N)
    lat = build_lattice(g, max_gen)
    rng = np.random.default_rng(41 + dim)
    v = rng.standard_normal(g.shape) * np.exp(-np.sum(g.points() ** 2, axis=-1) / 0.2)
    f = GridFunction(g, v - v.mean())
    w = GridFunction(g, np.exp(0.5 * rng.standard_normal(g.shape)))
    tg = TimeGrid.geometric(g, t_min=g.h, t_max=2.0 if dim == 1 else 1.0, steps_per_octave=6)
    keys = []
    labels = atoms._bucket_labels

    def recorded(*args):
        keys.append(labels(*args)[0])
        return labels(*args)

    monkeypatch.setattr(atoms, "_bucket_labels", recorded)
    got = atomic_decompose(f, w, lat, tg)
    # a generation with more buckets than one psi batch holds, so the slicing is run
    assert max(map(len, keys)) > atoms._BUCKET_SLICE
    monkeypatch.setattr(atoms, "_whitney_pieces",
                        lambda f, lat, slabs, lw, *rest: _as_rows(*_per_bucket_pieces(f, lat, tg, *rest)))
    want = atomic_decompose(f, w, lat, tg)
    _assert_close(got.coefficients, want.coefficients, "coefficients")
    _assert_field_close(got.residual.values, want.residual.values, "residual")
    _assert_report_close(got.report, want.report)
    if psi_backend == "quadrature":
        # the stencil's pieces stay inside 3Qbar, round-off included
        assert got.report["clipped_mass"] == 0.0
    assert [(a.cube, a.level) for a in got.atoms] == [(a.cube, a.level) for a in want.atoms]
    for a, b in zip(got.atoms, want.atoms):
        assert np.array_equal(a.support, b.support)
        _assert_field_close(a.values.values, b.values.values, f"atom {a.cube}")


# psi_backend names the backend that the dimension selects
@pytest.mark.parametrize("dim,N,max_gen,psi_backend", [(1, 64, 6, "quadrature"), (2, 16, 4, "fourier")])
def test_unassigned_cubes_ride_in_the_psi_batches(dim, N, max_gen, psi_backend):
    # a planted assignment: cubes of even index sum are their own B_0 tops,
    # the others are in no B_k
    g = Grid(dim, 1.0, N)
    lat = build_lattice(g, max_gen)
    f = GridFunction(g, np.random.default_rng(43).standard_normal(g.shape))
    tg = TimeGrid.geometric(g, t_min=g.h, t_max=1.0, steps_per_octave=4)
    gens = {generation_of_scale(g, t, max_gen) for t in tg.t_values} - {None}
    assignment, owners = {}, {}
    for k in gens:
        even = np.indices((1 << k,) * dim).sum(axis=0) % 2 == 0
        assignment[k] = np.where(even, 0, atoms._UNASSIGNED)
        owners[k] = np.where(even, atoms._cube_ids(lat, k), -1)
    got_pieces, got_rest = _by_key(atoms._whitney_pieces(f, lat, tg.slabs(max_gen), tg.log_weight, assignment, owners))
    want_pieces, want_rest = _per_bucket_pieces(f, lat, tg, assignment, owners)
    assert np.any(want_rest)
    _assert_field_close(got_rest, want_rest, "unassigned")
    assert got_pieces.keys() == want_pieces.keys()
    for key, piece in want_pieces.items():
        _assert_field_close(got_pieces[key], piece, f"piece {key}")


@pytest.mark.parametrize("dim,N", [(1, 64), (2, 16), (2, 64)])
@pytest.mark.parametrize("count", [0, 1, 3, 8])
def test_row_pruned_transform_is_the_real_transform_bit_for_bit(dim, N, count):
    # bucket slices of count masks, among them the empty slice, masks that
    # hold no cell and masks on a few grid rows; one transform serves
    # several fields, as it serves the scales of a slab
    g = Grid(dim, 1.0, N)
    rng = np.random.default_rng(count)
    few_rows = np.where(np.arange(N) % 7 == 2, 1, 11).reshape((N,) + (1,) * (dim - 1))
    for labels in (rng.integers(0, 12, size=g.shape), few_rows):
        masks = np.broadcast_to(labels, g.shape) == np.arange(count).reshape((-1,) + (1,) * dim)
        transform = atoms._masked_transform(masks, g)
        for u in rng.standard_normal((3,) + g.shape):
            got, want = transform(u), spectrum(np.where(masks, u, 0.0), g)
            assert got.shape == want.shape and np.array_equal(got, want)


def test_whitney_pieces_are_bit_identical_to_the_full_transform(monkeypatch):
    # 64^2 pieces under levels log2 of the cube means of S, the cubes below
    # the median in no B_k: they equal those of spectrum(np.where(mask, u,
    # 0.0)) on every row, bit for bit
    g = Grid(2, 1.0, 64)
    lat = build_lattice(g, 5)
    v = np.random.default_rng(17).standard_normal(g.shape) * np.exp(-np.sum(g.points() ** 2, axis=-1) / 0.2)
    f = GridFunction(g, v - v.mean())
    tg = TimeGrid.geometric(g)
    S = area_function(f, "qt", ConeSpec("free"), tg).values
    gens = {generation_of_scale(g, t, lat.max_generation) for t in tg.t_values} - {None}
    assignment = {}
    for k in gens:
        means = lat.blocks(S, k).mean(axis=-1)
        assignment[k] = np.where(means >= np.median(means), np.floor(np.log2(means)).astype(int), atoms._UNASSIGNED)
    owners = atoms._owners(lat, assignment)
    slabs = tg.slabs(lat.max_generation)
    got, got_rest = _by_key(atoms._whitney_pieces(f, lat, slabs, tg.log_weight, assignment, owners))
    monkeypatch.setattr(atoms, "_masked_transform", lambda masks, g: lambda u: spectrum(np.where(masks, u, 0.0), g))
    want, want_rest = _by_key(atoms._whitney_pieces(f, lat, slabs, tg.log_weight, assignment, owners))
    assert len(want) > atoms._BUCKET_SLICE and got.keys() == want.keys()
    assert np.any(want_rest) and np.array_equal(got_rest, want_rest)
    assert all(np.array_equal(got[key], want[key]) for key in want)


def _climb_owners(lat, assignment):
    """Oracle for atoms._owners and atoms._maximal_counts: B_k as lists of
    DyadicCube, a cube maximal when no ancestor is in B_k (climbing every
    parent), and each member's owner the maximal cube that contains it.
    Returns ({k: sorted maximal cubes}, {(k, cube): owner})."""
    members = {}
    for k_gen in sorted(assignment):
        arr = assignment[k_gen]
        for idx in np.ndindex(arr.shape):
            k = int(arr[idx])
            if k > atoms._UNASSIGNED:
                members.setdefault(k, []).append(DyadicCube(k_gen, idx))
    maximal, cube_bucket = {}, {}
    for k, lst in members.items():
        byset = set(lst)
        tops = []
        for q in lst:
            anc = parent(q)
            while anc is not None and anc not in byset:
                anc = parent(anc)
            if anc is None:
                tops.append(q)
        tops.sort(key=lambda c: (c.generation, c.index))
        maximal[k] = tops
        for q in lst:
            cube_bucket[(k, q)] = next(t for t in tops if lat.contains(t, q))
    return maximal, cube_bucket


def _climb_bucket_keys(levels, k_gen, cube_bucket):
    """Oracle for the keys of atoms._bucket_labels: one generation's buckets
    (k, owner) in order of first appearance over np.ndindex, None for no B_k."""
    keys = []
    for idx in np.ndindex(levels.shape):
        k = int(levels[idx])
        key = None if k <= atoms._UNASSIGNED else (k, cube_bucket[(k, DyadicCube(k_gen, idx))])
        if key not in keys:
            keys.append(key)
    return keys


def _assert_owners_match_the_climb(lat, assignment):
    owners = atoms._owners(lat, assignment)
    maximal, cube_bucket = _climb_owners(lat, assignment)
    assert sorted(owners) == sorted(assignment)
    for k_gen, levels in assignment.items():
        ids = atoms._cube_ids(lat, k_gen)
        for idx in np.ndindex(levels.shape):
            cube, k = DyadicCube(k_gen, idx), int(levels[idx])
            assert cube_of(lat, int(ids[idx])) == cube
            if k <= atoms._UNASSIGNED:
                assert owners[k_gen][idx] == -1
                continue
            owner = cube_of(lat, int(owners[k_gen][idx]))
            assert owner == cube_bucket[(k, cube)]
            assert (owner == cube) == (cube in maximal[k])
        keys, labels = atoms._bucket_labels(lat, k_gen, levels, owners[k_gen])
        want = _climb_bucket_keys(levels, k_gen, cube_bucket)
        assert [None if key is None else (key[0], cube_of(lat, key[1])) for key in keys] == want
        # every cell carries its cube's bucket
        for idx in np.ndindex(levels.shape):
            cell = tuple(i * lat.cells_per_axis(k_gen) for i in idx)
            k = int(levels[idx])
            key = None if k <= atoms._UNASSIGNED else (k, int(owners[k_gen][idx]))
            assert keys[labels[cell]] == key
    counts = atoms._maximal_counts(lat, assignment, owners)
    assert list(counts.items()) == [(k, len(tops)) for k, tops in maximal.items()]
    return owners, counts


@st.composite
def _assignments(draw):
    dim = draw(st.sampled_from([1, 2]))
    max_gen = draw(st.integers(1, 5 if dim == 1 else 3))
    gens = sorted(draw(st.sets(st.integers(0, max_gen), min_size=1)))
    choices = st.sampled_from([atoms._UNASSIGNED, -2, -1, 0, 1])
    assignment = {
        k: np.array(draw(st.lists(choices, min_size=1 << (dim * k), max_size=1 << (dim * k)))).reshape((1 << k,) * dim)
        for k in gens
    }
    return build_lattice(Grid(dim, 1.0, 1 << max_gen), max_gen), assignment


@settings(max_examples=150, deadline=None)
@given(_assignments())
def test_owner_arrays_match_the_per_cube_climb(case):
    lat, assignment = case
    _assert_owners_match_the_climb(lat, assignment)


def test_owner_skips_a_parent_outside_the_level():
    # the generation-2 cube Q(g2,[0]) is in B_0 and its parent is not, but its
    # grandparent, the base cube, is: the base cube owns it and is the one
    # maximal cube of B_0 (Q(g1,[0]) and Q(g2,[2]) are the maximal cubes of B_1)
    U = atoms._UNASSIGNED
    lat = build_lattice(Grid(1, 1.0, 8), 3)
    assignment = {0: np.array([0]), 1: np.array([1, U]), 2: np.array([0, U, 1, U])}
    owners, counts = _assert_owners_match_the_climb(lat, assignment)
    assert cube_of(lat, int(owners[2][0])) == DyadicCube(0, (0,))
    assert counts == {0: 1, 1: 2}


def _hardy_atoms_2d(seed):
    """(lattice, time grid, [(f, w)]) of the hardy-atoms-2d benchmark workload:
    a 64^2 grid to generation 5, the geometric time grid, and six random Haar
    sums to generation 4 under the weights one, one-sided power 1/2 and
    power 1/4 in turn."""
    g = Grid(2, 1.0, 64)
    lat = build_lattice(g, 5)
    specs = ({"kind": "one"}, {"kind": "one-sided-power", "alpha": 0.5}, {"kind": "power", "alpha": 0.25})
    weights = [weight_from_spec(spec, g) for spec in specs]
    rng = np.random.default_rng(seed)
    return lat, TimeGrid.geometric(g), [(random_haar_sum(lat, rng, max_generation=4), weights[i % 3]) for i in range(6)]


def _decompose_with_oracle(f, w, lat, tg, monkeypatch):
    """atomic_decompose(f, w, lat, tg) and full_grid_atoms on the same Whitney
    pieces (copied: the decomposition clears each piece's box in place)."""
    recorded, pieces = [], atoms._whitney_pieces

    def recording(*args):
        keys, stack = pieces(*args)
        recorded.append({key: v.copy() for key, v in zip(keys, stack) if key is not None})
        return keys, stack

    monkeypatch.setattr(atoms, "_whitney_pieces", recording)
    dec = atomic_decompose(f, w, lat, tg)
    monkeypatch.setattr(atoms, "_whitney_pieces", pieces)
    return dec, full_grid_atoms(f, w, lat, recorded.pop(), dec.report)


def _assert_same_atom(got, want):
    assert (got.cube, got.level, got.p, got.weight) == (want.cube, want.level, want.p, want.weight)
    assert got.support.dtype == want.support.dtype and np.array_equal(got.support, want.support)
    assert got.values.grid == want.values.grid and got.values.values.tobytes() == want.values.values.tobytes()


@pytest.mark.parametrize("seed", [7, 11])
def test_box_atoms_match_the_full_grid_oracle(seed, monkeypatch):
    # every number but the atom checks is the same bits; the checks sum the box
    # instead of the full grid, so they move by round-off only
    lat, tg, symbols = _hardy_atoms_2d(seed)
    for f, w in symbols:
        dec, (want_atoms, want_lams, want_residual, want_report) = _decompose_with_oracle(f, w, lat, tg, monkeypatch)
        assert dec.coefficients == want_lams
        assert dec.residual.values.tobytes() == want_residual.values.tobytes()
        assert dec.to_json()["summary"] == {k: v for k, v in want_report.items() if k != "atom_checks"}
        assert len(dec.atoms) == len(want_atoms)
        for got, want in zip(dec.atoms, want_atoms):
            _assert_same_atom(got, want)
        for got, want in zip(dec.report["atom_checks"], want_report["atom_checks"], strict=True):
            assert [got[k] for k in ("support_ok", "moment_ok", "norm_ok", "ok")] == [
                want[k] for k in ("support_ok", "moment_ok", "norm_ok", "ok")
            ]
        _assert_report_close(dec.report, want_report)


def test_decomposition_holds_its_atoms_on_their_boxes(monkeypatch):
    lat, tg, symbols = _hardy_atoms_2d(7)
    N = lat.grid.points_per_axis
    for f, w in symbols:
        dec, (want, lams, _, _) = _decompose_with_oracle(f, w, lat, tg, monkeypatch)
        # records and residual against full-grid float values plus bool masks
        records = dec.atoms.records
        held = dec.residual.values.nbytes + sum(r.local.nbytes + sum(b.nbytes for b in r.box) for r in records)
        assert held <= 0.15 * len(records) * N ** 2 * 9
        # the sequence reads as the list of full-grid atoms did
        n = len(dec.atoms)
        assert n == len(want) == dec.report["n_atoms"] > 6
        for i in (0, n // 2, -1):
            _assert_same_atom(dec.atoms[i], want[i])
            assert check_atom(dec.atoms[i]) == check_atom(want[i])
        for sl in (slice(2, 7), slice(None, None, -3), slice(n, None)):
            got = dec.atoms[sl]
            assert isinstance(got, list) and len(got) == len(want[sl])
            for a, b in zip(got, want[sl]):
                _assert_same_atom(a, b)
        for a, b in zip(iter(dec.atoms), want, strict=True):
            _assert_same_atom(a, b)
        with pytest.raises(IndexError):
            dec.atoms[n]
        with pytest.raises(TypeError):
            dec.atoms[0] = want[0]
        checks = dec.report["atom_checks"]
        assert dec.to_json()["atoms"] == [
            {
                "coefficient": lam,
                "level": a.level,
                "cube": {"generation": a.cube.generation, "index": list(a.cube.index)},
                "support_ok": c["support_ok"],
                "moment_slack": abs(c["moment"]),
                "norm_over_bound": c["norm"] / c["bound"],
            }
            for lam, a, c in zip(lams, want, checks, strict=True)
        ]
