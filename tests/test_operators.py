import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wharm.errors import BackendError, DomainError, ParameterError, RangeError, SizeError, WeightError
from wharm.grid import Grid, GridFunction, constant, extend_even, restrict, weight_cells
from wharm.kernels import psi_multiplier, psi_stencil
from wharm import operators
from wharm.operators import (
    FOURIER,
    QUADRATURE,
    _BLOCK_CELLS,
    OperatorHandle,
    _operator_maps,
    _row_blocks,
    apply,
    apply_scales,
    assemble_matrix,
    commutator,
    commutator_matrix,
    commutator_norms,
    free_multipliers,
    psi_op,
    psi_reach,
    riesz,
    semigroup,
    weighted_operator_norm,
)
from wharm.weights import weight_from_spec

from operator_oracles import (
    ascent_norm,
    dense_weighted_norm,
    every_step_norm,
    extend_odd,
    extension_map,
    linear_operator,
    phi_op,
    qt_op,
    reflected_spectral_oracle,
    sided_kernel_sums,
    svds_norm,
)


def test_semigroup_preserves_constants(grid64):
    one = constant(grid64, 1.0)
    out = apply(semigroup("free", 0.05), one)
    assert np.max(np.abs(out.values - 1.0)) <= 1e-13


def test_hilbert_transform_of_cosine():
    # kernel convention -(1/pi)/(x-y), multiplier +i sign(xi):
    # one full period of cos maps to -sin (the textbook Hilbert transform
    # with multiplier -i sign(xi) would give +sin)
    g = Grid(1, 1.0, 256)
    x = g.points()[..., 0]
    f = GridFunction(g, np.cos(np.pi * x))
    out = apply(riesz("free", 1), f)
    assert np.max(np.abs(out.values + np.sin(np.pi * x))) <= 1e-8


def assert_matches_kernel_sums(kind, family, f, t=None, j=None):
    got = apply(OperatorHandle(kind, family, t=t, j=j, backend=QUADRATURE), f).values
    want = sided_kernel_sums(kind, family, f, t, j)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


SIDED_CASES = [
    pytest.param(dim, N, kind, family, domain, j, id=f"{dim}d-{kind}{j or ''}-{family}-{domain}")
    for dim, N in ((1, 32), (2, 12))
    for kind in ("semigroup", "qt", "riesz")
    for family, domains in (("neumann", ("upper", "lower", "full")), ("dirichlet", ("upper", "lower")))
    for domain in domains
    for j in (range(1, dim + 1) if kind == "riesz" else (None,))
]


@pytest.mark.parametrize("dim,N,kind,family,domain,j", SIDED_CASES)
def test_sided_quadrature_matches_direct_kernel_sums(dim, N, kind, family, domain, j):
    g = Grid(dim, 1.0, N, domain)
    f = GridFunction(g, np.random.default_rng(5).standard_normal(g.shape))
    t = {"semigroup": 0.02, "qt": 0.15, "riesz": None}[kind]
    assert_matches_kernel_sums(kind, family, f, t, j)


def test_neumann_semigroup_reflection_identity(rng):
    # the 2D semigroup on a finer grid than SIDED_CASES (32^2 against 12^2)
    gu = Grid(2, 1.0, 32, "upper")
    assert_matches_kernel_sums("semigroup", "neumann", GridFunction(gu, rng.standard_normal(gu.shape)), t=0.02)


def test_riesz_reductions_quadrature(rng):
    # the Neumann and Dirichlet Riesz transforms on finer grids than
    # SIDED_CASES (64 points in 1D against 32, 24^2 in 2D against 12^2)
    for n, N in ((1, 64), (2, 24)):
        gu = Grid(n, 1.0, N, "upper")
        f = GridFunction(gu, rng.standard_normal(gu.shape))
        for j in range(1, n + 1):
            for family in ("neumann", "dirichlet"):
                assert_matches_kernel_sums("riesz", family, f, j=j)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_neumann_apply_reads_only_its_own_side(data):
    # each side of a Neumann operator is computed from that side's values
    # alone, so restricting before or after the apply is the same bit for bit
    backend = data.draw(st.sampled_from([FOURIER, QUADRATURE]))
    dim = data.draw(st.sampled_from([1, 2]))
    N = data.draw(st.sampled_from([4, 8, 16, 32] if backend == QUADRATURE else [4, 8, 16, 32, 64]))
    kind = data.draw(st.sampled_from(["semigroup", "qt", "riesz"]))
    t = data.draw(st.floats(1e-3, 0.5)) if kind != "riesz" else None
    j = data.draw(st.integers(1, dim)) if kind == "riesz" else None
    op = OperatorHandle(kind, "neumann", t=t, j=j, backend=backend)
    g = Grid(dim, 1.0, N)
    f = GridFunction(g, data.draw(arrays(np.float64, g.shape, elements=st.floats(-1e6, 1e6))))
    for side in ("upper", "lower"):
        whole = restrict(apply(op, f), side).values
        alone = apply(op, restrict(f, side)).values
        assert whole.shape == alone.shape and whole.tobytes() == alone.tobytes()


def test_commutator_with_constant_vanishes(grid64, rng):
    b = constant(grid64, 4.0)
    f = GridFunction(grid64, rng.standard_normal(grid64.shape))
    out = apply(commutator(b, riesz("free", 1)), f)
    assert np.max(np.abs(out.values)) <= 1e-12


def test_commutator_parity(rng):
    # even b, even f in n=1: [b, R] f is odd (R maps even to odd)
    g = Grid(1, 1.0, 64)
    bu = GridFunction(g.with_domain("upper"), rng.standard_normal((32,)))
    fu = GridFunction(g.with_domain("upper"), rng.standard_normal((32,)))
    b, f = extend_even(bu), extend_even(fu)
    out = apply(commutator(b, riesz("free", 1)), f)
    assert np.max(np.abs(out.values + np.flip(out.values))) <= 1e-10


def test_commutator_reflection_equivariance(rng):
    # [b_{+,e}, R_l] f_{+,e} is reflection-even for l < n, odd for l = n
    g = Grid(2, 1.0, 16)
    b = extend_even(GridFunction(g.with_domain("upper"), rng.standard_normal((16, 8))))
    f = extend_even(GridFunction(g.with_domain("upper"), rng.standard_normal((16, 8))))
    out1 = apply(commutator(b, riesz("free", 1)), f).values
    out2 = apply(commutator(b, riesz("free", 2)), f).values
    assert np.max(np.abs(out1 - np.flip(out1, -1))) <= 1e-10
    assert np.max(np.abs(out2 + np.flip(out2, -1))) <= 1e-10


COMMUTATOR_CASES = [
    pytest.param(dim, N, backend, family, domain, j, id=f"{dim}d-{backend}-{family}-{domain}-R{j}")
    for dim, N in ((1, 32), (2, 12))
    for backend in (FOURIER, QUADRATURE)
    for family, domains in (
        ("free", ("full",)),
        ("neumann", ("full", "upper", "lower")),
        ("dirichlet", ("upper", "lower")),
    )
    for domain in domains
    for j in range(1, dim + 1)
]


@pytest.mark.parametrize("dim,N,backend,family,domain,j", COMMUTATOR_CASES)
def test_commutator_apply_is_b_Tf_minus_T_bf(dim, N, backend, family, domain, j):
    # apply sends f and b f through one batched map of T; the two spelled-out
    # applies of T give the same bits
    g = Grid(dim, 1.0, N, domain)
    rng = np.random.default_rng(17)
    b = GridFunction(g, rng.standard_normal(g.shape))
    f = GridFunction(g, rng.standard_normal(g.shape))
    T = riesz(family, j, backend=backend)
    want = b.values * apply(T, f).values - apply(T, GridFunction(g, b.values * f.values)).values
    assert apply(commutator(b, T), f).values.tobytes() == want.tobytes()


def test_commutator_symbol_on_another_grid_is_rejected(grid64):
    # one builder checks the symbols and the inner handle for every entry
    b = constant(Grid(1, 1.0, 32), 1.0)
    with pytest.raises(DomainError):
        apply(commutator(b, riesz("free", 1)), constant(grid64, 1.0))
    with pytest.raises(DomainError):
        weighted_operator_norm(commutator(b, riesz("free", 1)), grid64)
    with pytest.raises(DomainError):
        commutator_norms(b.values[None], riesz("free", 1), grid64)
    with pytest.raises(ParameterError, match="Riesz"):
        commutator_norms(np.ones((1,) + grid64.shape), semigroup("free", 0.1), grid64)


def test_backend_agreement_halves_under_refinement():
    # mean-zero oscillatory packet: wrap-around error is negligible and the
    # remaining PV-cell discrepancy is O(h)
    errs = []
    for N in (128, 256, 512):
        g = Grid(1, 1.0, N)
        x = g.points()[..., 0]
        f = GridFunction(g, np.exp(-((x / 0.15) ** 2)) * np.cos(16 * np.pi * x))
        a = apply(riesz("free", 1, backend="fourier"), f)
        b = apply(riesz("free", 1, backend="quadrature"), f)
        errs.append(np.sqrt(np.sum((a.values - b.values) ** 2) * g.h))
    for i in range(len(errs) - 1):
        ratio = errs[i] / errs[i + 1]
        assert 1.5 <= ratio <= 2.5  # halves within +-25%


def test_semigroup_composition(grid64, rng):
    f = GridFunction(grid64, rng.standard_normal(grid64.shape))
    one_step = apply(semigroup("free", 0.05), f)
    two_step = apply(semigroup("free", 0.02), apply(semigroup("free", 0.03), f))
    assert np.max(np.abs(one_step.values - two_step.values)) <= 1e-8


def test_heaviside_locality_of_sided_operators(rng):
    # output on the upper half never sees lower-half data
    g = Grid(1, 1.0, 64)
    f1 = GridFunction(g, rng.standard_normal(g.shape))
    f2 = GridFunction(g, f1.values + np.where(g.points()[..., 0] < 0, rng.standard_normal(g.shape), 0.0))
    for op in (semigroup("neumann", 0.03, backend="quadrature"), riesz("neumann", 1, backend="quadrature"), qt_op("neumann", 0.1, backend="quadrature")):
        o1 = restrict(apply(op, f1), "upper")
        o2 = restrict(apply(op, f2), "upper")
        assert np.max(np.abs(o1.values - o2.values)) <= 1e-12


def _ascent_at_p2(op, g, mu=None, lam=None, seed=0):
    """The lockstep p-ascent on one operator at p = 2, where the norm entries
    take the svd: an independent iterative check of the svd."""
    maps = _operator_maps(op, g)
    norms, certs = operators._lockstep_ascent(lambda ops: maps, 1, g.shape, weight_cells(mu, g),
                                              weight_cells(lam, g), 2.0, seed)
    return float(norms[0]), certs[0]


def test_heat_semigroup_norm_both_methods(grid64, monkeypatch):
    # the free heat multiplier is 1 at xi = 0 and below 1 elsewhere, and a
    # constant weight cancels: the norm is 1
    w = constant(grid64, 1.3)
    op = semigroup("free", 0.1)
    v1, _ = weighted_operator_norm(op, grid64, w, w, p=2.0)
    monkeypatch.setattr(operators, "_RESTARTS", 3)
    v2, cert = _ascent_at_p2(op, grid64, w, w)
    assert abs(v1 - 1.0) <= 1e-12
    assert abs(v2 - 1.0) <= 1e-9
    assert cert["method"] == "ascent"


def test_hilbert_norm_is_one():
    g = Grid(1, 1.0, 256)
    val, _ = weighted_operator_norm(riesz("free", 1), g, None, None, p=2.0)
    assert abs(val - 1.0) <= 1e-6


def test_ascent_vs_svd_on_commutators(rng):
    g = Grid(1, 1.0, 64)
    for i in range(50):
        op = commutator(GridFunction(g, rng.standard_normal(g.shape)), riesz("free", 1))
        mu = np.exp(0.3 * rng.standard_normal(g.shape))
        lam = np.exp(0.3 * rng.standard_normal(g.shape))
        sv, _ = weighted_operator_norm(op, g, mu, lam, p=2.0)
        av, _ = _ascent_at_p2(op, g, mu, lam, seed=i)
        assert av <= sv + 1e-9
        assert av >= 0.95 * sv


@pytest.mark.parametrize("bad,error", [
    (lambda g: np.where(g.axis_coords(0) > 0.5, 0.0, 1.0), WeightError),
    (lambda g: np.where(g.axis_coords(0) > 0.5, -1.0, 1.0), WeightError),
    (lambda g: np.where(g.axis_coords(0) > 0.5, np.nan, 1.0), WeightError),
    (lambda g: np.full(g.shape, np.inf), WeightError),
    (lambda g: np.ones(g.points_per_axis // 2), DomainError),
    (lambda g: np.ones((g.points_per_axis, 2)), DomainError),
    (lambda g: np.float64(2.0), DomainError),
], ids=["zero", "negative", "nan", "inf", "short", "extra-axis", "scalar"])
@pytest.mark.parametrize("p", [2.0, 3.0], ids=["svd", "ascent"])
def test_raw_array_weight_is_checked(grid64, bad, error, p):
    # a raw array reaches the norms unchecked by any weight factory, so the norms check it
    mu = bad(grid64)
    for pair in ((mu, None), (None, mu)):
        with pytest.raises(error):
            weighted_operator_norm(riesz("free", 1), grid64, *pair, p=p)


@pytest.mark.parametrize("p", [1.0, 0.5, np.inf, np.nan])
def test_norms_need_a_finite_p_above_one(grid64, p):
    # p = 1 divided by zero in the ascent, 0.5 and inf gave a number, nan a NaN
    b = GridFunction(grid64, np.sin(np.pi * grid64.axis_coords(0)))
    with pytest.raises(ParameterError, match="^p must lie"):
        weighted_operator_norm(commutator(b, riesz("free", 1)), grid64, p=p)
    with pytest.raises(ParameterError, match="^p must lie"):
        commutator_norms(b.values[None], riesz("free", 1), grid64, p=p)


def test_ascent_leaving_the_float_range_raises(grid64, monkeypatch):
    # at p - 1 = 1e-7 the dual step's power 1/(p-1) overflows: an error, not
    # NaN ratios
    b = GridFunction(grid64, np.sin(np.pi * grid64.axis_coords(0)))
    monkeypatch.setattr(operators, "_RESTARTS", 2)
    with np.errstate(all="ignore"), pytest.raises(RangeError, match="p-ascent"):
        weighted_operator_norm(commutator(b, riesz("free", 1)), grid64, p=1.0000001)


def test_ascent_general_p_runs(grid64, rng, monkeypatch):
    op = riesz("free", 1)
    monkeypatch.setattr(operators, "_RESTARTS", 3)
    val, cert = weighted_operator_norm(op, grid64, None, None, p=3.0)
    # p alone picks the algorithm: at p != 2 the ascent's lower bound
    assert val > 0 and cert["method"] == "ascent" and cert["restarts"] == 3


def test_phi_and_psi_ops_run(grid64, rng):
    f = GridFunction(grid64, rng.standard_normal(grid64.shape))
    for op in (phi_op(0.1, beta=0), phi_op(0.1, beta=1), psi_op(0.1), psi_op(0.1, backend="quadrature")):
        out = apply(op, f)
        assert np.all(np.isfinite(out.values))
    # psi and phi annihilate constants
    one = constant(grid64, 1.0)
    for op in (psi_op(0.2), psi_op(0.2, backend="quadrature"), phi_op(0.2, beta=0), qt_op("free", 0.2)):
        assert np.max(np.abs(apply(op, one).values)) <= 1e-12


def test_backend_and_size_errors(grid64):
    gu = grid64.with_domain("upper")
    f = constant(gu, 1.0)
    with pytest.raises(BackendError):
        apply(OperatorHandle("semigroup", "free", t=0.1), f)
    with pytest.raises(DomainError):
        apply(OperatorHandle("semigroup", "dirichlet", t=0.1), constant(grid64, 1.0))
    big = Grid(1, 1.0, 8192)
    with pytest.raises(SizeError):
        assemble_matrix(semigroup("free", 0.1), big)


def test_quadrature_free_semigroup_matches_fourier_interior():
    # away from the box edge and at small t the two models agree well
    g = Grid(1, 1.0, 256)
    x = g.points()[..., 0]
    f = GridFunction(g, np.exp(-((x / 0.1) ** 2)))
    a = apply(semigroup("free", 0.001, backend="fourier"), f)
    b = apply(semigroup("free", 0.001, backend="quadrature"), f)
    mid = slice(64, 192)
    assert np.max(np.abs(a.values[mid] - b.values[mid])) <= 1e-6


def test_weighted_norm_2d_dense(rng):
    g = Grid(2, 1.0, 16)
    op = riesz("neumann", 2, backend="fourier")
    w = constant(g, 1.0)
    val, _ = weighted_operator_norm(op, g, w, w, p=2.0)
    assert 0 < val <= 1.5  # contraction up to reflection bookkeeping


def test_neumann_semigroup_preserves_constants_quadrature():
    # reflection doubles the kernel mass the boundary would lose, so the
    # half-space Neumann heat flow keeps constants (up to box truncation)
    g = Grid(1, 1.0, 128).with_domain("upper")
    one = constant(g, 1.0)
    t = 0.0005  # sqrt(t) small enough that the outer box edge is invisible
    out = apply(semigroup("neumann", t, backend="quadrature"), one)
    interior = slice(0, 48)
    assert np.max(np.abs(out.values[interior] - 1.0)) <= 1e-10


def test_dirichlet_semigroup_absorbs_at_boundary():
    g = Grid(1, 1.0, 128).with_domain("upper")
    one = constant(g, 1.0)
    t = 0.0005
    out = apply(semigroup("dirichlet", t, backend="quadrature"), one)
    # boundary layer of width ~ sqrt(t): first cell well below 1, interior at 1
    assert out.values[0] < 0.7
    assert abs(out.values[40] - 1.0) <= 1e-10


def test_riesz_component_outside_the_dimension_is_rejected(rng):
    # j indexes an axis: 1 <= j <= n on both backends, for apply and for the
    # matrix-free operator alike
    for dim, j in ((2, 0), (2, 3), (1, 2), (1, 0)):
        g = Grid(dim, 1.0, 16)
        f = GridFunction(g, rng.standard_normal(g.shape))
        for backend in (FOURIER, QUADRATURE):
            for family in ("free", "neumann"):
                with pytest.raises(ParameterError):
                    apply(riesz(family, j, backend=backend), f)
                with pytest.raises(ParameterError):
                    linear_operator(commutator(f, riesz(family, j, backend=backend)), g)


# ---------------------------------------------------------------------------
# matrix-free operators: the exact transpose against the dense oracle

TRANSPOSE_CASES = [
    pytest.param(dim, N, backend, family, domain, j, id=f"{dim}d-{backend}-{family}-{domain}-R{j}")
    for dim, N in ((1, 32), (2, 12))
    for backend in (FOURIER, QUADRATURE)
    for family, domains in (("neumann", ("full", "upper", "lower")), ("dirichlet", ("upper", "lower")))
    for domain in domains
    for j in range(1, dim + 1)
]


@pytest.mark.parametrize("dim,N,backend,family,domain,j", TRANSPOSE_CASES)
def test_rmatvec_is_the_dense_transpose(dim, N, backend, family, domain, j):
    g = Grid(dim, 1.0, N, domain)
    rng = np.random.default_rng(11)
    b = GridFunction(g, rng.standard_normal(g.shape))
    R = riesz(family, j, backend=backend)
    for op in (R, commutator(b, R)):
        M = assemble_matrix(op, g)
        A = linear_operator(op, g)
        u = rng.standard_normal(M.shape[0])
        for got, want in ((A.matvec(u), M @ u), (A.rmatvec(u), M.T @ u)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_transpose_adjoint_identity(data):
    # <A x, y> = <x, A^T y> for Riesz transforms and commutators with random
    # symbols, on every family/domain pair, both backends, every j
    backend = data.draw(st.sampled_from([FOURIER, QUADRATURE]))
    dim = data.draw(st.sampled_from([1, 2]))
    sizes = [4, 8, 16, 32] if backend == QUADRATURE or dim == 2 else [4, 8, 16, 32, 64, 128]
    N = data.draw(st.sampled_from(sizes))
    family, domain = data.draw(st.sampled_from([
        ("neumann", "full"), ("neumann", "upper"), ("neumann", "lower"),
        ("dirichlet", "upper"), ("dirichlet", "lower"),
    ]))
    j = data.draw(st.integers(1, dim))
    g = Grid(dim, 1.0, N, domain)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    op = riesz(family, j, backend=backend)
    if data.draw(st.booleans()):
        op = commutator(GridFunction(g, rng.standard_normal(g.shape)), op)
    A = linear_operator(op, g)
    x, y = rng.standard_normal((2, A.shape[0]))
    Ax, Aty = A.matvec(x), A.rmatvec(y)
    scale = np.linalg.norm(Ax) * np.linalg.norm(y) + np.linalg.norm(x) * np.linalg.norm(Aty)
    assert abs(Ax @ y - x @ Aty) <= 1e-13 * scale


@pytest.mark.parametrize("dim,N", [(1, 32), (2, 12)])
@pytest.mark.parametrize("backend", [FOURIER, QUADRATURE])
@pytest.mark.parametrize("domain", ["upper", "lower"])
def test_dense_matrices_satisfy_the_adjoint_identities(dim, N, backend, domain):
    # from forward applies alone: R_{N,n}^T = -R_{D,n} and back, the
    # tangential Riesz components are antisymmetric, semigroup and qt symmetric
    g = Grid(dim, 1.0, N, domain)

    def dense(kind, family, t=None, j=None):
        return assemble_matrix(OperatorHandle(kind, family, t=t, j=j, backend=backend), g)

    def assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    neumann, dirichlet = dense("riesz", "neumann", j=dim), dense("riesz", "dirichlet", j=dim)
    assert_close(neumann.T, -dirichlet)
    assert_close(dirichlet.T, -neumann)
    for family in ("neumann", "dirichlet"):
        for j in range(1, dim):
            M = dense("riesz", family, j=j)
            assert_close(M.T, -M)
        for kind, t in (("semigroup", 0.02), ("qt", 0.15)):
            M = dense(kind, family, t=t)
            assert_close(M.T, M)


# ---------------------------------------------------------------------------
# matrix-free norms against the dense SVD

SHIPPED_PAIRS = (
    ({"kind": "one"}, {"kind": "one"}),
    ({"kind": "one-sided-power", "alpha": 0.5}, {"kind": "one"}),
    ({"kind": "power", "alpha": 0.25}, {"kind": "one-sided-power", "alpha": 0.5}),
)


@lru_cache(maxsize=None)
def _dense_neumann_riesz(dim, N, j):
    return assemble_matrix(riesz("neumann", j), Grid(dim, 1.0, N))


@pytest.mark.parametrize("dim,N", [(1, 64), (1, 256), (2, 16), (2, 32)])
@pytest.mark.parametrize("pair", range(len(SHIPPED_PAIRS)))
def test_svds_norm_matches_dense_svd(dim, N, pair):
    g = Grid(dim, 1.0, N)
    b = GridFunction(g, np.random.default_rng(dim * N + pair).standard_normal(g.shape))
    mu, lam = (weight_from_spec(spec, g) for spec in SHIPPED_PAIRS[pair])
    sqrt_lam, inv_sqrt_mu = np.sqrt(lam.values.reshape(-1)), 1.0 / np.sqrt(mu.values.reshape(-1))
    for j in range(1, dim + 1):
        M = commutator_matrix(b.values, _dense_neumann_riesz(dim, N, j))
        dense = sqrt_lam[:, None] * M * inv_sqrt_mu[None, :]
        want = np.linalg.svd(dense, compute_uv=False)[0]
        got, cert = weighted_operator_norm(commutator(b, riesz("neumann", j)), g, mu, lam, seed=pair)
        assert abs(got - want) <= 1e-12 * want
        assert cert["method"] == "svd" and cert["products"] > 0
        assert max(cert["residual_left"], cert["residual_right"]) <= 1e-10 * got


def test_svds_norm_is_seeded_and_reproducible(rng):
    g = Grid(1, 1.0, 64)
    op = commutator(GridFunction(g, rng.standard_normal(g.shape)), riesz("neumann", 1))
    w = weight_from_spec({"kind": "power", "alpha": 0.25}, g)
    first = weighted_operator_norm(op, g, w, w, seed=3)
    assert weighted_operator_norm(op, g, w, w, seed=3) == first


def test_constant_symbol_norm_is_exactly_zero():
    for g in (Grid(1, 1.0, 64), Grid(1, 1.0, 64, "upper"), Grid(2, 1.0, 16)):
        family = "dirichlet" if g.domain == "upper" else "neumann"
        op = commutator(constant(g, 2.5), riesz(family, g.dim))
        for p, method in ((2.0, "svd"), (3.0, "ascent")):
            val, cert = weighted_operator_norm(op, g, p=p)
            assert val == 0.0 and cert == {"method": method, "size": int(np.prod(g.shape)), "zero_operator": True}


def test_one_point_norm_is_its_entry():
    # a 1D half grid with N = 2 has one cell, below what ARPACK accepts
    g = Grid(1, 1.0, 2, "upper")
    b = GridFunction(g, np.array([3.0]))
    for op in (riesz("neumann", 1), semigroup("dirichlet", 0.1), commutator(b, riesz("dirichlet", 1))):
        val, cert = weighted_operator_norm(op, g, np.array([4.0]), np.array([9.0]))
        assert val == abs(1.5 * assemble_matrix(op, g)[0, 0]) and cert["size"] == 1


def test_matrix_free_norm_has_no_dense_cap():
    g = Grid(2, 1.0, 128)
    op = commutator(GridFunction(g, g.points()[..., 0] ** 2), riesz("neumann", 2))
    val, cert = weighted_operator_norm(op, g)
    assert np.isfinite(val) and val > 0 and cert["size"] == 128 * 128


# ---------------------------------------------------------------------------
# lockstep Golub-Kahan norms of a stack of symbols against ARPACK and the dense SVD

@pytest.mark.parametrize(
    "dim,N,domain", [(1, 64, "full"), (1, 256, "full"), (2, 16, "full"), (1, 64, "upper"), (2, 16, "upper")]
)
def test_commutator_norms_match_svds_and_the_dense_svd(dim, N, domain):
    g = Grid(dim, 1.0, N, domain)
    rng = np.random.default_rng(dim * N)
    symbols = rng.standard_normal((5,) + g.shape)
    mu, lam = np.exp(0.3 * rng.standard_normal((2,) + g.shape))
    # the half-space variant runs the Neumann transform on the upper half grid
    for family in ("neumann", "dirichlet") if domain == "upper" else ("neumann",):
        for j in range(1, dim + 1):
            R = riesz(family, j)
            got, certs = commutator_norms(symbols, R, g, mu, lam, seed=5)
            M = assemble_matrix(R, g)
            for b, val, cert in zip(symbols, got, certs):
                want = dense_weighted_norm(commutator_matrix(b, M), mu, lam)
                oracle = svds_norm(commutator(GridFunction(g, b), R), g, mu, lam, seed=5)
                assert abs(val - want) <= 1e-12 * want
                assert abs(val - oracle) <= 1e-12 * oracle
                assert cert["method"] == "svd" and cert["size"] == M.shape[0] and cert["seed"] == 5
                assert 0 < cert["products"] <= 2 * M.shape[0]
                assert max(cert["residual_left"], cert["residual_right"]) <= 1e-10 * val


@pytest.mark.parametrize("dim,N,domain", [(1, 256, "full"), (1, 512, "upper"), (2, 16, "full")])
def test_commutator_norms_do_not_depend_on_the_block(dim, N, domain):
    # 40 symbols on 256 points run as two lockstep blocks in one set of
    # bases, and their rows stop at different steps, so the remaining rows'
    # bases move down in place; a row of the first block outlasts the set's
    # 32 steps and goes on in grown bases, and the second block runs in the
    # set the first one wrote; every row still gives the norm and the
    # certificate of a run on its own
    g = Grid(dim, 1.0, N, domain)
    rng = np.random.default_rng(N)
    symbols = rng.standard_normal((40,) + g.shape)
    # smooth and rough symbols need different numbers of steps
    symbols[::2] = np.cumsum(symbols[::2], axis=-1)
    mu, lam = np.exp(0.3 * rng.standard_normal((2,) + g.shape))
    assert len(_row_blocks(len(symbols), symbols[0].size)) == 2
    for j in range(1, dim + 1):
        R = riesz("neumann", j)
        vals, certs = commutator_norms(symbols, R, g, mu, lam, seed=3)
        assert len({c["products"] for c in certs}) > 1
        assert max(c["products"] for c in certs[:20]) > 2 * 32
        for i, b in enumerate(symbols):
            alone, alone_certs = commutator_norms(symbols[i : i + 1], R, g, mu, lam, seed=3)
            svd, svd_cert = weighted_operator_norm(commutator(GridFunction(g, b), R), g, mu, lam, seed=3)
            assert vals[i] == alone[0] == svd
            assert certs[i] == alone_certs[0] == svd_cert


@pytest.mark.parametrize("npts", [1, 3, 256, 1000, 3000, 5000, _BLOCK_CELLS, 2 * _BLOCK_CELLS])
def test_row_blocks_are_balanced_and_within_the_budget(npts):
    assert _row_blocks(0, npts) == []
    for count in range(1, 70):
        blocks = _row_blocks(count, npts)
        sizes = [len(rows) for rows in blocks]
        assert max(sizes) - min(sizes) <= 1
        assert all(size * npts <= _BLOCK_CELLS or size == 1 for size in sizes)
        assert np.concatenate(blocks).tolist() == list(range(count))
        # no more blocks than the budget needs
        assert len(blocks) == -(-count // max(1, _BLOCK_CELLS // npts))


def test_commutator_norms_give_a_constant_row_exactly_zero():
    g = Grid(1, 1.0, 64)
    rng = np.random.default_rng(8)
    symbols = rng.standard_normal((4,) + g.shape)
    symbols[1] = 2.5
    w = weight_from_spec({"kind": "power", "alpha": 0.25}, g)
    R = riesz("neumann", 1)
    vals, certs = commutator_norms(symbols, R, g, w, w, seed=2)
    assert vals[1] == 0.0 and certs[1]["zero_operator"] is True
    assert np.all(np.isfinite(vals)) and np.all(vals[[0, 2, 3]] > 0)
    for i in (0, 2, 3):
        alone, _ = weighted_operator_norm(commutator(GridFunction(g, symbols[i]), R), g, w, w, seed=2)
        assert abs(vals[i] - alone) <= 1e-13 * alone


def test_commutator_norms_on_one_cell_and_on_an_exhausted_krylov_space():
    # one cell: every symbol is constant, so the commutator vanishes
    one = Grid(1, 1.0, 2, "upper")
    vals, certs = commutator_norms(np.array([[3.0], [-1.0]]), riesz("dirichlet", 1), one)
    assert vals.tolist() == [0.0, 0.0] and all(c["zero_operator"] for c in certs)
    # four points: the Krylov space is the whole space before the Ritz
    # residual meets its tolerance, and the Ritz value is then the exact one
    g = Grid(1, 1.0, 4)
    rng = np.random.default_rng(4)
    symbols = rng.standard_normal((3,) + g.shape)
    mu, lam = np.exp(0.3 * rng.standard_normal((2,) + g.shape))
    R = riesz("neumann", 1)
    vals, certs = commutator_norms(symbols, R, g, mu, lam)
    assert all(c["products"] == 2 * 4 for c in certs)
    for b, val in zip(symbols, vals):
        want = dense_weighted_norm(commutator_matrix(b, assemble_matrix(R, g)), mu, lam)
        assert abs(val - want) <= 1e-12 * want


@pytest.mark.parametrize("dim,N,domain", [(1, 256, "full"), (1, 256, "upper"), (2, 16, "full")])
def test_stop_test_at_even_steps_against_the_every_step_oracle(dim, N, domain):
    # the lockstep run tests its rows at even steps only, so a row stops on
    # the step the every-step oracle stops on, or on the one after it
    g = Grid(dim, 1.0, N, domain)
    rng = np.random.default_rng(dim * N + (domain == "upper"))
    symbols = rng.standard_normal((8,) + g.shape)
    symbols[::2] = np.cumsum(symbols[::2], axis=-1)
    mu, lam = np.exp(0.3 * rng.standard_normal((2,) + g.shape))
    later = 0
    for j in range(1, dim + 1):
        R = riesz("neumann" if domain == "full" else "dirichlet", j)
        vals, certs = commutator_norms(symbols, R, g, mu, lam, seed=3)
        for b, val, cert in zip(symbols, vals, certs):
            want, steps = every_step_norm(commutator(GridFunction(g, b), R), g, mu, lam, seed=3)
            assert abs(val - want) <= 1e-12 * want
            assert cert["products"] in (2 * steps, 2 * steps + 2)
            assert max(cert["residual_left"], cert["residual_right"]) <= 1e-10 * val
            later += cert["products"] > 2 * steps
    assert later > 0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_commutator_handle_norm_is_the_stack_of_one(p, monkeypatch):
    # a commutator handle's norm is commutator_norms on its symbol alone: the
    # same value and certificate, a constant symbol's zero operator included
    monkeypatch.setattr(operators, "_RESTARTS", 3)
    g, symbols, mu, lam, R = _ascent_case(1, 64, "full")
    for b in symbols[:2]:
        alone = weighted_operator_norm(commutator(GridFunction(g, b), R), g, mu, lam, p=p, seed=2)
        vals, certs = commutator_norms(b[None], R, g, mu, lam, seed=2, p=p)
        assert alone == (float(vals[0]), certs[0])
        assert certs[0]["method"] == ("svd" if p == 2.0 else "ascent")
    assert alone[1]["zero_operator"] is True


def test_commutator_norms_are_reproducible():
    g = Grid(2, 1.0, 16)
    rng = np.random.default_rng(6)
    symbols = rng.standard_normal((3,) + g.shape)
    mu = weight_from_spec({"kind": "one-sided-power", "alpha": 0.5}, g)
    first = commutator_norms(symbols, riesz("neumann", 2), g, mu, None, seed=7)
    second = commutator_norms(symbols, riesz("neumann", 2), g, mu, None, seed=7)
    assert first[0].tolist() == second[0].tolist() and first[1] == second[1]


# ---------------------------------------------------------------------------
# the lockstep p-ascent against the per-restart oracle

def _ascent_case(dim, N, domain):
    g = Grid(dim, 1.0, N, domain)
    rng = np.random.default_rng(dim * N + (domain == "upper"))
    symbols = rng.standard_normal((3,) + g.shape)
    symbols[1] = -1.5
    mu, lam = np.exp(0.3 * rng.standard_normal((2,) + g.shape))
    return g, symbols, mu, lam, riesz("neumann", dim)


@pytest.mark.parametrize("p", [1.5, 3.0])
@pytest.mark.parametrize("dim,N,domain", [(1, 64, "full"), (1, 64, "upper"), (2, 16, "full")])
def test_ascent_matches_the_per_restart_oracle(dim, N, domain, p):
    g, symbols, mu, lam, R = _ascent_case(dim, N, domain)
    vals, certs = commutator_norms(symbols, R, g, mu, lam, seed=4, p=p)
    assert vals[1] == 0.0 and certs[1] == {"method": "ascent", "size": symbols[0].size, "zero_operator": True}
    for i in (0, 2):
        op = commutator(GridFunction(g, symbols[i]), R)
        want, want_cert = ascent_norm(op, g, mu, lam, p=p, seed=4)
        alone, alone_cert = weighted_operator_norm(op, g, mu, lam, p=p, seed=4)
        assert want > 0 and want_cert["converged"]
        assert abs(vals[i] - want) <= 1e-12 * want and abs(alone - want) <= 1e-12 * want
        assert certs[i] == alone_cert == want_cert


def test_ascent_cut_off_and_zero_operator_match_the_oracle(monkeypatch):
    g, symbols, mu, lam, R = _ascent_case(1, 64, "full")
    for b in symbols:
        op = commutator(GridFunction(g, b), R)
        for restarts, max_iter in ((3, 3), (10, 1), (2, 0)):
            monkeypatch.setattr(operators, "_RESTARTS", restarts)
            monkeypatch.setattr(operators, "_MAX_ITER", max_iter)
            got = weighted_operator_norm(op, g, mu, lam, p=3.0, seed=1)
            want = ascent_norm(op, g, mu, lam, p=3.0, seed=1, restarts=restarts, max_iter=max_iter)
            if b[0] == b[1]:
                assert got == (0.0, {"method": "ascent", "size": 64, "zero_operator": True})
            else:
                assert abs(got[0] - want[0]) <= 1e-12 * max(want[0], 1e-300) and got[1] == want[1]
                assert not got[1].get("converged", False)


@pytest.mark.parametrize("cells", [64, 3 * 64, 7 * 64])
def test_ascent_does_not_depend_on_the_block(monkeypatch, cells):
    # with fewer rows per block the restarts of one symbol straddle blocks,
    # and rows leave their blocks at different steps; every norm and
    # certificate stays that of the default blocks
    g, symbols, mu, lam, R = _ascent_case(1, 64, "full")
    want = commutator_norms(symbols, R, g, mu, lam, seed=2, p=1.5)
    monkeypatch.setattr(operators, "_BLOCK_CELLS", cells)
    assert len(_row_blocks(2 * 10, 64)) > 1
    got = commutator_norms(symbols, R, g, mu, lam, seed=2, p=1.5)
    assert got[0].tolist() == want[0].tolist() and got[1] == want[1]


# ---------------------------------------------------------------------------
# the Fourier backend's reflection path against the DCT/DST oracle


@pytest.mark.parametrize("dim,N", [(1, 128), (2, 32)])
@pytest.mark.parametrize("family", ["neumann", "dirichlet"])
def test_fourier_reflection_path_matches_dct_dst_oracle(dim, N, family):
    g = Grid(dim, 1.0, N, "upper")
    f = GridFunction(g, np.random.default_rng(N + dim).standard_normal(g.shape))
    cases = [("semigroup", t, None) for t in (0.001, 0.01, 0.1)] + [("qt", t, None) for t in (0.03, 0.1, 0.5)]
    cases += [("riesz", None, j) for j in range(1, dim + 1)]
    for kind, t, j in cases:
        got = apply(OperatorHandle(kind, family, t=t, j=j), f).values
        want = reflected_spectral_oracle(kind, family, f, t=t, j=j)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (kind, t, j)


def test_commutator_reduction():
    # [b, R_{N,l}] f = b O(f) - O(b f) on the upper half grid, with O the
    # DCT/DST oracle of R_{N,l} (the Riesz transform of the even extension)
    for dim, N in ((1, 128), (2, 32)):
        g = Grid(dim, 1.0, N, "upper")
        rng = np.random.default_rng(dim)
        b, f = (GridFunction(g, v) for v in rng.standard_normal((2,) + g.shape))
        bf = GridFunction(g, b.values * f.values)
        for j in range(1, dim + 1):
            got = apply(commutator(b, riesz("neumann", j)), f).values
            want = b.values * reflected_spectral_oracle("riesz", "neumann", f, j=j)
            want -= reflected_spectral_oracle("riesz", "neumann", bf, j=j)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), (dim, j)


# ---------------------------------------------------------------------------
# the half-length reflection maps against the doubled extension they replaced


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_half_length_maps_match_the_extension_path(data):
    # every parity case: Neumann and Dirichlet, M and M* (R_n's M* reflects
    # with the other sign), even and odd multipliers, N/2 even and odd, a
    # batch axis and a scale stack
    dim = data.draw(st.sampled_from([1, 2]))
    N = data.draw(st.sampled_from([4, 6, 10, 12, 32, 64]))
    family = data.draw(st.sampled_from(["neumann", "dirichlet"]))
    domain = data.draw(st.sampled_from(["full", "upper", "lower"] if family == "neumann" else ["upper", "lower"]))
    kind = data.draw(st.sampled_from(["semigroup", "qt", "riesz"]))
    j = data.draw(st.integers(1, dim)) if kind == "riesz" else None
    ts = None
    if kind != "riesz" and data.draw(st.booleans()):
        ts = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4))
    op = OperatorHandle(kind, family, t=ts[0] if ts else (None if kind == "riesz" else data.draw(st.floats(1e-3, 1.0))), j=j)
    g = Grid(dim, 1.0, N, domain)
    v = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal((3,) + g.shape)
    sign = 1.0 if family == "neumann" else -1.0
    forward, adjoint, _ = operators._maps(op, g, ts)
    adjoint_sign = -sign if kind == "riesz" and j == dim else sign
    for got_map, s in ((forward, sign), (adjoint, adjoint_sign)):
        got, want = got_map(v), extension_map(op, g, s, ts)(v)
        assert got.shape == want.shape == ((len(ts),) if ts else ()) + v.shape
        # the round-off of both paths follows the input: where the output is
        # tiny by cancellation (a Dirichlet heat at t = 1 on 4 points) no
        # path keeps digits relative to it
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.max(np.abs(want)), np.max(np.abs(v))), s


@pytest.mark.parametrize("zero", [-0.0, 0.0])
@pytest.mark.parametrize("dim,N", [(1, 4), (1, 6), (2, 4), (2, 6)])
def test_half_length_full_grid_is_its_two_half_grids_for_signed_zeros(dim, N, zero):
    # the full grid runs each side exactly as its half grid does, so even the
    # sign of a zero agrees
    g = Grid(dim, 1.0, N)
    f = GridFunction(g, np.full(g.shape, zero))
    ops = [riesz("neumann", j) for j in range(1, dim + 1)] + [semigroup("neumann", 0.1), qt_op("neumann", 0.2)]
    for op in ops:
        for side in ("upper", "lower"):
            whole = restrict(apply(op, f), side).values
            alone = apply(op, restrict(f, side)).values
            assert whole.tobytes() == alone.tobytes(), (op.kind, op.j, side)


def test_fourier_reflection_maps_build_no_extension(monkeypatch):
    # the Fourier Neumann/Dirichlet maps work on the half grids alone; only
    # the quadrature reference extends
    def extension(*args):
        raise AssertionError("a Fourier reflection map built an extension")

    from wharm import grid as grid_mod

    monkeypatch.setattr(grid_mod, "extensions", extension)
    monkeypatch.setattr(operators, "extensions", extension)
    rng = np.random.default_rng(3)
    for dim, N in ((1, 16), (2, 8)):
        for family, domains in (("neumann", ("full", "upper", "lower")), ("dirichlet", ("upper", "lower"))):
            for domain in domains:
                g = Grid(dim, 1.0, N, domain)
                v = rng.standard_normal((2,) + g.shape)
                R = [riesz(family, j) for j in range(1, dim + 1)]
                ops = R + [semigroup(family, 0.1), qt_op(family, 0.2)] + [commutator(GridFunction(g, v[0]), T) for T in R]
                for op in ops:
                    for m in _operator_maps(op, g):
                        m(v)
                apply_scales("qt", family, [0.1, 0.2], GridFunction(g, v[0]))
    with pytest.raises(AssertionError):
        apply(riesz("neumann", 1, backend=QUADRATURE), GridFunction(Grid(1, 1.0, 8, "upper"), np.ones(4)))


# ---------------------------------------------------------------------------
# every scale at once: apply_scales against a stack of per-scale applies

def _scale_cases():
    families = [("free", ("full",)), ("neumann", ("full", "upper", "lower")), ("dirichlet", ("upper", "lower"))]
    for dim, N in ((1, 64), (2, 16)):
        for kind in ("semigroup", "qt", "psi", "phi"):
            for family, domains in families:
                if kind in ("psi", "phi") and family != "free":
                    continue
                for domain in domains:
                    for beta in ((0, 1) if kind == "phi" else (0,)):
                        yield pytest.param(dim, N, kind, family, domain, beta, id=f"{dim}d-{kind}{beta}-{family}-{domain}")


def _per_scale_stack(kind, family, ts, f, beta):
    return np.stack([apply(OperatorHandle(kind, family, t=t, beta=beta), f).values for t in ts])


@pytest.mark.parametrize("dim,N,kind,family,domain,beta", list(_scale_cases()))
def test_apply_scales_is_the_per_scale_stack_fourier(dim, N, kind, family, domain, beta):
    g = Grid(dim, 1.0, N, domain)
    f = GridFunction(g, np.random.default_rng(17).standard_normal(g.shape))
    ts = 2 * g.h * 2.0 ** (np.arange(9) / 8)
    got = apply_scales(kind, family, ts, f, beta=beta)
    assert got.shape == (len(ts),) + g.shape
    assert got.tobytes() == _per_scale_stack(kind, family, ts, f, beta).tobytes()


def test_scale_stack_needs_the_fourier_backend(grid64):
    # apply_scales is Fourier only; the per-t apply is the quadrature path
    with pytest.raises(BackendError):
        _operator_maps(qt_op("free", 0.1, backend=QUADRATURE), grid64, [0.1, 0.2])


@pytest.mark.parametrize("ts", [[], [0.0], [0.1, -0.2], [0.1, np.nan], [np.inf], [[0.1, 0.2]]])
def test_apply_scales_rejects_bad_scales(grid64, ts):
    with pytest.raises(ParameterError):
        apply_scales("qt", "free", ts, constant(grid64, 1.0))


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf, 0.0, -0.1])
@pytest.mark.parametrize("kind", ["semigroup", "qt", "psi", "phi"])
def test_handle_rejects_a_scale_that_is_not_finite_and_positive(kind, t):
    # caught at the handle, not later as a field of non-finite values
    with pytest.raises(ParameterError, match="finite t > 0"):
        OperatorHandle(kind, t=t)


def test_apply_scales_takes_scale_kinds_only(grid64):
    with pytest.raises(ParameterError):
        apply_scales("riesz", "free", [0.1], constant(grid64, 1.0))
    with pytest.raises(BackendError):
        apply_scales("psi", "neumann", [0.1], constant(grid64, 1.0))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_apply_scales_property_random_scales(data):
    # any scales, in any order and with repeats: row i is the apply at ts[i]
    dim = data.draw(st.sampled_from([1, 2]))
    g = Grid(dim, 1.0, data.draw(st.sampled_from([8, 16, 32])))
    kind, family = data.draw(st.sampled_from([
        ("semigroup", "free"), ("qt", "free"), ("psi", "free"), ("phi", "free"),
        ("semigroup", "neumann"), ("qt", "neumann"),
    ]))
    ts = data.draw(st.lists(st.floats(1e-3, 2.0), min_size=1, max_size=10))
    f = GridFunction(g, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(g.shape))
    got = apply_scales(kind, family, ts, f)
    assert got.tobytes() == _per_scale_stack(kind, family, ts, f, 0).tobytes()


# ---------------------------------------------------------------------------
# the half-spectrum maps against complex transforms with the full multiplier

def full_spectrum_oracle(kind, g, v, t=None, j=None, beta=0):
    """ifftn(fftn(v) M).real with M the multiplier on every complex-FFT frequency."""
    N, h = g.points_per_axis, g.h
    xi = 2.0 * np.pi * np.fft.fftfreq(N, d=h)
    mesh = np.meshgrid(*[xi] * g.dim, indexing="ij")
    xi2 = sum(m ** 2 for m in mesh)
    s = (t or 0.0) * np.sqrt(xi2)
    if kind == "riesz":
        M = np.where(xi2 > 0, 1j * mesh[j - 1] / np.sqrt(np.where(xi2 > 0, xi2, 1.0)), 0.0)
        nyquist = [slice(None)] * g.dim
        nyquist[j - 1] = N // 2
        M[tuple(nyquist)] = 0.0
    else:
        M = {
            "semigroup": lambda: np.exp(-t * xi2),
            "qt": lambda: s ** 2 * np.exp(-(s ** 2)),
            "psi": lambda: psi_multiplier(s),
            "phi": lambda: s ** (1 + beta) * np.exp(-(s ** 2) / 2.0),
        }[kind]()
    axes = tuple(range(-g.dim, 0))
    return np.fft.ifftn(np.fft.fftn(v, axes=axes) * M, axes=axes).real


def _real_spectrum_cases():
    for dim, N in ((1, 64), (2, 16)):
        for kind, t, beta in (("semigroup", 0.01, 0), ("qt", 0.1, 0), ("psi", 0.2, 0), ("phi", 0.1, 0), ("phi", 0.1, 1)):
            yield pytest.param(dim, N, kind, t, None, beta, "free", id=f"{dim}d-{kind}{beta}-free")
            if kind in ("semigroup", "qt"):
                for family in ("neumann", "dirichlet"):
                    yield pytest.param(dim, N, kind, t, None, 0, family, id=f"{dim}d-{kind}-{family}")
        for j in range(1, dim + 1):
            for family in ("free", "neumann", "dirichlet"):
                yield pytest.param(dim, N, "riesz", None, j, 0, family, id=f"{dim}d-R{j}-{family}")


@pytest.mark.parametrize("dim,N,kind,t,j,beta,family", list(_real_spectrum_cases()))
def test_real_spectrum_maps_match_the_full_complex_transform(dim, N, kind, t, j, beta, family):
    rng = np.random.default_rng(N + dim)
    op = OperatorHandle(kind, family, t=t, j=j, beta=beta)
    if family == "free":
        f = GridFunction(Grid(dim, 1.0, N), rng.standard_normal((N,) * dim))
        got = apply(op, f).values
        want = full_spectrum_oracle(kind, f.grid, f.values, t=t, j=j, beta=beta)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        return
    # a sided operator is the free one on the side's even (Neumann) or odd
    # (Dirichlet) extension, read back on that side
    extend = extend_even if family == "neumann" else extend_odd
    for side in ("upper", "lower"):
        f = GridFunction(Grid(dim, 1.0, N, side), rng.standard_normal(Grid(dim, 1.0, N, side).shape))
        ext = extend(f)
        got = apply(op, f).values
        want = restrict(GridFunction(ext.grid, full_spectrum_oracle(kind, ext.grid, ext.values, t=t, j=j)), side).values
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want)), side


@pytest.mark.parametrize("t", [0.03, 0.1, 0.5, 1.7])
def test_psi_stencil_multiplier_matches_the_complex_circular_convolution(grid64, rng, t):
    # the quadrature psi is a half-spectrum multiplier rfft(kper) h of the
    # periodized stencil; the oracle is the complex circular convolution
    N, h = grid64.points_per_axis, grid64.h
    st = psi_stencil(t, h)
    r = (len(st) - 1) // 2
    kper = np.zeros(N)
    np.add.at(kper, np.arange(-r, r + 1) % N, st)
    v = rng.standard_normal((3, N))
    want = np.real(np.fft.ifft(np.fft.fft(v) * np.fft.fft(kper))) * h
    got = _operator_maps(psi_op(t, backend=QUADRATURE), grid64)[0](v)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("t", [0.03, 0.1, 0.5, 1.7])
def test_psi_reach_is_the_stencil_dilation(grid64, rng, t):
    # brute force: the union of the mask's cells shifted by every offset up to
    # the stencil's outermost nonzero entry, mod the box
    N = grid64.points_per_axis
    st = psi_stencil(t, grid64.h)
    outer = np.max(np.abs(np.flatnonzero(st) - (len(st) - 1) // 2))
    mask = rng.random((5, N)) < 0.08
    mask[0] = False
    mask[1, -1] = True
    want = np.zeros(mask.shape, dtype=bool)
    for o in range(-outer, outer + 1):
        want |= np.roll(mask, o, axis=-1)
    got = psi_reach(mask, [t / 2, t], grid64)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("t", [0.03, 0.1, 0.5])
def test_quadrature_psi_vanishes_exactly_beyond_its_stencil(grid64, rng, t):
    # the transforms leave round-off in every cell; the map keeps the exact zeros
    v = np.zeros((2, grid64.points_per_axis))
    v[0, 10:14] = rng.standard_normal(4)
    v[1, [0, 40]] = 1.0
    got = _operator_maps(psi_op(t, backend=QUADRATURE), grid64)[0](v)
    st = psi_stencil(t, grid64.h)
    r = (len(st) - 1) // 2
    kper = np.zeros(grid64.points_per_axis)
    np.add.at(kper, np.arange(-r, r + 1) % grid64.points_per_axis, st)
    want = np.real(np.fft.ifft(np.fft.fft(v) * np.fft.fft(kper))) * grid64.h
    reach = psi_reach(v != 0, [t], grid64)
    assert not np.all(reach)
    assert np.all(got[~reach] == 0.0)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_cached_multipliers_are_read_only():
    g = Grid(2, 1.0, 16)
    ts = [0.1, 0.2, 0.4]
    for op in (psi_op(0.1), qt_op("free", 0.1), riesz("free", 2), psi_op(0.1, backend=QUADRATURE)):
        grid = Grid(1, 1.0, 16) if op.backend == QUADRATURE else g
        stack = free_multipliers(op, grid, None if op.kind == "riesz" else ts)
        assert stack is free_multipliers(op, grid, None if op.kind == "riesz" else ts)
        assert stack.shape[0] == (1 if op.kind == "riesz" else len(ts))
        assert stack.shape[1:] == grid.shape[:-1] + (grid.points_per_axis // 2 + 1,)
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0] = 0.0


def test_wharm_imports_load_no_scipy_module():
    # every transform is numpy.fft; only the quadrature kernel sums need
    # scipy.signal, imported where they run, so no wharm module loads scipy
    modules = "cli harness atoms squarefn sparse bmo operators weights dyadic grid kernels".split()
    code = (
        "import sys\n"
        f"import {', '.join('wharm.' + m for m in modules)}\n"
        "sys.exit(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy') or None)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
