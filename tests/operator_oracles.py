"""scipy oracles for the matrix-free operators and norms of wharm.operators.

linear_operator wraps an operator handle's exact (forward, transpose) maps as
a scipy LinearOperator on flattened value vectors, and svds_norm takes the top
singular value of diag(lam)^{1/2} M diag(mu)^{-1/2} with ARPACK (svds, tol 0),
an iteration independent of the lockstep Golub-Kahan run the library uses.
dense_weighted_norm is the same norm of a dense matrix by a full SVD, for
the operators that have no handle (the sparse operators A_S, whose dense
matrix is sparse_operator_matrix).
every_step_norm is the Golub-Kahan-Lanczos run for one operator on
flattened vectors with the stop test at every step, the reference of the
lockstep run's test at even steps: the same norm, and a step count one
less or the same.
ascent_norm is the p-ascent one restart and one vector at a time, the
reference of the lockstep ascent behind weighted_operator_norm and
commutator_norms at p != 2.  qt_neumann is the closed-form
kernel of the Neumann qt operator, from the free kernel by reflection.

Two independent oracles of the Neumann/Dirichlet reflection path:
sided_kernel_sums, the midpoint-rule sums of the same-side kernel built from
the kernel formulas one row at a time (the quadrature backend), and
reflected_spectral_oracle, the DCT/DST diagonalization of the even or odd
extension (the Fourier backend).  extension_map runs the Fourier free map
through the quadrature backend's reflection (_sided_map) on each side's
doubled even or odd extension, the path that the half-length transforms
replaced; extend_odd is the odd extension of a grid function.
check_kernel_smoothness samples the size and smoothness bounds of a kernel.
"""

import numpy as np
from scipy.fft import dct, dst, idct, idst
from scipy.sparse.linalg import LinearOperator, svds
from tree_oracles import mask

from wharm.errors import DomainError, ParameterError
from wharm.grid import FULL, GridFunction, extensions, weight_cells
from wharm.kernels import (
    HEAT_FAMILIES,
    RIESZ_FAMILIES,
    KernelSpec,
    eval_kernel,
    heaviside_same_side,
    qt_free,
    reflect_point,
    riesz_free,
    riesz_normalization,
)
from wharm.operators import _RITZ_TOL, FOURIER, OperatorHandle, _free_operator, _operator_maps, _sided_map


def qt_op(family, t, backend=FOURIER):
    """The handle of t^2 L e^{-t^2 L} for the family's Laplacian."""
    return OperatorHandle("qt", family, t=t, backend=backend)


def phi_op(t, beta=0):
    """The handle of the free phi multiplier s^{1+beta} e^{-s^2/2}, s = t |xi|."""
    return OperatorHandle("phi", t=t, beta=beta)


def qt_neumann(x, y, t, n):
    """Kernel of t^2 L e^{-t^2 L} for the reflection Neumann Laplacian."""
    return heaviside_same_side(x, y) * (
        qt_free(x, y, t, n) + qt_free(x, reflect_point(y), t, n)
    )


def sided_kernel_row(kind, family, x, ys, t=None, j=None):
    """Same-side kernel K_N or K_D of one row x against the points ys, built
    from the kernel formulas alone: the free summand plus or minus the
    reflected one, the free Riesz diagonal left out (its principal value)."""
    n = ys.shape[-1]
    sign = 1.0 if family == "neumann" else -1.0
    if kind == "semigroup":
        return eval_kernel(KernelSpec(f"heat-{family}", n, t=t), x, ys)
    if kind == "qt":
        if family == "neumann":
            return qt_neumann(x, ys, t, n)
        return heaviside_same_side(x, ys) * (qt_free(x, ys, t, n) - qt_free(x, reflect_point(ys), t, n))
    row = np.zeros(len(ys))
    same = heaviside_same_side(x, ys) > 0
    off = same & np.any(ys != x, axis=-1)
    row[off] = riesz_free(x, ys[off], j, n)
    row[same] += sign * riesz_free(x, reflect_point(ys[same]), j, n)
    return row


def sided_kernel_sums(kind, family, f, t=None, j=None):
    """The midpoint-rule sums of the same-side kernel over f's cells, one
    row x at a time: the independent oracle of the reflection path."""
    g = f.grid
    ys = g.points().reshape(-1, g.dim)
    weighted = f.values.reshape(-1) * g.cell_volume
    return np.array([sided_kernel_row(kind, family, x, ys, t, j) @ weighted for x in ys]).reshape(g.shape)


def reflected_spectral_oracle(kind, family, f, t=None, j=None):
    """The Fourier backend's Neumann/Dirichlet operator on an upper half grid
    by an independent spectral route: the even (odd) extension across
    x_n = 0 is diagonalized by the DCT-II (DST-II) along x_n, with
    frequencies pi k / (M h), k = 0..M-1 (k = 1..M); tangential axes keep
    the FFT."""
    g = f.grid
    N, M, h = g.points_per_axis, g.shape[-1], g.h
    neumann = family == "neumann"
    forward, inverse, inverse_normal = (dct, idct, idst) if neumann else (dst, idst, idct)
    k = np.arange(M) if neumann else np.arange(1, M + 1)
    xi_n = np.pi * k / (M * h)
    coef = forward(f.values, type=2, axis=-1)
    xi_t = None
    if g.dim == 2:
        coef = np.fft.fft(coef, axis=0)
        xi_t = (2.0 * np.pi * np.fft.fftfreq(N, d=h))[:, None]
        xi2 = xi_t ** 2 + xi_n[None, :] ** 2
    else:
        xi2 = xi_n ** 2
    mag = np.sqrt(np.where(xi2 > 0, xi2, 1.0))
    if kind == "semigroup":
        m = np.exp(-t * xi2)
    elif kind == "qt":
        m = t ** 2 * xi2 * np.exp(-(t ** 2) * xi2)
    elif j < g.dim:
        # tangential Riesz: multiplier i xi_j/|xi|, its Nyquist row zeroed
        m = np.where(xi2 > 0, 1j * xi_t / mag, 0.0)
        m[N // 2] = 0.0
    else:
        # normal Riesz: i xi_n/|xi| takes cos(xi_n x_n) to -sin and sin to
        # cos, so the DCT coefficient of frequency k becomes a DST one and
        # back; the Nyquist frequency pi/h is dropped
        ratio = np.where(xi2 > 0, xi_n / mag, 0.0)
        out = np.zeros_like(coef)
        if neumann:
            out[..., :-1] = -(ratio * coef)[..., 1:]
        else:
            out[..., 1:] = (ratio * coef)[..., :-1]
        if g.dim == 2:
            out = np.fft.ifft(out, axis=0).real
        return inverse_normal(out, type=2, axis=-1)
    coef = coef * m
    if g.dim == 2:
        coef = np.fft.ifft(coef, axis=0).real
    return inverse(coef, type=2, axis=-1)


def linear_operator(op, grid) -> LinearOperator:
    """op on flattened value vectors of grid, with the exact transpose as rmatvec."""
    forward, transpose = _operator_maps(op, grid)
    shape = grid.shape
    npts = int(np.prod(shape))

    def product(fn):
        return lambda x: fn(np.reshape(x, shape)).reshape(-1)

    return LinearOperator((npts, npts), matvec=product(forward), rmatvec=product(transpose), dtype=float)


def svds_norm(op, grid, mu=None, lam=None, seed: int = 0) -> float:
    """ARPACK's largest singular value of op weighted from L^2_mu to L^2_lam."""
    M = linear_operator(op, grid)
    sqrt_lam = np.sqrt(weight_cells(lam, grid)).reshape(-1)
    inv_sqrt_mu = 1.0 / np.sqrt(weight_cells(mu, grid)).reshape(-1)
    A = LinearOperator(
        M.shape,
        matvec=lambda x: sqrt_lam * M.matvec(inv_sqrt_mu * x.reshape(-1)),
        rmatvec=lambda y: inv_sqrt_mu * M.rmatvec(sqrt_lam * y.reshape(-1)),
        dtype=float,
    )
    v0 = np.random.default_rng(seed).standard_normal(M.shape[1])
    return float(svds(A, k=1, tol=0, v0=v0, return_singular_vectors=False)[0])


def every_step_norm(op, grid, mu=None, lam=None, seed: int = 0):
    """(sigma, steps): the top singular value of op weighted from L^2_mu to
    L^2_lam by Golub-Kahan-Lanczos bidiagonalization from the lockstep run's
    start vector, one vector at a time, and its number of steps.  Both new
    basis vectors are reorthogonalized (Gram-Schmidt, twice), and after
    every step k the top triple (s, p, q) of the k x k bidiagonal B_k is
    tested: the run stops once beta_k |e_k^T p| <= _RITZ_TOL s, or at k = n."""
    M = linear_operator(op, grid)
    n = M.shape[0]
    sqrt_lam = np.sqrt(weight_cells(lam, grid)).reshape(-1)
    inv_sqrt_mu = 1.0 / np.sqrt(weight_cells(mu, grid)).reshape(-1)
    v = np.random.default_rng(seed).standard_normal(n)
    U, V, alpha, beta = [], [v / np.linalg.norm(v)], [], []

    def orthogonal(x, basis):
        B = np.array(basis)
        for _ in range(2):
            x = x - B.T @ (B @ x)
        return x

    for k in range(1, n + 1):
        p = sqrt_lam * M.matvec(inv_sqrt_mu * V[-1]) - (beta[-1] * U[-1] if U else 0.0)
        p = orthogonal(p, U) if U else p
        alpha.append(np.linalg.norm(p))
        U.append(p / alpha[-1] if alpha[-1] > 0 else p)
        q = orthogonal(inv_sqrt_mu * M.rmatvec(sqrt_lam * U[-1]) - alpha[-1] * V[-1], V)
        beta.append(np.linalg.norm(q))
        V.append(q / beta[-1] if beta[-1] > 0 else q)
        P, s, _ = np.linalg.svd(np.diag(alpha) + np.diag(beta[:-1], 1))
        if beta[-1] * abs(P[-1, 0]) <= _RITZ_TOL * s[0]:
            break
    return float(s[0]), k


def sparse_operator_matrix(coll, grid) -> np.ndarray:
    """Dense matrix of the sparse operator A_S on value vectors."""
    lat = coll.lattice
    npts = int(np.prod(grid.shape))
    M = np.zeros((npts, npts))
    for q in coll.cubes:
        idx = np.nonzero(mask(lat, q).reshape(-1))[0]
        M[np.ix_(idx, idx)] += 1.0 / len(idx)
    return M


def dense_weighted_norm(M: np.ndarray, mu=None, lam=None) -> float:
    """The largest singular value of diag(lam)^{1/2} M diag(mu)^{-1/2}, by a
    dense SVD of the matrix M on flattened values; mu and lam are None (the
    unit weight) or weights with their cells in any shape."""
    def flat(w):
        return np.ones(M.shape[1]) if w is None else np.ravel(getattr(w, "values", w))

    sqrt_lam = np.sqrt(flat(lam))
    inv_sqrt_mu = 1.0 / np.sqrt(flat(mu))
    return float(np.linalg.svd(sqrt_lam[:, None] * M * inv_sqrt_mu[None, :], compute_uv=False)[0])


def ascent_norm(op, grid, mu=None, lam=None, p: float = 2.0, seed: int = 0, restarts: int = 10,
                max_iter: int = 500, tol: float = 1e-8):
    """L^p_mu -> L^p_lam lower bound of op and its certificate by Boyd's power
    method, one restart after another on flattened value vectors."""
    M = linear_operator(op, grid)
    npts = M.shape[0]
    mu, lam = weight_cells(mu, grid).reshape(-1), weight_cells(lam, grid).reshape(-1)

    def weighted_norm(values, w):
        return float(np.sum(np.abs(values) ** p * w) ** (1.0 / p))

    rng = np.random.default_rng(seed)
    q = 1.0 / (p - 1.0)
    best = 0.0
    best_info = None
    for r in range(restarts):
        f = rng.standard_normal(npts)
        f /= weighted_norm(f, mu)
        prev = -1.0
        converged = False
        it = 0
        for it in range(max_iter):
            g = M.matvec(f)
            ratio = weighted_norm(g, lam)
            if prev >= 0 and abs(ratio - prev) <= tol * max(ratio, 1e-300):
                converged = True
                break
            prev = ratio
            z = M.rmatvec(lam * np.abs(g) ** (p - 1.0) * np.sign(g))
            if not np.any(z):
                break
            f = np.sign(z) * (np.abs(z) / mu) ** q
            f /= weighted_norm(f, mu)
        if prev > best:
            best = prev
            best_info = {"restart": r, "iterations": it + 1, "converged": converged}
    cert = {"method": "ascent", "restarts": restarts, "tol": tol, "seed": seed}
    cert.update(best_info or {})
    return best, cert


def extend_odd(f: GridFunction) -> GridFunction:
    """Odd extension g of a half-space function, g(x~) = -g(x)."""
    if f.grid.domain == FULL:
        raise DomainError("extension expects a half-space grid function")
    return GridFunction(f.grid.with_domain(FULL), extensions(f.values, f.grid, -1.0)[0])


def extension_map(op, grid, sign: float, ts=None):
    """The Fourier Neumann (sign 1) or Dirichlet (sign -1) map of op on grid
    by extension: the reflection (_sided_map) of op's full-length Fourier free
    map, which extends each side's values evenly or oddly across x_n = 0,
    maps them and reads each side's own half back; with ts the scale axis
    passes through.  For R_n the adjoint map M* is this map with -sign."""
    free = _free_operator(OperatorHandle(op.kind, "free", t=op.t, j=op.j, beta=op.beta), grid.with_domain(FULL), ts)
    return _sided_map(free, sign, grid)


def check_kernel_smoothness(spec: KernelSpec, samples: int, rng_seed: int, halfwidth: float = 1.0) -> dict:
    """Sample-based verification of the size/smoothness bounds.

    Same-side triples x, x', y with |x - x'| <= |x - y|/2; reports the
    largest constant observed for each bound shape.
    """
    if samples <= 0:
        raise ParameterError("samples must be positive")
    rng = np.random.default_rng(rng_seed)
    n = spec.dim
    L = halfwidth

    def sample_same_side(count):
        x = rng.uniform(-L, L, size=(count, n))
        x[:, -1] = rng.uniform(0.05 * L, L, size=count)  # keep off the boundary
        y = np.array(x)
        y[:, :] = rng.uniform(-L, L, size=(count, n))
        y[:, -1] = rng.uniform(0.05 * L, L, size=count)
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        step = rng.uniform(0.05, 0.5, size=(count, 1)) * (r / 2.0)[:, None]
        direction = rng.standard_normal((count, n))
        direction /= np.linalg.norm(direction, axis=-1, keepdims=True)
        xp = x + step * direction
        xp[:, -1] = np.abs(xp[:, -1]) + 1e-12  # stay on the same side
        return x, xp, y

    report = {"family": spec.family, "dim": n, "samples": samples}
    if spec.family in HEAT_FAMILIES:
        ts = rng.uniform(0.01, 1.0, size=samples)
        x, xp, y = sample_same_side(samples)
        k1 = np.array([eval_kernel(KernelSpec(spec.family, n, t=t), xi, yi) for t, xi, yi in zip(ts, x, y)])
        k2 = np.array([eval_kernel(KernelSpec(spec.family, n, t=t), xi, yi) for t, xi, yi in zip(ts, xp, y)])
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        dxx = np.sqrt(np.sum((x - xp) ** 2, axis=-1))
        st = np.sqrt(ts)
        bound = dxx / (st + r) * st / (st + r) ** (n + 1)
        report["smoothness_constant"] = float(np.max(np.abs(k1 - k2) / bound))
        c = 0.2  # any c < 1/4 works for the Gaussian bound
        size = np.abs(k1) * ts ** (n / 2.0) * np.exp(c * r ** 2 / ts)
        report["gaussian_size_constant"] = float(np.max(size))
        report["gaussian_decay_rate"] = c
    elif spec.family in RIESZ_FAMILIES:
        x, xp, y = sample_same_side(samples)
        kj = eval_kernel(spec, x, y)
        kjp = eval_kernel(spec, xp, y)
        r = np.sqrt(np.sum((x - y) ** 2, axis=-1))
        dxx = np.sqrt(np.sum((x - xp) ** 2, axis=-1))
        report["size_constant"] = float(np.max(np.abs(kj) * r ** n))
        report["size_constant_over_Cn"] = report["size_constant"] / riesz_normalization(n)
        report["smoothness_constant"] = float(np.max(np.abs(kj - kjp) / (dxx / r ** (n + 1))))
    else:
        raise ParameterError(f"no smoothness scan for family {spec.family!r}")
    return report
