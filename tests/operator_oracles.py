"""scipy oracles for the matrix-free operators and norms of wharm.operators.

linear_operator wraps an operator handle's exact (forward, transpose) maps as
a scipy LinearOperator on flattened value vectors, and svds_norm takes the top
singular value of diag(lam)^{1/2} M diag(mu)^{-1/2} with ARPACK (svds, tol 0),
an iteration independent of the lockstep Golub-Kahan run the library uses.
dense_weighted_norm is the same norm of a dense matrix by a full SVD, for
the operators that have no handle (the sparse operators A_S, whose dense
matrix is sparse_operator_matrix).
ascent_norm is the p-ascent one restart and one vector at a time, the
reference of the lockstep ascent behind weighted_operator_norm's "ascent"
method and commutator_norms at p != 2.  qt_neumann is the closed-form
kernel of the Neumann qt operator, from the free kernel by reflection.
"""

import numpy as np
from scipy.sparse.linalg import LinearOperator, svds

from wharm.kernels import heaviside_same_side, qt_free, reflect_point
from wharm.operators import FOURIER, OperatorHandle, _as_weight_array, _operator_maps


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
    sqrt_lam = np.sqrt(_as_weight_array(lam, grid.shape))
    inv_sqrt_mu = 1.0 / np.sqrt(_as_weight_array(mu, grid.shape))
    A = LinearOperator(
        M.shape,
        matvec=lambda x: sqrt_lam * M.matvec(inv_sqrt_mu * x.reshape(-1)),
        rmatvec=lambda y: inv_sqrt_mu * M.rmatvec(sqrt_lam * y.reshape(-1)),
        dtype=float,
    )
    v0 = np.random.default_rng(seed).standard_normal(M.shape[1])
    return float(svds(A, k=1, tol=0, v0=v0, return_singular_vectors=False)[0])


def sparse_operator_matrix(coll, grid) -> np.ndarray:
    """Dense matrix of the sparse operator A_S on value vectors."""
    lat = coll.lattice
    npts = int(np.prod(grid.shape))
    M = np.zeros((npts, npts))
    for q in coll.cubes:
        idx = np.nonzero(lat.mask(q).reshape(-1))[0]
        M[np.ix_(idx, idx)] += 1.0 / len(idx)
    return M


def dense_weighted_norm(M: np.ndarray, mu=None, lam=None) -> float:
    """The largest singular value of diag(lam)^{1/2} M diag(mu)^{-1/2}, by a
    dense SVD of the matrix M on flattened values."""
    shape = (M.shape[1],)
    sqrt_lam = np.sqrt(_as_weight_array(lam, shape))
    inv_sqrt_mu = 1.0 / np.sqrt(_as_weight_array(mu, shape))
    return float(np.linalg.svd(sqrt_lam[:, None] * M * inv_sqrt_mu[None, :], compute_uv=False)[0])


def ascent_norm(op, grid, mu=None, lam=None, p: float = 2.0, seed: int = 0, restarts: int = 10,
                max_iter: int = 500, tol: float = 1e-8):
    """L^p_mu -> L^p_lam lower bound of op and its certificate by Boyd's power
    method, one restart after another on flattened value vectors."""
    M = linear_operator(op, grid)
    npts = M.shape[0]
    mu, lam = _as_weight_array(mu, grid.shape), _as_weight_array(lam, grid.shape)

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
