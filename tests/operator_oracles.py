"""scipy oracles for the matrix-free operators and norms of wharm.operators.

linear_operator wraps an operator handle's exact (forward, transpose) maps as
a scipy LinearOperator on flattened value vectors, and svds_norm takes the top
singular value of diag(lam)^{1/2} M diag(mu)^{-1/2} with ARPACK (svds, tol 0),
an iteration independent of the lockstep Golub-Kahan run the library uses.
dense_weighted_norm is the same norm of a dense matrix by a full SVD, for
the operators that have no handle (the sparse operators A_S).
"""

import numpy as np
from scipy.sparse.linalg import LinearOperator, svds

from wharm.operators import _as_weight_array, _operator_maps


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


def dense_weighted_norm(M: np.ndarray, mu=None, lam=None) -> float:
    """The largest singular value of diag(lam)^{1/2} M diag(mu)^{-1/2}, by a
    dense SVD of the matrix M on flattened values."""
    shape = (M.shape[1],)
    sqrt_lam = np.sqrt(_as_weight_array(lam, shape))
    inv_sqrt_mu = 1.0 / np.sqrt(_as_weight_array(mu, shape))
    return float(np.linalg.svd(sqrt_lam[:, None] * M * inv_sqrt_mu[None, :], compute_uv=False)[0])
