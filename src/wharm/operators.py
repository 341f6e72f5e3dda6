"""Discretized operators on grid functions: heat semigroups, the vertical
generator t^2 L e^{-t^2 L}, the reproducing multiplier psi(t sqrt(L)),
Riesz transforms, commutators, and weighted operator norms.

Every free-Laplacian operator is one map on full-grid value arrays
(_free_operator), in one of two backends:

* "fourier": the box is treated as a torus and the operator is a diagonal
  Fourier multiplier (exp(-t|xi|^2), t^2|xi|^2 exp(-t^2|xi|^2), psi(t|xi|),
  i xi_j/|xi|).
* "quadrature": plain midpoint-rule kernel sums over the box, a direct
  convolution with the free kernel of kernels.py tabulated at every cell
  offset.  The singular diagonal cell of a Riesz kernel is 0 in the table
  (its principal-value contribution vanishes at leading order by odd
  symmetry).  psi is the periodized cell-averaged stencil instead.

The Neumann and Dirichlet families take one path on both backends
(_reflected_apply): each side's values are extended evenly (Neumann) or
oddly (Dirichlet) across x_n = 0, the free map is applied once, and the
result is read back on that side.  For the midpoint rule this is exactly
the same-side kernel sum
    sum_{y on x's side} [K(x - y) +- K(x - y~)] f(y),
with the finite reflected summand at y = x kept: it is the x~ cell of the
extension, and only the free diagonal cell is dropped.

The Riesz sign follows the kernel convention in kernels.py: in n = 1 the
free transform has kernel -(1/pi)/(x - y), i.e. multiplier +i sign(xi), the
negative of the textbook Hilbert transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve

from .errors import BackendError, DomainError, ParameterError, SizeError
from .grid import FULL, UPPER, Grid, GridFunction
from .kernels import KernelSpec, eval_kernel, psi_multiplier, psi_stencil

DENSE_POINT_CAP = 4096

FOURIER = "fourier"
QUADRATURE = "quadrature"


@dataclass(frozen=True)
class OperatorHandle:
    """Selector for one operator.

    kind: identity | semigroup | qt | psi | phi | riesz | commutator
    family: free | neumann | dirichlet (for semigroup/qt/riesz)
    t: time/scale parameter; j: Riesz component; beta: phi moment order
    b: symbol of a commutator; inner: the commuted handle (a Riesz one).
    """

    kind: str
    family: str = "free"
    t: float = None
    j: int = None
    beta: int = 0
    backend: str = FOURIER
    b: object = None
    inner: object = None

    def __post_init__(self):
        if self.kind in ("semigroup", "qt", "psi", "phi") and (self.t is None or self.t <= 0):
            raise ParameterError(f"{self.kind} needs t > 0")
        if self.kind == "riesz" and self.j is None:
            raise ParameterError("riesz needs a component index j")
        if self.kind == "commutator" and (self.b is None or self.inner is None):
            raise ParameterError("commutator needs b and an inner handle")
        if self.kind == "commutator" and self.inner.kind != "riesz":
            raise ParameterError("commutator inner handle must be a Riesz transform")
        if self.backend not in (FOURIER, QUADRATURE):
            raise BackendError(f"unknown backend {self.backend!r}")
        if self.kind in ("psi", "phi") and self.family != "free":
            raise BackendError(f"{self.kind} is only wired for the free Laplacian")


def semigroup(family, t, backend=FOURIER):
    return OperatorHandle("semigroup", family, t=t, backend=backend)


def qt_op(family, t, backend=FOURIER):
    return OperatorHandle("qt", family, t=t, backend=backend)


def psi_op(t, backend=FOURIER):
    return OperatorHandle("psi", t=t, backend=backend)


def phi_op(t, beta=0):
    return OperatorHandle("phi", t=t, beta=beta)


def riesz(family, j, backend=FOURIER):
    return OperatorHandle("riesz", family, j=j, backend=backend)


def commutator(b: GridFunction, inner: OperatorHandle):
    return OperatorHandle("commutator", b=b, inner=inner)


# ---------------------------------------------------------------------------
# free operators and the reflection path

def _xi_grids(grid: Grid):
    N, h = grid.points_per_axis, grid.h
    xi = 2.0 * np.pi * np.fft.fftfreq(N, d=h)
    mesh = np.meshgrid(*([xi] * grid.dim), indexing="ij")
    return mesh


def _free_multiplier(op: OperatorHandle, grid: Grid):
    mesh = _xi_grids(grid)
    xi2 = sum(m ** 2 for m in mesh)
    if op.kind == "semigroup":
        return np.exp(-op.t * xi2)
    if op.kind == "qt":
        return op.t ** 2 * xi2 * np.exp(-op.t ** 2 * xi2)
    if op.kind == "psi":
        return psi_multiplier(op.t * np.sqrt(xi2))
    if op.kind == "phi":
        s = op.t * np.sqrt(xi2)
        return s ** (1 + op.beta) * np.exp(-(s ** 2) / 2.0)
    if op.kind == "riesz":
        mag = np.sqrt(xi2)
        mag[mag == 0] = 1.0
        m = 1j * mesh[op.j - 1] / mag
        m[xi2 == 0] = 0.0
        # zero the Nyquist plane of the active axis so the odd multiplier
        # keeps real data real
        N = grid.points_per_axis
        idx = [slice(None)] * grid.dim
        idx[op.j - 1] = N // 2
        m[tuple(idx)] = 0.0
        return m
    raise BackendError(f"no multiplier for kind {op.kind!r}")


def _kernel_table(op: OperatorHandle, grid: Grid) -> np.ndarray:
    """Free kernel at every cell offset of the box, shape (2N-1,)*n.

    The diagonal cell of a Riesz kernel stays 0, its principal value.
    """
    family = {"semigroup": "heat-free", "qt": "qt", "riesz": "riesz-free"}.get(op.kind)
    if family is None:
        raise BackendError(f"no quadrature rule for kind {op.kind!r}")
    N, n = grid.points_per_axis, grid.dim
    axis = np.arange(-(N - 1), N) * grid.h
    offsets = np.stack(np.meshgrid(*([axis] * n), indexing="ij"), axis=-1)
    table = np.zeros(offsets.shape[:-1])
    # every cell but the singular diagonal one of a Riesz kernel
    finite = np.any(offsets != 0, axis=-1) | (op.kind != "riesz")
    spec = KernelSpec(family, n, t=op.t, j=op.j)
    table[finite] = eval_kernel(spec, offsets[finite], np.zeros(n))
    return table


def _free_operator(op: OperatorHandle, grid: Grid):
    """The free-Laplacian operator of op's kind as a map on full-grid value arrays.

    The multiplier or kernel table is built once, here.
    """
    if op.backend == FOURIER:
        m = _free_multiplier(op, grid)
        return lambda v: np.fft.ifftn(np.fft.fftn(v) * m).real
    if op.kind == "psi":
        if grid.dim != 1:
            raise BackendError("the psi quadrature stencil is implemented in n = 1 only")
        h = grid.h
        # circular convolution with the periodized cell-averaged kernel: keeps
        # the compact support (mod the box) and the exact zero total mass,
        # and stays consistent with the periodic Fourier model
        st = psi_stencil(op.t, h)
        r = (len(st) - 1) // 2
        N = grid.points_per_axis
        kper = np.zeros(N)
        np.add.at(kper, np.arange(-r, r + 1) % N, st)
        kf = np.fft.fft(kper)
        return lambda v: np.real(np.fft.ifft(np.fft.fft(v) * kf)) * h
    # box-clipped midpoint sums, kept direct as an independent slow reference
    table = _kernel_table(op, grid)
    return lambda v: convolve(v, table, mode="same", method="direct") * grid.cell_volume


def _reflected_apply(op: OperatorHandle, f: GridFunction) -> GridFunction:
    """Neumann/Dirichlet action: on each side, the free operator applied to the
    even/odd extension of that side's values, read back on that side."""
    g = f.grid
    sign = 1.0 if op.family == "neumann" else -1.0
    free = _free_operator(op, g.with_domain(FULL))
    half = g.points_per_axis // 2

    def one_side(v, upper):
        mirror = sign * np.flip(v, axis=-1)
        out = free(np.concatenate([mirror, v] if upper else [v, mirror], axis=-1))
        return out[..., half:] if upper else out[..., :half]

    if g.domain != FULL:
        return GridFunction(g, one_side(f.values, g.domain == UPPER))
    lower, upper = f.values[..., :half], f.values[..., half:]
    return GridFunction(g, np.concatenate([one_side(lower, False), one_side(upper, True)], axis=-1))


def apply(op: OperatorHandle, f: GridFunction) -> GridFunction:
    """Apply a discretized operator to a grid function."""
    if op.kind == "identity":
        return f.copy()
    if op.kind == "commutator":
        b = op.b
        if b.grid.shape != f.grid.shape:
            raise DomainError("commutator symbol and argument live on different grids")
        bf = GridFunction(f.grid, b.values * f.values)
        return GridFunction(
            f.grid, b.values * apply(op.inner, f).values - apply(op.inner, bf).values
        )
    if op.family == "free":
        if f.grid.domain != FULL:
            raise BackendError("free-Laplacian operators act on full-space data")
        return GridFunction(f.grid, _free_operator(op, f.grid)(f.values))
    if op.family in ("neumann", "dirichlet"):
        if op.family == "dirichlet" and f.grid.domain == FULL:
            raise DomainError("the Dirichlet Laplacian lives on a half-space")
        return _reflected_apply(op, f)
    raise BackendError(f"cannot dispatch {op}")


def commutator_apply(b: GridFunction, op: OperatorHandle, f: GridFunction) -> GridFunction:
    """b (op f) - op (b f)."""
    return apply(commutator(b, op), f)


# ---------------------------------------------------------------------------
# dense matrices and weighted operator norms

def assemble_matrix(op: OperatorHandle, grid: Grid) -> np.ndarray:
    """Dense matrix of the operator on value vectors (quadrature weights included)."""
    npts = int(np.prod(grid.shape))
    if npts > DENSE_POINT_CAP:
        raise SizeError(f"{npts} points exceed the dense cap {DENSE_POINT_CAP}")
    if op.kind == "identity":
        return np.eye(npts)
    if op.kind == "commutator":
        return commutator_matrix(op.b.values, assemble_matrix(op.inner, grid))
    cols = np.empty((npts, npts))
    basis = np.zeros(grid.shape)
    flat = basis.reshape(-1)
    for j in range(npts):
        flat[j] = 1.0
        cols[:, j] = apply(op, GridFunction(grid, basis)).values.reshape(-1)
        flat[j] = 0.0
    return cols


def commutator_matrix(b: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Dense matrix of [b, M] = b M - M b for the cell values b of a symbol."""
    bv = b.reshape(-1)
    return bv[:, None] * M - M * bv[None, :]


def _as_weight_array(w, shape):
    if w is None:
        return np.ones(int(np.prod(shape)))
    arr = getattr(w, "array", None)
    if arr is None:
        arr = w.values if isinstance(w, GridFunction) else np.asarray(w, dtype=float)
    return np.asarray(arr, dtype=float).reshape(-1)


def weighted_norm(values: np.ndarray, w: np.ndarray, p: float) -> float:
    return float(np.sum(np.abs(values) ** p * w) ** (1.0 / p))


def weighted_operator_norm(
    op,
    grid: Grid,
    mu=None,
    lam=None,
    p: float = 2.0,
    method: str = "svd",
    seed: int = 0,
    restarts: int = 10,
    max_iter: int = 500,
    tol: float = 1e-8,
):
    """Discrete L^p_mu -> L^p_lam operator norm with a certificate.

    method "svd" (p = 2 only): exact largest singular value of
    diag(lam)^{1/2} M diag(mu)^{-1/2}.  method "ascent": normalized
    fixed-point iteration on the p-duality map with random restarts; the
    value returned is a certified lower bound on the discrete norm.
    """
    M = op if isinstance(op, np.ndarray) else assemble_matrix(op, grid)
    mu = _as_weight_array(mu, grid.shape)
    lam = _as_weight_array(lam, grid.shape)
    if method == "svd":
        if p != 2.0:
            raise ParameterError("SvdExact requires p = 2")
        A = np.sqrt(lam)[:, None] * M * (1.0 / np.sqrt(mu))[None, :]
        sigma = float(np.linalg.svd(A, compute_uv=False)[0])
        return sigma, {"method": "svd", "size": M.shape[0]}
    if method != "ascent":
        raise ParameterError(f"unknown method {method!r}")
    rng = np.random.default_rng(seed)
    q = 1.0 / (p - 1.0)
    best = 0.0
    best_info = None
    for r in range(restarts):
        f = rng.standard_normal(M.shape[1])
        f /= weighted_norm(f, mu, p)
        prev = -1.0
        converged = False
        it = 0
        for it in range(max_iter):
            g = M @ f
            ratio = weighted_norm(g, lam, p)
            if prev >= 0 and abs(ratio - prev) <= tol * max(ratio, 1e-300):
                converged = True
                break
            prev = ratio
            z = M.T @ (lam * np.abs(g) ** (p - 1.0) * np.sign(g))
            if not np.any(z):
                break
            f = np.sign(z) * (np.abs(z) / mu) ** q
            f /= weighted_norm(f, mu, p)
        if prev > best:
            best = prev
            best_info = {"restart": r, "iterations": it + 1, "converged": converged}
    cert = {"method": "ascent", "restarts": restarts, "tol": tol, "seed": seed}
    cert.update(best_info or {})
    return best, cert
