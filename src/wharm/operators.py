"""Discretized operators on grid functions: heat semigroups, the vertical
generator t^2 L e^{-t^2 L}, the reproducing multiplier psi(t sqrt(L)),
Riesz transforms, commutators, and weighted operator norms.

Two backends:

* "fourier": the box is treated as a torus and free-Laplacian operators act
  as diagonal Fourier multipliers (exp(-t|xi|^2), t^2|xi|^2 exp(-t^2|xi|^2),
  psi(t|xi|), i xi_j/|xi|).  Half-space families route through the canonical
  even/odd extension of the data and a free core.
* "quadrature": plain midpoint-rule kernel sums over the box.  The singular
  diagonal cell of a Riesz kernel is omitted (its principal-value
  contribution vanishes at leading order by odd symmetry); the finite
  reflected summand of a Neumann/Dirichlet kernel at the diagonal is kept.

The Riesz sign follows the kernel convention in kernels.py: in n = 1 the
free transform has kernel -(1/pi)/(x - y), i.e. multiplier +i sign(xi), the
negative of the textbook Hilbert transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BackendError, DomainError, ParameterError, SizeError
from .grid import FULL, LOWER, UPPER, Grid, GridFunction, extend_even, extend_odd, join_sides, restrict
from .kernels import KernelSpec, eval_kernel, psi_multiplier, psi_stencil, riesz_normalization

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
# Fourier-multiplier backend (periodic box)

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


def _fourier_free_apply(op: OperatorHandle, f: GridFunction) -> GridFunction:
    if f.grid.domain != FULL:
        raise BackendError("the Fourier backend acts on full-space data")
    m = _free_multiplier(op, f.grid)
    out = np.fft.ifftn(np.fft.fftn(f.values) * m)
    return GridFunction(f.grid, out.real)


# ---------------------------------------------------------------------------
# quadrature backend

def _chunked_kernel_apply(kfunc, xs, ys, vals, cellvol, chunk=1024):
    out = np.empty(xs.shape[0])
    weighted = vals * cellvol
    for start in range(0, xs.shape[0], chunk):
        block = kfunc(xs[start:start + chunk, None, :], ys[None, :, :])
        out[start:start + chunk] = block @ weighted
    return out


def _grid_points_flat(grid: Grid):
    return grid.points().reshape(-1, grid.dim)


def _quad_free_apply(op: OperatorHandle, f: GridFunction) -> GridFunction:
    g = f.grid
    if g.domain != FULL:
        raise DomainError("free-Laplacian quadrature expects full-space data")
    pts = _grid_points_flat(g)
    n = g.dim
    if op.kind == "semigroup":
        spec = KernelSpec("heat-free", n, t=op.t)

        def kf(x, y):
            return eval_kernel(spec, x, y)
    elif op.kind == "qt":
        spec = KernelSpec("qt", n, t=op.t)

        def kf(x, y):
            return eval_kernel(spec, x, y)
    elif op.kind == "psi":
        if n != 1:
            raise BackendError("the psi quadrature stencil is implemented in n = 1 only")
        # circular convolution with the periodized cell-averaged kernel: keeps
        # the compact support (mod the box) and the exact zero total mass,
        # and stays consistent with the periodic Fourier model
        st = psi_stencil(op.t, g.h)
        r = (len(st) - 1) // 2
        N = g.points_per_axis
        kper = np.zeros(N)
        np.add.at(kper, np.arange(-r, r + 1) % N, st)
        out = np.real(np.fft.ifft(np.fft.fft(f.values) * np.fft.fft(kper))) * g.h
        return GridFunction(g, out)
    elif op.kind == "riesz":
        cn = riesz_normalization(n)

        def kf(x, y):
            d2 = np.sum((x - y) ** 2, axis=-1)
            safe = np.where(d2 == 0, 1.0, d2)
            val = -cn * (x[..., op.j - 1] - y[..., op.j - 1]) * safe ** (-(n + 1) / 2.0)
            return np.where(d2 == 0, 0.0, val)
    else:
        raise BackendError(f"no quadrature rule for kind {op.kind!r}")
    out = _chunked_kernel_apply(kf, pts, pts, f.values.reshape(-1), g.cell_volume)
    return GridFunction(g, out.reshape(g.shape))


def _quad_sided_apply(op: OperatorHandle, f: GridFunction) -> GridFunction:
    """Direct same-side kernel sums for the Neumann/Dirichlet families.

    The reflected summand is kept at the diagonal; only the singular free
    part of a Riesz kernel is omitted there.
    """
    g = f.grid
    sign = 1.0 if op.family == "neumann" else -1.0
    if g.domain == FULL:
        # each side's sums, extended to the full grid so join_sides can read its half
        up, lo = (extend_even(_quad_sided_apply(op, restrict(f, side))).values for side in (UPPER, LOWER))
        return GridFunction(g, join_sides(up, lo, g))
    pts = _grid_points_flat(g)
    refl = pts.copy()
    refl[:, -1] = -refl[:, -1]
    yr = refl[None, :, :]
    n = g.dim
    if op.kind == "semigroup":
        spec = KernelSpec("heat-free", n, t=op.t)

        def kf(x, y):
            return eval_kernel(spec, x, y) + sign * eval_kernel(spec, x, yr)
    elif op.kind == "qt":
        spec = KernelSpec("qt", n, t=op.t)

        def kf(x, y):
            return eval_kernel(spec, x, y) + sign * eval_kernel(spec, x, yr)
    elif op.kind == "riesz":
        cn = riesz_normalization(n)

        def kf(x, y):
            d = x - y
            d2 = np.sum(d ** 2, axis=-1)
            safe = np.where(d2 == 0, 1.0, d2)
            free = np.where(d2 == 0, 0.0, -cn * d[..., op.j - 1] * safe ** (-(n + 1) / 2.0))
            dr = x - yr
            dr2 = np.sum(dr ** 2, axis=-1)
            reflected = -cn * dr[..., op.j - 1] * dr2 ** (-(n + 1) / 2.0)
            return free + sign * reflected
    else:
        raise BackendError(f"no sided quadrature for kind {op.kind!r}")
    out = _chunked_kernel_apply(kf, pts, pts, f.values.reshape(-1), g.cell_volume)
    return GridFunction(g, out.reshape(g.shape))


# ---------------------------------------------------------------------------
# dispatch

def _extended_apply(op: OperatorHandle, f: GridFunction) -> GridFunction:
    """Neumann/Dirichlet action through the reflection identities."""
    ext = extend_even if op.family == "neumann" else extend_odd
    free = OperatorHandle(op.kind, "free", t=op.t, j=op.j, beta=op.beta, backend=op.backend)
    g = f.grid
    if g.domain != FULL:
        return restrict(apply(free, ext(f)), g.domain)
    up, lo = (apply(free, ext(restrict(f, side))).values for side in (UPPER, LOWER))
    return GridFunction(g, join_sides(up, lo, g))


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
        if op.backend == FOURIER:
            return _fourier_free_apply(op, f)
        return _quad_free_apply(op, f)
    if op.family in ("neumann", "dirichlet"):
        if op.family == "dirichlet" and f.grid.domain == FULL:
            raise DomainError("the Dirichlet Laplacian lives on a half-space")
        if op.backend == QUADRATURE:
            return _quad_sided_apply(op, f)
        return _extended_apply(op, f)
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
