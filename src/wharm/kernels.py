"""Closed-form kernels: heat kernels for the free/Neumann/Dirichlet Laplacians,
their Riesz kernels, the q_t generator of the vertical square function, and
the compactly supported reproducing multiplier psi.

Sign convention: the Riesz transform is d/dx_j applied to the inverse square
root of the positive Laplacian, so the free kernel is
    -C_n (x_j - y_j) / |x-y|^{n+1},      C_n = Gamma((n+1)/2) / pi^{(n+1)/2},
and its Fourier multiplier is +i xi_j / |xi|.

q_t is the kernel of t^2 L e^{-t^2 L} for the positive Laplacian L;
differentiating the Gaussian in its time parameter gives
    q_t(x,y) = (4 pi)^{-n/2} t^{-n} e^{-r^2/(4t^2)} (n/2 - r^2/(4t^2)),
locked below by a finite-difference test against the heat kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SingularityError

HEAT_FAMILIES = ("heat-free", "heat-neumann", "heat-dirichlet")
RIESZ_FAMILIES = ("riesz-free", "riesz-neumann", "riesz-dirichlet")


def riesz_normalization(n: int) -> float:
    """C_n = Gamma((n+1)/2) / pi^((n+1)/2)."""
    return math.gamma((n + 1) / 2.0) / math.pi ** ((n + 1) / 2.0)


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family selector; t for heat/qt families, j for Riesz components."""

    family: str
    dim: int
    t: float = None
    j: int = None

    def __post_init__(self):
        if self.family in HEAT_FAMILIES or self.family == "qt":
            if self.t is None or self.t <= 0:
                raise ParameterError(f"{self.family} needs t > 0")
        if self.family in RIESZ_FAMILIES:
            if self.j is None or not (1 <= self.j <= self.dim):
                raise ParameterError(f"{self.family} needs 1 <= j <= {self.dim}")
        if self.family not in HEAT_FAMILIES + RIESZ_FAMILIES + ("qt",):
            raise ParameterError(f"unknown kernel family {self.family!r}")


def reflect_point(pts):
    out = np.array(pts, dtype=float, copy=True)
    out[..., -1] = -out[..., -1]
    return out


def heaviside_same_side(x, y):
    """H(x_n y_n) with H(0) = 1; cell-centered grids never hit 0."""
    return np.where(x[..., -1] * y[..., -1] >= 0, 1.0, 0.0)


def heat_free(x, y, t, n):
    r2 = np.sum((np.asarray(x, float) - np.asarray(y, float)) ** 2, axis=-1)
    return (4.0 * math.pi * t) ** (-n / 2.0) * np.exp(-r2 / (4.0 * t))


def qt_free(x, y, t, n):
    r2 = np.sum((np.asarray(x, float) - np.asarray(y, float)) ** 2, axis=-1)
    u = r2 / (4.0 * t * t)
    return (4.0 * math.pi) ** (-n / 2.0) * t ** (-n) * np.exp(-u) * (n / 2.0 - u)


def riesz_free(x, y, j, n):
    d = np.asarray(x, float) - np.asarray(y, float)
    r2 = np.sum(d ** 2, axis=-1)
    if np.any(r2 == 0):
        raise SingularityError("Riesz kernel evaluated at x = y")
    return -riesz_normalization(n) * d[..., j - 1] * r2 ** (-(n + 1) / 2.0)


def eval_kernel(spec: KernelSpec, x, y):
    """Evaluate the kernel at point arrays of shape (..., dim)."""
    n = spec.dim
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if spec.family == "heat-free":
        return heat_free(x, y, spec.t, n)
    if spec.family == "qt":
        return qt_free(x, y, spec.t, n)
    if spec.family == "heat-neumann":
        return heaviside_same_side(x, y) * (
            heat_free(x, y, spec.t, n) + heat_free(x, reflect_point(y), spec.t, n)
        )
    if spec.family == "heat-dirichlet":
        return heaviside_same_side(x, y) * (
            heat_free(x, y, spec.t, n) - heat_free(x, reflect_point(y), spec.t, n)
        )
    if spec.family == "riesz-free":
        return riesz_free(x, y, spec.j, n)
    if spec.family in ("riesz-neumann", "riesz-dirichlet"):
        sign = 1.0 if spec.family == "riesz-neumann" else -1.0
        H = heaviside_same_side(x, y)
        # the reflected summand is finite for same-side pairs; mask the
        # opposite side before evaluating so no spurious singularity fires
        free = np.where(H > 0, riesz_free(x, y, spec.j, n), 0.0)
        refl = np.where(H > 0, riesz_free(x, reflect_point(y), spec.j, n), 0.0)
        return H * (free + sign * refl)
    raise ParameterError(spec.family)


def psi_multiplier(s):
    """psi(s) = (2 sin(s/2) - sin s) / s with the removable zero at s = 0.

    Series s^2/8 - s^4/128 is used below s = 1e-4.  psi is the Fourier
    profile of 1_{[-1/2,1/2]} - (1/2) 1_{[-1,1]}, so psi(t sqrt(L)) has
    kernel support in |x - y| <= t.
    """
    s = np.abs(np.asarray(s, dtype=float))
    small = s < 1e-4
    safe = np.where(small, 1.0, s)
    direct = (2.0 * np.sin(safe / 2.0) - np.sin(safe)) / safe
    series = s ** 2 / 8.0 - s ** 4 / 128.0
    out = np.where(small, series, direct)
    return out if out.shape else float(out)


def psi_stencil(t: float, h: float) -> np.ndarray:
    """Exact cell-averaged convolution stencil of the psi kernel in n = 1.

    The continuum kernel is g_t(u) = (1/t)(1_{|u|<=t/2} - 1/2 1_{|u|<=t});
    per-cell averages keep the compact support (radius t + h/2) and the
    exact zero total mass.
    """
    if t <= 0:
        raise ParameterError("t must be positive")
    radius = int(math.ceil((t + 0.5 * h) / h))
    edges = (np.arange(-radius, radius + 1)[:, None] + np.array([[-0.5, 0.5]])) * h

    def ramp(u, c):
        return np.clip(u, -c, c)

    ints = (ramp(edges, t / 2.0) - 0.5 * ramp(edges, t)) / t
    return (ints[:, 1] - ints[:, 0]) / h
