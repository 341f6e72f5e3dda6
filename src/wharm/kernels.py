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
