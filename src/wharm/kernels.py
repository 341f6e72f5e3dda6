"""Closed-form kernels of the free Laplacian: the heat kernel, the Riesz
kernels, the q_t generator of the vertical square function, and the
compactly supported reproducing multiplier psi.  The quadrature backend of
operators tabulates the free kernels; the Neumann and Dirichlet operators
reflect the free ones there, so no sided kernel lives here.

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

import numpy as np

from .errors import SingularityError
from .grid import Grid, scalar


def riesz_normalization(n: int) -> float:
    """C_n = Gamma((n+1)/2) / pi^((n+1)/2)."""
    return math.gamma((n + 1) / 2.0) / math.pi ** ((n + 1) / 2.0)


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


def psi_stencil(t: float, grid: Grid) -> np.ndarray:
    """Exact cell-averaged convolution stencil of the psi kernel in n = 1.

    The continuum kernel is g_t(u) = (1/t)(1_{|u|<=t/2} - 1/2 1_{|u|<=t});
    averages over grid's cells keep the compact support (radius t + h/2) and
    the exact zero total mass.  The stencil spans 2t/h cells, so t is read by
    grid.scalar at 0 < t <= 4L (twice the widest TimeGrid scale) first.
    """
    scalar("t", t, 0, 4.0 * grid.halfwidth, strict=True)
    h = grid.h
    radius = int(math.ceil((t + 0.5 * h) / h))
    edges = (np.arange(-radius, radius + 1)[:, None] + np.array([[-0.5, 0.5]])) * h
    # the ramps clip(u, -c, c) integrate the two indicators from 0 to u
    ints = (np.clip(edges, -t / 2.0, t / 2.0) - 0.5 * np.clip(edges, -t, t)) / t
    return (ints[:, 1] - ints[:, 0]) / h
