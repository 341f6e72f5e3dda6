import math

import numpy as np
import pytest

from wharm.errors import ParameterError, SingularityError
from wharm.grid import Grid
from wharm.kernels import (
    KernelSpec,
    eval_kernel,
    heat_free,
    psi_multiplier,
    psi_stencil,
    qt_free,
    reflect_point,
    riesz_normalization,
)

from operator_oracles import check_kernel_smoothness, qt_neumann


def test_heat_free_peak_value():
    # (4 pi t)^{-1/2} = 1 at t = 1/(4 pi)
    spec = KernelSpec("heat-free", 1, t=1.0 / (4.0 * math.pi))
    assert abs(eval_kernel(spec, np.array([0.3]), np.array([0.3])) - 1.0) <= 1e-15


def test_heaviside_kills_cross_side():
    for fam in ("heat-neumann", "heat-dirichlet"):
        spec = KernelSpec(fam, 1, t=0.07)
        assert eval_kernel(spec, np.array([0.3]), np.array([-0.3])) == 0.0
    spec = KernelSpec("riesz-neumann", 2, j=1)
    assert eval_kernel(spec, np.array([0.1, 0.2]), np.array([0.4, -0.2])) == 0.0


def test_riesz_free_normalization():
    # C_1 = 1/pi; kernel -(1/pi)/(x-y) evaluates to -1 at x - y = 1/pi
    assert abs(riesz_normalization(1) - 1.0 / math.pi) <= 1e-16
    spec = KernelSpec("riesz-free", 1, j=1)
    val = eval_kernel(spec, np.array([1.0 / math.pi]), np.array([0.0]))
    assert abs(val + 1.0) <= 1e-14


def test_riesz_singularity():
    spec = KernelSpec("riesz-free", 1, j=1)
    with pytest.raises(SingularityError):
        eval_kernel(spec, np.array([0.25]), np.array([0.25]))


def test_qt_zero_mean():
    # int q_t(x, y) dy = 0 over a box capturing the Gaussian mass
    g = Grid(1, 1.0, 2048)
    y = g.points()
    t = 0.05
    x = np.array([0.1])
    vals = qt_free(x[None, :], y, t, 1)
    assert abs(np.sum(vals) * g.h) <= 1e-6
    g2 = Grid(2, 1.0, 128)
    y2 = g2.points().reshape(-1, 2)
    vals2 = qt_free(np.array([[0.05, -0.1]]), y2, t, 2)
    assert abs(np.sum(vals2) * g2.cell_volume) <= 1e-6


def test_qt_gaussian_envelope():
    # |q_t| <= C t^{-n} exp(-r^2/(c t^2)); fit C at c = 5 and report
    rng = np.random.default_rng(0)
    for n in (1, 2):
        x = rng.uniform(-1, 1, size=(500, n))
        y = rng.uniform(-1, 1, size=(500, n))
        t = rng.uniform(0.05, 0.5, size=500)
        q = np.array([qt_free(a, b, tt, n) for a, b, tt in zip(x, y, t)])
        r2 = np.sum((x - y) ** 2, axis=-1)
        C = np.max(np.abs(q) * t ** n * np.exp(r2 / (5.0 * t ** 2)))
        assert C <= 1.0  # comfortably finite envelope constant


def test_qt_finite_difference_oracle():
    rng = np.random.default_rng(1)
    for n in (1, 2):
        for _ in range(20):
            x = rng.uniform(-1, 1, size=n)
            y = rng.uniform(-1, 1, size=n)
            t = rng.uniform(0.05, 0.8)
            d = 1e-5 * t * t
            fd = -t * t * (heat_free(x, y, t * t + d, n) - heat_free(x, y, t * t - d, n)) / (2 * d)
            q = qt_free(x, y, t, n)
            assert abs(q - fd) <= 1e-6 * max(abs(fd), 1e-12)


def test_psi_multiplier_values():
    assert psi_multiplier(0.0) == 0.0
    assert abs(psi_multiplier(math.pi) - 2.0 / math.pi) <= 1e-15
    v = psi_multiplier(1e-6)
    assert abs(v - 1.25e-13) <= 0.01 * 1.25e-13
    # series/direct agreement around the switch point
    for s in (5e-5, 1e-4, 2e-4):
        direct = (2 * math.sin(s / 2) - math.sin(s)) / s
        assert abs(psi_multiplier(s) - direct) <= 1e-16


def test_psi_stencil_properties():
    h = 1.0 / 64
    for t in (0.05, 0.11, 0.4):
        st = psi_stencil(t, h)
        assert abs(np.sum(st) * h) <= 1e-15  # exact zero total mass
        r = (len(st) - 1) // 2
        offsets = np.arange(-r, r + 1) * h
        # support |u| <= t: cells fully outside carry exactly zero
        assert np.all(st[np.abs(offsets) > t + h / 2] == 0.0)


def test_heat_symmetry_and_reflection():
    rng = np.random.default_rng(2)
    x = rng.uniform(-1, 1, size=(200, 2))
    y = rng.uniform(-1, 1, size=(200, 2))
    t = 0.3
    spec = KernelSpec("heat-free", 2, t=t)
    assert np.array_equal(eval_kernel(spec, x, y), eval_kernel(spec, y, x))
    nspec = KernelSpec("heat-neumann", 2, t=t)
    assert np.array_equal(
        eval_kernel(nspec, x, y), eval_kernel(nspec, reflect_point(x), reflect_point(y))
    )


def test_riesz_neumann_decomposition():
    # R_{N,j}(x,y) = R_j(x,y) + R_j(x, y~) for same-side pairs, j = 1..n
    rng = np.random.default_rng(3)
    for n in (1, 2):
        x = rng.uniform(0.01, 1, size=(10000, n))
        y = rng.uniform(0.01, 1, size=(10000, n))
        if n == 2:
            x[:, 0] = rng.uniform(-1, 1, size=10000)
            y[:, 0] = rng.uniform(-1, 1, size=10000)
        for j in range(1, n + 1):
            free = eval_kernel(KernelSpec("riesz-free", n, j=j), x, y)
            refl = eval_kernel(KernelSpec("riesz-free", n, j=j), x, reflect_point(y))
            neu = eval_kernel(KernelSpec("riesz-neumann", n, j=j), x, y)
            scale = np.maximum(np.abs(neu), 1.0)
            assert np.max(np.abs(neu - (free + refl)) / scale) <= 1e-12


def test_neumann_dirichlet_sum_difference():
    rng = np.random.default_rng(4)
    x = rng.uniform(0.01, 1, size=(1000, 1))
    y = rng.uniform(0.01, 1, size=(1000, 1))
    t = 0.2
    pn = eval_kernel(KernelSpec("heat-neumann", 1, t=t), x, y)
    pd = eval_kernel(KernelSpec("heat-dirichlet", 1, t=t), x, y)
    free = heat_free(x, y, t, 1)
    refl = heat_free(x, reflect_point(y), t, 1)
    assert np.max(np.abs(pn + pd - 2 * free)) <= 1e-15
    assert np.max(np.abs(pn - pd - 2 * refl)) <= 1e-15


def test_chapman_kolmogorov():
    g = Grid(1, 1.0, 256)
    z = g.points()
    h2 = g.h * g.h
    t, s = max(0.01, 8 * h2), max(0.02, 8 * h2)
    x, y = np.array([0.12]), np.array([-0.07])
    lhs = np.sum(heat_free(x[None, :], z, t, 1) * heat_free(z, y[None, :], s, 1)) * g.h
    rhs = heat_free(x, y, t + s, 1)
    assert abs(lhs - rhs) <= 1e-4 * rhs


def test_qt_neumann_is_extension_composition():
    rng = np.random.default_rng(5)
    x = rng.uniform(0.01, 1, size=(100, 1))
    y = rng.uniform(0.01, 1, size=(100, 1))
    t = 0.15
    direct = qt_neumann(x, y, t, 1)
    composed = qt_free(x, y, t, 1) + qt_free(x, reflect_point(y), t, 1)
    assert np.max(np.abs(direct - composed)) <= 1e-15


def test_smoothness_scan_heat():
    rep = check_kernel_smoothness(KernelSpec("heat-neumann", 1, t=0.1), 2000, rng_seed=0)
    assert np.isfinite(rep["smoothness_constant"])
    assert rep["gaussian_size_constant"] <= 1.0


def test_smoothness_scan_riesz():
    for fam in ("riesz-neumann", "riesz-dirichlet"):
        rep = check_kernel_smoothness(KernelSpec(fam, 2, j=2), 2000, rng_seed=1)
        # |R_N| <= C_n / |x-y|^n with the sharp constant at most 2 C_n
        assert rep["size_constant_over_Cn"] <= 2.0 + 1e-9
        assert np.isfinite(rep["smoothness_constant"])


def test_kernel_parameter_errors():
    with pytest.raises(ParameterError):
        KernelSpec("heat-free", 1, t=-1.0)
    with pytest.raises(ParameterError):
        KernelSpec("riesz-free", 2, j=3)
    with pytest.raises(ParameterError):
        KernelSpec("nope", 1, t=1.0)


def test_smoothness_scan_free_and_dirichlet_heat():
    for fam in ("heat-free", "heat-dirichlet"):
        rep = check_kernel_smoothness(KernelSpec(fam, 2, t=0.2), 1500, rng_seed=4)
        assert np.isfinite(rep["smoothness_constant"])
        assert rep["gaussian_size_constant"] <= 1.0
