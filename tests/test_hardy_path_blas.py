"""The Hardy path adds over scales and buckets elementwise, never through BLAS.

A BLAS product (tensordot, einsum, matmul, ...) runs on numpy's BLAS threads:
wall time may fall while process CPU time rises.  With the numpy entry
points to BLAS made to raise, the area functions, g* and the atomic
decomposition still run.  The Haar square function's tensordot is not on
this path.
"""

import numpy as np
import pytest

from wharm.atoms import atomic_decompose
from wharm.dyadic import build_lattice
from wharm.grid import Grid, GridFunction
from wharm.squarefn import ConeSpec, TimeGrid, area_function, g_star


def test_hardy_path_calls_no_blas_product(monkeypatch):
    g = Grid(2, 1.0, 32)
    rng = np.random.default_rng(29)
    v = rng.standard_normal(g.shape) * np.exp(-np.sum(g.points() ** 2, axis=-1) / 0.2)
    f = GridFunction(g, v - v.mean())
    w = GridFunction(g, np.exp(0.5 * rng.standard_normal(g.shape)))
    tg = TimeGrid.geometric(g)

    def refuse(*args, **kwargs):
        raise AssertionError("a BLAS product on the Hardy path")

    for name in ("dot", "tensordot", "matmul", "einsum", "inner"):
        monkeypatch.setattr(np, name, refuse)
    with pytest.raises(AssertionError):
        np.tensordot(np.ones(2), np.ones(2), axes=1)
    for generator, cone in (("qt", "free"), ("qt", "neumann"), (("phi", 1), "free")):
        assert np.all(np.isfinite(area_function(f, generator, ConeSpec(cone), tg).values))
    assert np.all(np.isfinite(g_star(f, "qt", 6, tg).values))
    assert atomic_decompose(f, w, build_lattice(g, 5), tg).report["n_atoms"] > 0
