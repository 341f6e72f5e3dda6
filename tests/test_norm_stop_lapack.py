"""The p = 2 norms decide their stops by a dense SVD, never by eigh/eigvalsh.

np.linalg.eigh of the tridiagonal B^T B runs faster per call than the SVD
of the bidiagonal B, but from k = 26 on it starts OpenBLAS threads: wall
time falls while process CPU time rises, to about twice the wall time on
2 cores.  With eigh and eigvalsh made to raise, the Golub-Kahan runs of
commutator_norms and weighted_operator_norm still run past that size.
"""

import numpy as np
import pytest

from wharm.grid import Grid, GridFunction
from wharm.operators import commutator, commutator_norms, riesz, weighted_operator_norm


def test_golub_kahan_stop_takes_no_symmetric_eigensolver(monkeypatch):
    g = Grid(1, 1.0, 256)
    rng = np.random.default_rng(26)
    symbols = rng.standard_normal((3,) + g.shape)
    mu, lam = np.exp(0.3 * rng.standard_normal((2,) + g.shape))

    def refuse(*args, **kwargs):
        raise AssertionError("a symmetric eigensolver on the norm path")

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    with pytest.raises(AssertionError):
        np.linalg.eigvalsh(np.eye(2))
    R = riesz("neumann", 1)
    vals, certs = commutator_norms(symbols, R, g, mu, lam)
    assert np.all(vals > 0) and max(c["products"] for c in certs) > 2 * 26
    val, cert = weighted_operator_norm(commutator(GridFunction(g, symbols[0]), R), g, mu, lam, p=2.0)
    assert val == vals[0] and cert == certs[0]
