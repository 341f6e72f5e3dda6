"""Every benchmark workload runs against the library in this tree.

perfbench/ calls the public wharm names (harness.run, grid.extend_even,
grid.restrict, squarefn.ConeSpec, ...) through module attributes, so a
library change that drops one fails only when the benchmark runs.  Here each
workload is built at its tiny size, in this process, runs one pass and its
once-per-run checks, and nothing may raise or fail a check.  One full-size
pass at the golden's seed then holds the digests that perfbench/golden
records for the sparse collections and the norm paths (read only, within
the benchmark's own workloads.compare).
"""

import signal
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    # the benchmark samples its reference speed from a SIGALRM timer and
    # leaves its handler installed
    handler = signal.getsignal(signal.SIGALRM)
    yield workloads
    signal.signal(signal.SIGALRM, handler)


@pytest.mark.parametrize("name", ["shipped-1d", "two-weight-2d", "hardy-atoms-2d"])
def test_each_workload_runs_a_tiny_pass(workloads, name, tmp_path):
    wl = workloads.WORKLOADS[name](3, "tiny")
    attempts = wl.run_pass(tmp_path)
    assert attempts.errors == {}
    assert attempts.attempted >= 1
    assert wl.check(wl.digest(attempts.results)) == {}
    assert wl.checks_once().errors == {}


def test_hardy_atoms_sparse_digests_match_the_golden(workloads, tmp_path):
    # one full-size pass at the golden's seed; the sparse collections' digests
    # (cube counts, eta, Carleson constants, verify, carrier mass, A_S f) must
    # match perfbench/golden/hardy-atoms-2d.json
    wl = workloads.WORKLOADS["hardy-atoms-2d"](workloads.DEFAULT_SEED, "full")
    digests = wl.digest(wl.run_pass(tmp_path).results)
    golden = wl.golden()
    kinds = ("build_sparse_from_recursion", "carleson_to_sparse", "sparse_operator_apply")
    ops = sorted(op for op in golden if op.split(".", 1)[1] in kinds)
    assert len(ops) == 3 * wl.SIZE["full"]["symbols"]
    for op in ops:
        assert workloads.compare(digests.get(op), golden[op], op) is None


@pytest.mark.parametrize("name", ["shipped-1d", "two-weight-2d"])
def test_norm_workload_digests_match_the_golden(workloads, name, tmp_path):
    # one full-size pass at the golden's seed: every report of the norm paths
    # (shipped configs and the 2D two-weight run) must match
    # perfbench/golden/<name>.json, as the benchmark checks each pass
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, "full")
    attempts = wl.run_pass(tmp_path)
    assert attempts.errors == {}
    digests = wl.digest(attempts.results)
    golden = wl.golden()
    assert golden
    for op, want in golden.items():
        assert workloads.compare(digests.get(op), want, op) is None
