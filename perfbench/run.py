"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload shipped-1d --seed 7 --seconds 25 --trace 0

Run from the root of a checkout; the benchmark imports wharm from ``src/``.
The workload is a closed loop with one client: passes run one after another
until ``--seconds`` have passed (at least one pass), in this process and
without threads of its own; numpy's BLAS keeps its default thread count.

``--trace 0`` prints the end-to-end metrics: run_s and cpu_s (wall and CPU
seconds per pass at the reference speed of reference.py, medians over the
passes), setup_s (median over separate set-up processes, at the reference
speed too) and peak_rss_mb.  ``--trace 1`` alternates untraced and traced
passes and prints the per-layer metrics of the traced ones, with
trace.overhead_s.  Every pass's outputs are checked; the last line of
standard output is the result as one JSON object.  Full records go to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from reference import NOMINAL_S, reference_seconds
from setup_probe import REFERENCE_RUNS
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = (("run_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class Ledger:
    """Operations attempted and failed over a run, and the checks of each pass."""

    def __init__(self, workload, golden):
        self.workload = workload
        self.golden = golden
        self.first = None
        self.attempted = 0
        self.failures = []

    def settle(self, attempts, label: str) -> None:
        """Digest and check one pass's outputs, and count its operations."""
        wl = self.workload
        failed = dict(attempts.errors)
        digests = wl.digest(attempts.results)
        failed.update(wl.check(digests))
        for reference, name in ((self.golden, "golden output"), (self.first, "the first pass")):
            for op, want in (reference or {}).items():
                if op in failed:
                    continue
                diff = "missing" if op not in digests else workloads.compare(digests[op], want, op)
                if diff:
                    failed[op] = f"differs from {name}: {diff}"
        if self.first is None:
            self.first = digests
        self.attempted += len(attempts.results.keys() | attempts.errors.keys() | failed.keys())
        self.failures += [f"{label} {op}: {reason}" for op, reason in sorted(failed.items())]


def timed_pass(wl, tracer=None):
    """(wall seconds, process CPU seconds, attempts) of one pass."""
    gc.collect()
    out_dir = OUT / "reports" / wl.name
    c0, t0 = time.process_time(), time.perf_counter()
    if tracer is None:
        attempts = wl.run_pass(out_dir)
    else:
        with tracer.installed():
            attempts = wl.run_pass(out_dir)
    return time.perf_counter() - t0, time.process_time() - c0, attempts


def scaled_pass(op_seconds: list, scales: list) -> float:
    """Seconds of one pass at the reference speed: each operation's seconds
    times its scale, the median of that over the passes, summed over the
    operations.  The operations are the same calls on the same inputs in
    every pass."""
    samples = {}
    for seconds, scale in zip(op_seconds, scales):
        for op, s in seconds.items():
            samples.setdefault(op, []).append(s * scale[op])
    return sum(statistics.median(v) for v in samples.values())


def setup_seconds(workload: str, seed: int, size: str) -> list:
    """Process start to inputs ready, in separate processes, one after another,
    as (raw seconds, seconds at the reference speed) pairs.  The reference
    speed is the mean of the kernel's runs here, just before the process
    starts, and in the process, just after its inputs are ready."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), size]
    samples = []
    for _ in range(SETUP_PROBES):
        before = statistics.mean(reference_seconds() for _ in range(REFERENCE_RUNS))
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        ready, after = map(float, done.stdout.split()[-2:])
        samples.append((ready - t0, (ready - t0) * 2 * NOMINAL_S / (before + after)))
    return samples


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        **{var: os.environ.get(var) for var in BLAS_VARS},
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full",
                        help="tiny inputs are for the smoke test")
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "wharm").is_dir():
        print(f"{src / 'wharm'} not found: run from the root of a wharm checkout", file=sys.stderr)
        return 2
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))

    setup = [] if args.trace else setup_seconds(args.workload, args.seed, args.size)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size)
    golden = wl.golden() if args.seed == workloads.DEFAULT_SEED and args.size == "full" else None
    ledger = Ledger(wl, golden)
    OUT.mkdir(exist_ok=True)
    walls, cpus, traced_walls = [], [], []
    op_wall, op_cpu, scales, traced_op_wall, traced_scales = [], [], [], [], []
    tracer = Tracer() if args.trace else None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < args.seconds:
        wall, cpu, attempts = timed_pass(wl)
        walls.append(wall)
        cpus.append(cpu)
        op_wall.append(attempts.seconds)
        op_cpu.append(attempts.cpu_seconds)
        scales.append(attempts.scale)
        ledger.settle(attempts, f"pass {len(walls)}")
        if tracer is not None:
            wall, _, attempts = timed_pass(wl, tracer)
            traced_walls.append(wall)
            traced_op_wall.append(attempts.seconds)
            traced_scales.append(attempts.scale)
            ledger.settle(attempts, f"traced pass {len(traced_walls)}")
    extra = wl.checks_once()
    ledger.attempted += extra.attempted
    ledger.failures += [f"once {op}: {reason}" for op, reason in sorted(extra.errors.items())]

    if tracer is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "run_s": scaled_pass(op_wall, scales),
            "cpu_s": scaled_pass(op_cpu, scales),
            "setup_s": statistics.median(scaled for _, scaled in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = tracer.metrics()
        overhead = scaled_pass(traced_op_wall, traced_scales) - scaled_pass(op_wall, scales)
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}

    failed = len(ledger.failures)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "why": wl.why,
        "size": args.size,
        "env": environment(args.seed),
        "pass_wall_s": walls,
        "pass_cpu_s": cpus,
        "traced_pass_wall_s": traced_walls,
        "setup_samples_s": setup,
        "median_pass_wall_s": statistics.median(walls),
        "median_pass_cpu_s": statistics.median(cpus),
        "op_wall_s": op_wall,
        "op_cpu_s": op_cpu,
        "op_scale": scales,
        "traced_op_wall_s": traced_op_wall,
        "failures": ledger.failures,
        "metrics": metrics,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write(OUT / f"{stem}-spans.json")

    for line in ledger.failures:
        print("FAILED", line)
    print(f"{args.workload} seed {args.seed}: {len(walls)} passes, {ledger.attempted} operations, "
          f"{failed} failed (fail_ratio {failed / max(ledger.attempted, 1):g})")
    print(json.dumps({"env": record["env"], "why": wl.why}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
