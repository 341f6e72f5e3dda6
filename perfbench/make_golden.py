"""Write the golden outputs: one pass of each workload at the default seed.

    python3 perfbench/make_golden.py [workload ...]

Run only when outputs are meant to change; run.py compares every pass at the
default seed with these files.  A workload whose pass fails a structural
check gets no golden file.
"""

import json
import sys

import workloads
from run import OUT

if __name__ == "__main__":
    sys.path.insert(0, str(workloads.ROOT / "src"))
    workloads.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in sys.argv[1:] or workloads.WORKLOADS:
        wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED)
        attempts = wl.run_pass(OUT / "reports" / name)
        digests = wl.digest(attempts.results)
        failed = {**attempts.errors, **wl.check(digests)}
        if failed:
            sys.exit(f"{name}: not writing golden outputs, checks failed: {failed}")
        # a written report is checked against the returned one, not stored twice
        golden = {op: d for op, d in digests.items() if not op.endswith(".write_report")}
        path = workloads.GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(golden, sort_keys=True, indent=1) + "\n")
        print(f"wrote {path} ({len(golden)} outputs)")
