"""The benchmark's workloads.

Each workload is a closed loop with one client.  Constructing it is the
set-up that ``setup_s`` times: it imports the wharm modules it calls and
builds its inputs from the seed.  ``run_pass`` then makes one call after
another into public wharm functions and keeps every result; ``digest`` turns
the results into JSON values, which ``check`` tests at any seed and which the
golden files hold for the default seed.

Calls go through module attributes (``self.harness.run``, never a name bound
at import time), so the traced run sees every function it rebinds.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import time
import traceback
from pathlib import Path

from reference import NOMINAL_S, SpeedSampler, reference_seconds

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
DEFAULT_SEED = 7
SIZES = ("full", "tiny")
# golden outputs match within this relative slack; bools and strings exactly
REL_TOL = 1e-6
# slack of the pointwise Neumann band, as in tests/test_squarefn.py
BAND_SLACK = 1e-12


class Attempts:
    """The operations of one pass: results of those that returned, errors of
    those that raised, and every operation's wall and process CPU seconds.

    The reference kernel runs before the first operation, after each one and
    every SAMPLE_INTERVAL_S during each one; ``scale[op]`` is NOMINAL_S over
    the mean of the kernel's runs around and during ``op``, which turns the
    operation's seconds into seconds at the reference speed.  The kernel's
    own time is not counted in the operation's.
    """

    def __init__(self):
        self.results = {}
        self.errors = {}
        self.seconds = {}
        self.cpu_seconds = {}
        self.scale = {}
        self._last_reference = None
        self._sampler = SpeedSampler()

    def call(self, op: str, fn, *args, **kwargs):
        before = self._last_reference or reference_seconds()
        sampler = self._sampler
        c0, t0 = time.process_time(), time.perf_counter()
        sampler.start()
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted, the run goes on
            traceback.print_exc(file=sys.stderr)
            self.errors[op] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            sampler.stop()
            self.seconds[op] = time.perf_counter() - t0 - sampler.wall_s
            self.cpu_seconds[op] = time.process_time() - c0 - sampler.cpu_s
            self._last_reference = reference_seconds()
            references = [before, *sampler.samples, self._last_reference]
            self.scale[op] = NOMINAL_S * len(references) / sum(references)
        self.results[op] = result
        return result

    @property
    def attempted(self) -> int:
        return len(self.results) + len(self.errors)


def compare(got, want, where: str = ""):
    """The first difference between two JSON values, or None.

    Numbers match within REL_TOL relative; bools, strings, None and the
    structure of dicts and lists must be identical.
    """
    if isinstance(want, bool) or isinstance(got, bool) or not isinstance(want, (int, float, dict, list)):
        return None if type(got) is type(want) and got == want else f"{where}: {got!r} != {want!r}"
    if isinstance(want, (int, float)):
        if isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL_TOL):
            return None
        return f"{where}: {got!r} is not within {REL_TOL} relative of {want!r}"
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return f"{where}: keys differ"
        items = [(got[k], want[k], f"{where}/{k}") for k in want]
    else:
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: lengths differ"
        items = [(g, w, f"{where}/{i}") for i, (g, w) in enumerate(zip(got, want))]
    for g, w, at in items:
        diff = compare(g, w, at)
        if diff:
            return diff
    return None


def _json_value(obj):
    """A JSON round trip: numpy scalars become floats, int keys strings."""
    return json.loads(json.dumps(obj, default=float))


class Workload:
    name = ""
    why = ""

    def run_pass(self, out_dir: Path) -> Attempts:
        raise NotImplementedError

    def digest(self, results: dict) -> dict:
        raise NotImplementedError

    def check(self, digests: dict) -> dict:
        """Structural facts that hold at every seed; {op: reason} of failures."""
        return {}

    def checks_once(self) -> Attempts:
        """Extra checks made once per run, outside the timed passes."""
        return Attempts()

    def golden(self):
        path = GOLDEN_DIR / f"{self.name}.json"
        return json.loads(path.read_text()) if path.exists() else None


def _report_checks(digests: dict) -> dict:
    failed = {}
    for op, report in digests.items():
        if isinstance(report, dict) and report.get("pass") is not True:
            failed[op] = "report has pass != true"
    return failed


class ShippedConfigs(Workload):
    """The five shipped configs/*.json through harness.run, in a fixed order,
    each report written through write_report."""

    name = "shipped-1d"
    why = (
        "the five shipped 1D configs end to end; per-cube lattice scans and "
        "many small spectral applies dominate, dense SVD is small"
    )
    CONFIGS = (
        ("two_weight", "two-weight-commutator"),
        ("bmo_coincidence", "bmo-coincidence"),
        ("john_nirenberg", "john-nirenberg"),
        ("riesz_ap", "riesz-ap"),
        ("dirichlet", "dirichlet-counterexample"),
    )
    TINY = {
        "two_weight": {"points_per_axis": 64, "max_generation": 5, "symbols": 2},
        "bmo_coincidence": {"points_per_axis": 64, "max_generation": 5, "symbols": 2},
        "john_nirenberg": {"points_per_axis": 32, "max_generation": 4, "instances": 6},
        "riesz_ap": {"points_per_axis": 64, "max_generation": 5},
        "dirichlet": {"refinements": [64, 256]},
    }

    def __init__(self, seed: int, size: str = "full"):
        self.harness = importlib.import_module("wharm.harness")
        self.configs = {}
        for stem, _ in self.CONFIGS:
            cfg = json.loads((ROOT / "configs" / f"{stem}.json").read_text())
            if "seed" in cfg:
                cfg["seed"] = seed
            if size == "tiny":
                cfg.update(self.TINY[stem])
            self.configs[stem] = cfg

    def run_pass(self, out_dir: Path) -> Attempts:
        out_dir.mkdir(parents=True, exist_ok=True)
        att = Attempts()
        for stem, experiment in self.CONFIGS:
            report = att.call(stem, self.harness.run, experiment, self.configs[stem])
            if report is not None:
                att.call(f"{stem}.write_report", self._write, report, out_dir / f"{stem}.json")
        return att

    def _write(self, report: dict, path: Path) -> Path:
        self.harness.write_report(report, str(path))
        return path

    def digest(self, results: dict) -> dict:
        out = {}
        for op, res in results.items():
            if op.endswith(".write_report"):
                out[op] = json.loads(res.read_text())
            else:
                out[op] = json.loads(self.harness.canonical_json(res))
        return out

    def check(self, digests: dict) -> dict:
        failed = _report_checks({k: v for k, v in digests.items() if not k.endswith(".write_report")})
        for stem, _ in self.CONFIGS:
            written = f"{stem}.write_report"
            if written in digests and digests[written] != digests.get(stem):
                failed[written] = "written report differs from the returned one"
        jn = digests.get("john_nirenberg")
        if jn is not None:
            rhos = [row["rho"] for row in jn["rows"] if "rho" in row]
            # the harness allows the same round-off below 1
            if not rhos or min(rhos) < 1.0 - 1e-12:
                failed["john_nirenberg"] = "John-Nirenberg rho < 1"
        return failed


class TwoWeight2D(Workload):
    """two-weight-commutator in 2D with a non-doubling weight pair."""

    name = "two-weight-2d"
    why = (
        "2D two-weight commutator with a non-doubling pair; dense SVDs of "
        "1024x1024 matrices and column-by-column assembly dominate"
    )
    SIZE = {
        "full": {"points_per_axis": 32, "max_generation": 4, "symbols": 6},
        "tiny": {"points_per_axis": 16, "max_generation": 3, "symbols": 2},
    }

    def __init__(self, seed: int, size: str = "full"):
        self.harness = importlib.import_module("wharm.harness")
        self.config = {
            "dim": 2,
            "p": 2.0,
            "seed": seed,
            "band_cap": 50.0,
            "weight_pairs": [
                {"mu": {"kind": "one-sided-power", "alpha": 0.5}, "lambda": {"kind": "one"}},
            ],
            **self.SIZE[size],
        }

    def run_pass(self, out_dir: Path) -> Attempts:
        att = Attempts()
        att.call("two-weight-commutator", self.harness.run, "two-weight-commutator", self.config)
        return att

    def digest(self, results: dict) -> dict:
        return {op: json.loads(self.harness.canonical_json(r)) for op, r in results.items()}

    def check(self, digests: dict) -> dict:
        return _report_checks(digests)


class HardyAtoms2D(Workload):
    """Hardy norms, atoms, maximal function and sparse collections on a 2D grid."""

    name = "hardy-atoms-2d"
    why = (
        "2D Hardy norms, atoms, maximal function and sparse carriers; spectral "
        "applies feed FFT convolutions, no lattice BMO scans, no dense matrices"
    )
    SIZE = {
        "full": {"points_per_axis": 64, "max_generation": 5, "symbols": 6},
        "tiny": {"points_per_axis": 16, "max_generation": 3, "symbols": 2},
    }
    WEIGHTS = (
        {"kind": "one"},
        {"kind": "one-sided-power", "alpha": 0.5},
        {"kind": "power", "alpha": 0.25},
    )
    # operation name -> hardy_norm flavor
    FLAVORS = {"heat-free": "heat-free", "heat-neumann": "heat-neumann",
               "classical-1": ("classical", 1), "haar": "haar"}
    SYMBOL_GENERATIONS = 4
    # stopping level of the sparse recursion: children of Q hold at most |Q|/2
    ALPHA = 2.0

    def __init__(self, seed: int, size: str = "full"):
        import numpy as np

        self.np = np
        self.grid_mod = importlib.import_module("wharm.grid")
        self.dyadic = importlib.import_module("wharm.dyadic")
        self.weights = importlib.import_module("wharm.weights")
        self.squarefn = importlib.import_module("wharm.squarefn")
        self.atoms = importlib.import_module("wharm.atoms")
        self.sparse = importlib.import_module("wharm.sparse")
        params = self.SIZE[size]
        self.grid = self.grid_mod.Grid(2, 1.0, params["points_per_axis"])
        self.lattice = self.dyadic.build_lattice(self.grid, params["max_generation"])
        self.tg = self.squarefn.TimeGrid.geometric(self.grid)
        weights = [self.weights.weight_from_spec(spec, self.grid) for spec in self.WEIGHTS]
        rng = np.random.default_rng(seed)
        self.symbols = []
        for i in range(params["symbols"]):
            f = self.dyadic.random_haar_sum(self.lattice, rng, max_generation=self.SYMBOL_GENERATIONS)
            self.symbols.append((f, weights[i % len(weights)]))

    def run_pass(self, out_dir: Path) -> Attempts:
        att = Attempts()
        sq, dy, sp = self.squarefn, self.dyadic, self.sparse
        lat = self.lattice
        for i, (f, w) in enumerate(self.symbols):
            for name, flavor in self.FLAVORS.items():
                att.call(f"s{i}.hardy_norm.{name}", sq.hardy_norm, f, flavor, w, tg=self.tg, lattice=lat)
            att.call(f"s{i}.atomic_decompose", self.atoms.atomic_decompose, f, w, lat, self.tg)
            att.call(f"s{i}.weighted_maximal", dy.weighted_maximal, f, w, lat)
            coll = att.call(f"s{i}.build_sparse_from_recursion", sp.build_sparse_from_recursion,
                            self._stopping_rule(self.np.abs(f.values)), lat, lat.cubes[0], self.ALPHA)
            if coll is not None:
                att.call(f"s{i}.carleson_to_sparse", sp.carleson_to_sparse, lat, coll.cubes, coll.eta)
                att.call(f"s{i}.sparse_operator_apply", sp.sparse_operator_apply, coll, f)
        return att

    def _stopping_rule(self, density):
        """Children of a cube: its Calderon-Zygmund stopping cubes of density at ALPHA."""

        def children(cube):
            return self.sparse.cz_stopping(density, self.lattice, cube, self.ALPHA).selected

        return children

    def digest(self, results: dict) -> dict:
        out = {}
        for op, res in results.items():
            kind = op.split(".", 1)[1]
            if kind.startswith("hardy_norm"):
                out[op] = res
            elif kind == "atomic_decompose":
                summary = res.to_json()["summary"]
                summary["atoms_ok"] = sum(c["ok"] for c in res.report["atom_checks"])
                out[op] = _json_value(summary)
            elif kind in ("weighted_maximal", "sparse_operator_apply"):
                out[op] = {"sum": float(res.values.sum()), "max": float(res.values.max())}
            elif kind == "build_sparse_from_recursion":
                out[op] = {"cubes": len(res.cubes), "eta": res.eta,
                           "carleson_constant": res.carleson_constant(), "verify": res.verify()}
            elif kind == "carleson_to_sparse":
                out[op] = None if res is None else {
                    "cubes": len(res.cubes),
                    "carrier_mass": float(sum(m.sum() for m in res.carriers.values())),
                    "verify": res.verify(),
                }
        return out

    def check(self, digests: dict) -> dict:
        failed = {}
        for op, d in digests.items():
            if op.endswith("carleson_to_sparse") and d is None:
                failed[op] = "no carriers found for a Carleson family"
            elif isinstance(d, dict) and d.get("verify") is False:
                failed[op] = "verify() is false"
            elif isinstance(d, float) and not (math.isfinite(d) and d > 0):
                failed[op] = f"Hardy norm {d!r} is not finite and positive"
        return failed

    def checks_once(self) -> Attempts:
        """The pointwise Neumann band sqrt(1/2) S(f_{+,e}) <= S_N(f) <= S(f_{+,e})
        on the upper half, for every symbol."""
        att = Attempts()
        upper = self.grid.points()[..., -1] > 0
        for i, (f, _) in enumerate(self.symbols):
            att.call(f"s{i}.neumann_band", self._neumann_band, f, upper)
        return att

    def _neumann_band(self, f, upper):
        sq, gm = self.squarefn, self.grid_mod
        sn = sq.area_function(f, "qt", sq.ConeSpec("neumann"), self.tg).values[upper]
        even = gm.extend_even(gm.restrict(f, "upper"))
        sf = sq.area_function(even, "qt", sq.ConeSpec("free"), self.tg).values[upper]
        low = self.np.sqrt(0.5) * sf * (1 - BAND_SLACK)
        if not (self.np.all(sn >= low) and self.np.all(sn <= sf * (1 + BAND_SLACK))):
            raise AssertionError("Neumann band violated")


WORKLOADS = {cls.name: cls for cls in (ShippedConfigs, TwoWeight2D, HardyAtoms2D)}
