"""Spans and counters for the benchmark's traced run.

The tracer wraps public wharm functions from outside, only while it is
installed.  ``from .operators import apply`` copies a function into bmo,
squarefn and atoms, so installing rebinds every module-level name in every
loaded wharm module that holds a wrapped function, and the entries of
``harness.EXPERIMENTS``.

A span has a name, a start, an end and the index of its parent span.  Spans
stay in memory until ``write``.  Self time is a span's duration minus the
time its child spans cover, so nested calls (``apply`` inside ``apply``,
``assemble_matrix`` calling ``apply``) count once.  ``.calls`` metrics count
every call, nested ones included.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

HARNESS_EXPERIMENTS = (
    "two-weight-commutator",
    "bmo-coincidence",
    "john-nirenberg",
    "riesz-ap",
    "dirichlet-counterexample",
)
HARDY_FLAVORS = ("heat-free", "heat-neumann", "classical-1", "haar")
BMO_GROUPS = {
    "classical-w": "classical",
    "classical-wr": "classical",
    "carleson-heat-free": "carleson_heat",
    "carleson-heat-neumann": "carleson_heat",
    "carleson-haar": "carleson_haar",
    "unweighted-half": "half",
    "odd-ext-half": "half",
    "even-ext-half": "half",
}

# (name, unit) of every per-layer metric, values per traced pass
PER_LAYER = (
    [(f"harness.{e}.s", "s") for e in HARNESS_EXPERIMENTS]
    + [
        ("harness.write_report.s", "s"),
        ("operators.apply.calls", "count"),
        ("operators.apply.s", "s"),
        ("operators.assemble_matrix.calls", "count"),
        ("operators.assemble_matrix.s", "s"),
        ("operators.weighted_operator_norm.calls", "count"),
        ("operators.weighted_operator_norm.s", "s"),
        ("operators.dense_bytes", "bytes"),
        ("bmo.classical.calls", "count"),
        ("bmo.classical.s", "s"),
        ("bmo.carleson_heat.calls", "count"),
        ("bmo.carleson_heat.s", "s"),
        ("bmo.carleson_haar.s", "s"),
        ("bmo.half.s", "s"),
        ("bmo.cubes_scanned", "count"),
        ("bmo.us_per_cube", "us"),
        ("weights.ap.calls", "count"),
        ("weights.ap.s", "s"),
        ("weights.weight_from_spec.s", "s"),
        ("dyadic.lattice_family.s", "s"),
        ("dyadic.random_haar_sum.s", "s"),
        ("dyadic.haar_coefficients.s", "s"),
        ("dyadic.weighted_maximal.s", "s"),
    ]
    + [(f"squarefn.hardy_norm.{f}.s", "s") for f in HARDY_FLAVORS]
    + [
        ("squarefn.area_function.calls", "count"),
        ("atoms.atomic_decompose.s", "s"),
        ("atoms.atoms_built", "count"),
        ("sparse.cz_stopping.s", "s"),
        ("sparse.carleson_to_sparse.s", "s"),
        ("sparse.sparse_operator_apply.s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def _points(grid) -> int:
    n = 1
    for extent in grid.shape:
        n *= extent
    return n


def _lattices(lattices) -> list:
    return [lattices] if hasattr(lattices, "cubes") else list(lattices)


def _bmo_span(a) -> str:
    return "bmo." + BMO_GROUPS.get(a["flavor"], "other")


def _hardy_span(a) -> str:
    flavor = a["flavor"]
    name = "-".join(map(str, flavor)) if isinstance(flavor, tuple) else flavor
    return f"squarefn.hardy_norm.{name}"


def _count_matrix(counts, a, result):
    counts["operators.dense_bytes"] += 8 * _points(a["grid"]) ** 2


def _count_norm(counts, a, result):
    op = a["op"]
    n = op.shape[0] if hasattr(op, "shape") else _points(a["grid"])
    counts["operators.dense_bytes"] += 8 * n * n


def _count_cubes(counts, a, result):
    counts["bmo.cubes_scanned"] += sum(len(lat.cubes) for lat in _lattices(a["lattices"]))


def _count_atoms(counts, a, result):
    counts["atoms.atoms_built"] += len(result.atoms)


# (module, function, span name or a function of the bound arguments, counter)
INSTRUMENTS = (
    ("operators", "apply", "operators.apply", None),
    ("operators", "assemble_matrix", "operators.assemble_matrix", _count_matrix),
    ("operators", "weighted_operator_norm", "operators.weighted_operator_norm", _count_norm),
    ("bmo", "bmo_norm", _bmo_span, _count_cubes),
    ("weights", "ap_constant", "weights.ap", None),
    ("weights", "ap_deltaN_constant", "weights.ap", None),
    ("weights", "ap_constant_per_lattice", "weights.ap", None),
    ("weights", "weight_from_spec", "weights.weight_from_spec", None),
    ("dyadic", "lattice_family", "dyadic.lattice_family", None),
    ("dyadic", "random_haar_sum", "dyadic.random_haar_sum", None),
    ("dyadic", "haar_coefficients", "dyadic.haar_coefficients", None),
    ("dyadic", "weighted_maximal", "dyadic.weighted_maximal", None),
    ("squarefn", "hardy_norm", _hardy_span, None),
    ("atoms", "atomic_decompose", "atoms.atomic_decompose", _count_atoms),
    ("sparse", "cz_stopping", "sparse.cz_stopping", None),
    ("sparse", "carleson_to_sparse", "sparse.carleson_to_sparse", None),
    ("sparse", "sparse_operator_apply", "sparse.sparse_operator_apply", None),
    ("harness", "write_report", "harness.write_report", None),
)
# calls counted without a span, so their time stays with the caller's layer
COUNTED = (("squarefn", "area_function", "squarefn.area_function"),)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._open = []  # [span index, seconds covered by its children]
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.passes = 0

    def _enter(self, name: str) -> None:
        self.calls[name] += 1
        parent = self._open[-1][0] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append([len(self.spans) - 1, 0.0])

    def _exit(self) -> None:
        index, covered = self._open.pop()
        span = self.spans[index]
        span[2] = time.perf_counter()
        duration = span[2] - span[1]
        self.self_s[span[0]] += duration - covered
        if self._open:
            self._open[-1][1] += duration

    def _wrap(self, fn, span, count):
        signature = inspect.signature(fn) if callable(span) or count else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = None
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                bound = bound.arguments
            self._enter(span(bound) if callable(span) else span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if count:
                count(self.counts, bound, result)
            return result

        return traced

    def _count_calls(self, fn, name):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self):
        """Trace one pass: wrap the instruments, open a root span "pass"."""
        wrappers = {}
        for module_name, attr, span, count in INSTRUMENTS:
            module = sys.modules.get(f"wharm.{module_name}")
            if module is not None:
                fn = getattr(module, attr)
                wrappers[id(fn)] = self._wrap(fn, span, count)
        for module_name, attr, name in COUNTED:
            module = sys.modules.get(f"wharm.{module_name}")
            if module is not None:
                fn = getattr(module, attr)
                wrappers[id(fn)] = self._count_calls(fn, name)
        harness = sys.modules.get("wharm.harness")
        experiments = harness.EXPERIMENTS if harness is not None else {}
        for name, fn in experiments.items():
            wrappers[id(fn)] = self._wrap(fn, f"harness.{name}", None)

        undo = []
        namespaces = [vars(m) for n, m in list(sys.modules.items()) if n.startswith("wharm.")]
        for ns in namespaces + [experiments]:
            for key, value in list(ns.items()):
                if id(value) in wrappers:
                    undo.append((ns, key, value))
                    ns[key] = wrappers[id(value)]
        self._enter("pass")
        try:
            yield self
        finally:
            self._exit()
            self.passes += 1
            for ns, key, value in undo:
                ns[key] = value

    def metrics(self) -> dict:
        """Every per-layer metric but trace.overhead_s, per traced pass."""
        n = max(self.passes, 1)
        out = {}
        for name, unit in PER_LAYER:
            if name.endswith(".s"):
                value = self.self_s[name[: -len(".s")]] / n
            elif name.endswith(".calls"):
                value = self.calls[name[: -len(".calls")]] / n
            elif name == "bmo.us_per_cube":
                bmo_s = sum(s for k, s in self.self_s.items() if k.startswith("bmo."))
                cubes = self.counts["bmo.cubes_scanned"]
                value = 1e6 * bmo_s / cubes if cubes else 0.0
            elif name == "trace.overhead_s":
                continue
            else:
                value = self.counts[name] / n
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """All spans as [name, start, end, parent], seconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[name, start - t0, end - t0, parent] for name, start, end, parent in self.spans]
        with open(path, "w") as fh:
            json.dump({"passes": self.passes, "spans": rows}, fh, separators=(",", ":"))
