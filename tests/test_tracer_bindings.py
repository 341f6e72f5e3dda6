"""The benchmark tracer's bindings against wharm's public names.

perfbench/tracer.py wraps wharm functions by (module, name), and its span
and counter callbacks read some arguments by parameter name.  A traced run
fails on a name that is gone, so these names stay in step with wharm.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# parameters that the tracer's callbacks read from the bound arguments
READS = {
    ("operators", "weighted_operator_norm"): {"op", "grid"},
    ("operators", "assemble_matrix"): {"grid"},
    ("bmo", "bmo_norm"): {"flavor", "lattices"},
    ("squarefn", "hardy_norm"): {"flavor"},
}


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module: str, name: str):
    return getattr(importlib.import_module(f"wharm.{module}"), name, None)


def test_tracer_bindings_resolve_in_wharm():
    tracer = _tracer()
    bindings = [(m, f) for m, f, _, _ in tracer.INSTRUMENTS] + [(m, f) for m, f, _ in tracer.COUNTED]
    for module, name in bindings:
        assert callable(_resolve(module, name)), f"wharm.{module}.{name} is gone"
    for (module, name), params in READS.items():
        assert (module, name) in bindings
        missing = params - set(inspect.signature(_resolve(module, name)).parameters)
        assert not missing, f"wharm.{module}.{name} lost the parameters {sorted(missing)}"
    harness = importlib.import_module("wharm.harness")
    assert set(tracer.HARNESS_EXPERIMENTS) <= set(harness.EXPERIMENTS)
    assert set(tracer.BMO_GROUPS) == set(_resolve("bmo", "CLASSICAL_FLAVORS") + _resolve("bmo", "CARLESON_FLAVORS")
                                         + _resolve("bmo", "HALF_FLAVORS"))
