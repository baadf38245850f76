"""The benchmark tracer wraps package names from outside; every name it
targets must still exist where it looks for it."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_trace_targets_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for group in tracing.Tracer.TARGETS.values() for t in group]
    assert targets
    for module, qualname in targets:
        owner = importlib.import_module(f"ctmcpert.{module}")
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in vars(owner), f"{module}.{qualname}"
