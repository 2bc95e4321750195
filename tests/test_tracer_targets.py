"""The benchmark tracer (``perfbench/tracer.py``) wraps package functions from
outside, by name; a renamed target would make a traced run fail at install."""

import importlib
import inspect
import types
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    """Execute the tracer source without importing it, so nothing is written
    next to it (no bytecode cache)."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_target_resolves_on_the_package():
    tracer = load_tracer()
    assert tracer.TARGETS
    for module, attr, name, count in tracer.TARGETS:
        target = importlib.import_module(f"martinwalk.{module}")
        for part in attr.split("."):
            assert hasattr(target, part), f"tracer target martinwalk.{module}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), f"martinwalk.{module}.{attr}"
        assert name in tracer.SPAN_NAMES
        assert count is None or count in tracer.COUNTS
        if count == "replicates":
            # the count reads (start, stop) from the positional arguments
            assert list(inspect.signature(target).parameters)[3:5] == ["start", "stop"]
