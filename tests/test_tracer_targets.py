"""The benchmark tracer (``perfbench/tracer.py``) wraps package functions from
outside, by name; a renamed target would make a traced run fail at install."""

import importlib
import inspect
import types
from pathlib import Path

from martinwalk import PolyaUrnSource, source_cylinder_law, uniform_walk

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


#: attr of each target counted as "atoms" -> a real law it returns, and its path or word count
ATOM_LAWS = {
    "GradedChain.cylinder_law": (lambda: uniform_walk(2).cylinder_law(3), 8),
    "source_cylinder_law": (lambda: source_cylinder_law(PolyaUrnSource((1, 1, 1)), 3), 27),
}


def test_atom_count_reads_real_laws():
    """A renamed ``atoms`` fails here, not in a traced run."""
    tracer = load_tracer()
    counted = [attr for _, attr, _, count in tracer.TARGETS if count == "atoms"]
    assert sorted(counted) == sorted(ATOM_LAWS)
    for attr in counted:
        build, size = ATOM_LAWS[attr]
        assert tracer.COUNTS["atoms"]((), build()) == size
