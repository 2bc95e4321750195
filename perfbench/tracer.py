"""Span recorder for martinwalk's layers, installed from outside the package.

``Tracer.install`` wraps the module functions and ``GradedChain`` methods
listed in ``TARGETS`` in every namespace callers reach them through (a name
imported with ``from .chain import x`` is rebound in the importing module
too).  Each call becomes one span: name, start, end, parent span and an
optional count taken from its arguments or result.  Spans stay in flat
arrays in memory and are written out once, by ``dump``, after the report.

Forked pool workers (``estimate --workers N``) inherit the wrappers; a fork
hook switches them to appending each finished span to a per-process file,
because a pool worker never returns to the code that would call ``dump``.

``layer_totals`` reads the files back and derives per-name calls, self time
(span duration minus the time its child spans cover), inclusive time and
count totals.
"""

from __future__ import annotations

import array
import functools
import glob
import importlib
import json
import os
import sys
import time


def _checks(result) -> int:
    if isinstance(result, list):
        return sum(r.checked for r in result)
    return result.checked


#: count name -> how to read it from (args, result) of one call
COUNTS = {
    "bytes": lambda args, result: len(result),
    "atoms": lambda args, result: len(result.atoms),
    "states": lambda args, result: len(result),
    "replicates": lambda args, result: args[4] - args[3],
    "checks": lambda args, result: _checks(result),
}

_SUITES = (
    "oracle_equivalence_report",
    "cylinder_markov_report",
    "kernel_agreement_report",
    "kernel_symmetry_report",
    "martingale_identity_report",
    "expectation_identity_report",
    "boundary_harmonicity_report",
    "unnormalized_rejection_report",
    "representation_report",
    "transform_identity_reports",
    "lemma_reports",
    "recovery_identity_report",
    "identity_reports",
    "digit_roundtrip_report",
    "projection_report",
    "lift_exchangeability_report",
)

#: (module under martinwalk, attribute or Class.method, span name, count name)
TARGETS = (
    [
        ("cli", "parse_config", "cli.parse_config", None),
        ("cli", "run", "cli.run", None),
        ("cli", "emit", "cli.emit", "bytes"),
    ]
    + [
        ("chain", f"GradedChain.{m}", f"chain.{m}", None)
        for m in (
            "forward_law",
            "conditional_law",
            "martin_kernel",
            "backward_conditional",
            "cotransition",
            "successors",
            "enumerate_level",
        )
    ]
    + [
        ("chain", "GradedChain.cylinder_law", "chain.cylinder_law", "atoms"),
        ("chain", "GradedChain.sample_path", "chain.sample_path", "states"),
        ("chain", "GradedChain.check_row_stochastic", "suites.check_row_stochastic", "checks"),
        ("chain", "GradedChain.check_weak_irreducibility", "suites.check_weak_irreducibility", "checks"),
    ]
    + [
        ("compositions", f, f"compositions.{f}", None)
        for f in ("closed_form_kernel", "boundary_kernel", "compositions")
    ]
    + [
        ("harmonic", f, f"harmonic.{f}", None)
        for f in (
            "is_harmonic",
            "recover_h",
            "density_ratio_check",
            "kernel_transform_check",
            "cotransition_equality_check",
            "representation_check",
        )
    ]
    + [
        ("definetti", "source_cylinder_law", "definetti.source_cylinder_law", "atoms"),
        ("definetti", "counting_chain_law", "definetti.counting_chain_law", None),
        ("definetti", "counting_chain", "definetti.counting_chain", None),
        ("definetti", "counting_h_recovery", "definetti.counting_h_recovery", None),
        ("definetti", "estimate_directing_measure", "definetti.estimate_directing_measure", None),
        ("definetti", "PolyaUrnSource.sample_final_counts", "definetti.sample_final_counts", "replicates"),
        ("definetti", "MixtureSource.sample_final_counts", "definetti.sample_final_counts", "replicates"),
        ("reports", "CheckReport.record", "reports.record", None),
    ]
    + [("suites", f, f"suites.{f}", "checks") for f in _SUITES]
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


class Tracer:
    def __init__(self, run_id: int):
        self.run_id = run_id
        self.ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.name = array.array("H")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("l")
        self.count = array.array("q")
        self.stack: list[int] = []
        self.worker_path = None

    @classmethod
    def install(cls, run_id: int, spans_path: str) -> "Tracer":
        tracer = cls(run_id)
        for module, attr, name, count in TARGETS:
            tracer._wrap(importlib.import_module(f"martinwalk.{module}"), attr, name, count)

        def enter_worker():
            # the wrappers hold these containers, so empty them in place
            for values in (tracer.name, tracer.start, tracer.end, tracer.parent, tracer.count):
                del values[:]
            tracer.stack.clear()
            tracer.worker_path = f"{spans_path}.{os.getpid()}.jsonl"

        os.register_at_fork(after_in_child=enter_worker)
        return tracer

    def _wrap(self, module, attr: str, name: str, count) -> None:
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, method)
        wrapper = self._wrapper(original, self.ids[name], COUNTS.get(count))
        if owner_name:
            setattr(owner, method, wrapper)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "martinwalk" or mod_name.startswith("martinwalk."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def _wrapper(self, fn, name_id: int, count):
        clock = time.perf_counter
        names, starts, ends, parents, counts = (
            self.name, self.start, self.end, self.parent, self.count
        )
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            counts.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                counts[index] = count(args, result)
            if self.worker_path is not None and not stack:
                self._flush_worker_span(index)
            return result

        return traced

    def _flush_worker_span(self, index: int) -> None:
        span = {
            "name": SPAN_NAMES[self.name[index]],
            "start": self.start[index],
            "end": self.end[index],
            "count": self.count[index],
            "run": self.run_id,
        }
        with open(self.worker_path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(span) + "\n")

    def dump(self, spans_path: str) -> None:
        """Write the main process's spans: a JSON header and five raw arrays."""
        header = {
            "run": self.run_id,
            "names": list(SPAN_NAMES),
            "spans": len(self.start),
            "arrays": [["name", "H"], ["start", "d"], ["end", "d"], ["parent", "l"], ["count", "q"]],
        }
        with open(spans_path + ".json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)
        with open(spans_path + ".bin", "wb") as fh:
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)


# -- reading spans back -------------------------------------------------------------


def load_spans(spans_path: str) -> dict:
    """Spans of one traced invocation: main-process arrays plus worker spans."""
    with open(spans_path + ".json", encoding="utf-8") as fh:
        header = json.load(fh)
    spans = {}
    with open(spans_path + ".bin", "rb") as fh:
        for field, code in header["arrays"]:
            values = array.array(code)
            values.fromfile(fh, header["spans"])
            spans[field] = values
    spans["names"] = header["names"]
    spans["run"] = header["run"]
    spans["workers"] = []
    for path in sorted(glob.glob(glob.escape(spans_path) + ".*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans["workers"].extend(json.loads(line) for line in fh)
    return spans


def layer_totals(spans: dict) -> dict[str, dict]:
    """Per span name: calls, inclusive and self seconds, and the summed count."""
    names = spans["names"]
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    duration = [e - s for s, e in zip(start, end)]
    self_time = list(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            self_time[p] -= duration[i]
    totals = {n: {"calls": 0, "s": 0.0, "self_s": 0.0, "count": 0} for n in names}
    for i, name_id in enumerate(spans["name"]):
        entry = totals[names[name_id]]
        entry["calls"] += 1
        entry["s"] += duration[i]
        entry["self_s"] += self_time[i]
        entry["count"] += spans["count"][i]
    for span in spans["workers"]:
        entry = totals[span["name"]]
        entry["calls"] += 1
        entry["s"] += span["end"] - span["start"]
        entry["self_s"] += span["end"] - span["start"]
        entry["count"] += span["count"]
    return totals
