"""Streamed reports: the bytes of a one-shot rendering, written as rows are
made, with peak memory that does not grow with the row count."""

import csv
import io
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martinwalk import BudgetExceededError
from martinwalk.cli import _RECORD_FIELDS, Report, emit, main, parse_config, run, write_report
from martinwalk.compositions import StepSampler
from martinwalk.definetti import PolyaUrnSource, estimate_directing_measure


def oracle(report: Report, fmt: str) -> bytes:
    """The whole report rendered in one piece from a list of its rows."""
    rows = list(report.rows)
    if fmt == "json":
        doc = {
            "config": report.config,
            "records": report.records,
            "rows": [dict(zip(report.fields, row)) for row in rows],
            "summary": report.summary,
        }
        return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()
    buffer = io.StringIO()
    for key in sorted(report.config):
        buffer.write(f"# {key}={json.dumps(report.config[key], sort_keys=True)}\n")
    if rows:
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(report.fields)
        writer.writerows(rows)
    else:
        writer = csv.DictWriter(
            buffer, fieldnames=_RECORD_FIELDS, restval="", lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(report.records)
    return buffer.getvalue().encode()


_MIXTURE = {
    "kind": "mixture",
    "atoms": [["1/5", "4/5"], ["3/5", "2/5"]],
    "weights": ["1/2", "1/2"],
}
_MARKOV = {"kind": "markov", "initial": ["1/2", "1/2"], "rows": [["2/3", "1/3"], ["1/6", "5/6"]]}
_POLYA = {"kind": "polya", "initial": [1, 2]}
_CONFIGS = {
    "verify": {"command": "verify", "d": 2, "budget": 3},
    "kernel": {"command": "kernel", "d": 3, "budget": 3, "alpha": ["1/6", "1/3", "1/2"]},
    "kernel-float": {"command": "kernel", "mode": "float", "budget": 4, "alpha": [0.25, 0.75]},
    "simulate": {"command": "simulate", "d": 3, "horizon": 30, "replicates": 3, "seed": 4},
    "simulate-float": {
        "command": "simulate", "mode": "float", "alpha": [0.3, 0.7], "horizon": 20, "replicates": 2
    },
    "estimate-polya": {"command": "estimate", "source": _POLYA, "horizon": 50, "replicates": 7},
    "estimate-mixture": {
        "command": "estimate", "source": _MIXTURE, "horizon": 80, "replicates": 9, "seed": 2
    },
    "estimate-markov": {"command": "estimate", "source": _MARKOV, "horizon": 40, "replicates": 5},
    "lift": {"command": "lift", "points": ["5/8", "1/3"], "depth": 6},
    "lift-float": {"command": "lift", "mode": "float", "points": [0.625, 0.1], "depth": 5},
}


class TestOracleBytes:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("name", list(_CONFIGS))
    def test_command_report_equals_one_shot_rendering(self, name, fmt):
        report, _ = run(parse_config(json.dumps(_CONFIGS[name])))
        assert emit(report, fmt) == oracle(report, fmt)

    def test_verify_has_no_rows(self):
        report, _ = run(parse_config(json.dumps(_CONFIGS["verify"])))
        assert list(report.rows) == [] and report.records

    def test_float_cells(self):
        """Finite floats are written as their ``repr``, and NaN and the
        infinities as ``json.dumps`` writes them."""
        cells = [0.1, -0.0, 1e-310, 2.5e300, 1 / 3, float("nan"), float("inf"), float("-inf")]
        report = Report(
            config={"command": "estimate"},
            fields=("replicate", "y1"),
            rows=[(i, cell) for i, cell in enumerate(cells)],
            summary={"status": "ok"},
        )
        for fmt in ("json", "csv"):
            assert emit(report, fmt) == oracle(report, fmt)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_hostile_cells(self, data):
        text = st.text(alphabet=list('ab,"\n\r %#{}:\\é'), max_size=6)
        fields = data.draw(st.lists(text, min_size=1, max_size=4, unique=True))
        cell = st.one_of(text, st.integers(), st.floats(), st.booleans(), st.none())
        rows = data.draw(st.lists(st.tuples(*[cell] * len(fields)), max_size=5))
        report = Report(
            config={"command": "lift", "note": data.draw(text)},
            fields=tuple(fields),
            rows=rows,
            summary={"status": data.draw(text)},
        )
        assert emit(report, "json") == oracle(report, "json")
        if rows:
            assert emit(report, "csv") == oracle(report, "csv")


class TestErrorsWhileStreaming:
    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_sampler_budget_error_exits_3(self, tmp_path, capsysbinary, monkeypatch, to_file):
        sample = StepSampler.sample_path_counts

        def failing(self, n, seed, replicate):
            if replicate == 1:
                raise BudgetExceededError("sampler budget exhausted at replicate 1")
            return sample(self, n, seed, replicate)

        monkeypatch.setattr(StepSampler, "sample_path_counts", failing)
        cfg_path = tmp_path / "cfg.json"
        doc = {"command": "simulate", "d": 2, "horizon": 40, "replicates": 3, "format": "csv"}
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "out.csv"
        argv = ["simulate", "--config", str(cfg_path)] + (["--out", str(out)] if to_file else [])
        assert main(argv) == 3
        captured = capsysbinary.readouterr()
        assert b"error: sampler budget exhausted" in captured.err
        assert b"Traceback" not in captured.err
        written = out.read_bytes() if to_file else captured.out
        rows = [line for line in written.decode().splitlines() if line[:1].isdigit()]
        assert [int(line.split(",")[0]) for line in rows] == [0] * 41


class TestPeakMemory:
    @staticmethod
    def peak(replicates: int, fmt: str) -> int:
        doc = {"command": "simulate", "d": 3, "horizon": 2000, "replicates": replicates}
        tracemalloc.start()
        try:
            report, _ = run(parse_config(json.dumps(doc)))
            with open(os.devnull, "wb") as sink:
                write_report(report, fmt, sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_does_not_grow_with_rows(self, fmt):
        self.peak(2, fmt)  # lazy one-time set-up is not a cost of the rows
        assert self.peak(20, fmt) < 2 * self.peak(2, fmt)


class TestEstimatePeakMemory:
    """``estimate`` streams its rows from the samples array in blocks, and
    ``estimate_directing_measure`` fills that one float array block by block."""

    @staticmethod
    def peak(replicates: int, fmt: str) -> int:
        doc = {
            "command": "estimate",
            "source": {"kind": "polya", "initial": [1, 1]},
            "horizon": 10,
            "replicates": replicates,
        }
        tracemalloc.start()
        try:
            report, _ = run(parse_config(json.dumps(doc)))
            with open(os.devnull, "wb") as sink:
                write_report(report, fmt, sink)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_peak_grows_no_faster_than_the_samples(self, fmt):
        """Per replicate, the peak grows by a few copies of its samples row (the
        one float array and what the writer holds), not by a row of Python
        objects, which alone takes about nine such copies."""
        self.peak(100, fmt)  # lazy one-time set-up is not a cost of the rows
        small, large = 300, 3000
        samples = (large - small) * 2 * 8  # float64, d = 2
        assert self.peak(large, fmt) - self.peak(small, fmt) < 6 * samples

    def test_sampling_holds_no_copy_of_the_samples(self):
        """The sampled blocks go straight into the float array and are divided
        there, so no int stack or second float array is ever alive beside it."""

        def peak(replicates: int) -> int:
            tracemalloc.start()
            try:
                estimate_directing_measure(PolyaUrnSource((1, 1)), 10, replicates, seed=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # lazy one-time set-up is not a cost of the rows
        small, large = 1_000, 20_000
        samples = (large - small) * 2 * 8  # float64, d = 2
        assert peak(large) - peak(small) < 1.5 * samples
