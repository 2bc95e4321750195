"""Config parsing, command execution, output determinism, exit statuses."""

import contextlib
import csv
import hashlib
import io
import json
import re
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from martinwalk import BudgetExceededError, ConfigError, kernel_rows, uniform_walk
from martinwalk.cli import (
    _COMMAND_KEYS,
    _RUNNERS,
    COMMANDS,
    MAX_KERNEL_PAIRS,
    MAX_LIFT_DEPTH,
    Report,
    emit,
    kernel_pair_count,
    main,
    parse_config,
    run,
)


def config_text(**kwargs):
    return json.dumps(kwargs)


#: the keys besides ``horizon`` of a small config for each sampling command
HORIZON_KEYS = {
    "estimate": {"source": {"kind": "polya", "initial": [1, 2]}, "replicates": 3},
    "simulate": {"d": 2, "replicates": 1},
}


class TestParseConfig:
    def test_minimal_verify(self):
        cfg = parse_config(config_text(command="verify", d=2, budget=6, seed=0))
        assert cfg.command == "verify"
        assert cfg.d == 2 and cfg.budget == 6 and cfg.seed == 0

    def test_seed_defaults_to_zero_and_is_echoed(self):
        cfg = parse_config(config_text(command="verify", d=2, budget=4))
        assert cfg.seed == 0
        assert cfg.echo()["seed"] == 0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(command="verify", d=2, bogus=1))

    def test_rational_alpha(self):
        cfg = parse_config(config_text(command="simulate", alpha=["7/10", "3/10"], horizon=5))
        assert cfg.alpha == (Fraction(7, 10), Fraction(3, 10))

    def test_malformed_rational(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(command="simulate", alpha=["7/0", "3/10"]))

    def test_float_requires_mode_marker(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(command="simulate", alpha=[0.7, 0.3]))
        cfg = parse_config(config_text(command="simulate", alpha=[0.7, 0.3], mode="float"))
        assert cfg.alpha == (0.7, 0.3)

    def test_simplex_violation(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(command="simulate", alpha=[0.7, 0.4], mode="float"))

    def test_alpha_dimension_conflict(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(command="simulate", d=3, alpha=["1/2", "1/2"]))

    def test_command_conflict_with_override(self):
        with pytest.raises(ConfigError):
            parse_config(config_text(command="verify", d=2), overrides={"command": "kernel"})

    def test_not_json(self):
        with pytest.raises(ConfigError):
            parse_config("command: verify")

    def test_source_kinds(self):
        cfg = parse_config(
            config_text(
                command="estimate",
                source={"kind": "polya", "initial": [1, 1]},
                horizon=10,
                replicates=2,
            )
        )
        assert cfg.source.d == 2
        with pytest.raises(ConfigError):
            parse_config(
                config_text(command="estimate", source={"kind": "urn"}, horizon=1, replicates=1)
            )


class TestRun:
    def test_verify_passes_with_zero_residuals(self):
        cfg = parse_config(config_text(command="verify", d=2, budget=4, seed=0))
        report, status = run(cfg)
        assert status == 0
        assert report.records
        assert all(r["status"] == "pass" for r in report.records)
        assert all(r["residual"] == "0/1" for r in report.records if r["mode"] == "exact")

    def test_simulate_degenerate_trajectory(self):
        cfg = parse_config(
            config_text(command="simulate", alpha=["1/1", "0/1"], horizon=5, replicates=1)
        )
        report, status = run(cfg)
        assert status == 0
        rows = json.loads(emit(report))["rows"]
        parts = [(r["part_1"], r["part_2"]) for r in rows]
        assert parts == [(k, 0) for k in range(6)]

    def test_kernel_rows(self):
        cfg = parse_config(config_text(command="kernel", d=2, budget=2, alpha=["1/2", "1/2"]))
        report, status = run(cfg)
        assert status == 0
        rows = json.loads(emit(report))["rows"]
        lattice = [r for r in rows if r["kind"] == "lattice"]
        boundary = [r for r in rows if r["kind"] == "boundary"]
        assert lattice and boundary
        assert all(r["value"] == "1/1" for r in boundary)

    def test_lift_records(self):
        cfg = parse_config(config_text(command="lift", points=["5/8", "1/4"], depth=6))
        report, status = run(cfg)
        assert status == 0
        rows = json.loads(emit(report))["rows"]
        digits = {r["point"]: r["digits"] for r in rows}
        assert digits["5/8"] == "101000"

    def test_estimate_summary(self):
        cfg = parse_config(
            config_text(
                command="estimate",
                source={
                    "kind": "mixture",
                    "atoms": [["1/5", "4/5"], ["3/5", "2/5"]],
                    "weights": ["1/2", "1/2"],
                },
                horizon=500,
                replicates=40,
                seed=7,
            )
        )
        report, status = run(cfg)
        assert status == 0
        assert len(list(report.rows)) == 40
        assert "clusters" in report.summary

    def test_budget_exceeded(self):
        cfg = parse_config(config_text(command="verify", d=2, budget=30))
        with pytest.raises(BudgetExceededError):
            run(cfg)


class TestEmit:
    def test_empty_report_header_only_csv(self):
        payload = emit(Report(config={"command": "verify", "seed": 0}), "csv")
        lines = payload.decode().splitlines()
        assert lines[0].startswith("#")
        assert lines[-1].startswith("name,mode,status")

    def test_failing_record_renders_rational_residual(self):
        report = Report(
            config={"command": "verify", "seed": 0},
            records=[
                {
                    "name": "demo",
                    "mode": "exact",
                    "status": "fail",
                    "checked": 1,
                    "violations": 1,
                    "residual": "1/3",
                }
            ],
        )
        assert b"1/3" in emit(report, "csv")
        assert b'"residual": "1/3"' in emit(report, "json")

    def test_byte_identical_reruns(self):
        cfg = parse_config(
            config_text(
                command="estimate",
                source={"kind": "polya", "initial": [1, 1]},
                horizon=200,
                replicates=30,
                seed=5,
                format="csv",
            )
        )
        first, _ = run(cfg)
        second, _ = run(cfg)
        assert emit(first, "csv") == emit(second, "csv")
        assert emit(first, "json") == emit(second, "json")

    def test_byte_identical_across_workers(self):
        base = dict(
            command="estimate",
            source={"kind": "polya", "initial": [2, 1]},
            horizon=200,
            replicates=50,
            seed=13,
        )
        r1, _ = run(parse_config(config_text(**base, workers=1)))
        r2, _ = run(parse_config(config_text(**base, workers=4)))
        assert emit(r1, "csv") == emit(r2, "csv")


class TestMain:
    def test_end_to_end(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command="lift", points=["5/8"], depth=4))
        assert main(["lift", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert '"digits": "1010"' in out

    def test_stdout_bytes_equal_out_file_bytes(self, tmp_path, capsysbinary):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            config_text(command="simulate", d=3, horizon=40, replicates=3, seed=2, format="csv")
        )
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 0
        capsysbinary.readouterr()
        assert main(["simulate", "--config", str(cfg_path)]) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_out_file_and_overrides(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            config_text(
                command="estimate",
                source={"kind": "polya", "initial": [1, 1]},
                horizon=100,
                replicates=10,
            )
        )
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert (
            main(
                [
                    "estimate",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out_a),
                    "--format",
                    "csv",
                    "--seed",
                    "3",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "estimate",
                    "--config",
                    str(cfg_path),
                    "--out",
                    str(out_b),
                    "--format",
                    "csv",
                    "--seed",
                    "3",
                    "--workers",
                    "2",
                ]
            )
            == 0
        )
        assert out_a.read_bytes() == out_b.read_bytes()
        assert b"# seed=3" in out_a.read_bytes()

    def test_config_error_status(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command="verify", nonsense=True))
        assert main(["verify", "--config", str(cfg_path)]) == 2

    def test_budget_error_status(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command="verify", d=2, budget=25))
        assert main(["verify", "--config", str(cfg_path)]) == 3

    def test_missing_config_file(self):
        assert main(["verify", "--config", "/nonexistent/cfg.json"]) == 2

    def test_unwritable_out_path(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command="lift", points=["5/8"], depth=4))
        out = tmp_path / "missing" / "x.json"
        assert main(["lift", "--config", str(cfg_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report: ") and "Traceback" not in err


class TestGoldenBytes:
    """Report digests: the first three recorded before the exact engine's routes
    were merged, the next two before rows became tuples under one header, the
    d=3 ``verify`` and float-mode ones before the float tolerance and the atom
    budget became constants, d=3 ``verify`` at budget 8 before the exact
    laws became int numerators, d=3 ``kernel`` before its row loop moved
    onto ``kernel_rows``, a repeated ``lift`` point before the lift's
    laws became tables, and d=2 ``verify`` at budget 12, the deepest backward
    chain ``verify`` admits, before backward laws became tables; any change to ``verify``/``kernel``/``lift`` bytes
    must be deliberate."""

    @pytest.mark.parametrize(
        "doc, fmt, digest",
        [
            (
                {"command": "verify", "d": 2, "budget": 4},
                "json",
                "ee848b4ce3329d399561e350c2bf194a34c4299808055a270276829790610eda",
            ),
            (
                {"command": "kernel", "d": 2, "budget": 4, "alpha": ["1/3", "2/3"]},
                "json",
                "485efae5b095de36e5fc82f29cf87582f50173e22eb61828dc8c44f081505925",
            ),
            (
                {"command": "lift", "points": ["5/8", "1/4"], "depth": 4},
                "json",
                "1bb95a7bc361639cb4a88dffba4fbb0d4fe1eb0a35f17da381c2fd1f280036f3",
            ),
            (
                {"command": "kernel", "d": 2, "budget": 4, "alpha": ["1/3", "2/3"]},
                "csv",
                "4b60308dd95b25b8e941dd5098d5f74ffa8bff759afa0c3e6ea96f0da19a8b8e",
            ),
            (
                {"command": "lift", "points": ["5/8", "1/4"], "depth": 4},
                "csv",
                "b2c2d792dc9b2005489078d1d9bcae0f215bb230fc954276747b721dea39ffa0",
            ),
            (
                {"command": "verify", "d": 3, "budget": 6},
                "json",
                "94b4304715208885af56e23a68c266e14c7bd4ba331b3db20d4e597ebe7ea36f",
            ),
            (
                {"command": "verify", "d": 3, "budget": 6},
                "csv",
                "da02999fd2f261b602fa4bbc8dfee7c4862d546966bb4ec4503c10211611c781",
            ),
            (
                {"command": "kernel", "mode": "float", "d": 2, "budget": 4, "alpha": [0.25, 0.75]},
                "json",
                "546bc6a7a1fb42099e74f145cecffcae45f1138817831391af9431026108e678",
            ),
            (
                {"command": "lift", "mode": "float", "points": [0.625, 0.25], "depth": 4},
                "json",
                "8064d05ae20887780f94688133c11c042948142bc1504d76a91e4f13f1e18e65",
            ),
            (
                {"command": "verify", "d": 3, "budget": 8},
                "json",
                "9c25590095118e09356c475e61ce8320a65297cf984e5237f94d3c0a21dfcd6b",
            ),
            (
                {"command": "kernel", "d": 3, "budget": 6, "alpha": ["1/5", "1/3", "7/15"]},
                "json",
                "229c2c9253ff9d830d9ad2ec674eb826e5eb94f7e25309b0c824ff5eb4d0fbf5",
            ),
            (
                {"command": "kernel", "d": 3, "budget": 6, "alpha": ["1/5", "1/3", "7/15"]},
                "csv",
                "49ca6e30d2ebc437678bfa4425dac6347595241c2363a0a12490b6b9cf50b2ae",
            ),
            (
                {"command": "lift", "points": ["1/4", "1/4", "5/8"], "depth": 4},
                "json",
                "189c6e7d723b41f9b28c226b898a4f89a6115c1d203dd64963a57c992abbbc62",
            ),
            (
                {"command": "lift", "points": ["1/4", "1/4", "5/8"], "depth": 4},
                "csv",
                "cc247a8f8598e7e6f1e701194ddc84bd7a30762586136b1200756214b2401fa1",
            ),
            (
                {"command": "verify", "d": 2, "budget": 12},
                "json",
                "5404b3d4c1aa3c1cd64a024d13d85cf08f06ef5a1f5d7232913009040f3303f0",
            ),
        ],
        ids=[
            "verify",
            "kernel",
            "lift",
            "kernel-csv",
            "lift-csv",
            "verify-d3",
            "verify-d3-csv",
            "kernel-float",
            "lift-float",
            "verify-d3-budget8",
            "kernel-d3",
            "kernel-d3-csv",
            "lift-repeated-point",
            "lift-repeated-point-csv",
            "verify-d2-budget12",
        ],
    )
    def test_report_digest(self, doc, fmt, digest):
        report, status = run(parse_config(json.dumps(doc)))
        assert status == 0
        assert hashlib.sha256(emit(report, fmt)).hexdigest() == digest


class TestRowShape:
    """JSON and CSV render the same tuple rows under the one ``Report.fields`` header."""

    @pytest.mark.parametrize(
        "doc",
        [
            {"command": "kernel", "d": 2, "budget": 2, "alpha": ["1/3", "2/3"]},
            {"command": "simulate", "d": 3, "horizon": 6, "replicates": 2, "seed": 1},
            {
                "command": "estimate",
                "source": {"kind": "polya", "initial": [1, 2]},
                "horizon": 20,
                "replicates": 5,
            },
            {"command": "lift", "points": ["1/3", "5/8"], "depth": 5},
        ],
        ids=["kernel", "simulate", "estimate", "lift"],
    )
    def test_json_and_csv_rows_agree(self, doc):
        report, _ = run(parse_config(json.dumps(doc)))
        rows = json.loads(emit(report, "json"))["rows"]
        lines = [line for line in emit(report, "csv").decode().splitlines() if line[:1] != "#"]
        header, *parsed = csv.reader(lines)
        assert rows
        assert all(set(row) == set(report.fields) for row in rows)
        assert tuple(header) == report.fields
        assert parsed == [[str(row[f]) for f in report.fields] for row in rows]


_ECHO_BASE = {"seed": 0, "mode": "exact", "format": "json"}
_MARKOV = {"initial": ["1/2", "1/2"], "rows": [["2/3", "1/3"], ["1/6", "5/6"]]}


class TestEcho:
    """``RunConfig.echo`` for one config per command and source kind, plus
    float mode, integer weights and an alpha with a zero part; the expected
    dicts were recorded before the echo was derived from the key tables."""

    CASES = {
        "verify": (
            {"command": "verify", "d": 3, "budget": 4},
            {"command": "verify", "d": 3, "budget": 4},
        ),
        "kernel": (
            {"command": "kernel", "budget": 3, "alpha": ["1/3", "2/3"], "seed": 5},
            {"command": "kernel", "seed": 5, "d": 2, "budget": 3, "alpha": ["1/3", "2/3"]},
        ),
        "kernel-zero-part": (
            {"command": "kernel", "budget": 2, "alpha": ["0", "1"]},
            {"command": "kernel", "d": 2, "budget": 2, "alpha": ["0/1", "1/1"]},
        ),
        "simulate": (
            {
                "command": "simulate",
                "d": 3,
                "horizon": 20,
                "replicates": 2,
                "workers": 2,
                "out": "x.csv",
                "format": "csv",
            },
            {"command": "simulate", "format": "csv", "d": 3, "horizon": 20, "replicates": 2},
        ),
        "simulate-float": (
            {"command": "simulate", "mode": "float", "alpha": [0.25, 0.75], "horizon": 10},
            {
                "command": "simulate",
                "mode": "float",
                "d": 2,
                "alpha": ["0.25", "0.75"],
                "horizon": 10,
                "replicates": 100,
            },
        ),
        "estimate-mixture": (
            {
                "command": "estimate",
                "source": {
                    "kind": "mixture",
                    "atoms": [["1/5", "4/5"], ["3/5", "2/5"]],
                    "weights": ["1/2", "1/2"],
                },
                "horizon": 50,
                "replicates": 10,
            },
            {
                "command": "estimate",
                "source": {
                    "kind": "mixture",
                    "atoms": [["1/5", "4/5"], ["3/5", "2/5"]],
                    "weights": ["1/2", "1/2"],
                },
                "horizon": 50,
                "replicates": 10,
            },
        ),
        "estimate-mixture-int-weights": (
            {
                "command": "estimate",
                "source": {"kind": "mixture", "atoms": [[0, 1]], "weights": [1]},
            },
            {
                "command": "estimate",
                "source": {"kind": "mixture", "atoms": [["0/1", "1/1"]], "weights": ["1/1"]},
                "horizon": 1000,
                "replicates": 100,
            },
        ),
        "estimate-polya": (
            {"command": "estimate", "source": {"kind": "polya", "initial": [1, 2, 3]}, "seed": 7},
            {
                "command": "estimate",
                "seed": 7,
                "source": {"kind": "polya", "initial": [1, 2, 3]},
                "horizon": 1000,
                "replicates": 100,
            },
        ),
        "estimate-markov": (
            {"command": "estimate", "source": {"kind": "markov", **_MARKOV}},
            {
                "command": "estimate",
                "source": {"kind": "markov", **_MARKOV},
                "horizon": 1000,
                "replicates": 100,
            },
        ),
        "estimate-markov-float": (
            {
                "command": "estimate",
                "mode": "float",
                "source": {"kind": "markov", "initial": [0.5, 0.5], "rows": [[1, 0], [0.25, 0.75]]},
            },
            {
                "command": "estimate",
                "mode": "float",
                "source": {
                    "kind": "markov",
                    "initial": ["0.5", "0.5"],
                    "rows": [["1/1", "0/1"], ["0.25", "0.75"]],
                },
                "horizon": 1000,
                "replicates": 100,
            },
        ),
        "lift": (
            {"command": "lift", "points": ["5/8", "1/4", 0], "depth": 4},
            {"command": "lift", "points": ["5/8", "1/4", "0/1"], "depth": 4},
        ),
        "lift-float": (
            {"command": "lift", "mode": "float", "points": [0.625], "depth": 3},
            {"command": "lift", "mode": "float", "points": ["0.625"], "depth": 3},
        ),
    }

    @pytest.mark.parametrize("case", CASES, ids=list(CASES))
    def test_echo(self, case):
        doc, expected = self.CASES[case]
        assert parse_config(json.dumps(doc)).echo() == {**_ECHO_BASE, **expected}


class TestCommandTable:
    def test_every_command_has_keys_and_a_runner(self):
        assert COMMANDS == tuple(_COMMAND_KEYS) == tuple(_RUNNERS)


class TestRegressions:
    def test_verify_single_part_passes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command="verify", d=1, budget=4))
        assert main(["verify", "--config", str(cfg_path), "--out", str(tmp_path / "r.json")]) == 0

    def test_fractional_polya_initial_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(
                config_text(command="estimate", source={"kind": "polya", "initial": [1.5, 2]})
            )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            config_text(
                command="estimate",
                source={"kind": "polya", "initial": [1.5, 2]},
                horizon=10,
                replicates=2,
            )
        )
        assert main(["estimate", "--config", str(cfg_path)]) == 2

    def test_boolean_polya_initial_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(
                config_text(command="estimate", source={"kind": "polya", "initial": [True, 2]})
            )
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"command": "estimate", "source": {"kind": "polya", "initial": [true, 2]}}'
        )
        assert main(["estimate", "--config", str(cfg_path)]) == 2

    def test_readme_markov_estimate_runs_for_any_worker_count(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
        (doc,) = [b for b in blocks if b.get("source", {}).get("kind") == "markov"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        outputs = []
        for workers in ("1", "3"):
            out = tmp_path / f"workers-{workers}.json"
            argv = ["estimate", "--config", str(cfg_path), "--out", str(out), "--workers", workers]
            assert main(argv) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        assert len(json.loads(outputs[0])["rows"]) == doc["replicates"]

    @pytest.mark.parametrize("command", ["estimate", "simulate"])
    def test_horizon_past_int64_is_a_config_error(self, tmp_path, capsys, command):
        # numpy draws int64 sizes: 2**63 used to end in OverflowError or ValueError
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command=command, horizon=2**63, **HORIZON_KEYS[command]))
        assert main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: horizon must be at most 2**63 - 1") and "Traceback" not in err

    def test_unallocatable_simulate_horizon_exits_3(self, tmp_path, capsys):
        # one path array of (2**62 + 1) x 2 counts used to end in numpy's ValueError
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        doc = dict(HORIZON_KEYS["simulate"], command="simulate", horizon=2**62)
        cfg_path.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: horizon 4611686018427387904 needs a path array")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()  # rejected before a byte of the report is written

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_estimate_over_the_atom_budget_exits_3(self, tmp_path, capsys, workers):
        # 10**10 replicates used to build a task list of 4e7 tuples, then a MemoryError
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        doc = dict(HORIZON_KEYS["estimate"], command="estimate", horizon=100, replicates=10**10)
        cfg_path.write_text(json.dumps(doc))
        argv = ["estimate", "--config", str(cfg_path), "--out", str(out), "--workers", workers]
        start = time.perf_counter()
        assert main(argv) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.err.startswith("error: 10000000000 replicates need a sample array")
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_largest_horizon_estimates(self, tmp_path):
        # the urn draws Y_n in O(d) per replicate, whatever the horizon
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        doc = dict(HORIZON_KEYS["estimate"], command="estimate", horizon=2**63 - 1)
        cfg_path.write_text(json.dumps(doc))
        assert main(["estimate", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert len(json.loads(out.read_bytes())["rows"]) == 3

    @pytest.mark.parametrize("d", [2, 3])
    def test_verify_budget_one_is_a_config_error(self, tmp_path, capsys, d):
        # the Markov-property check needs two-step paths: budget 1 used to end in ValueError
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command="verify", d=d, budget=1))
        assert main(["verify", "--config", str(cfg_path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: budget must be an integer >= 2, got 1")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_lift_depth_limit(self, tmp_path, capsys):
        # a 2**-depth residual of more than 4,300 digits used to end in ValueError
        cfg_path, out = tmp_path / "cfg.json", tmp_path / "r.json"
        for depth, status in ((MAX_LIFT_DEPTH, 0), (MAX_LIFT_DEPTH + 1, 2)):
            cfg_path.write_text(config_text(command="lift", points=["5/8", "1/3"], depth=depth))
            assert main(["lift", "--config", str(cfg_path), "--out", str(out)]) == status
        assert json.loads(out.read_bytes())["summary"]["status"] == "pass"
        err = capsys.readouterr().err
        assert err.startswith(f"error: depth must be at most {MAX_LIFT_DEPTH}, got 10001")
        assert "Traceback" not in err

    def test_pair_counts(self):
        assert kernel_pair_count(3, 8) == 16_071
        assert kernel_pair_count(4, 10) == 592_878
        assert kernel_pair_count(1, 12) == 91
        assert kernel_pair_count(3, 8) <= MAX_KERNEL_PAIRS < kernel_pair_count(4, 10)

    def test_pair_count_matches_kernel_rows(self):
        report, _ = run(parse_config(config_text(command="kernel", d=3, budget=3)))
        assert len(json.loads(emit(report))["rows"]) == kernel_pair_count(3, 3)
        # the admission's closed form counts the entries of the walk it admits
        for d in range(1, 5):
            walk = uniform_walk(d)
            for budget in range(7):
                walked = sum(len(row) for _, _, row in kernel_rows(walk, budget))
                assert walked == kernel_pair_count(d, budget), (d, budget)

    @pytest.mark.parametrize("command", ["verify", "kernel"])
    def test_pair_budget_rejects_before_work(self, tmp_path, command):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config_text(command=command, d=10, budget=12))
        start = time.perf_counter()
        assert main([command, "--config", str(cfg_path)]) == 3
        assert time.perf_counter() - start < 1.0


def _simplex(d):
    """Rational points of the d-simplex as "p/q" strings."""
    return (
        st.lists(st.integers(0, 4), min_size=d, max_size=d)
        .filter(lambda ks: sum(ks) > 0)
        .map(lambda ks: [f"{k}/{sum(ks)}" for k in ks])
    )


@st.composite
def _sources(draw):
    d = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["mixture", "polya", "markov"]))
    if kind == "mixture":
        atoms = draw(st.lists(_simplex(d), min_size=1, max_size=3))
        return {"kind": kind, "atoms": atoms, "weights": draw(_simplex(len(atoms)))}
    if kind == "polya":
        return {"kind": kind, "initial": draw(st.lists(st.integers(1, 5), min_size=d, max_size=d))}
    rows = draw(st.lists(_simplex(d), min_size=d, max_size=d))
    return {"kind": kind, "initial": draw(_simplex(d)), "rows": rows}


class TestEstimateProperty:
    @given(
        source=_sources(),
        horizon=st.integers(1, 200),
        replicates=st.integers(1, 40),
        seed=st.integers(0, 2**64),
    )
    @settings(max_examples=25, deadline=None)
    def test_small_estimates_run_on_the_simplex_for_any_worker_count(
        self, source, horizon, replicates, seed
    ):
        doc = {
            "command": "estimate",
            "source": source,
            "horizon": horizon,
            "replicates": replicates,
            "seed": seed,
        }
        outputs = []
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = Path(tmp) / "cfg.json"
            cfg_path.write_text(json.dumps(doc))
            for workers in ("1", "2"):
                out = Path(tmp) / f"workers-{workers}.json"
                argv = ["estimate", "--config", str(cfg_path), "--workers", workers]
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    status = main([*argv, "--out", str(out)])
                assert status == 0 and "Traceback" not in stderr.getvalue(), stderr.getvalue()
                outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        rows = json.loads(outputs[0])["rows"]
        assert [r["replicate"] for r in rows] == list(range(replicates))
        d = len(source.get("initial") or source["atoms"][0])
        for row in rows:
            coords = [row[f"coord_{i + 1}"] for i in range(d)]
            assert abs(sum(coords) - 1) <= 1e-9
            assert all(c >= 0 and abs(c * horizon - round(c * horizon)) <= 1e-6 for c in coords)
