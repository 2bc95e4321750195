"""Configuration-driven entry point.

Commands: ``verify`` (exact invariant suites), ``kernel`` (tabulate lattice
and boundary kernels), ``simulate`` (trajectories), ``estimate``
(directing-measure recovery), ``lift`` (binary-expansion pipeline).

Configs are strict JSON: unknown keys are rejected, rationals travel as
"p/q" strings, and floats require ``"mode": "float"``.  Outputs are
canonical (sorted keys, no timestamps) so a fixed config and seed yield
byte-identical reports, regardless of worker count.  Exit status: 0 all
checks pass, 1 check failure, 2 bad config or an ``--out`` path that cannot
be written, 3 budget exceeded (level, kernel-pair count, or the size of a
path or sample array).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

from .chain import DEFAULT_ATOM_BUDGET, DistributionTable, kernel_rows
from .compositions import alpha_walk, boundary_kernel, uniform_walk
from .definetti import (
    MarkovSource,
    MixtureSource,
    PolyaUrnSource,
    binary_digits,
    estimate_directing_measure,
    projection_consistency_check,
    reconstruct_real,
)
from .errors import BudgetExceededError, ConfigError
from .parallel import usable_cores
from .prob import Prob, format_prob, parse_prob, validate_simplex
from .reports import CheckReport
from .suites import full_verification

#: largest level budget the exact verification suites will accept
MAX_EXACT_BUDGET = 12

#: most kernel pairs (x, y) that ``verify`` and ``kernel`` will walk; a bound on
#: time, since reports are streamed.  d=4 at budget 8 (149,292 pairs) is
#: admitted; d=4 at budget 10 (592,878 pairs) is not.
MAX_KERNEL_PAIRS = 150_000

#: deepest ``lift``: from depth 14,284 Python refuses to print its 2**-depth residual
MAX_LIFT_DEPTH = 10_000

#: ``estimate`` rows made from this many sample rows at a time
_ROW_BLOCK = 256

_COMMON_KEYS = {"command", "seed", "workers", "out", "format", "mode"}
_COMMAND_KEYS = {
    "verify": {"d", "budget"},
    "kernel": {"d", "budget", "alpha"},
    "simulate": {"d", "alpha", "horizon", "replicates"},
    "estimate": {"source", "horizon", "replicates"},
    "lift": {"points", "depth"},
}
COMMANDS = tuple(_COMMAND_KEYS)
_SOURCE_KEYS = {
    "mixture": {"kind", "atoms", "weights"},
    "polya": {"kind", "initial"},
    "markov": {"kind", "initial", "rows"},
}
_SOURCE_KINDS = {MixtureSource: "mixture", PolyaUrnSource: "polya", MarkovSource: "markov"}

#: the CSV header of a report without rows; the Monte Carlo columns are part of its bytes
_RECORD_FIELDS = (
    "name",
    "mode",
    "status",
    "checked",
    "violations",
    "residual",
    "estimate",
    "std_error",
    "z_score",
    "target",
    "replicates",
)


def _json_float(value: float) -> str:
    """What ``json.dumps`` writes for a float: its ``repr`` when finite, and
    ``json.dumps``' own text for NaN and the infinities."""
    return float.__repr__(value) if math.isfinite(value) else json.dumps(value)


#: what ``json.dumps`` writes for a value of exactly these types, without its
#: per-call set-up; a row cell of any other type goes through ``json.dumps``
_JSON_CELL = {str: encode_basestring_ascii, int: int.__repr__, float: _json_float}


@dataclass(frozen=True)
class RunConfig:
    command: str
    seed: int
    workers: int
    mode: str
    d: int
    budget: int
    alpha: Optional[tuple[Prob, ...]]
    source: Optional[object]
    horizon: int
    replicates: int
    points: tuple[Prob, ...]
    depth: int
    out: Optional[str]
    format: str

    def echo(self) -> dict:
        """Resolved semantic parameters, seed always explicit.

        ``workers`` and ``out`` are deliberately not echoed: they affect
        scheduling and destination only, never the report content, and the
        output must be byte-identical across worker counts.
        """
        keys = ("command", "seed", "mode", "format", *sorted(_COMMAND_KEYS[self.command]))
        values = {key: getattr(self, key) for key in keys}
        return {key: _echo_value(value) for key, value in values.items() if value is not None}


@dataclass(frozen=True)
class LazyRows:
    """Rows made on demand: every pass calls ``make`` afresh, so a report can
    be written more than once without ever holding all of its rows."""

    make: Callable[[], Iterator[tuple]]

    def __iter__(self) -> Iterator[tuple]:
        return self.make()


@dataclass
class Report:
    config: dict
    records: list[dict] = field(default_factory=list)
    #: the column names of ``rows``, each row a tuple in this order; a report
    #: without them writes its records as its CSV table
    fields: tuple[str, ...] = ()
    #: a list, or ``LazyRows`` where there are too many rows to hold
    rows: Iterable[tuple] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.get("status") != "fail" for r in self.records)

    def finish(self) -> "Report":
        failed = sum(1 for r in self.records if r.get("status") == "fail")
        self.summary.setdefault("checks", len(self.records))
        self.summary.setdefault("failed", failed)
        self.summary.setdefault("status", "pass" if failed == 0 else "fail")
        return self


# -- config parsing ---------------------------------------------------------------


def _require_int(doc: dict, key: str, default: int, minimum: int = 0) -> int:
    value = doc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    return value


def _parse_alpha(raw, mode: str) -> tuple[Prob, ...]:
    if not isinstance(raw, list):
        raise ConfigError(f"alpha must be a list, got {raw!r}")
    coords = tuple(parse_prob(a, mode) for a in raw)
    try:
        return validate_simplex(coords)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_source(raw, mode: str):
    if not isinstance(raw, dict):
        raise ConfigError("source must be an object")
    kind = raw.get("kind")
    if kind not in _SOURCE_KEYS:
        raise ConfigError(f"unknown source kind {kind!r}")
    unknown = set(raw) - _SOURCE_KEYS[kind]
    if unknown:
        raise ConfigError(f"unknown source keys {sorted(unknown)}")
    try:
        if kind == "mixture":
            atoms = tuple(
                tuple(parse_prob(a, mode) for a in atom) for atom in raw.get("atoms", ())
            )
            weights = tuple(parse_prob(w, mode) for w in raw.get("weights", ()))
            return MixtureSource(atoms=atoms, weights=weights)
        if kind == "polya":
            return PolyaUrnSource(tuple(raw.get("initial", ())))
        initial = tuple(parse_prob(p, mode) for p in raw.get("initial", ()))
        rows = tuple(
            tuple(parse_prob(p, mode) for p in row) for row in raw.get("rows", ())
        )
        return MarkovSource(initial=initial, rows=rows)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad {kind} source: {exc}") from exc


def _echo_value(value):
    """A config value as JSON: probabilities as strings, tuples as lists, a
    source as its kind and its config keys; ints and strings as they are."""
    if isinstance(value, (Fraction, float)):
        return format_prob(value)
    if isinstance(value, tuple):
        return [_echo_value(v) for v in value]
    kind = _SOURCE_KINDS.get(type(value))
    if kind is None:
        return value
    fields = sorted(_SOURCE_KEYS[kind] - {"kind"})
    return {"kind": kind, **{key: _echo_value(getattr(value, key)) for key in fields}}


def parse_config(text: str, overrides: Optional[dict] = None) -> RunConfig:
    """Strict parse of a JSON config document; unknown keys are errors."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    doc = dict(doc)
    for key, value in (overrides or {}).items():
        if value is not None:
            if key == "command" and "command" in doc and doc["command"] != value:
                raise ConfigError(
                    f"config command {doc['command']!r} conflicts with requested {value!r}"
                )
            doc[key] = value
    command = doc.get("command")
    if command not in COMMANDS:
        raise ConfigError(f"command must be one of {COMMANDS}, got {command!r}")
    allowed = _COMMON_KEYS | _COMMAND_KEYS[command]
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    mode = doc.get("mode", "exact")
    if mode not in ("exact", "float"):
        raise ConfigError(f"mode must be \"exact\" or \"float\", got {mode!r}")
    fmt = doc.get("format", "json")
    if fmt not in ("json", "csv"):
        raise ConfigError(f"format must be \"json\" or \"csv\", got {fmt!r}")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ConfigError("out must be a path string")
    alpha = _parse_alpha(doc["alpha"], mode) if "alpha" in doc else None
    d_value = _require_int(doc, "d", 2, minimum=1)
    if alpha is not None:
        if "d" in doc and len(alpha) != d_value:
            raise ConfigError(f"alpha has {len(alpha)} parts but d={d_value}")
        d_value = len(alpha)
    source = _parse_source(doc["source"], mode) if "source" in doc else None
    if command == "estimate" and source is None:
        raise ConfigError("estimate requires a source")
    points: tuple[Prob, ...] = ()
    if command == "lift":
        raw_points = doc.get("points")
        if not isinstance(raw_points, list) or not raw_points:
            raise ConfigError("lift requires a non-empty list of points")
        points = tuple(parse_prob(p, mode) for p in raw_points)
        for p in points:
            if not 0 <= p < 1:
                raise ConfigError(f"lift points must lie in [0, 1), got {format_prob(p)}")
    horizon = _require_int(doc, "horizon", 1000, minimum=1)
    if horizon >= 2**63:  # numpy draws sizes and counts as int64
        raise ConfigError(f"horizon must be at most 2**63 - 1, got {horizon}")
    depth = _require_int(doc, "depth", 8, minimum=1)
    if depth > MAX_LIFT_DEPTH:
        raise ConfigError(f"depth must be at most {MAX_LIFT_DEPTH}, got {depth}")
    return RunConfig(
        command=command,
        seed=_require_int(doc, "seed", 0),
        workers=_require_int(doc, "workers", usable_cores(), minimum=1),
        mode=mode,
        d=d_value,
        budget=_require_int(doc, "budget", 6, minimum=2 if command == "verify" else 1),
        alpha=alpha,
        source=source,
        horizon=horizon,
        replicates=_require_int(doc, "replicates", 100, minimum=1),
        points=points,
        depth=depth,
        out=out,
        format=fmt,
    )


# -- records ------------------------------------------------------------------------


def _exact_record(report: CheckReport) -> dict:
    if report.ok:
        residual = format_prob(Fraction(0))
    else:
        residual = format_prob(report.violations[0].residual)
    return {
        "name": report.name,
        "mode": "exact",
        "status": "pass" if report.ok else "fail",
        "checked": report.checked,
        "violations": len(report.violations),
        "residual": residual,
    }


# -- commands -------------------------------------------------------------------------


def kernel_pair_count(d: int, budget: int) -> int:
    """Number of pairs (x, y) of d-part compositions with |x| <= |y| <= budget."""
    sizes = [math.comb(n + d - 1, d - 1) for n in range(budget + 1)]
    return sum(size * sum(sizes[m:]) for m, size in enumerate(sizes))


def _check_budget(config: RunConfig) -> None:
    if config.budget > MAX_EXACT_BUDGET:
        raise BudgetExceededError(
            f"budget {config.budget} exceeds the exact-suite maximum {MAX_EXACT_BUDGET}"
        )
    pairs = kernel_pair_count(config.d, config.budget)
    if pairs > MAX_KERNEL_PAIRS:
        raise BudgetExceededError(
            f"d={config.d}, budget {config.budget} needs {pairs} kernel pairs, "
            f"more than the maximum {MAX_KERNEL_PAIRS}"
        )


def _run_verify(config: RunConfig, report: Report) -> None:
    _check_budget(config)
    report.records.extend(
        _exact_record(r) for r in full_verification(config.d, config.budget, config.workers)
    )


def _run_kernel(config: RunConfig, report: Report) -> None:
    _check_budget(config)
    chain = uniform_walk(config.d)
    report.fields = ("kind", "x", "m", "y", "n", "value")

    def rows() -> Iterator[tuple]:
        for x, n, row in kernel_rows(chain, config.budget):
            for y in chain.enumerate_level(n):
                a, b = row[y]
                value = format_prob(Fraction(a, b)) if a else "0/1"
                yield "lattice", str(x.payload), x.level, str(y.payload), n, value
        if config.alpha is not None:
            for m in range(config.budget + 1):
                for x in chain.enumerate_level(m):
                    value = format_prob(boundary_kernel(x, config.alpha))
                    yield "boundary", str(x.payload), m, "", "", value

    report.rows = LazyRows(rows)


def _admit_counts(need: str, cells: int, unit: str = "counts") -> None:
    """Refuse, before any work, more counts (or sampler steps) than the atom budget."""
    if cells > DEFAULT_ATOM_BUDGET:
        raise BudgetExceededError(
            f"{need} of {cells} {unit}, more than the atom budget {DEFAULT_ATOM_BUDGET}"
        )


def _run_simulate(config: RunConfig, report: Report) -> None:
    _admit_counts(f"horizon {config.horizon} needs a path array", (config.horizon + 1) * config.d)
    walk = uniform_walk(config.d) if config.alpha is None else alpha_walk(config.alpha)
    report.fields = ("replicate", "step", *(f"part_{i + 1}" for i in range(config.d)))

    def rows() -> Iterator[tuple]:
        for r in range(config.replicates):
            counts = walk.sample_path(config.horizon, config.seed, r)
            yield from ((r, k, *row) for k, row in enumerate(counts.tolist()))

    report.rows = LazyRows(rows)


def _run_estimate(config: RunConfig, report: Report) -> None:
    _admit_counts(
        f"{config.replicates} replicates need a sample array", config.replicates * config.source.d
    )
    if isinstance(config.source, MarkovSource):
        # the Markov sampler draws every step, so its cost is horizon x replicates
        _admit_counts(
            f"{config.replicates} markov replicates at horizon {config.horizon} need walks",
            config.replicates * config.horizon,
            "steps",
        )
    estimate = estimate_directing_measure(
        config.source,
        horizon=config.horizon,
        replicates=config.replicates,
        seed=config.seed,
        workers=config.workers,
    )
    report.fields = ("replicate", *(f"coord_{i + 1}" for i in range(config.source.d)))

    def rows() -> Iterator[tuple]:
        for start in range(0, len(estimate.samples), _ROW_BLOCK):
            block = estimate.samples[start : start + _ROW_BLOCK].tolist()
            yield from ((r, *row) for r, row in enumerate(block, start))

    report.rows = LazyRows(rows)
    means, seconds = estimate.coordinate_moments()
    report.summary["coordinate_means"] = list(means)
    report.summary["coordinate_second_moments"] = list(seconds)
    if isinstance(config.source, MixtureSource):
        report.summary["clusters"] = [
            {
                "atom": [float(a) for a in c.atom],
                "weight": c.weight,
                "mean": list(c.mean),
                "count": c.count,
            }
            for c in estimate.cluster_summary(config.source.atoms)
        ]


def _run_lift(config: RunConfig, report: Report) -> None:
    bound = Fraction(1, 2**config.depth)
    report.fields = ("point", "digits", "reconstructed")
    for p in config.points:
        digits = binary_digits(p, config.depth)
        back = reconstruct_real(digits)
        gap = abs(Fraction(p) - back)
        report.rows.append((format_prob(p), "".join(map(str, digits)), format_prob(back)))
        report.records.append(
            {
                "name": f"digit-roundtrip@{format_prob(p)}",
                "mode": "exact",
                "status": "pass" if gap < bound else "fail",
                "checked": 1,
                "violations": 0 if gap < bound else 1,
                "residual": format_prob(gap),
            }
        )
    if config.depth >= 2:
        # the points' empirical law: mass 1/n per index, so a point listed twice weighs 2/n
        n = len(config.points)
        law = DistributionTable(1, dict.fromkeys(range(n), 1), n).push(config.points.__getitem__)
        consistency = projection_consistency_check(
            law.push(lambda p: binary_digits(p, config.depth)),
            law.push(lambda p: binary_digits(p, config.depth - 1)),
        )
        report.records.append(_exact_record(consistency))


_RUNNERS = {
    "verify": _run_verify,
    "kernel": _run_kernel,
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "lift": _run_lift,
}


def run(config: RunConfig) -> tuple[Report, int]:
    """Execute the configured command; exit status 0 iff all checks pass."""
    report = Report(config=config.echo())
    _RUNNERS[config.command](config, report)
    report.finish()
    return report, 0 if report.passed else 1


# -- output ---------------------------------------------------------------------------


def write_report(report: Report, fmt: str, stream: BinaryIO) -> None:
    """Write a report to a binary stream as its rows are made: canonical JSON,
    or CSV with the config echo in comments.  An error raised while making a
    row propagates after the bytes written so far are flushed."""
    if fmt not in ("json", "csv"):
        raise ConfigError(f"unknown output format {fmt!r}")
    text = io.TextIOWrapper(stream, encoding="utf-8", newline="")
    try:
        (_write_json if fmt == "json" else _write_csv)(report, text)
    finally:
        text.detach()


def _write_json(report: Report, out) -> None:
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2)`` for the doc
    {config, records, rows, summary}, whose rows are dicts over ``fields``:
    the sorted keys put rows between records and summary, and each row is one
    template over the sorted fields filled with the JSON of each cell."""
    head = json.dumps(
        {"config": report.config, "records": report.records}, sort_keys=True, indent=2
    )
    out.write(head[: -len("\n}")] + ',\n  "rows": [')
    order = sorted(range(len(report.fields)), key=report.fields.__getitem__)
    keys = (json.dumps(report.fields[i]).replace("%", "%%") for i in order)
    template = "\n    {\n" + ",\n".join(f"      {key}: %s" for key in keys) + "\n    }"
    separator = ""
    encoder_for = _JSON_CELL.get
    for row in report.rows:
        cells = tuple([encoder_for(type(row[i]), json.dumps)(row[i]) for i in order])
        out.write(separator + template % cells)
        separator = ","
    out.write("\n  ]" if separator else "]")
    tail = json.dumps({"summary": report.summary}, sort_keys=True, indent=2)
    out.write("," + tail[len("{"):] + "\n")


def _write_csv(report: Report, out) -> None:
    for key in sorted(report.config):
        out.write(f"# {key}={json.dumps(report.config[key], sort_keys=True)}\n")
    if report.fields:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(report.fields)
        writer.writerows(report.rows)
    else:
        writer = csv.DictWriter(
            out, fieldnames=_RECORD_FIELDS, restval="", lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(report.records)


def emit(report: Report, fmt: str = "json") -> bytes:
    """The bytes ``write_report`` writes, as one value."""
    buffer = io.BytesIO()
    write_report(report, fmt, buffer)
    return buffer.getvalue()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="martinwalk",
        description="Exact kernels, transforms and Monte Carlo checks for graded chains.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON config document")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=("json", "csv"), dest="fmt")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workers", type=int)
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(
            text,
            overrides={
                "command": args.command,
                "seed": args.seed,
                "workers": args.workers,
                "out": args.out,
                "format": args.fmt,
            },
        )
        report, status = run(config)
        # rows are made while they are written, so the write can raise too
        if config.out:
            try:
                with open(config.out, "wb") as fh:
                    write_report(report, config.format, fh)
            except OSError as exc:
                print(f"error: cannot write report: {exc}", file=sys.stderr)
                return 2
        else:
            sys.stdout.flush()
            write_report(report, config.format, sys.stdout.buffer)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
