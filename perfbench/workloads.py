"""The benchmark's workloads: CLI configs, correctness gates and their self-tests.

Every gate reads only the report bytes and returns a list of problems; an
empty list is a pass.  Monte Carlo reports are checked against laws, never
pinned to a digest, because seeded sampler bytes may change between
versions of the program.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))

#: record names and ``checked`` counts of ``verify`` d=3 budget=8 at the seed commit
EXPECTED_VERIFY = os.path.join(HERE, "expected", "verify-d3.json")

#: |z| above this fails a moment check; a correct sampler exceeds it ~1e-6 of the time
Z_LIMIT = 5.0
#: KS distance above KS_LAMBDA / sqrt(n) fails; a correct sampler exceeds it ~1e-5 of the time
KS_LAMBDA = 2.5


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    work_unit: str
    work: Callable[[bytes], int]
    gate: Callable[[bytes], list]
    corrupt: Callable[[bytes], bytes]
    # also run once with workers=1 and require identical bytes
    worker_invariance: bool = False


# -- verify-d3 ----------------------------------------------------------------------


def verify_checks(payload: bytes) -> int:
    return sum(r["checked"] for r in json.loads(payload)["records"] if r["mode"] == "exact")


def verify_gate(payload: bytes) -> list:
    try:
        doc = json.loads(payload)
        records = doc["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable verify report: {exc!r}"]
    problems = [f"record {r.get('name')!r} has status {r.get('status')!r}"
                for r in records if r.get("status") != "pass"]
    if doc.get("summary", {}).get("status") != "pass":
        problems.append(f"summary status {doc.get('summary', {}).get('status')!r}")
    with open(EXPECTED_VERIFY, encoding="utf-8") as fh:
        expected = [tuple(item) for item in json.load(fh)]
    got = [(r.get("name"), r.get("checked")) for r in records]
    if got != expected:
        missing = [e for e in expected if e not in got]
        extra = [g for g in got if g not in expected]
        problems.append(
            f"records differ from the seed commit: {len(got)} vs {len(expected)}; "
            f"missing {missing[:3]}, unexpected {extra[:3]}"
        )
    return problems


def verify_corrupt(payload: bytes) -> bytes:
    doc = json.loads(payload)
    del doc["records"][len(doc["records"]) // 2]
    return json.dumps(doc).encode()


# -- estimate-polya -----------------------------------------------------------------


URN_HORIZON, URN_REPLICATES = 10000, 2000


def estimate_gate(payload: bytes, replicates: int = URN_REPLICATES, horizon: int = URN_HORIZON) -> list:
    """Urn (1,1): Y_n is uniform on {0..n}, so each coordinate of Y_n/n is
    uniform on {0, 1/n, ..., 1}, close to the directing law Uniform(0, 1)."""
    try:
        rows = json.loads(payload)["rows"]
        xs = [(r["coord_1"], r["coord_2"]) for r in rows]
        indices = [r["replicate"] for r in rows]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable estimate report: {exc!r}"]
    problems = []
    if indices != list(range(replicates)):
        problems.append(f"replicate column is not 0..{replicates - 1} ({len(indices)} rows)")
    for i, (a, b) in enumerate(xs):
        if abs(a + b - 1) > 1e-9 or abs(a * horizon - round(a * horizon)) > 1e-6:
            problems.append(f"row {i}: ({a}, {b}) is not a point of the level-{horizon} simplex")
            break
    if problems:
        return problems
    n = len(xs)
    # moments of the uniform law on {0, 1/h, ..., 1}
    mean, second = 0.5, (2 * horizon + 1) / (6 * horizon)
    var1 = (horizon + 2) / (12 * horizon)
    var2 = 4 / 45
    for j in (0, 1):
        col = [x[j] for x in xs]
        z_mean = (sum(col) / n - mean) / math.sqrt(var1 / n)
        z_second = (sum(c * c for c in col) / n - second) / math.sqrt(var2 / n)
        if abs(z_mean) > Z_LIMIT:
            problems.append(f"coord_{j + 1} mean z-score {z_mean:.2f}")
        if abs(z_second) > Z_LIMIT:
            problems.append(f"coord_{j + 1} second-moment z-score {z_second:.2f}")
        ks = ks_distance_uniform(col)
        if ks > KS_LAMBDA / math.sqrt(n):
            problems.append(f"coord_{j + 1} KS distance {ks:.4f} to Uniform(0, 1)")
    return problems


def ks_distance_uniform(values: list) -> float:
    xs = sorted(values)
    n = len(xs)
    return max(max(x - i / n, (i + 1) / n - x) for i, x in enumerate(xs))


def estimate_corrupt(payload: bytes) -> bytes:
    doc = json.loads(payload)
    del doc["rows"][len(doc["rows"]) // 2]
    return json.dumps(doc).encode()


# -- simulate-paths -------------------------------------------------------------------


PATH_D, PATH_HORIZON, PATH_REPLICATES = 3, 10000, 50


def simulate_gate(
    payload: bytes, d: int = PATH_D, replicates: int = PATH_REPLICATES, horizon: int = PATH_HORIZON
) -> list:
    """Rows are replicates x (horizon + 1); each step adds one unit vector; parts sum to the step."""
    lines = [line for line in payload.decode().splitlines() if not line.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader, None)
    want = ["replicate", "step"] + [f"part_{i + 1}" for i in range(d)]
    if header != want:
        return [f"header {header} is not {want}"]
    count = 0
    prev = None
    for i, row in enumerate(reader):
        count += 1
        try:
            r, step, *parts = map(int, row)
        except ValueError:
            return [f"row {i}: not integers: {row}"]
        if r != i // (horizon + 1) or step != i % (horizon + 1):
            return [f"row {i}: replicate/step ({r}, {step}) out of order"]
        if len(parts) != d or sum(parts) != step or min(parts) < 0:
            return [f"row {i}: parts {parts} do not sum to step {step}"]
        if step:
            diff = [a - b for a, b in zip(parts, prev)]
            if sorted(diff) != [0] * (d - 1) + [1]:
                return [f"row {i}: step {diff} is not a unit vector"]
        prev = parts
    if count != replicates * (horizon + 1):
        return [f"{count} rows, expected {replicates * (horizon + 1)}"]
    return []


def simulate_corrupt(payload: bytes) -> bytes:
    lines = payload.split(b"\n")
    i = len(lines) // 2
    fields = lines[i].split(b",")
    fields[-1] = str(int(fields[-1]) + 1).encode()
    lines[i] = b",".join(fields)
    return b"\n".join(lines)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-d3",
            why="exact engine: chain DP, cotransitions, cylinder oracle, harmonic and "
            "de Finetti suites on Fraction arithmetic; no sampler, small report",
            config={"command": "verify", "d": 3, "budget": 8},
            work_unit="checks",
            work=verify_checks,
            gate=verify_gate,
            corrupt=verify_corrupt,
        ),
        Workload(
            name="estimate-polya",
            why="Polya-urn final-count sampler fanned out over 2 worker processes; "
            "no exact DP, 2000-row report",
            config={
                "command": "estimate",
                "source": {"kind": "polya", "initial": [1, 1]},
                "horizon": URN_HORIZON,
                "replicates": URN_REPLICATES,
                "workers": 2,
            },
            work_unit="replicates",
            work=lambda payload: URN_REPLICATES,
            gate=estimate_gate,
            corrupt=estimate_corrupt,
            worker_invariance=True,
        ),
        Workload(
            name="simulate-paths",
            why="full-path sampler building State tuples, then a 10.8 MB CSV of "
            "500,050 rows: the write- and memory-heavy workload",
            config={"command": "simulate", "d": PATH_D, "horizon": PATH_HORIZON,
                    "replicates": PATH_REPLICATES, "format": "csv"},
            work_unit="steps",
            work=lambda payload: PATH_REPLICATES * PATH_HORIZON,
            gate=simulate_gate,
            corrupt=simulate_corrupt,
        ),
    )
}


#: one small run of each README command and source kind; each should exit 0
PROBES = {
    "verify": {"command": "verify", "d": 2, "budget": 4},
    "kernel": {"command": "kernel", "d": 2, "budget": 3, "alpha": ["1/3", "2/3"]},
    "simulate": {"command": "simulate", "d": 2, "horizon": 20, "replicates": 2},
    "estimate-mixture": {
        "command": "estimate",
        "source": {"kind": "mixture", "atoms": [["1/5", "4/5"], ["3/5", "2/5"]],
                   "weights": ["1/2", "1/2"]},
        "horizon": 200,
        "replicates": 20,
    },
    "estimate-polya": {"command": "estimate", "source": {"kind": "polya", "initial": [1, 1]},
                       "horizon": 200, "replicates": 20},
    "estimate-markov": {
        "command": "estimate",
        "source": {"kind": "markov", "initial": ["1/2", "1/2"],
                   "rows": [["2/3", "1/3"], ["1/6", "5/6"]]},
        "horizon": 200,
        "replicates": 20,
    },
    "lift": {"command": "lift", "points": ["1/3", "5/8"], "depth": 8},
}
