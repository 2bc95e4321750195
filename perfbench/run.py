"""Benchmark of the martinwalk command-line tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a martinwalk checkout; the program is imported from
``src/`` there.  The load is a closed loop with one client, as a CLI user
runs it: each operation is one ``martinwalk <command> --config ... --seed N``
invocation in a fresh process (via ``launch.py``), started only after the
previous one has exited, so every operation pays interpreter start, imports
and cold memo tables.  ``--seed`` is passed to the program; the workload
configs are fixed (see ``workloads.py``).

Each run repeats the workload's invocation for ``--seconds``.  Afterwards
the first invocation's report goes through the workload's correctness gate,
the gate must flag a corrupted copy of it, every other invocation must have
exited 0 without a traceback and reproduced its bytes, and for
``estimate-polya`` one untimed ``--workers 1`` run must give the same bytes.
An invocation failing any of these counts in ``failed``.

With ``--trace 0`` it reports the end-to-end metrics, each the median over
the invocations.  With ``--trace 1`` it alternates untraced and traced
invocations (``tracer.py``), reports the per-layer metrics, and makes one
small run of every command and source kind the README advertises.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A record of each run, with the
Python and numpy versions, core count and load average before and after,
is appended to ``.perfbench/runs.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from launch import MARK
from tracer import SPAN_NAMES, layer_totals, load_spans
from workloads import PROBES, WORKLOADS

LAUNCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launch.py")
#: an invocation still running after this many seconds is killed and counted as failed;
#: the slowest workload invocation takes about 6 s at the seed commit
INVOCATION_TIMEOUT_S = 60
#: traced invocations per traced run, at least; their counts must agree exactly
MIN_TRACED = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}


PER_LAYER = (
    [("cli.parse_config.s", "s"), ("cli.run.s", "s"), ("cli.emit.s", "s"), ("cli.emit.bytes", "bytes")]
    + [
        (f"chain.{f}.{k}", unit)
        for f in (
            "forward_law",
            "conditional_law",
            "martin_kernel",
            "backward_conditional",
            "cotransition",
            "cylinder_law",
            "successors",
            "enumerate_level",
        )
        for k, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("chain.cylinder_law.atoms", "count"),
        ("chain.sample_path.calls", "count"),
        ("chain.sample_path.self_s", "s"),
        ("chain.sample_path.states_per_s", "1/s"),
    ]
    + [
        (f"compositions.{f}.{k}", unit)
        for f in ("closed_form_kernel", "boundary_kernel", "compositions")
        for k, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        (f"harmonic.{f}.self_s", "s")
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
        (f"definetti.{f}.self_s", "s")
        for f in ("source_cylinder_law", "counting_chain_law", "counting_chain", "counting_h_recovery")
    ]
    + [
        ("definetti.source_cylinder_law.words", "count"),
        ("definetti.estimate_directing_measure.s", "s"),
        ("definetti.sample_final_counts.replicates_per_s", "1/s"),
        ("definetti.parallel_efficiency", "ratio"),
    ]
    + [(f"{s}.{k}", unit) for s in SPAN_NAMES if s.startswith("suites.") for k, unit in (("s", "s"), ("checks", "count"))]
    + [
        ("reports.record.calls", "count"),
        ("reports.record.self_s", "s"),
        ("trace.overhead_s", "s"),
        ("probe.failed", "count"),
    ]
)


@dataclass
class Invocation:
    wall_s: float
    setup_s: float
    peak_rss_mb: float
    payload: bytes
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Bench:
    """One benchmark run of one workload, inside a scratch directory of the checkout."""

    def __init__(self, root: str, workload, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        os.makedirs(os.path.join(root, ".perfbench"), exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=os.path.join(root, ".perfbench"))
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else "")
        self.calls = 0

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def invoke(self, config: dict, extra: tuple = (), trace_path: str = "") -> Invocation:
        """Run one CLI invocation to completion and measure it from outside."""
        self.calls += 1
        config_path = os.path.join(self.workdir, "config.json")
        out_path = os.path.join(self.workdir, "report.out")
        err_path = os.path.join(self.workdir, "stderr.txt")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        argv = [sys.executable, LAUNCH]
        if trace_path:
            argv += ["--trace", trace_path, str(self.calls)]
        argv += [config["command"], "--config", config_path, "--seed", str(self.seed),
                 "--out", out_path, *extra]
        if os.path.exists(out_path):
            os.remove(out_path)
        with open(err_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
            status, usage = _wait(proc, INVOCATION_TIMEOUT_S)
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        payload = b""
        if os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                payload = fh.read()
        marks = _marks(stderr)
        inv = Invocation(
            wall_s=marks.get("done", float("nan")) - start,
            setup_s=marks.get("parsed", float("nan")) - start,
            peak_rss_mb=usage.ru_maxrss / 1024,
            payload=payload,
        )
        if status != 0:
            inv.problems.append(f"exit status {status}")
        if "Traceback" in stderr:
            inv.problems.append("traceback: " + stderr.strip().splitlines()[-1])
        if not marks:
            inv.problems.append("no completion marks on stderr")
        return inv


def _wait(proc: subprocess.Popen, timeout: int):
    """Reap the child with its resource usage; kill its process group on timeout."""

    def kill(signum, frame):
        os.killpg(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, kill)
    signal.alarm(timeout)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def _marks(stderr: str) -> dict:
    for line in reversed(stderr.splitlines()):
        if line.startswith(MARK):
            return {k: float(v) for k, v in (item.split("=") for item in line.split()[1:])}
    return {}


def _quartiles(values) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


# -- phases of one run -------------------------------------------------------------------


def timed_loop(bench: Bench, seconds: float) -> list[Invocation]:
    """Invocations back to back for ``seconds``; the first is the reference for the rest."""
    samples = []
    deadline = time.monotonic() + seconds
    while not samples or time.monotonic() < deadline:
        samples.append(bench.invoke(bench.workload.config))
    return samples


def traced_loop(bench: Bench, seconds: float):
    """Untraced and traced invocations in turn for ``seconds``, starting untraced."""
    untraced, traced, totals = [], [], []
    deadline = time.monotonic() + seconds
    while len(traced) < MIN_TRACED or time.monotonic() < deadline:
        if len(untraced) <= len(traced):
            untraced.append(bench.invoke(bench.workload.config))
            continue
        spans_path = os.path.join(bench.workdir, f"spans-{bench.calls + 1}")
        inv = bench.invoke(bench.workload.config, trace_path=spans_path)
        traced.append(inv)
        if not inv.failed:
            totals.append(layer_totals(load_spans(spans_path)))
    return untraced, traced, totals


def check(bench: Bench, ref: Invocation, repeats: list[Invocation], log) -> tuple[int, list]:
    """Gate the first report, self-test the gate on a corrupted copy, and require
    every other invocation to reproduce the first report's bytes.

    Returns the work done per invocation and the run's problems."""
    w = bench.workload
    verdict = [] if ref.failed else w.gate(ref.payload)
    log(f"gate on the first report: {'FAIL ' + '; '.join(ref.problems + verdict) if ref.failed or verdict else 'pass'}")
    for inv in [ref, *repeats]:
        if inv.failed:
            continue
        if inv.payload != ref.payload:
            inv.problems.append("report bytes differ from the first invocation of this run")
        inv.problems.extend(verdict)
    if ref.failed:
        return 0, []
    flagged = w.gate(w.corrupt(ref.payload))
    log(f"gate self-test on a corrupted report: {'flagged: ' + flagged[0] if flagged else 'NOT FLAGGED'}")
    problems = [] if flagged else ["gate self-test: the corrupted report was not flagged"]
    return w.work(ref.payload), problems


def serial_run(bench: Bench, ref: Invocation, log) -> Invocation:
    """Worker invariance: ``--workers 1`` must reproduce the reference bytes."""
    serial = bench.invoke(bench.workload.config, extra=("--workers", "1"))
    if not serial.failed and serial.payload != ref.payload:
        serial.problems.append("--workers 1 output differs from the --workers 2 output")
    log(f"worker invariance (--workers 1): {'pass' if not serial.failed else 'FAIL ' + '; '.join(serial.problems)}")
    return serial


def probe(bench: Bench, log) -> list[str]:
    """One small run of each advertised command and source kind; returns the failures."""
    failures = []
    for name, config in PROBES.items():
        inv = bench.invoke(config)
        if inv.failed:
            failures.append(f"{name}: {'; '.join(inv.problems)}")
    for failure in failures:
        log(f"probe failure: {failure}")
    log(f"probe: {len(PROBES) - len(failures)}/{len(PROBES)} advertised configs ran cleanly")
    return failures


# -- metrics -------------------------------------------------------------------------------


def end_to_end_metrics(samples: list[Invocation], work: int, log) -> dict:
    """Medians over the invocations that passed; none passing gives no metrics."""
    ok = [s for s in samples if not s.failed]
    if not ok:
        return {}
    values = {
        "wall_s": [s.wall_s for s in ok],
        "setup_s": [s.setup_s for s in ok],
        "work_per_s": [work / s.wall_s for s in ok],
        "peak_rss_mb": [s.peak_rss_mb for s in ok],
    }
    metrics = {}
    for name, unit in END_TO_END.items():
        vals = values[name]
        q1, q3 = _quartiles(vals)
        median = statistics.median(vals)
        metrics[name] = {"value": median, "unit": unit}
        log(f"metric {name} = {median:.6g} {unit} (median of {len(vals)}; q1 {q1:.6g}, q3 {q3:.6g})")
    return metrics


def per_layer_metrics(totals: list[dict], untraced, traced, serial_wall_s, probe_failures) -> tuple[dict, list]:
    """Times are medians over the traced invocations; counts must agree exactly."""
    problems = []

    def same(name: str, key: str):
        values = {t[name][key] for t in totals}
        if len(values) > 1:
            problems.append(f"{name}.{key} differs between traced invocations: {sorted(values)}")
        return min(values)

    def med(name: str, key: str) -> float:
        return statistics.median([t[name][key] for t in totals])

    def rate(name: str) -> float:
        return statistics.median([t[name]["count"] / t[name]["s"] if t[name]["s"] else 0.0 for t in totals])

    untraced_wall = statistics.median(s.wall_s for s in untraced if not s.failed)
    traced_wall = statistics.median(s.wall_s for s in traced if not s.failed)
    special = {
        "chain.cylinder_law.atoms": lambda: same("chain.cylinder_law", "count"),
        "chain.sample_path.states_per_s": lambda: rate("chain.sample_path"),
        "definetti.source_cylinder_law.words": lambda: same("definetti.source_cylinder_law", "count"),
        "definetti.sample_final_counts.replicates_per_s": lambda: rate("definetti.sample_final_counts"),
        "definetti.parallel_efficiency": lambda: serial_wall_s / (2 * untraced_wall) if serial_wall_s else 0.0,
        "cli.emit.bytes": lambda: same("cli.emit", "count"),
        "trace.overhead_s": lambda: traced_wall - untraced_wall,
        "probe.failed": lambda: len(probe_failures),
    }
    metrics = {}
    for name, unit in PER_LAYER:
        if name in special:
            value = special[name]()
        else:
            span, _, key = name.rpartition(".")
            if key == "calls":
                value = same(span, "calls")
            elif key == "checks":
                value = same(span, "count")
            else:
                value = med(span, key)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


# -- driver --------------------------------------------------------------------------------


def run_workload(root: str, name: str, seed: int, seconds: float, trace: bool, log) -> dict:
    workload = WORKLOADS[name]
    load_before = os.getloadavg()
    bench = Bench(root, workload, seed)
    try:
        if trace:
            untraced, traced, totals = traced_loop(bench, seconds)
            samples = untraced + traced
        else:
            samples = timed_loop(bench, seconds)
        work, problems = check(bench, samples[0], samples[1:], log)
        ops = list(samples)
        serial = None
        if workload.worker_invariance:
            serial = serial_run(bench, samples[0], log)
            ops.append(serial)
        if trace:
            probe_failures = probe(bench, log)
            log(f"traced invocations: {len(traced)}, untraced: {len(untraced)}")
            metrics = {}
            if totals and any(not s.failed for s in untraced):
                metrics, count_problems = per_layer_metrics(
                    totals, untraced, traced, serial.wall_s if serial and not serial.failed else None, probe_failures
                )
                problems += count_problems
        else:
            metrics = end_to_end_metrics(samples, work, log)
            log(f"work per invocation: {work} {workload.work_unit}")
    finally:
        bench.close()
    failed = sum(1 for op in ops if op.failed)
    for op in ops:
        if op.failed:
            problems.append("failed operation: " + "; ".join(op.problems))
    log(f"failed_ops = {failed}/{len(ops)} ({failed / len(ops):.3g})")
    result = {
        "correct": not problems and bool(metrics),
        "attempted": len(ops),
        "failed": failed,
        "metrics": metrics,
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "problems": problems,
        "result": result,
    }
    log(f"machine: python {record['python']}, numpy {record['numpy']}, nproc {record['nproc']}, "
        f"loadavg {record['loadavg_before']} -> {record['loadavg_after']}")
    for problem in problems:
        log(f"PROBLEM: {problem}")
    with open(os.path.join(root, ".perfbench", "runs.jsonl"), "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "martinwalk", "cli.py")):
        print("perfbench: run from the root of a martinwalk checkout (src/martinwalk is missing)",
              file=sys.stderr)
        return 2

    def log(message: str) -> None:
        print(message, flush=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        log(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace}): {WORKLOADS[name].why}")
        results[name] = run_workload(root, name, args.seed, args.seconds, bool(args.trace), log)
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
