"""The fork-based worker map: task order, errors carried across the fork,
dead children, large results, no child left behind, and the records that
cross its pipe."""

import json
import os
import pickle
import signal
from fractions import Fraction

import pytest

from martinwalk import (
    BudgetExceededError,
    CheckReport,
    DistributionTable,
    MartinWalkError,
    parallel,
    suites,
)
from martinwalk.cli import main
from martinwalk.parallel import fork_map, process_count
from martinwalk.suites import full_verification


@pytest.fixture
def two_cores(monkeypatch):
    """Fork two children even on a one-core machine, and fail a test that
    hangs for a minute instead of hanging the run."""
    monkeypatch.setattr(parallel, "usable_cores", lambda: 2)

    def expire(signum, frame):
        raise TimeoutError("fork_map did not return within 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize(
    "workers, tasks, cores, expected",
    [(1, 8, 4, 1), (2, 8, 4, 2), (64, 8, 4, 4), (64, 3, 4, 3), (4, 0, 4, 1), (3, 8, 1, 1)],
)
def test_process_count_is_clamped(workers, tasks, cores, expected):
    assert process_count(workers, tasks, cores) == expected


def test_equal_costs_deal_round_robin():
    assert parallel._shares([1.0] * 5, 2) == [[0, 2, 4], [1, 3]]


def test_shares_balance_the_verify_families(monkeypatch):
    """No process does more than 55% of the work, by the costs ``verify`` deals
    out, and the chain family shares its process with neither the transform
    nor the counting family, the two that balance it."""
    dealt = []

    def record(fn, tasks, workers, costs):
        dealt.append((tasks, costs))
        return []

    monkeypatch.setattr(suites, "fork_map", record)
    full_verification(3, 8, workers=2)
    ((families, costs),) = dealt
    shares = parallel._shares(costs, 2)
    assert sorted(i for share in shares for i in share) == list(range(len(costs)))
    assert max(sum(costs[i] for i in share) for share in shares) <= 0.55 * sum(costs)
    (chain_share,) = [{families[i].name for i in share} for share in shares if 0 in share]
    assert "chain" in chain_share and not chain_share & {"transform", "counting"}


def test_results_come_back_in_task_order(two_cores):
    tasks = list(range(7))
    results = list(fork_map(lambda x: (os.getpid(), x * x), tasks, 2))
    assert [square for _, square in results] == [x * x for x in tasks]
    assert len({pid for pid, _ in results} - {os.getpid()}) == 2  # two children, no parent share
    assert_no_children()


def test_one_process_runs_in_this_process():
    results = list(fork_map(lambda x: os.getpid(), range(3), 1))
    assert results == [os.getpid()] * 3


def test_no_fork_where_the_platform_has_none(two_cores, monkeypatch):
    monkeypatch.delattr(os, "fork")
    assert list(fork_map(lambda x: os.getpid(), range(3), 2)) == [os.getpid()] * 3


def test_lowest_failing_task_raises_with_its_type(two_cores):
    def task(x):
        if x == 3:
            raise ValueError("later failure")
        if x == 2:
            raise BudgetExceededError("first failure")
        return x

    with pytest.raises(BudgetExceededError, match="first failure"):
        fork_map(task, range(6), 2)
    assert_no_children()


def test_child_killed_by_a_signal_raises(two_cores):
    def task(x):
        if x == 1:
            os.kill(os.getpid(), signal.SIGKILL)
        return x

    with pytest.raises(MartinWalkError, match="SIGKILL"):
        fork_map(task, range(4), 2)
    assert_no_children()


def test_unpicklable_result_raises(two_cores):
    with pytest.raises(MartinWalkError, match="cannot be pickled"):
        fork_map(lambda x: (lambda: x), range(2), 2)
    assert_no_children()


def test_results_larger_than_a_pipe_buffer(two_cores):
    # each child sends about 2 MB, many times the 64 KiB a Linux pipe holds
    results = list(fork_map(lambda x: bytes([x % 256]) * 4096, range(1000), 2))
    assert [r[0] for r in results] == [x % 256 for x in range(1000)]
    assert all(len(r) == 4096 for r in results)
    assert_no_children()


def test_budget_error_in_a_verify_child_exits_3(two_cores, monkeypatch, tmp_path, capsys):
    def over_budget(*args, **kwargs):
        raise BudgetExceededError("digit grid over budget")

    monkeypatch.setattr("martinwalk.suites.digit_roundtrip_report", over_budget)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"command": "verify", "d": 2, "budget": 4}))
    assert main(["verify", "--config", str(cfg), "--workers", "2"]) == 3
    assert capsys.readouterr().err == "error: digit grid over budget\n"
    assert_no_children()


def test_records_survive_a_pickle_round_trip():
    report = CheckReport("demo")
    report.record("site", Fraction(1, 3), Fraction(1, 2))
    report.record("held", 1, 1)
    report.note("a note")
    law = DistributionTable(2, {(1, 2): 1, (2, 1): 3}, 4)
    for record in (report, law):
        assert pickle.loads(pickle.dumps(record)) == record
    assert not report.ok and report.checked == 2
    assert report != CheckReport("demo", 2)


def test_full_verification_reports_match_across_worker_counts(two_cores):
    one, two = full_verification(2, 6, workers=1), full_verification(2, 6, workers=2)
    assert len(one) == len(two)
    for a, b in zip(one, two):
        assert a == b, a.name
    assert_no_children()
