"""Independent tasks on forked worker processes.

``fork_map`` is ``map(fn, tasks)`` spread over up to ``workers`` forked
children.  Each child inherits ``fn`` and the tasks by the fork, so
neither is pickled; it runs its share in task order and sends back one
pickle of its results, or of the first exception it met, over a pipe, then
leaves with ``os._exit``, so it never runs the parent's exit handlers or
flushes the parent's buffered output.  The parent only reads the pipes and
reaps the children: it takes no share of the work, so whatever the tasks
load (numpy's random module, say) stays out of its memory.  Every child is
reaped on every path out of ``fork_map``, errors and interrupts included.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Callable, Iterator, NoReturn, Optional, Sequence, TypeVar

from .errors import MartinWalkError

T = TypeVar("T")
R = TypeVar("R")


def usable_cores() -> int:
    """The cores this process may run on: its CPU affinity set where the
    platform reports one, else the machine's core count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def process_count(workers: int, tasks: int, cores: int) -> int:
    """Processes for ``tasks`` tasks: at most ``workers``, one per task and
    one per core, and at least 1."""
    return max(1, min(workers, tasks, cores))


def _shares(costs: Sequence[float], processes: int) -> list[list[int]]:
    """Task indices per process, each in task order: the costliest task
    first, each to the least-loaded process (equal costs deal round-robin)."""
    loads = [0.0] * processes
    shares: list[list[int]] = [[] for _ in range(processes)]
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        p = loads.index(min(loads))
        shares[p].append(i)
        loads[p] += costs[i]
    return [sorted(share) for share in shares]


def fork_map(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    workers: int,
    costs: Optional[Sequence[float]] = None,
) -> Iterator[R]:
    """The results ``fn(task)`` in task order, run on ``process_count(workers,
    len(tasks), usable_cores())`` forked children, which have all been
    reaped when this returns; or, when that count is 1 or the platform
    cannot fork, ``map(fn, tasks)`` in this process, one task per result
    taken.  ``costs`` (relative, one per task; equal if None) balances the
    children's shares.

    A task's exception is raised here with its type; when several tasks
    fail, it is the one with the lowest index, as a serial run would raise.
    A child that dies without a result raises ``MartinWalkError``.
    """
    processes = process_count(workers, len(tasks), usable_cores())
    if processes == 1 or not hasattr(os, "fork"):
        return map(fn, tasks)
    import pickle

    shares = _shares([1.0] * len(tasks) if costs is None else costs, processes)
    children: list[tuple[int, BinaryIO]] = []
    try:
        for share in shares:
            read, write = os.pipe()
            pipe = os.fdopen(read, "rb")
            try:
                pid = os.fork()
            except BaseException:
                pipe.close()
                os.close(write)
                raise
            if pid == 0:
                _serve(fn, tasks, share, write)
            os.close(write)
            children.append((pid, pipe))
        payloads = [pipe.read() for _, pipe in children]
    except BaseException:
        _reap(children, kill=True)
        raise
    statuses = _reap(children, kill=False)
    results: list = [None] * len(tasks)
    failures = []
    for share, payload, status in zip(shares, payloads, statuses):
        if status != 0 or not payload:
            raise MartinWalkError(f"a worker process ended without a result: {_describe(status)}")
        done, failure = pickle.loads(payload)
        for i, result in zip(share, done):
            results[i] = result
        if failure is not None:
            failures.append(failure)
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return iter(results)


def _serve(fn, tasks, share: list[int], write: int) -> NoReturn:
    """The child: run the share, stopping at the first exception, write
    (results, None or (index, exception)) to the pipe, and exit."""
    status = 1
    try:
        import pickle

        done, failure = [], None
        for i in share:
            try:
                done.append(fn(tasks[i]))
            except Exception as exc:
                failure = (i, exc)
                break
        try:
            payload = pickle.dumps((done, failure), pickle.HIGHEST_PROTOCOL)
        except Exception as exc:  # an unpicklable result or exception
            error = MartinWalkError(f"a worker result cannot be pickled: {exc!r}")
            payload = pickle.dumps(([], (share[0], error)), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(payload)
        status = 0
    finally:
        os._exit(status)


def _reap(children: list[tuple[int, BinaryIO]], kill: bool) -> list[int]:
    """Close each child's pipe, kill it first if ``kill``, and wait for it;
    return the wait statuses."""
    statuses = []
    for pid, pipe in children:
        pipe.close()
        if kill:
            import signal

            os.kill(pid, signal.SIGKILL)  # an exited child stays a zombie until reaped
        statuses.append(os.waitpid(pid, 0)[1])
    return statuses


def _describe(status: int) -> str:
    if os.WIFSIGNALED(status):
        import signal

        return f"killed by signal {signal.Signals(os.WTERMSIG(status)).name}"
    return f"exit status {os.waitstatus_to_exitcode(status)}"
