"""One run's work split across BCPROF_THREADS processes.

`experiment` splits its trials and `verify` its cases the same way
(`share_items`): with W workers of `count` items, worker r takes item
count - 1 - r, then every W-th item before it, so the last item runs in
the calling process, worker 0, and not in a child. That process runs its
share beside W - 1 child processes, each with a one-way pipe on which it
sends back its share's result, or what stopped it. A child is given a
module-level share function and picklable arguments, never a closure, so
the split works under every multiprocessing start method.
`start_method()` picks the one `run_shares` uses.

`experiment` splits all its trials. `verify` first runs its cases in the
calling process, smallest first, until they have taken START_S, the cost
of starting a child (`run_started`): only the cases left then are split,
so a suite that is done by then starts no child. Of the cases that are
split, the calling process runs the largest and pays no fork or
copy-on-write for it.
"""

from __future__ import annotations

import os
import sys
import threading
from collections.abc import Callable
from time import perf_counter

from .errors import BadSpecError

# Seconds one forked child adds to `run_shares`, start to exit: a trivial
# share on two workers less the same on one read 3.8-5.0 ms (medians, 2 CPUs,
# BENCH_34.json).
START_S = 0.005


def worker_count(shares: int) -> int:
    """Worker count for a run of `shares` shares: BCPROF_THREADS (0 means
    every CPU), capped at the CPUs this process may run on (its affinity set
    where the platform has one) and at `shares`. It is never 0, because the
    calling process is worker 0 even when there is nothing to run."""
    raw = os.environ.get("BCPROF_THREADS", "1")
    try:
        value = int(raw)
    except ValueError:
        value = -1
    if value < 0:
        raise BadSpecError(f"BCPROF_THREADS must be a non-negative integer, got {raw!r}")
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(value or cpus, cpus, shares))


def share_items(count: int, first: int, stride: int) -> range:
    """Worker `first`'s items of `count` when `stride` workers split them:
    count - 1 - first, then every stride-th item before it. The shares of
    first = 0..stride - 1 partition range(count), and worker 0's holds the
    last item."""
    return range(count - 1 - first, -1, -stride)


def start_method() -> str | None:
    """How `run_shares` starts a child: "fork" on Linux while this process
    runs one thread, else None, the platform's default. A forked child
    starts without importing bcprof again, where a forkserver child (the
    Linux default from Python 3.14) or a spawned one pays for the import
    and rebuilds its caches. Forking a process that runs threads is unsafe.

    Only `threading` threads are counted. Threads started in C are not:
    faulthandler's watchdog (`dump_traceback_later`, which the test suite
    arms for every test) and the BLAS pool that `import numpy` starts still
    leave "fork", and from Python 3.12 `os.fork` then warns that the
    process is multi-threaded. Counting OS threads instead would move those
    processes off fork and make each child import bcprof again."""
    return "fork" if sys.platform == "linux" and threading.active_count() == 1 else None


def _child(conn, share: Callable, args: tuple) -> None:
    """A child's share: sends its result, or what stopped it."""
    try:
        result = share(*args)
    except BaseException as exc:
        result = exc
    conn.send(result)
    conn.close()


def run_shares(share: Callable, args: tuple, workers: int) -> list:
    """[share(*args, r, workers) for r in range(workers)], with r = 0 run
    here and every other r in a child process. A child's exception is raised
    again here, and a child that dies without sending is named by its exit
    code. On any error the children are terminated; every child is joined
    before this returns or raises."""
    children = []
    try:
        if workers > 1:
            # Imported here: only a run with children needs it.
            import multiprocessing

            ctx = multiprocessing.get_context(start_method())
            for r in range(1, workers):
                recv, send = ctx.Pipe(duplex=False)
                child_args = (send, share, (*args, r, workers))
                child = ctx.Process(target=_child, args=child_args, daemon=True)
                child.start()
                send.close()
                children.append((child, recv))
        shares = [share(*args, 0, workers)]
        for r, (child, recv) in enumerate(children, start=1):
            try:
                result = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"worker {r} exited with code {child.exitcode} before sending its share"
                ) from None
            if isinstance(result, BaseException):
                raise result
            shares.append(result)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return shares


def run_started(item: Callable[[int], object], count: int, share: Callable, args: tuple,
                workers: int) -> tuple[list, int]:
    """([item(i) for i in range(count)], the workers that ran them). The
    calling process runs items in order until they have taken START_S; the
    `left` items from `start` on are then split by `share_items` over
    min(workers, left) workers, worker r's results being
    share(*args, start, r, stride). A run with one item left, or none,
    starts no child and reports one worker."""
    results = []
    begin = perf_counter()
    while len(results) < count and perf_counter() - begin < START_S:
        results.append(item(len(results)))
    start = len(results)
    left = count - start
    stride = min(workers, left)
    if stride < 2:
        results += map(item, range(start, count))
        return results, 1
    rest = [None] * left
    for r, got in enumerate(run_shares(share, (*args, start), stride)):
        for i, result in zip(share_items(left, r, stride), got):
            rest[i] = result
    return results + rest, stride
