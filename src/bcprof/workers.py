"""One run's work split across BCPROF_THREADS processes.

`experiment` splits its trials and `verify` its cases the same way: with W
workers, worker r takes items i = r (mod W). The calling process is worker
0 and runs its share beside W - 1 child processes, each with a one-way pipe
on which it sends back its share's result, or what stopped it. A child is
given a module-level share function and picklable arguments, never a
closure, so the split works under every multiprocessing start method.
"""

from __future__ import annotations

import os
from collections.abc import Callable

from .errors import BadSpecError

# The fewest experiment trials worth a worker: a run of fewer trials per
# worker than this is better served by fewer workers.
CHUNK = 64


def worker_count(tasks: int, chunk: int = CHUNK) -> int:
    """Worker count for `tasks` tasks: BCPROF_THREADS (0 means every CPU),
    capped at the CPUs this process may run on (its affinity set where the
    platform has one) and at the number of `chunk`-task chunks."""
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
    return min(value or cpus, cpus, -(-tasks // chunk))


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
    if workers == 0:
        return []
    children = []
    try:
        if workers > 1:
            # Imported here: only a run with children needs it. Where the
            # default start method is fork (Linux before Python 3.14), a
            # child starts without importing bcprof again.
            import multiprocessing

            ctx = multiprocessing.get_context()
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
