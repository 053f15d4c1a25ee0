"""The one fork helper that `experiment` and `verify` split their work with."""

import multiprocessing
import os
import sys
import threading
import time

import pytest
from test_experiments import _allow_cpus

from bcprof import NTooLargeError
from bcprof.experiments import ExperimentConfig, render_csv, run_experiment
from bcprof.verify import run_check
from bcprof.workers import run_shares, share_items, worker_count


# Shares are module-level functions of (first, stride), as a child needs.

def _where(tag, first, stride):
    return tag, first, stride, os.getpid()


def _odd_raises(first, stride):
    if first % 2:
        raise NTooLargeError(f"worker {first}")
    return first


def _child_exits(first, stride):
    if first:
        os._exit(7)
    return first


def _parent_raises(first, stride):
    if first == 0:
        raise NTooLargeError("parent")
    time.sleep(60)


def _no_child(*args):
    raise AssertionError("a worker process started")


class _Asked(Exception):
    pass


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert multiprocessing.active_children() == []


class TestShareItems:
    @pytest.mark.parametrize("workers", (1, 2, 3, 4))
    def test_shares_partition_and_the_caller_runs_the_last_item(self, workers):
        for count in range(21):
            shares = [list(share_items(count, r, workers)) for r in range(workers)]
            items = sorted(i for share in shares for i in share)
            assert items == list(range(count)), (count, shares)
            if count:
                assert count - 1 in shares[0], (count, shares)


class TestRunShares:
    def test_one_share_per_worker_in_order(self):
        shares = run_shares(_where, ("x",), 3)
        assert [share[:3] for share in shares] == [("x", r, 3) for r in range(3)]
        pids = [share[3] for share in shares]
        assert pids[0] == os.getpid() and len(set(pids)) == 3

    def test_one_worker_runs_here_even_for_no_shares(self, monkeypatch):
        # The caller is worker 0, so a run with nothing to share still
        # reports one worker, and it starts no child.
        monkeypatch.setattr(multiprocessing, "get_context", _no_child)
        assert run_shares(_where, ("x",), 1) == [("x", 0, 1, os.getpid())]
        _allow_cpus(monkeypatch, 2)
        monkeypatch.setenv("BCPROF_THREADS", "2")
        assert worker_count(0) == 1
        cfg = ExperimentConfig(which="no_cross_12_vs_n", grid=(), trials=5, seed=0)
        assert run_experiment(cfg).workers == 1
        assert run_check("tell", 0).workers == 1

    @pytest.mark.parametrize("platform, threads, method", [
        ("linux", 1, "fork"),
        ("linux", 2, None),  # forking a threaded process is unsafe
        ("darwin", 1, None),
        ("win32", 1, None),
    ])
    def test_linux_children_fork_unless_threaded(self, monkeypatch, platform, threads, method):
        # An explicit "fork" holds whatever the global default is; None asks
        # for the default. No child starts: the context is only asked for.
        asked = []

        def ask(name=None):
            asked.append(name)
            raise _Asked

        monkeypatch.setattr(multiprocessing, "get_context", ask)
        release = threading.Event()
        extra = [threading.Thread(target=release.wait) for _ in range(threads - 1)]
        for thread in extra:
            thread.start()
        try:
            with monkeypatch.context() as m, pytest.raises(_Asked):
                m.setattr(sys, "platform", platform)
                run_shares(_where, ("x",), 2)
        finally:
            release.set()
            for thread in extra:
                thread.join(timeout=10)
        assert asked == [method]
        assert not any(thread.is_alive() for thread in extra)

    def test_child_exception_reaches_the_parent(self):
        with pytest.raises(NTooLargeError, match="^worker 1$"):
            run_shares(_odd_raises, (), 2)

    def test_child_that_dies_is_named_by_its_exit_code(self):
        with pytest.raises(RuntimeError,
                           match="^worker 1 exited with code 7 before sending its share$"):
            run_shares(_child_exits, (), 2)

    def test_parent_failure_terminates_the_children(self):
        # Each child sleeps for a minute unless it is terminated.
        start = time.monotonic()
        with pytest.raises(NTooLargeError, match="^parent$"):
            run_shares(_parent_raises, (), 3)
        assert time.monotonic() - start < 30


def test_spawned_children_rebuild_their_share(monkeypatch):
    # A spawned child imports bcprof afresh and gets only pickled arguments,
    # so its share must not depend on anything the parent built in memory.
    cfg = ExperimentConfig(which="no_cross_12_vs_n", grid=(8, 12), trials=200, seed=3)
    monkeypatch.setenv("BCPROF_THREADS", "1")
    serial = run_check("tell"), render_csv(run_experiment(cfg))
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
    _allow_cpus(monkeypatch, 2)
    monkeypatch.setenv("BCPROF_THREADS", "2")
    report, res = run_check("tell"), run_experiment(cfg)
    assert (report.workers, res.workers) == (2, 2)
    assert (report, render_csv(res)) == serial
