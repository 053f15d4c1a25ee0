"""The one fork helper that `experiment` and `verify` split their work with."""

import multiprocessing
import os
import time

import pytest
from test_experiments import _allow_cpus

from bcprof import NTooLargeError
from bcprof.experiments import ExperimentConfig, render_csv, run_experiment
from bcprof.verify import run_check
from bcprof.workers import run_shares


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


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    assert multiprocessing.active_children() == []


class TestRunShares:
    def test_one_share_per_worker_in_order(self):
        shares = run_shares(_where, ("x",), 3)
        assert [share[:3] for share in shares] == [("x", r, 3) for r in range(3)]
        pids = [share[3] for share in shares]
        assert pids[0] == os.getpid() and len(set(pids)) == 3

    def test_one_worker_runs_here_and_none_runs_nothing(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_context", _no_child)
        assert run_shares(_where, ("x",), 1) == [("x", 0, 1, os.getpid())]
        assert run_shares(_where, ("x",), 0) == []

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
