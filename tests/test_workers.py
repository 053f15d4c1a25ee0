"""The one fork helper that `experiment` and `verify` split their work with."""

import multiprocessing
import os
import sys
import threading
import time
from pathlib import Path

import pytest
from test_experiments import _allow_cpus

import bcprof
from bcprof import NTooLargeError
from bcprof.experiments import ExperimentConfig, render_csv, run_experiment
import bcprof.verify as verify
from bcprof.verify import run_check
from bcprof.workers import run_shares, run_started, share_items, worker_count


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


def _item(i):
    return i, os.getpid()


def _items_from(count, start, first, stride):
    return [_item(start + i) for i in share_items(count - start, first, stride)]


def _bcprof_file(first, stride):
    return str(Path(bcprof.__file__).resolve())


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


class TestRunStarted:
    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_start_zero_splits_every_item(self, monkeypatch, workers):
        # With no time to spend first, the split is run_shares' over all
        # the items, one worker per item at most.
        monkeypatch.setattr("bcprof.workers.START_S", 0)
        for count in range(6):
            results, used = run_started(_item, count, _items_from, (count,), workers)
            assert [i for i, _ in results] == list(range(count))
            assert used == max(1, min(workers, count))
            here = [i for i, pid in results if pid == os.getpid()]
            assert here == sorted(share_items(count, 0, used)), (count, results)
            assert len({pid for _, pid in results}) == min(used, count)

    def test_start_sixty_starts_no_child(self, monkeypatch):
        monkeypatch.setattr("bcprof.workers.START_S", 60)
        monkeypatch.setattr(multiprocessing, "get_context", _no_child)
        for count in range(6):
            assert run_started(_item, count, _items_from, (count,), 3) == (
                [(i, os.getpid()) for i in range(count)], 1)

    @pytest.mark.parametrize("j", range(7))
    def test_items_after_the_start_are_split(self, monkeypatch, j):
        # The clock passes START_S once item j has run: items 0..j run here,
        # in order, and only items j + 1.. are split.
        count, ran = 7, []

        def item(i):
            ran.append(i)
            return _item(i)

        monkeypatch.setattr("bcprof.workers.START_S", 1.0)
        monkeypatch.setattr("bcprof.workers.perf_counter", lambda: float(len(ran) > j))
        results, used = run_started(item, count, _items_from, (count,), 3)
        left = count - j - 1
        assert used == max(1, min(3, left))
        assert [i for i, _ in results] == list(range(count))
        assert ran == list(range(j + 1 if used > 1 else count))
        here = [i for i, pid in results if pid == os.getpid()]
        if used > 1:
            assert here == [*range(j + 1), *sorted(j + 1 + i for i in share_items(left, 0, used))]
        else:
            assert here == list(range(count))

    @pytest.mark.parametrize("j, used", [(0, 3), (4, 3), (5, 2), (6, 1), (7, 1)])
    def test_suite_cases_after_the_start_are_split(self, monkeypatch, j, used):
        # theorem1 has 8 cases, G(i, 5) for i = 3..10; the calling process
        # records the families it builds, a child does not.
        built = []
        make_gij = verify.make_gij

        def recording(i, jj):
            built.append(i)
            return make_gij(i, jj)

        _allow_cpus(monkeypatch, 3)
        monkeypatch.setenv("BCPROF_THREADS", "3")
        monkeypatch.setattr(verify, "make_gij", recording)
        monkeypatch.setattr("bcprof.workers.START_S", 1.0)
        monkeypatch.setattr("bcprof.workers.perf_counter", lambda: float(len(built) > j))
        report = run_check("theorem1")
        assert report.passed and report.workers == used
        left = 8 - j - 1
        mine = range(left) if used == 1 else share_items(left, 0, used)
        assert built == [*range(3, j + 4), *(j + 4 + i for i in mine)]


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
    monkeypatch.setattr("bcprof.workers.START_S", 0)
    report, res = run_check("tell"), run_experiment(cfg)
    assert (report.workers, res.workers) == (2, 2)
    assert (report, render_csv(res)) == serial


def test_spawned_children_import_the_parents_bcprof(monkeypatch):
    # A spawned child rebuilds sys.path from the parent's, so a directory
    # that a test module puts in front of the tested copy (say, the source
    # tree of a checkout whose installed package is under test) would have
    # the children test another copy of bcprof.
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: spawn)
    assert run_shares(_bcprof_file, (), 2) == [_bcprof_file(0, 2)] * 2
