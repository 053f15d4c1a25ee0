"""Experiment harness: determinism, indicator consistency, exact curves, CSV format."""

import multiprocessing
import os
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from histories import _history_numerators

from bcprof import (
    BadSpecError,
    NTooLargeError,
    OutOfRangeError,
    bfs_distances,
    path_counts_fast,
    path_counts_naive,
    prefix_counts,
    profile,
    tree_from_parents,
)
from bcprof import tree_core
from bcprof.experiments import (
    MAX_TRIALS,
    ExperimentConfig,
    _trial_indicator,
    default_grid,
    render_csv,
    run_experiment,
    worker_count,
    write_csv,
    write_manifest,
)
from bcprof.profile_analysis import count_crossings, monotonicity_class
from bcprof.scale_free import RecursiveTree, sample_tree, substream_seed
from bcprof.workers import share_items, start_method


class TestConfig:
    def test_rejects_unknown_kind(self):
        with pytest.raises(BadSpecError):
            ExperimentConfig(which="nope", grid=(10,))

    def test_rejects_small_n(self):
        with pytest.raises(OutOfRangeError):
            ExperimentConfig(which="no_cross_12_vs_n", grid=(2,))

    def test_rejects_vertex_beyond_fixed_n(self):
        with pytest.raises(OutOfRangeError):
            ExperimentConfig(which="monotone_i_vs_i", grid=(250,), fixed_n=250)

    @pytest.mark.parametrize("which", ("no_cross_12_vs_n", "monotone_1_vs_n"))
    def test_vs_n_ignores_fixed_n(self, which):
        # Only the _vs_i kinds sample trees of fixed_n vertices.
        assert ExperimentConfig(which=which, grid=(3,), fixed_n=2).fixed_n == 2

    def test_rejects_trials_beyond_substream_width(self):
        # Trial t of grid point x seeds substream (x << 24) + t, so trial
        # 2**24 of x = 1 would replay trial 0 of x = 2. Only configs are built.
        cfg = ExperimentConfig(which="no_cross_12_vs_n", grid=(10,), trials=1 << 24)
        assert cfg.trials == MAX_TRIALS
        with pytest.raises(OutOfRangeError, match="trials"):
            ExperimentConfig(which="no_cross_12_vs_n", grid=(10,), trials=(1 << 24) + 1)

    @pytest.mark.parametrize("seed", (-1, 2**64))
    def test_rejects_seed_outside_64_bits(self, seed):
        # substream_seed reduces seeds modulo 2**64, so 2**64 would repeat
        # seed 0 and -1 would repeat 2**64 - 1.
        with pytest.raises(OutOfRangeError, match="seed"):
            ExperimentConfig(which="monotone_1_vs_n", grid=(5,), trials=1, seed=seed)
        ExperimentConfig(which="monotone_1_vs_n", grid=(5,), trials=1, seed=2**64 - 1)

    def test_default_grids(self):
        assert default_grid("no_cross_12_vs_n")[0] >= 3
        assert max(default_grid("monotone_i_vs_i")) < 250


class TestDistanceMatrix:
    def test_matches_bfs(self):
        # The prefix counts the indicators read agree with the all-pairs BFS
        # distances of the same sampled tree.
        rng = random.Random(3)
        t = sample_tree(40, rng).tree()
        D = [bfs_distances(t, v) for v in range(t.n)]
        d = max(max(row) for row in D)
        pairs = [(a, b) for a in range(t.n) for b in range(a + 1, t.n) if D[a][b] >= 2]
        Pk = [sum(1 for a, b in pairs if D[a][b] <= k) for k in range(d + 1)]
        Pkv = [
            [
                sum(1 for a, b in pairs if D[a][b] <= k and v not in (a, b)
                    and D[a][v] + D[v][b] == D[a][b])
                for k in range(d + 1)
            ]
            for v in range(t.n)
        ]
        assert prefix_counts(t, range(t.n)) == (tuple(Pk), tuple(map(tuple, Pkv)))


class TestIndicators:
    def test_trials_one_matches_direct_analysis(self):
        # The harness's indicator agrees with a direct profile computation
        # on the identical sampled tree.
        for which, x in (
            ("no_cross_12_vs_n", 12),
            ("no_cross_ii1_vs_i", 7),
            ("monotone_1_vs_n", 15),
            ("monotone_i_vs_i", 4),
        ):
            fixed_n, seed, trial = 30, 99, 0
            got = _trial_indicator(which, x, fixed_n, seed, trial)
            rng = random.Random(substream_seed(seed, (x << 24) + trial))
            n = x if which.endswith("_vs_n") else fixed_n
            t = sample_tree(n, rng).tree()
            table = path_counts_fast(t)
            if which == "no_cross_12_vs_n":
                u, w = 0, 1
            elif which == "no_cross_ii1_vs_i":
                u, w = x - 1, x
            else:
                u, w = (0 if which == "monotone_1_vs_n" else x - 1), None
            if w is None:
                want = monotonicity_class(profile(t, u, table).entries) != "neither"
            else:
                want = (
                    count_crossings(
                        profile(t, u, table).entries, profile(t, w, table).entries
                    ).count
                    == 0
                )
            assert got == want, which

    # Each kind's indicator on the sampled tree's Fraction profiles, decided
    # by the analysis primitives; profile(v) gives vertex v's entries.
    FRACTION_INDICATORS = {
        "no_cross_12_vs_n": lambda profile, x: count_crossings(profile(0), profile(1)).count == 0,
        "monotone_1_vs_n": lambda profile, x: monotonicity_class(profile(0)) != "neither",
        "no_cross_ii1_vs_i":
            lambda profile, x: count_crossings(profile(x - 1), profile(x)).count == 0,
        "monotone_i_vs_i": lambda profile, x: monotonicity_class(profile(x - 1)) != "neither",
    }

    def assert_agrees(self, which, seed, points):
        """Each trial's indicator equals FRACTION_INDICATORS on the same
        sampled tree, at every (n, x, trials) of points; returns the
        outcomes seen at each n."""
        outcomes = {}
        for n, x, trials in points:
            for trial in range(trials):
                rng = random.Random(substream_seed(seed, (x << 24) + trial))
                t = sample_tree(n, rng).tree()
                table = path_counts_fast(t)
                want = self.FRACTION_INDICATORS[which](
                    lambda v: profile(t, v, table).entries, x
                )
                got = _trial_indicator(which, x, n, seed, trial)
                assert got == want, (n, x, trial)
                outcomes.setdefault(n, set()).add(got)
        return outcomes

    @pytest.mark.parametrize("which", sorted(FRACTION_INDICATORS))
    def test_integer_indicator_equals_fraction_reference(self, which):
        # The trial decides from integer counts (crossings directly,
        # monotonicity by cross-multiplying); the reference builds Fraction
        # profiles of the same tree. n = 3 has diameter 2, so one-entry
        # profiles; at n = 30 both outcomes must occur, so no kind agrees
        # vacuously.
        if which.endswith("_vs_n"):
            points = ((3, 3, 200), (30, 30, 200))
        else:
            points = ((3, 1, 200), (3, 2, 200), (30, 1, 200), (30, 5, 200))
        assert self.assert_agrees(which, 21, points) == {3: {True}, 30: {True, False}}

    @pytest.mark.parametrize("which", sorted(FRACTION_INDICATORS))
    def test_indicator_equals_fraction_reference_at_bench_scale(self, which):
        # At n = 250, every grid point the experiment workload runs, where
        # a listed vertex past the first few is often childless and the
        # trial returns before it counts, and x = 248, the last point at
        # which the crossing kind samples; at n = 10, every x. Both outcomes
        # must occur, so the early hits cannot agree vacuously. The seed
        # was chosen before the first run.
        seed = 4404
        if which.endswith("_vs_n"):
            points = ((10, 10, 60), (50, 50, 30), (250, 250, 30))
        else:
            points = tuple((250, x, 30) for x in (1, 50, 100, 125, 200, 248, 249))
            points += tuple((10, x, 60) for x in range(1, 10))
        outcomes = self.assert_agrees(which, seed, points)
        assert set().union(*outcomes.values()) == {True, False}
        assert outcomes[250] == {True, False}

    @pytest.mark.parametrize("which, grid, listed", [
        ("no_cross_ii1_vs_i", (100, 249), lambda x: (x - 1, x)),
        ("monotone_i_vs_i", (125,), lambda x: (x - 1,)),
    ], ids=["no_cross_ii1_vs_i", "monotone_i_vs_i"])
    def test_only_trials_whose_vertices_all_have_a_child_count(self, monkeypatch, which, grid,
                                                               listed):
        # A listed childless vertex makes the trial a hit with no count, and
        # vertex n - 1 is never a parent, so its trials draw no tree. The
        # engine must run on exactly the sampled trees in which every listed
        # vertex has a child, recomputed here from the same substreams, and
        # both kinds of trial must occur.
        n, trials, seed = 250, 200, 3
        sampled, counted = [], []

        def sample(n, rng):
            tree = sample_tree(n, rng)
            sampled.append(tree.parent)
            return tree

        def count(parent, vertices, **kwargs):
            counted.append((parent, vertices))
            return tree_core._parent_prefix_counts(parent, vertices, **kwargs)

        monkeypatch.setattr("bcprof.experiments.sample_tree", sample)
        monkeypatch.setattr("bcprof.experiments._parent_prefix_counts", count)
        monkeypatch.setenv("BCPROF_THREADS", "1")
        run_experiment(ExperimentConfig(which=which, grid=grid, trials=trials, fixed_n=n,
                                        seed=seed))
        drawn, want = [], []
        for x in grid:
            if x == n - 1:
                continue
            for trial in share_items(trials, 0, 1):
                rng = random.Random(substream_seed(seed, (x << 24) + trial))
                parent = sample_tree(n, rng).parent
                drawn.append(parent)
                if all(v in parent for v in listed(x)):
                    want.append((parent, listed(x)))
        assert sampled == drawn
        assert len(drawn) == trials
        assert counted == want
        assert 0 < len(counted) < len(drawn)

    def test_monotone_trivial_at_n3(self):
        cfg = ExperimentConfig(which="monotone_1_vs_n", grid=(3,), trials=25, seed=0)
        res = run_experiment(cfg)
        assert res.rows[0]["estimate"] == 1.0


def _no_crossing(pu, pv):
    """True unless pu is above pv at one k and below it at another."""
    return not (any(a > b for a, b in zip(pu, pv)) and any(a < b for a, b in zip(pu, pv)))


def _monotone(p):
    steps = list(zip(p, p[1:]))
    return all(a <= b for a, b in steps) or all(a >= b for a, b in steps)


# Each kind's indicator on the Fraction profiles (BC_2..BC_d, indexed by
# 0-based vertex) of a tree with n vertices, at grid point x.
_ORACLE_INDICATORS = {
    "no_cross_12_vs_n": lambda bc, x: _no_crossing(bc[0], bc[1]),
    "monotone_1_vs_n": lambda bc, x: _monotone(bc[0]),
    "no_cross_ii1_vs_i": lambda bc, x: _no_crossing(bc[x - 1], bc[x]),
    "monotone_i_vs_i": lambda bc, x: _monotone(bc[x - 1]),
}


@lru_cache(maxsize=None)
def _history_profiles(n):
    """(D, [(numerator, every vertex's Fraction profile)]) over every
    attachment history of n vertices, counted by the brute-force oracle."""
    D, histories = _history_numerators(n)
    weighted = []
    for parents, num in histories:
        table = path_counts_naive(tree_from_parents([-1, *(p - 1 for p in parents)]))
        bc = [[Fraction(row[k], table.Pk[k]) for k in range(2, table.d + 1)]
              for row in table.Pkv]
        weighted.append((num, bc))
    return D, weighted


def _exact_probability(which, n, x):
    D, weighted = _history_profiles(n)
    return Fraction(sum(num for num, bc in weighted if _ORACLE_INDICATORS[which](bc, x)), D)


class TestExactCurves:
    """Each Monte Carlo curve point against its exact value, summed over
    every attachment history with n <= 8 (5040 histories at n = 8)."""

    # Exact values at n = 8, to four places; every point at n <= 7 is 1.
    AT_EIGHT = {
        ("no_cross_12_vs_n", 8): 0.9833,
        ("monotone_1_vs_n", 8): 0.9541,
        **{("no_cross_ii1_vs_i", i): p
           for i, p in enumerate((0.9833, 0.9900, 0.9936, 0.9960, 0.9984, 1, 1), start=1)},
        **{("monotone_i_vs_i", i): p
           for i, p in enumerate((0.9541, 0.9821, 0.9861, 0.9869, 0.9895, 0.9935, 0.9979),
                                 start=1)},
    }
    GRIDS = {
        "no_cross_12_vs_n": tuple(range(3, 9)),
        "monotone_1_vs_n": tuple(range(3, 9)),
        "no_cross_ii1_vs_i": tuple(range(1, 8)),
        "monotone_i_vs_i": tuple(range(1, 8)),
    }
    # Chosen before the first run; never changed to make the test pass.
    SEED, TRIALS = 13, 4000

    def test_every_point_below_eight_is_one(self):
        for n in range(3, 8):
            for which in self.GRIDS:
                for x in range(1, n) if which.endswith("_vs_i") else (n,):
                    assert _exact_probability(which, n, x) == 1, (which, n, x)

    @pytest.mark.parametrize("which", sorted(GRIDS))
    def test_estimates_within_four_standard_errors(self, monkeypatch, which):
        monkeypatch.setenv("BCPROF_THREADS", "1")
        cfg = ExperimentConfig(which=which, grid=self.GRIDS[which], trials=self.TRIALS,
                               fixed_n=8, seed=self.SEED)
        for row in run_experiment(cfg).rows:
            x = row["x"]
            n = x if which.endswith("_vs_n") else 8
            exact = _exact_probability(which, n, x)
            assert round(float(exact), 4) == self.AT_EIGHT.get((which, x), 1), (x, exact)
            if exact == 1:
                assert row["estimate"] == 1, x
            else:
                sigma = (float(exact) * (1 - float(exact)) / self.TRIALS) ** 0.5
                assert abs(row["estimate"] - float(exact)) <= 4 * sigma, (x, row, exact)


def _allow_cpus(monkeypatch, cpus, host=None):
    """Let the process run on `cpus` CPUs of a host with `host` (default `cpus`)."""
    monkeypatch.setattr("os.cpu_count", lambda: cpus if host is None else host)
    monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


class TestDeterminism:
    def test_rerun_identical(self):
        cfg = ExperimentConfig(which="no_cross_12_vs_n", grid=(8, 12), trials=30, seed=4)
        assert render_csv(run_experiment(cfg)) == render_csv(run_experiment(cfg))

    # Recorded before the indicator moved from dense distance matrices to the
    # tree_core engine; the indicators are exact, so the bytes must not move.
    PINNED_CSV = {
        "no_cross_12_vs_n": ((10, 100), "10,0.975000,0.011040,200,11\n100,0.880000,0.022978,200,11\n"),
        "monotone_1_vs_n": ((10, 100), "10,0.950000,0.015411,200,11\n100,0.860000,0.024536,200,11\n"),
        "no_cross_ii1_vs_i": ((5, 100), "5,0.850000,0.025249,200,11\n100,0.955000,0.014659,200,11\n"),
        "monotone_i_vs_i": ((5, 100), "5,0.470000,0.035292,200,11\n100,0.645000,0.033836,200,11\n"),
    }

    @pytest.mark.parametrize("which", sorted(PINNED_CSV))
    def test_pinned_csv_bytes(self, which):
        grid, rows = self.PINNED_CSV[which]
        cfg = ExperimentConfig(which=which, grid=grid, trials=200, seed=11)
        assert render_csv(run_experiment(cfg)) == "x,estimate,stderr,trials,seed\n" + rows

    @pytest.mark.parametrize("which", sorted(PINNED_CSV))
    def test_trials_never_build_a_tree(self, monkeypatch, which):
        # Trials count straight from the attachment order; no Tree is built.
        def no_tree(self):
            raise AssertionError("a trial built a Tree")

        monkeypatch.setattr(RecursiveTree, "tree", no_tree)
        monkeypatch.setenv("BCPROF_THREADS", "1")
        grid, rows = self.PINNED_CSV[which]
        cfg = ExperimentConfig(which=which, grid=grid, trials=200, seed=11)
        assert render_csv(run_experiment(cfg)) == "x,estimate,stderr,trials,seed\n" + rows

    @pytest.mark.parametrize("which", sorted(PINNED_CSV))
    def test_only_monotone_trials_read_the_all_pairs_lengths(self, monkeypatch, which):
        # A crossing kind compares two rows, counted with no all-pairs
        # histogram, so the stage that reads p_l and d off it never runs.
        # A monotone kind needs P_k and must reach it, so the guard cannot
        # pass vacuously.
        def no_lengths(*args):
            raise AssertionError("a trial read the all-pairs lengths")

        monkeypatch.setattr(tree_core, "_diameter_and_lengths", no_lengths)
        monkeypatch.setenv("BCPROF_THREADS", "1")
        grid, rows = self.PINNED_CSV[which]
        cfg = ExperimentConfig(which=which, grid=grid, trials=200, seed=11)
        if which.startswith("monotone"):
            with pytest.raises(AssertionError, match="all-pairs lengths"):
                run_experiment(cfg)
        else:
            assert render_csv(run_experiment(cfg)) == "x,estimate,stderr,trials,seed\n" + rows

    def test_worker_count_invariant(self, monkeypatch):
        # 3 x 70 trials: each process takes every W-th trial of each point,
        # W = 2 and 3. The CPUs the process may run on are raised so that
        # the children run on any machine.
        cfg = ExperimentConfig(which="monotone_1_vs_n", grid=(10, 4, 25), trials=70, seed=6)
        monkeypatch.setenv("BCPROF_THREADS", "1")
        serial = render_csv(run_experiment(cfg))
        for workers in (2, 3):
            _allow_cpus(monkeypatch, workers)
            monkeypatch.setenv("BCPROF_THREADS", str(workers))
            res = run_experiment(cfg)
            assert res.workers == workers
            assert render_csv(res) == serial


def _fail_on(worker, exc):
    """An indicator that raises (or exits with, given an int) `exc` on every
    trial of worker `worker`'s share of TestChildren's 2-worker run: worker
    0 is the parent, worker 1 the child."""
    share = set(share_items(TestChildren.CFG.trials, worker, 2))

    def indicator(which, x, fixed_n, seed, trial):
        if trial in share:
            if isinstance(exc, int):
                os._exit(exc)
            raise exc
        return _trial_indicator(which, x, fixed_n, seed, trial)

    return indicator


@pytest.mark.skipif(start_method() != "fork",
                    reason="children see the patched indicator only when forked")
class TestChildren:
    CFG = ExperimentConfig(which="monotone_1_vs_n", grid=(10, 12), trials=100, seed=5)

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        _allow_cpus(monkeypatch, 2)
        monkeypatch.setenv("BCPROF_THREADS", "2")
        yield
        assert multiprocessing.active_children() == []

    def test_child_exception_reaches_the_parent(self, monkeypatch):
        monkeypatch.setattr("bcprof.experiments._trial_indicator",
                            _fail_on(1, NTooLargeError("child's trial")))
        with pytest.raises(NTooLargeError, match="^child's trial$"):
            run_experiment(self.CFG)

    def test_child_that_dies_is_named_by_its_exit_code(self, monkeypatch):
        monkeypatch.setattr("bcprof.experiments._trial_indicator", _fail_on(1, 7))
        with pytest.raises(RuntimeError, match="exited with code 7"):
            run_experiment(self.CFG)

    def test_parent_failure_stops_the_children(self, monkeypatch):
        monkeypatch.setattr("bcprof.experiments._trial_indicator",
                            _fail_on(0, NTooLargeError("parent's trial")))
        with pytest.raises(NTooLargeError, match="^parent's trial$"):
            run_experiment(self.CFG)

    def test_grid_seconds_are_the_parents_share(self):
        res = run_experiment(self.CFG)
        assert res.workers == 2 and len(res.grid_seconds) == 2
        assert min(res.grid_seconds) >= 0
        assert sum(res.grid_seconds) <= res.wall_seconds


class TestWorkerCount:
    # Only the test_chunk_* tests and the no-child test run an experiment:
    # the other tests compute the worker count, and no child starts.
    # `cpus` is how many CPUs the process may run on, of a host with 8.
    @pytest.mark.parametrize("raw, cpus, shares, expected", [
        ("1", 8, 1000, 1),
        ("0", 8, 1000, 8),
        ("99999", 8, 1000, 8),  # capped at the CPU count
        ("99999", 8, 3, 3),  # capped at the share count
        ("0", 4, 0, 1),  # the calling process is worker 0
        ("0", 1, 30000, 1),  # capped at the affinity set, not the host's CPUs
    ])
    def test_pool_size(self, monkeypatch, raw, cpus, shares, expected):
        monkeypatch.setenv("BCPROF_THREADS", raw)
        _allow_cpus(monkeypatch, cpus, host=8)
        assert worker_count(shares) == expected

    @pytest.mark.parametrize("trials, points, expected", [
        (64, 1, 1),
        (65, 1, 2),
        (32, 2, 1),
        (33, 2, 2),
    ])
    def test_chunk_of_trial_points(self, monkeypatch, trials, points, expected):
        # An experiment asks for one worker per 64 trial-points, rounded up.
        monkeypatch.setenv("BCPROF_THREADS", "2")
        _allow_cpus(monkeypatch, 2)
        grid = (10, 12)[:points]
        cfg = ExperimentConfig(which="no_cross_12_vs_n", grid=grid, trials=trials, seed=0)
        assert run_experiment(cfg).workers == expected

    @pytest.mark.parametrize("trials, expected", [(64, 1), (65, 2)])
    def test_chunk_counts_only_trial_points_that_sample(self, monkeypatch, trials, expected):
        # At x = n - 1 = 249 a trial lists the last label and samples no
        # tree, so of grid (249, 100) only x = 100's trials count.
        monkeypatch.setenv("BCPROF_THREADS", "1")
        cfg = ExperimentConfig(which="no_cross_ii1_vs_i", grid=(249, 100), trials=trials, seed=3)
        serial = render_csv(run_experiment(cfg))
        monkeypatch.setenv("BCPROF_THREADS", "2")
        _allow_cpus(monkeypatch, 2)
        res = run_experiment(cfg)
        assert res.workers == expected and render_csv(res) == serial

    def test_run_that_samples_no_tree_starts_no_child(self, monkeypatch):
        # The bench's `experiment --which no_cross_ii1_vs_i --grid 249
        # --fixed-n 250 --trials 450` op: every trial is a hit that samples
        # nothing, so it runs in the calling process, with the CSV bytes
        # recorded when it forked a child.
        def no_child(self):
            raise AssertionError("a child process was started")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", no_child)
        monkeypatch.setenv("BCPROF_THREADS", "2")
        _allow_cpus(monkeypatch, 2)
        cfg = ExperimentConfig(which="no_cross_ii1_vs_i", grid=(249,), trials=450, fixed_n=250)
        res = run_experiment(cfg)
        assert res.workers == 1
        assert render_csv(res) == "x,estimate,stderr,trials,seed\n249,1.000000,0.000000,450,0\n"

    @pytest.mark.parametrize("host, expected", [(3, 3), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, host, expected):
        # Where the platform has no affinity set, the host's count caps W.
        monkeypatch.setenv("BCPROF_THREADS", "0")
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: host)
        assert worker_count(1000) == expected

    @pytest.mark.parametrize("raw", ("-1", "-99999", "x", "1.5", ""))
    def test_rejects_negative_and_non_integer(self, monkeypatch, raw):
        monkeypatch.setenv("BCPROF_THREADS", raw)
        _allow_cpus(monkeypatch, 2)
        with pytest.raises(BadSpecError, match="BCPROF_THREADS"):
            worker_count(1000)


class TestOutput:
    def test_csv_shape(self, tmp_path):
        cfg = ExperimentConfig(which="no_cross_12_vs_n", grid=(5, 9), trials=10, seed=1)
        res = run_experiment(cfg)
        path = tmp_path / "out.csv"
        write_csv(res, str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "x,estimate,stderr,trials,seed"
        assert len(lines) == 3
        x, est, err, trials, seed = lines[1].split(",")
        assert x == "5" and trials == "10" and seed == "1"
        assert len(est.split(".")[1]) == 6 and len(err.split(".")[1]) == 6
        assert 0.0 <= float(est) <= 1.0

    def test_empty_grid_header_only(self, tmp_path, monkeypatch):
        # No trials means one worker, the caller, even when every CPU is
        # asked for, and its share is empty.
        monkeypatch.setenv("BCPROF_THREADS", "0")
        cfg = ExperimentConfig(which="no_cross_12_vs_n", grid=(), trials=5, seed=0)
        res = run_experiment(cfg)
        assert res.workers == 1 and res.grid_seconds == ()
        path = tmp_path / "empty.csv"
        write_csv(res, str(path))
        assert path.read_text() == "x,estimate,stderr,trials,seed\n"

    def test_manifest(self, tmp_path, monkeypatch):
        import json
        import platform
        import sys

        monkeypatch.setenv("BCPROF_THREADS", "1")
        cfg = ExperimentConfig(which="monotone_1_vs_n", grid=(4, 60, 5), trials=5, seed=2)
        res = run_experiment(cfg)
        path = tmp_path / "run.manifest.json"
        write_manifest(res, str(path))
        manifest = json.loads(path.read_text())
        assert manifest["which"] == "monotone_1_vs_n"
        assert manifest["grid"] == [4, 60, 5]
        assert manifest["trials"] == 5
        assert "version" in manifest and "wall_seconds" in manifest
        assert manifest["workers"] == res.workers == 1
        assert manifest["trials_per_s"] == pytest.approx(15 / res.wall_seconds)
        # One entry per grid point, none negative, within the wall time.
        seconds = manifest["grid_seconds"]
        assert seconds == list(res.grid_seconds) and len(seconds) == 3
        assert min(seconds) >= 0
        assert sum(seconds) <= manifest["wall_seconds"]
        assert manifest["python"] == platform.python_version()
        assert manifest["platform"] == sys.platform

    def test_stderr_formula(self):
        cfg = ExperimentConfig(which="no_cross_12_vs_n", grid=(6,), trials=40, seed=8)
        row = run_experiment(cfg).rows[0]
        p = row["estimate"]
        assert row["stderr"] == pytest.approx((p * (1 - p) / 40) ** 0.5)
