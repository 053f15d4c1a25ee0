"""Experiment harness: determinism, indicator consistency, CSV format."""

import random

import pytest

from bcprof import (
    BadSpecError,
    OutOfRangeError,
    bfs_distances,
    path_counts_fast,
    prefix_counts,
    profile,
)
from bcprof.experiments import (
    ExperimentConfig,
    _trial_indicator,
    default_grid,
    render_csv,
    run_experiment,
    write_csv,
    write_manifest,
)
from bcprof.profile_analysis import count_crossings, is_monotone
from bcprof.scale_free import sample_tree, substream_seed


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
        assert prefix_counts(t, range(t.n)) == (Pk, Pkv)


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
                want = is_monotone(profile(t, u, table).entries)
            else:
                want = (
                    count_crossings(
                        profile(t, u, table).entries, profile(t, w, table).entries
                    ).count
                    == 0
                )
            assert got == want, which

    def test_monotone_trivial_at_n3(self):
        cfg = ExperimentConfig(which="monotone_1_vs_n", grid=(3,), trials=25, seed=0)
        res = run_experiment(cfg)
        assert res.rows[0]["estimate"] == 1.0


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

    def test_worker_count_invariant(self, monkeypatch):
        # 3 x 70 trials in chunks of 64: chunks straddle grid points.
        cfg = ExperimentConfig(which="monotone_1_vs_n", grid=(10, 4, 25), trials=70, seed=6)
        monkeypatch.setenv("BCPROF_THREADS", "1")
        serial = render_csv(run_experiment(cfg))
        monkeypatch.setenv("BCPROF_THREADS", "3")
        parallel = render_csv(run_experiment(cfg))
        assert serial == parallel


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

    def test_empty_grid_header_only(self, tmp_path):
        cfg = ExperimentConfig(which="no_cross_12_vs_n", grid=(), trials=5, seed=0)
        res = run_experiment(cfg)
        path = tmp_path / "empty.csv"
        write_csv(res, str(path))
        assert path.read_text() == "x,estimate,stderr,trials,seed\n"

    def test_manifest(self, tmp_path):
        import json

        cfg = ExperimentConfig(which="monotone_1_vs_n", grid=(4,), trials=5, seed=2)
        res = run_experiment(cfg)
        path = tmp_path / "run.manifest.json"
        write_manifest(res, str(path))
        manifest = json.loads(path.read_text())
        assert manifest["which"] == "monotone_1_vs_n"
        assert manifest["grid"] == [4]
        assert manifest["trials"] == 5
        assert "version" in manifest and "wall_seconds" in manifest

    def test_stderr_formula(self):
        cfg = ExperimentConfig(which="no_cross_12_vs_n", grid=(6,), trials=40, seed=8)
        row = run_experiment(cfg).rows[0]
        p = row["estimate"]
        assert row["stderr"] == pytest.approx((p * (1 - p) / 40) ** 0.5)
