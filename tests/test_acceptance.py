"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
complete. Every exact criterion delegates to the same verification suites
exposed by `bcprof verify`.
"""

import math
from fractions import Fraction

from bcprof import make_tell, prefix_counts
from bcprof.experiments import ExperimentConfig, render_csv, run_experiment
from bcprof.profile_analysis import count_crossings
from bcprof.verify import run_check


def _report(number: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail and not passed else ""
    print(f"{status} [criterion {number}] {label}{suffix}")
    assert passed, f"criterion {number}: {label}{suffix}"


def test_criterion_1_paths_monotone_and_non_crossing():
    report = run_check("prop1", max_size=200)
    _report(1, "path profiles non-decreasing, no crossings, n <= 200",
            report.passed, "; ".join(c.detail for c in report.cases if not c.passed))


def test_criterion_2_path_closed_forms():
    report = run_check("corollary1", max_size=50)
    _report(2, "path closed forms equal brute-force oracle, n <= 50",
            report.passed, "; ".join(c.detail for c in report.cases if not c.passed))


def test_criterion_3_gij_tables():
    report = run_check("gij-tables", max_size=5)
    _report(3, "tabulated p_k / P_k / P_k(v) rows equal oracle, i in 3..5, j in 5..7",
            report.passed, "; ".join(c.detail for c in report.cases if not c.passed))


def test_criterion_4_dip_inequalities():
    # The pointwise inequality holds for 2 <= r <= i-2 (it is exactly false
    # at r = i-1 once i >= 6); the dip count bound holds in full.
    report = run_check("theorem1", max_size=10)
    _report(4, "dip inequalities (2 <= r <= i-2) and dip count >= i-2 on G_{i,5}, i <= 10",
            report.passed, "; ".join(c.detail for c in report.cases if not c.passed))


def test_criterion_5_crossing_construction():
    report = run_check("tell", max_size=3)
    crossings_ok = True
    for l in (1, 2, 3):
        t, u, v, _ = make_tell(l)
        _, (Pu, Pv) = prefix_counts(t, (u, v))
        if count_crossings(Pu[2:], Pv[2:]).count < 2 * l - 3:
            crossings_ok = False
    _report(5, "crossing-construction alternation and >= 2l-3 crossings, l <= 3",
            report.passed and crossings_ok)


def test_criterion_6_broom_witnesses():
    report = run_check("prop2")
    _report(6, "double-broom ratio < 0.1 and broom ratio > 2 witnesses",
            report.passed, "; ".join(c.detail for c in report.cases if not c.passed))


def test_criterion_7_path_probability():
    report = run_check("lemma1", max_size=7)
    _report(7, "closed-form path probability equals enumeration, n <= 7",
            report.passed, "; ".join(c.detail for c in report.cases if not c.passed))


def test_criterion_8_expectation_ordering_and_injection():
    report = run_check("theorem3", max_size=7)
    _report(8, "E[p_k(v)] strictly decreasing and injection properties, n <= 7",
            report.passed, "; ".join(c.detail for c in report.cases if not c.passed))


def test_criterion_9_experiment_trends():
    trials = 5000

    def row(which, x, **kw):
        cfg = ExperimentConfig(which=which, grid=(x,), trials=trials, seed=2026, **kw)
        return run_experiment(cfg).rows[0]

    lo = row("no_cross_12_vs_n", 10)
    hi = row("no_cross_12_vs_n", 200)
    cross_gap = lo["estimate"] - hi["estimate"]
    cross_err = math.hypot(lo["stderr"], hi["stderr"])
    cross_ok = cross_gap > 2 * cross_err

    small = row("monotone_i_vs_i", 2)
    large = row("monotone_i_vs_i", 200)
    mono_gap = large["estimate"] - small["estimate"]
    mono_err = math.hypot(small["stderr"], large["stderr"])
    mono_ok = mono_gap > 2 * mono_err

    _report(9, "experiment trends beyond 2 combined stderr at 5000 trials",
            cross_ok and mono_ok,
            f"no-cross gap {cross_gap:.4f} vs {2 * cross_err:.4f}, "
            f"monotone gap {mono_gap:.4f} vs {2 * mono_err:.4f}")


def test_criterion_10_determinism(monkeypatch):
    # Two CPUs at least, so the parallel run forks a child on any machine.
    monkeypatch.setattr("os.cpu_count", lambda: 2)
    cfg = ExperimentConfig(which="no_cross_ii1_vs_i", grid=(3, 50), trials=200, seed=99)
    monkeypatch.setenv("BCPROF_THREADS", "1")
    serial = render_csv(run_experiment(cfg))
    monkeypatch.setenv("BCPROF_THREADS", "4")
    parallel = render_csv(run_experiment(cfg))
    monkeypatch.delenv("BCPROF_THREADS")
    rerun = render_csv(run_experiment(cfg))
    _report(10, "stochastic reruns byte-identical across worker counts",
            serial == parallel == rerun)
