"""Preferential-attachment sampling, exact enumeration, and the injection map."""

import hashlib
import itertools
import math
import os
import random
import re
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcprof
from bcprof import (
    NotASimplePathError,
    NTooLargeError,
    OutOfRangeError,
    PreconditionViolatedError,
    RecursiveTree,
    all_candidate_paths,
    build_tree,
    enumerate_histories,
    estimate_expected_profiles,
    exact_expected_pk,
    exact_path_presence_prob,
    injection_case,
    injection_f,
    injection_ratio,
    path_counts_fast,
    path_counts_naive,
    path_probability,
    prefix_counts,
    sample_tree,
    signature_of_path,
    splitmix64,
    substream_seed,
)
from bcprof import scale_free
from bcprof.scale_free import _presence_table
from bcprof.tree_core import _parent_prefix_counts
from bcprof.verify import run_check


class TestRng:
    def test_splitmix_reference_behavior(self):
        # deterministic, 64-bit, and bijective-looking on small inputs
        assert splitmix64(0) == splitmix64(0)
        outs = {splitmix64(x) for x in range(1000)}
        assert len(outs) == 1000
        assert all(0 <= x < 2**64 for x in outs)

    def test_substreams_distinct(self):
        seeds = {substream_seed(123, i) for i in range(1000)}
        assert len(seeds) == 1000
        assert substream_seed(123, 5) != substream_seed(124, 5)


class TestSampler:
    def test_deterministic(self):
        a = sample_tree(50, random.Random(9))
        b = sample_tree(50, random.Random(9))
        assert a == b

    def test_parents_valid(self):
        t = sample_tree(100, random.Random(1))
        assert all(1 <= p < v for v, p in enumerate(t.parents, start=2))
        assert t.tree().n == 100

    def test_draws_equal_randrange(self):
        # sample_tree draws each parent as randrange does internally; this
        # reference calls randrange, so a Python whose randrange draws
        # differently fails here instead of changing every sampled tree.
        def reference(n, rng):
            parents, targets = [], [1]
            for t in range(2, n + 1):
                p = targets[rng.randrange(len(targets))]
                parents.append(p)
                targets += [t, p]
            return tuple(parents)

        for n in (1, 2, 3, 4, 17, 250):
            for seed in range(500):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                assert sample_tree(n, rng).parents == reference(n, ref_rng), (n, seed)
                assert rng.getstate() == ref_rng.getstate(), (n, seed)

    def test_calibration_against_enumeration(self):
        # Observed history frequencies for n=4 match exact probabilities.
        n, trials = 4, 20000
        exact = dict(enumerate_histories(n))
        rng = random.Random(2024)
        freq = Counter(sample_tree(n, rng).parents for _ in range(trials))
        assert set(freq) <= set(exact)
        for parents, prob in exact.items():
            p = float(prob)
            tol = 5 * math.sqrt(p * (1 - p) / trials)
            assert abs(freq[parents] / trials - p) < tol, parents


class TestRecursiveTreeInvariant:
    def test_bad_parents_rejected_under_optimize(self):
        # `python -O` strips asserts; the parent check must survive it.
        src = str(Path(bcprof.__file__).resolve().parents[1])
        code = "from bcprof import RecursiveTree; RecursiveTree(n=3, parents=(1, 5))"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 1 and "OutOfRangeError" in proc.stderr

    @pytest.mark.parametrize("n, parents", [
        (3, (0, 1)), (3, (1, 0)), (3, (1, 3)), (3, (2, 1)), (4, (1, 2, 4)), (4, (1, -5, 2)),
    ])
    def test_each_bad_parent_rejected(self, n, parents):
        message = f"parents must satisfy 1 <= parents[t-2] < t: {parents}"
        with pytest.raises(OutOfRangeError, match=re.escape(message)):
            RecursiveTree(n=n, parents=parents)

    def test_tree_equals_build_tree(self):
        # tree() skips build_tree's checks; it must build the same Tree.
        recs = [sample_tree(n, random.Random(s)) for n in (1, 2, 3, 40, 250) for s in range(5)]
        recs += [RecursiveTree(n=5, parents=parents) for parents, _ in enumerate_histories(5)]
        for rec in recs:
            edges = [(t - 1, p - 1) for t, p in enumerate(rec.parents, start=2)]
            assert rec.tree() == build_tree(rec.n, edges)


class TestParentArrayCounts:
    """RecursiveTree.prefix_counts runs the merge over the parent array."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equals_tree_route_and_oracle(self, data):
        # Sizes reach past the 16 -> 32-bit lane step between n=181 and 182.
        n = data.draw(st.one_of(st.sampled_from((181, 182)), st.integers(1, 200)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        if data.draw(st.booleans()):
            rt = sample_tree(n, rng)
        else:
            rt = RecursiveTree(n=n, parents=tuple(rng.randint(1, t - 1) for t in range(2, n + 1)))
        vs = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
        vs += data.draw(st.sampled_from(([], [0], vs[:1])))  # repeats and vertex 0
        t = rt.tree()
        Pk, rows = rt.prefix_counts(vs)
        assert (Pk, rows) == prefix_counts(t, vs)
        naive = path_counts_naive(t)
        assert Pk == list(naive.Pk)
        assert rows == [list(naive.Pkv[v]) for v in vs]
        # Listing every vertex gives path_counts_fast's table.
        table = path_counts_fast(t)
        assert rt.prefix_counts(range(n)) == (list(table.Pk), [list(row) for row in table.Pkv])
        for v in (-1, n):
            with pytest.raises(OutOfRangeError):
                rt.prefix_counts([0, v])


class TestHistories:
    def test_probabilities_sum_to_one(self):
        for n in range(1, 7):
            total = sum(prob for _, prob in enumerate_histories(n))
            assert total == 1

    def test_history_count(self):
        assert sum(1 for _ in enumerate_histories(5)) == math.factorial(4)

    def test_cap(self):
        with pytest.raises(NTooLargeError):
            list(enumerate_histories(10))

    def test_same_histories_as_the_recursion(self):
        # The same (parents, numerator) sequence, in the same order, and the
        # same D as the backtracking enumeration that came before the loop.
        for n in range(1, 10):
            D, histories = scale_free._history_numerators(n)
            want_D, want = _recursive_history_numerators(n)
            assert (D, list(histories)) == (want_D, list(want)), n


def _recursive_history_numerators(n):
    """Reference: every attachment history by backtracking over shared
    parents/weights lists, with the numerator of its probability over D."""

    def rec(t, parents, weights, num):
        if t > n:
            yield tuple(parents), num
            return
        for cand in range(1, t):
            w = weights[cand]
            parents.append(cand)
            weights[cand] = w + 1
            weights[t] = 1
            yield from rec(t + 1, parents, weights, num * w)
            parents.pop()
            weights[cand] = w
            weights[t] = 0

    weights = [0] * (n + 1)
    weights[1] = 1
    return math.prod(2 * t - 3 for t in range(2, n + 1)), rec(2, [], weights, 1)


def _sorted_sides_candidate_paths(n):
    """Reference: all_candidate_paths with both sides sorted explicitly."""
    out = set()
    labels = list(range(1, n + 1))
    for size in range(2, n + 1):
        for subset in itertools.combinations(labels, size):
            c, rest = subset[0], subset[1:]
            for bits in range(1 << len(rest)):
                left = [x for i, x in enumerate(rest) if bits >> i & 1]
                right = [x for i, x in enumerate(rest) if not bits >> i & 1]
                seq = tuple(sorted(left, reverse=True)) + (c,) + tuple(sorted(right))
                out.add(min(seq, seq[::-1]))
    return tuple(sorted(out))


class TestSignatures:
    def test_reference_probabilities(self):
        assert path_probability(signature_of_path((1, 2))) == 1
        assert path_probability(signature_of_path((1, 3))) == Fraction(2, 3)
        assert path_probability(signature_of_path((2, 1, 3))) == Fraction(2, 3)

    def test_rejects_non_valley(self):
        with pytest.raises(NotASimplePathError):
            signature_of_path((1, 3, 2))  # 2 after the minimum must ascend
        with pytest.raises(NotASimplePathError):
            signature_of_path((1, 1))
        with pytest.raises(NotASimplePathError):
            signature_of_path((3,))

    def test_reversal_invariant(self):
        sig = signature_of_path((5, 2, 1, 3, 7))
        assert sig == signature_of_path((7, 3, 1, 2, 5))

    def test_multiplicity_is_two_to_L(self):
        # Each signature is shared by exactly 2^|L| ordered-up-to-reversal paths.
        by_sig = Counter(signature_of_path(seq) for seq in all_candidate_paths(7))
        for sig, mult in by_sig.items():
            assert mult == 2 ** len(sig.L), sig

    def test_candidate_paths_match_the_sorted_reference(self):
        for n in range(1, 10):
            assert all_candidate_paths(n) == _sorted_sides_candidate_paths(n), n

    def test_length_interior_vertices_match_the_case_split(self):
        # The definitions that branched on a == c, on every candidate path's
        # signature with n <= 8.
        for seq in all_candidate_paths(8):
            sig = signature_of_path(seq)
            if sig.a == sig.c:
                length, interior = len(sig.R) + 1, sig.R
            else:
                length, interior = len(sig.L) + len(sig.R) + 2, sig.L | sig.R | {sig.c}
            assert (sig.length, sig.interior) == (length, interior), seq
            assert sig.vertices == interior | {sig.a, sig.b}, seq
            assert sig.length == len(seq) - 1, seq

    def test_probability_equals_factor_by_factor_product(self):
        # Reference: Lemma 1's closed form, one Fraction multiply per factor.
        def reference(sig):
            prob = Fraction(1)
            for t in range(sig.a + 1, sig.b + 1):
                prob *= Fraction(2 * t - 2, 2 * t - 3)
            prob *= Fraction(1, 2 * sig.b - 2)
            for i in sig.R:
                prob *= Fraction(1, 2 * i - 2)
            if sig.a != sig.c:
                prob *= Fraction(2, 2 * sig.c - 1)
                for i in sig.L:
                    prob *= Fraction(1, 2 * i - 1)
            return prob

        # Labels 1..9 hold every candidate path with n <= 9.
        paths = all_candidate_paths(9)
        assert len(paths) == 4916
        for seq in paths:
            sig = signature_of_path(seq)
            got = path_probability(sig)
            assert type(got) is Fraction and got == reference(sig), seq

    def test_lemma_matches_enumeration(self):
        for n in range(2, 7):
            for seq in all_candidate_paths(n):
                assert path_probability(signature_of_path(seq)) == (
                    exact_path_presence_prob(n, seq)
                )


def _presence_by_edge_sets(n, seq):
    """Reference oracle: sum the histories whose edge set holds every edge
    of the path, one pass over the histories per path."""
    needed = [frozenset(e) for e in zip(seq, seq[1:])]
    total = Fraction(0)
    for parents, prob in enumerate_histories(n):
        edges = {frozenset((t, p)) for t, p in enumerate(parents, start=2)}
        if all(e in edges for e in needed):
            total += prob
    return total


class TestPresenceTable:
    def test_equals_per_path_oracle(self):
        for n in range(1, 7):
            for seq in all_candidate_paths(n):
                want = _presence_by_edge_sets(n, seq)
                assert exact_path_presence_prob(n, seq) == want, seq
                assert exact_path_presence_prob(n, seq[::-1]) == want, seq

    def test_sums_to_pair_count(self):
        # Every history's tree has exactly one path per pair of vertices.
        for n in range(1, 9):
            assert sum(_presence_table(n).values()) == n * (n - 1) // 2

    def test_keys_are_candidate_paths(self):
        for n in range(1, 9):
            assert set(_presence_table(n)) <= set(all_candidate_paths(n))

    def test_lemma1_suite_at_eight(self):
        report = run_check("lemma1", max_size=8)
        assert report.passed and len(report.cases) == 7

    @pytest.mark.parametrize("seq", ([1, 2, 1], [3], [], [4, 4]))
    def test_rejects_non_simple(self, seq):
        with pytest.raises(NotASimplePathError):
            exact_path_presence_prob(5, seq)

    @pytest.mark.parametrize("seq", ([0, 1], [2, -1, 3], [1, 6]))
    def test_rejects_labels_outside_one_to_n(self, seq):
        with pytest.raises(OutOfRangeError):
            exact_path_presence_prob(5, seq)

    def test_impossible_simple_sequence_is_zero(self):
        # After the minimum, labels must ascend: 3 then 2 cannot occur.
        assert exact_path_presence_prob(5, [1, 3, 2]) == 0
        assert exact_path_presence_prob(5, [2, 3, 1]) == 0

    def test_cap(self):
        with pytest.raises(NTooLargeError):
            exact_path_presence_prob(10, [1, 2])


class TestExpectations:
    def test_reference_values_n4_k2(self):
        assert exact_expected_pk(4, 1, 2) == Fraction(8, 5)
        assert exact_expected_pk(4, 2, 2) == Fraction(11, 15)
        assert exact_expected_pk(4, 3, 2) == Fraction(1, 5)
        assert exact_expected_pk(4, 4, 2) == 0

    def test_strictly_decreasing_in_v(self):
        for n in range(3, 7):
            for k in range(2, n):
                values = [exact_expected_pk(n, v, k) for v in range(1, n + 1)]
                assert all(x > y for x, y in zip(values, values[1:]))

    def test_cap(self):
        with pytest.raises(NTooLargeError):
            exact_expected_pk(12, 1, 3)

    def test_routes_disagreeing_raises(self, monkeypatch):
        # Skew the closed form on one path: the history route must catch it.
        def skewed(sig):
            return path_probability(sig) + (sig == signature_of_path((2, 1, 3)))

        monkeypatch.setattr(scale_free, "path_probability", skewed)
        scale_free._expected_pk_tables.cache_clear()
        try:
            with pytest.raises(AssertionError):
                exact_expected_pk(4, 1, 2)
            assert exact_expected_pk(4, 2, 2) == Fraction(11, 15)
        finally:
            scale_free._expected_pk_tables.cache_clear()


def _interior_shift_domain(max_label):
    for seq in all_candidate_paths(max_label):
        sig = signature_of_path(seq)
        for w in sorted(sig.interior):
            if w >= 2:
                yield sig, w - 1


class TestInjection:
    def test_precondition(self):
        sig = signature_of_path((1, 2, 3))
        with pytest.raises(PreconditionViolatedError):
            injection_case(sig, 5)

    def test_length_preserving_and_lands_interior(self):
        for sig, v in _interior_shift_domain(7):
            img = injection_f(sig, v)
            assert img.length == sig.length
            assert v in img.interior

    def test_ratio_matches_probabilities(self):
        for sig, v in _interior_shift_domain(7):
            case = injection_case(sig, v)
            ratio = injection_ratio(v, case)
            assert ratio >= 1
            assert path_probability(injection_f(sig, v)) == path_probability(sig) * ratio

    def test_injective_per_vertex(self):
        images = {}
        for sig, v in _interior_shift_domain(7):
            key = (v, injection_f(sig, v))
            assert key not in images or images[key] == sig
            images[key] = sig

    def test_identity_when_already_interior(self):
        sig = signature_of_path((4, 2, 3, 5))  # interior {2, 3}
        assert injection_case(sig, 2) == 1
        assert injection_f(sig, 2) == sig


class TestEstimateExpectedProfiles:
    def test_deterministic_and_shaped(self):
        rows1 = estimate_expected_profiles(6, trials=40, seed=5)
        rows2 = estimate_expected_profiles(6, trials=40, seed=5)
        assert rows1 == rows2
        assert {r["vertex"] for r in rows1} == set(range(1, 7))
        assert all(0.0 <= r["mean"] <= 1.0 for r in rows1)

    def test_one_k_is_its_column_of_the_full_table(self):
        rows = estimate_expected_profiles(12, trials=30, seed=3)
        max_d = max(r["k"] for r in rows)
        for k in (2, 3, max_d, max_d + 5):
            col = min(k, max_d)
            want = [{**r, "k": k} for r in rows if r["k"] == col]
            assert estimate_expected_profiles(12, trials=30, seed=3, k=k) == want

    @pytest.mark.parametrize("k", (1, 0, -3))
    def test_k_below_two(self, k):
        with pytest.raises(OutOfRangeError, match="k >= 2"):
            estimate_expected_profiles(6, trials=1, seed=0, k=k)

    def test_one_trial_rows(self):
        assert repr(estimate_expected_profiles(3, trials=1, seed=0)) == (
            "[{'vertex': 1, 'k': 2, 'mean': 1.0, 'stderr': 0.0, 'trials': 1}, "
            "{'vertex': 2, 'k': 2, 'mean': 0.0, 'stderr': 0.0, 'trials': 1}, "
            "{'vertex': 3, 'k': 2, 'mean': 0.0, 'stderr': 0.0, 'trials': 1}]"
        )

    # sha256 of repr(rows) at seed 3, recorded before each trial became one
    # ratio row per vertex. k = 12 lies past every diameter of a 12-vertex tree.
    PINNED_REPR = {
        (12, 30, 3): "cd8f4f6618a4c32434977f31ccda82ef273de40189f60f64c824694090eab765",
        (12, 30, 12): "fff43391c343bd69a80638821cacd50431307bd6e1dd0feb01867bc656bc7c41",
        (250, 20, None): "a5b10ad73070e5d87316429b8e6168a034d90349bb4ae6a9cec6229b45b4e7c2",
    }

    @pytest.mark.parametrize("n, trials, k", sorted(PINNED_REPR, key=str))
    def test_pinned_repr(self, n, trials, k):
        rows = estimate_expected_profiles(n, trials=trials, seed=3, k=k)
        digest = hashlib.sha256(repr(rows).encode()).hexdigest()
        assert digest == self.PINNED_REPR[n, trials, k]

    # Chosen before the first run; never changed to make the test pass.
    EXACT_SEED, EXACT_TRIALS = 21, 4000

    def test_means_within_four_standard_errors_of_exact(self):
        # E[BC_K(v)] over all 5040 attachment histories at n = 8, each
        # tree's BC_d held past its diameter d. Sums of weight * P_K(v) are
        # kept per (v, K, P_K), so the only Fractions are built at the end.
        n = 8
        denominator, histories = scale_free._history_numerators(n)
        sums = Counter()
        for parents, num in histories:
            Pk, Pkv = _parent_prefix_counts([-1, *(p - 1 for p in parents)], range(n))
            d = len(Pk) - 1
            for v, row in enumerate(Pkv):
                for K in range(2, n):
                    sums[v + 1, K, Pk[min(K, d)]] += num * row[min(K, d)]
        exact = defaultdict(Fraction)
        for (v, K, pk), total in sums.items():
            exact[v, K] += Fraction(total, pk * denominator)
        rows = estimate_expected_profiles(n, trials=self.EXACT_TRIALS, seed=self.EXACT_SEED)
        assert len(rows) == n * (max(r["k"] for r in rows) - 1)
        for r in rows:
            want = float(exact[r["vertex"], r["k"]])
            assert abs(r["mean"] - want) <= 4 * r["stderr"], (r, want)

    def test_expected_ordering_shows_up(self):
        rows = estimate_expected_profiles(20, trials=300, seed=11)
        at_k2 = {r["vertex"]: r for r in rows if r["k"] == 2}
        gap = at_k2[1]["mean"] - at_k2[2]["mean"]
        combined = math.hypot(at_k2[1]["stderr"], at_k2[2]["stderr"])
        assert gap > 2 * combined
