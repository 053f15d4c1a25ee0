"""Preferential-attachment sampling, exact enumeration, and the injection map."""

import dataclasses
import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
from array import array
from collections import Counter, defaultdict
from fractions import Fraction
from operator import truediv
from pathlib import Path

import pytest
from histories import _history_numerators, enumerate_histories
from hypothesis import given, settings
from hypothesis import strategies as st
from path_process import path_presence, weight_total

import bcprof
from bcprof import (
    NotASimplePathError,
    NTooLargeError,
    OutOfRangeError,
    PreconditionViolatedError,
    RecursiveTree,
    all_candidate_paths,
    build_tree,
    estimate_expected_profiles,
    exact_expected_pk,
    exact_path_presence_prob,
    injection,
    path_counts_fast,
    path_counts_naive,
    path_probability,
    prefix_counts,
    sample_tree,
    signature_of_path,
    splitmix64,
    substream_seed,
)
from bcprof import scale_free, tree_core
from bcprof.scale_free import _presence_table, _weight_totals, check_seed
from bcprof.tree_core import _check_parent_array, _parent_prefix_counts
from bcprof.verify import run_check


def recording(calls, f):
    """f, appending the positional arguments of each call to calls first."""
    return lambda *args, **kwargs: calls.append(args) or f(*args, **kwargs)


def reference_estimate(n, trials, seed, k=None):
    """The estimator as it was when every trial counted every vertex
    and each vertex's zero row was keyed, divided and padded like any
    other; kept as the reference for byte-equal output."""
    if n < 3:
        raise OutOfRangeError(f"need n >= 3 for nonempty profiles, got {n}")
    if trials < 1:
        raise OutOfRangeError(f"need trials >= 1, got {trials}")
    # Paths of length 0 or 1 have no interior vertex.
    if k is not None and k < 2:
        raise OutOfRangeError(f"need k >= 2, got {k}")
    check_seed(seed)
    # One row of doubles BC_k(v) = P_k(v) / P_k, k = 2..d, per vertex and
    # trial; int / int rounds correctly. Equal rows of a trial (every
    # leaf's zero row) share one array. Every value is kept to the end,
    # because the standard error needs the mean first.
    ratios = []
    for trial in range(trials):
        rng = random.Random(substream_seed(seed, trial))
        Pk, Pkv = _parent_prefix_counts(sample_tree(n, rng).parent, range(n))
        keys = list(map(tuple, Pkv))
        bc = {key: array("d", map(truediv, key[2:], Pk[2:])) for key in dict.fromkeys(keys)}
        ratios.append(list(map(bc.__getitem__, keys)))
    max_d = 1 + max(len(r[0]) for r in ratios)
    rows = []
    for v in range(n):
        # Column k holds one value per trial, in trial order; past its
        # diameter d a trial holds BC_d(v).
        columns = list(zip(*(r[v] + r[v][-1:] * (max_d - 1 - len(r[v])) for r in ratios)))
        for col in range(2, max_d + 1) if k is None else (min(k, max_d),):
            values = columns[col - 2]
            # Left to right, as sum() added floats before Python 3.12 made
            # it compensated, so every supported Python prints these bytes.
            total = 0.0
            for x in values:
                total += x
            mean = total / trials
            if trials > 1:
                total = 0.0
                for x in values:
                    total += (x - mean) ** 2
                var = total / (trials - 1)
                stderr = math.sqrt(var / trials)
            else:
                stderr = 0.0
            rows.append(
                {"vertex": v + 1, "k": col if k is None else k, "mean": mean,
                 "stderr": stderr, "trials": trials}
            )
    return rows


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
        assert t.parent[0] == -1 and all(0 <= p < y for y, p in enumerate(t.parent[1:], 1))
        assert t.tree().n == 100

    def test_last_label_is_never_a_parent(self):
        # Each vertex attaches to an earlier one, so the array is valid,
        # though sampling never checks it, and vertex n - 1 has no child:
        # an experiment trial that lists it is a hit without a tree.
        for seed in range(20):
            rng = random.Random(seed)
            for n in range(1, 301):
                parent = sample_tree(n, rng).parent
                _check_parent_array(parent)
                assert n - 1 not in parent, (n, seed)

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
                rt = sample_tree(n, rng)
                assert tuple(p + 1 for p in rt.parent[1:]) == reference(n, ref_rng), (n, seed)
                assert rng.getstate() == ref_rng.getstate(), (n, seed)

    def test_calibration_against_enumeration(self):
        # Observed history frequencies for n=4 match exact probabilities.
        n, trials = 4, 20000
        exact = dict(enumerate_histories(n))
        rng = random.Random(2024)
        freq = Counter(
            tuple(p + 1 for p in sample_tree(n, rng).parent[1:]) for _ in range(trials)
        )
        assert set(freq) <= set(exact)
        for parents, prob in exact.items():
            p = float(prob)
            tol = 5 * math.sqrt(p * (1 - p) / trials)
            assert abs(freq[parents] / trials - p) < tol, parents


class TestRecursiveTreeInvariant:
    def test_bad_parents_rejected_under_optimize(self):
        # `python -O` strips asserts; the parent check must survive it.
        src = str(Path(bcprof.__file__).resolve().parents[1])
        code = "from bcprof import RecursiveTree; RecursiveTree((-1, 0, 4)).tree()"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 1 and "OutOfRangeError" in proc.stderr

    def test_tree_builds_through_tree_from_parents(self, monkeypatch):
        # One way from a parent array to a Tree: tree() hands the array to
        # tree_from_parents, whose check is the only one. Sampling runs none.
        built, checked = [], []
        build = recording(built, tree_core.tree_from_parents)
        monkeypatch.setattr(scale_free, "tree_from_parents", build)
        check = recording(checked, tree_core._check_parent_array)
        monkeypatch.setattr(tree_core, "_check_parent_array", check)
        # Also caught if scale_free imports the check again and calls it.
        monkeypatch.setattr(scale_free, "_check_parent_array", check, raising=False)
        rt = sample_tree(250, random.Random(5))
        assert checked == []
        rt.tree()
        assert built == [(rt.parent,)] and checked == [(rt.parent,)]

    def test_tree_equals_build_tree(self):
        # tree() skips build_tree's checks; it must build the same Tree.
        recs = [sample_tree(n, random.Random(s)) for n in (1, 2, 3, 40, 250) for s in range(5)]
        recs += [
            RecursiveTree((-1, *(p - 1 for p in parents))) for parents, _ in enumerate_histories(5)
        ]
        for rec in recs:
            edges = [(y, p) for y, p in enumerate(rec.parent) if y]
            assert rec.tree() == build_tree(len(rec.parent), edges)


class TestParentArrayCounts:
    """_parent_prefix_counts runs the merge over a recursive tree's parent
    array."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_equals_tree_route_and_oracle(self, data):
        # Sizes reach past the 16 -> 32-bit lane step between n=362 and 363.
        n = data.draw(st.one_of(st.sampled_from((362, 363)), st.integers(1, 200)))
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        if data.draw(st.booleans()):
            rt = sample_tree(n, rng)
        else:
            rt = RecursiveTree((-1, *(rng.randint(0, y - 1) for y in range(1, n))))
        vs = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
        vs += data.draw(st.sampled_from(([], [0], vs[:1])))  # repeats and vertex 0
        t = rt.tree()
        Pk, rows = _parent_prefix_counts(rt.parent, vs)
        assert (Pk, rows) == prefix_counts(t, vs)
        naive = path_counts_naive(t)
        assert Pk == naive.Pk
        assert rows == tuple(naive.Pkv[v] for v in vs)
        # Listing every vertex gives path_counts_fast's table.
        table = path_counts_fast(t)
        assert _parent_prefix_counts(rt.parent, range(n)) == (table.Pk, table.Pkv)
        for v in (-1, n):
            with pytest.raises(OutOfRangeError):
                _parent_prefix_counts(rt.parent, [0, v])


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
            D, histories = _history_numerators(n)
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


def reference_signature_of_path(vertices):
    """signature_of_path as it was before its one comparison pass, kept as
    the reference for its result and its errors."""
    seq = list(vertices)
    if len(seq) < 2 or len(set(seq)) != len(seq) or any(x < 1 for x in seq):
        raise NotASimplePathError(f"not a simple path: {seq}")
    cpos = seq.index(min(seq))
    down, up = seq[: cpos + 1], seq[cpos:]
    if any(x <= y for x, y in zip(down, down[1:])) or any(
        x >= y for x, y in zip(up, up[1:])
    ):
        raise NotASimplePathError(f"label sequence {seq} is impossible in a recursive tree")
    a, b = min(seq[0], seq[-1]), max(seq[0], seq[-1])
    c = seq[cpos]
    L = frozenset(x for x in seq if c < x < a)
    R = frozenset(x for x in seq if a < x < b)
    return scale_free.PathSignature(a=a, b=b, c=c, L=L, R=R)


def _outcome(f, seq):
    """f(seq), or the class and message of what it raised."""
    try:
        return f(seq)
    except Exception as exc:  # any class: the two must raise the same one
        return type(exc), str(exc)


class TestSignatures:
    def test_equals_the_reference_on_every_small_sequence(self):
        # Every sequence of length 0..5 on labels 0..6: repeats, zeros,
        # non-valleys and valid paths alike, given as tuples and as lists.
        outcomes = Counter()
        for size in range(6):
            for seq in itertools.product(range(7), repeat=size):
                want = _outcome(reference_signature_of_path, seq)
                assert _outcome(signature_of_path, seq) == want, seq
                assert _outcome(signature_of_path, list(seq)) == want, seq
                kind = "path" if type(want) is not tuple else want[1].split()[1]
                outcomes[kind] += 1
        # "path", "a simple path: ..." and "sequence ... is impossible" all occur.
        assert sorted(outcomes) == ["a", "path", "sequence"], outcomes

    def test_equals_the_reference_on_candidate_paths(self):
        for n in range(1, 8):
            for seq in all_candidate_paths(n):
                assert signature_of_path(seq) == reference_signature_of_path(seq), seq
                assert signature_of_path(seq[::-1]) == reference_signature_of_path(seq), seq

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

    def test_interior_is_built_once_and_eq_hash_repr_ignore_it(self):
        sig, fresh = signature_of_path((5, 2, 1, 3, 7)), signature_of_path((7, 3, 1, 2, 5))
        assert sig.interior == {1, 2, 3}
        assert sig.interior is sig.interior
        assert sig == fresh and hash(sig) == hash(fresh) and repr(sig) == repr(fresh)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sig.a = 1

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


def reference_presence_table(n):
    """The presence table as it was when every pair of every full history
    was walked; kept verbatim as the reference for the prefix walk."""
    denominator, histories = _history_numerators(n)
    sums: defaultdict[tuple[int, ...], int] = defaultdict(int)
    for parents, num in histories:
        parent = (0, 0) + parents  # parent[t] for labels t >= 2
        for b in range(2, n + 1):
            for a in range(1, b):
                left, right = [a], [b]
                x, y = a, b
                while x != y:
                    if x > y:
                        x = parent[x]
                        left.append(x)
                    else:
                        y = parent[y]
                        right.append(y)
                sums[tuple(left + right[-2::-1])] += num
    return {path: Fraction(num, denominator) for path, num in sums.items()}


def _skewed_closed_form(skew):
    """A fault for `scale_free._closed_form`: the closed form p of every
    signature sig becomes the Fraction skew(sig, p)."""
    def make(orig):
        def f(a, b, c, L, R):
            sig = scale_free.PathSignature(a, b, c, frozenset(L), frozenset(R))
            p = skew(sig, Fraction(*orig(a, b, c, L, R)))
            return p.numerator, p.denominator
        return f
    return make


# The faults the tests inject into Lemma 1's closed form; tests/test_verify.py
# runs the last one through the lemma1 suite, and tests/test_cli.py through
# `verify --check lemma1` and `theorem3`.
CLOSED_FORM_FAULTS = {
    "plus one on (2, 1, 3)": _skewed_closed_form(
        lambda sig, p: p + (sig == signature_of_path((2, 1, 3)))),
    "half of 1/D_4 on (3, 1, 2, 4)": _skewed_closed_form(
        lambda sig, p: p + Fraction(1, 2 * _weight_totals(4)[4]) * (
            sig == signature_of_path((3, 1, 2, 4)))),
    "doubled on (7, 1, 9)": _skewed_closed_form(
        lambda sig, p: p * (1 + (sig == signature_of_path((7, 1, 9))))),
    "doubled on a = 3, b = 5": _skewed_closed_form(
        lambda sig, p: p * (1 + ((sig.a, sig.b) == (3, 5)))),
}


def reference_closed_form_mismatch(n):
    """`_closed_form_mismatch` as it was when every candidate built its
    signature and a reduced Fraction, kept as the reference for its result.
    It reaches the closed form through `path_probability`, so a fault
    injected into `_closed_form` reaches it too."""
    table, total = _presence_table(n), _weight_totals(n)[n]
    candidates = all_candidate_paths(n)
    for path in candidates:
        got = scale_free.path_probability(signature_of_path(path))
        want = table.get(path, 0)
        if got.numerator * total != want * got.denominator:
            return path, got, Fraction(want, total)
    if len(table) > len(candidates):
        path = min(table.keys() - candidates)
        return path, Fraction(0), Fraction(table[path], total)
    return None


class TestClosedFormMismatch:
    def test_reads_each_candidates_signature_off_its_sorted_labels(self, monkeypatch):
        calls = []
        monkeypatch.setattr(scale_free, "_closed_form", recording(calls, scale_free._closed_form))
        assert scale_free._closed_form_mismatch(9) is None
        paths = all_candidate_paths(9)
        assert len(calls) == len(paths) == 4916
        for path, (a, b, c, L, R) in zip(paths, calls):
            sig = signature_of_path(path)
            assert (a, b, c, set(L), set(R)) == (sig.a, sig.b, sig.c, sig.L, sig.R), path

    @pytest.mark.parametrize("fault, mismatched", [
        (None, []),
        ("plus one on (2, 1, 3)", [3, 4, 5, 6, 7, 8]),
        ("half of 1/D_4 on (3, 1, 2, 4)", [4, 5, 6, 7, 8]),
        ("doubled on (7, 1, 9)", []),  # its path first occurs at n = 9
        ("doubled on a = 3, b = 5", [5, 6, 7, 8]),
    ])
    def test_equals_the_reference(self, monkeypatch, fault, mismatched):
        if fault is not None:
            make = CLOSED_FORM_FAULTS[fault]
            monkeypatch.setattr(scale_free, "_closed_form", make(scale_free._closed_form))
        got = {n: scale_free._closed_form_mismatch(n) for n in range(1, 9)}
        assert got == {n: reference_closed_form_mismatch(n) for n in range(1, 9)}
        assert [n for n, mismatch in got.items() if mismatch] == mismatched


def _path_oracle_mismatches(n, paths):
    """One line, naming n, the path and both values, for each path whose
    `_closed_form` differs from the per-path attachment oracle."""
    total = weight_total(n)
    lines = []
    for path in paths:
        num, den = scale_free._closed_form(*scale_free._signature_parts(path))
        want = path_presence(n, path)
        if num * total != want * den:
            lines.append(f"n={n}, path {path}: closed form {Fraction(num, den)}"
                         f" != oracle {Fraction(want, total)}")
    return lines


class TestClosedFormPastTheCap:
    """Lemma 1 against `tests/path_process.py`, which runs the attachment
    process over one path's label weights and so reaches past
    MAX_EXACT_N."""

    def test_path_oracle_equals_the_presence_table(self):
        for n in range(1, 9):
            table = _presence_table(n)
            assert weight_total(n) == _weight_totals(n)[n]
            assert {path: path_presence(n, path) for path in all_candidate_paths(n)} == table
        # No recursive tree has a label peak inside a path.
        assert path_presence(5, (1, 3, 2)) == path_presence(5, (2, 5, 1, 3)) == 0

    def test_closed_form_equals_the_path_oracle_past_the_cap(self):
        # Candidate paths written from their smaller end, as
        # all_candidate_paths writes them: a label set, its minimum c and
        # largest label b, and a random split of the rest into the sides.
        rng = random.Random(4545)
        drawn = {}
        for n in (12, 16, 20):
            paths = []
            for _ in range(30):
                c, *rest, b = sorted(rng.sample(range(1, n + 1), rng.randint(2, 8)))
                left = [x for x in rest if rng.random() < 0.5]
                right = [x for x in rest if x not in left]
                paths.append((*left[::-1], c, *right, b))
            drawn[n] = paths
            assert not (mismatches := _path_oracle_mismatches(n, paths)), "\n".join(mismatches)
        every = [path for paths in drawn.values() for path in paths]
        assert {len(path) for path in every} == set(range(2, 9))
        assert any(path[0] == min(path) for path in every)
        assert any(path[0] != min(path) for path in every)
        assert max(max(path) for path in drawn[20]) == 20

    def test_a_fault_past_the_cap_is_named(self, monkeypatch):
        p = path_probability(signature_of_path((3, 1, 17)))
        doubled = _skewed_closed_form(lambda sig, q: q * (1 + (sig.b == 17)))
        monkeypatch.setattr(scale_free, "_closed_form", doubled(scale_free._closed_form))
        assert _path_oracle_mismatches(20, [(3, 1, 17), (2, 5), (4, 2, 1, 18)]) == [
            f"n=20, path (3, 1, 17): closed form {2 * p} != oracle {p}"
        ]


class TestPresenceTable:
    def test_equals_the_full_history_reference(self):
        # Equal dicts: the same keys, each with an integer numerator over D_n
        # that is the reference's Fraction.
        for n in range(1, 9):
            table, total = _presence_table(n), _weight_totals(n)[n]
            assert all(type(num) is int for num in table.values())
            got = {path: Fraction(num, total) for path, num in table.items()}
            assert got == reference_presence_table(n), n

    def test_equals_per_path_oracle(self):
        for n in range(1, 7):
            for seq in all_candidate_paths(n):
                want = _presence_by_edge_sets(n, seq)
                assert exact_path_presence_prob(n, seq) == want, seq
                assert exact_path_presence_prob(n, seq[::-1]) == want, seq

    def test_sums_to_pair_count(self):
        # Every history's tree has exactly one path per pair of vertices.
        for n in range(1, 10):
            assert sum(_presence_table(n).values()) == n * (n - 1) // 2 * _weight_totals(n)[n]

    def test_settled_paths_keep_their_probability_at_every_n(self):
        # A path is settled once its top label attaches, so the table at 8,
        # cut to top labels <= n and scaled by D_n / D_8, is the table at n.
        big, totals = _presence_table(8), _weight_totals(8)
        for n in range(1, 9):
            scaled = {}
            for path, num in big.items():
                if max(path) <= n:
                    scaled[path], rest = divmod(num * totals[n], totals[8])
                    assert rest == 0, (n, path)
            assert scaled == _presence_table(n), n

    def test_keys_are_candidate_paths(self):
        for n in range(1, 10):
            assert set(_presence_table(n)) <= set(all_candidate_paths(n))

    def test_lemma1_suite_at_eight(self):
        report = run_check("lemma1", max_size=8)
        assert report.passed and len(report.cases) == 7

    @pytest.mark.parametrize("suite", ("lemma1", "theorem3"))
    def test_suite_at_the_exact_cap(self, suite):
        # n = 2..9 for lemma1; n = 3..9 and the injection case for theorem3.
        report = run_check(suite, max_size=9)
        assert report.passed and len(report.cases) == 8

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

    # Each fault, the n and (v, k) points to ask for, and the mismatch
    # Lemma 1's check names at that n.
    SUMS_IGNORE_THE_CLOSED_FORM = (
        ("plus one on (2, 1, 3)", 4, ((1, 2), (2, 2)),
         ((2, 1, 3), Fraction(5, 3), Fraction(2, 3))),
        # Every presence probability at n is a multiple of 1/D_n; a closed
        # form half a unit off on one path is a mismatch like any other.
        ("half of 1/D_4 on (3, 1, 2, 4)", 4, ((2, 2),),
         ((3, 1, 2, 4), Fraction(1, 6), Fraction(2, 15))),
        # (7, 1, 9) adds only to (1, 2), and is first a path at n = 9.
        ("doubled on (7, 1, 9)", 9, ((2, 3), (9, 2), (1, 4)),
         ((7, 1, 9), Fraction(56, 195), Fraction(28, 195))),
    )

    def test_sums_ignore_the_closed_form(self, monkeypatch):
        # E[p_k(v)] is summed from the prefix walk alone, so a fault in the
        # closed form leaves it as it is; Lemma 1's own check names the path.
        for fault, n, points, mismatch in self.SUMS_IGNORE_THE_CLOSED_FORM:
            want = [exact_expected_pk(n, v, k) for v, k in points]
            with monkeypatch.context() as m:
                m.setattr(scale_free, "_closed_form",
                          CLOSED_FORM_FAULTS[fault](scale_free._closed_form))
                scale_free._expected_pk_table.cache_clear()
                assert [exact_expected_pk(n, v, k) for v, k in points] == want, fault
                assert scale_free._closed_form_mismatch(n) == mismatch

    def test_a_table_path_that_is_no_candidate_is_named(self, monkeypatch):
        # (1, 3, 2) descends after its minimum, so no recursive tree has it.
        orig = scale_free._presence_table

        def with_extra(n):
            return {**orig(n), (1, 3, 2): 1} if n == 3 else orig(n)

        monkeypatch.setenv("BCPROF_THREADS", "1")
        monkeypatch.setattr(scale_free, "_presence_table", with_extra)
        report = run_check("lemma1", 3)
        assert [(c.name, c.detail) for c in report.cases] == [
            ("n=2", ""), ("n=3", "path (1, 3, 2): 0 != 1/3"),
        ]


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
            injection(sig, 5)
        # Label 1 is interior in (2, 1, 3), but there is no label 0 to move it to.
        with pytest.raises(PreconditionViolatedError, match=r"^need v >= 1, got 0$"):
            injection(signature_of_path((2, 1, 3)), 0)

    def test_length_preserving_and_lands_interior(self):
        for sig, v in _interior_shift_domain(7):
            _, img, _ = injection(sig, v)
            assert img.length == sig.length
            assert v in img.interior

    def test_ratio_matches_probabilities(self):
        for sig, v in _interior_shift_domain(7):
            _, img, ratio = injection(sig, v)
            assert ratio >= 1
            assert path_probability(img) == path_probability(sig) * ratio

    def test_injective_per_vertex(self):
        images = {}
        for sig, v in _interior_shift_domain(7):
            key = (v, injection(sig, v)[1])
            assert key not in images or images[key] == sig
            images[key] = sig

    def test_identity_when_already_interior(self):
        sig = signature_of_path((4, 2, 3, 5))  # interior {2, 3}
        assert injection(sig, 2) == (1, sig, 1)

    @pytest.mark.parametrize("max_label, cases", [
        (4, {1, 2, 3, 5, 6}),  # case 4 needs c < v < v+1 < a < b, so b >= 5
        (7, {1, 2, 3, 4, 5, 6}),  # theorem3's default size reaches every case
    ])
    def test_cases_reached(self, max_label, cases):
        assert {injection(sig, v)[0] for sig, v in _interior_shift_domain(max_label)} == cases


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
        denominator, histories = _history_numerators(n)
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

    # (trial counts, seeds, k values) per n; n = 250, the size of the
    # paper's experiments, and n = 363, the first size counted at 32-bit
    # lanes (C(363, 2) = 65 703), run smaller grids.
    REFERENCE_GRID = {
        250: ((1, 2, 37), range(2), (None, 2, 99)),
        363: ((1, 2, 5), range(2), (None, 2, 99)),
    }

    @pytest.mark.parametrize("n", (3, 4, 8, 30, 60, 250, 363))
    def test_equals_the_reference_byte_for_byte(self, n):
        grid = ((1, 2, 37, 200), range(4), (None, 2, 3, 99))
        counts, seeds, ks = self.REFERENCE_GRID.get(n, grid)
        mixed = 0
        for trials, seed in itertools.product(counts, seeds):
            for k in ks:
                got = estimate_expected_profiles(n, trials, seed, k)
                assert repr(got) == repr(reference_estimate(n, trials, seed, k))
            # A vertex childless in some trials and not in others mixes
            # zero and non-zero entries in one column.
            parents = [
                set(sample_tree(n, random.Random(substream_seed(seed, t))).parent[1:])
                for t in range(trials)
            ]
            with_child = Counter(itertools.chain.from_iterable(parents))
            mixed += any(0 < c < trials for c in with_child.values())
        assert mixed

    def test_divides_each_distinct_non_zero_row_once(self, monkeypatch):
        # The op of `expect --n 60 --trials 200 --seed 1`: each trial is one
        # engine pass, read packed, and each distinct non-zero row of it
        # becomes one ratio array; the parent-array entry is never used.
        n, trials, seed = 60, 200, 1
        want = 0
        for t in range(trials):
            parent = sample_tree(n, random.Random(substream_seed(seed, t))).parent
            _, Pkv = _parent_prefix_counts(parent, range(n))
            want += len({row for row in Pkv if any(row)})

        def refuse(*args, **kwargs):
            raise AssertionError("the estimator counts through _counts alone")

        built, counted = [], []
        monkeypatch.setattr(scale_free, "array", recording(built, array))
        monkeypatch.setattr(tree_core, "_parent_prefix_counts", refuse)
        monkeypatch.setattr(scale_free, "_parent_prefix_counts", refuse, raising=False)
        monkeypatch.setattr(scale_free, "_counts", recording(counted, tree_core._counts))
        rows = estimate_expected_profiles(n, trials, seed)
        assert len(built) == want < trials * n / 2
        assert len(counted) == trials
        monkeypatch.undo()
        assert rows == reference_estimate(n, trials, seed)

    def test_counts_only_the_vertices_with_a_child(self, monkeypatch):
        # One engine call per trial, in trial order, over the order range(n)
        # at the lane of n, listing exactly the vertices that are some
        # vertex's parent, in increasing order.
        n, trials, seed = 30, 40, 7
        counted = []
        monkeypatch.setattr(scale_free, "_counts", recording(counted, tree_core._counts))
        estimate_expected_profiles(n, trials, seed)
        monkeypatch.undo()
        parents = [
            sample_tree(n, random.Random(substream_seed(seed, t))).parent for t in range(trials)
        ]
        lane = tree_core._lane_bits(n)
        assert [(order, parent, at, list(vertices)) for order, parent, at, vertices in counted] == [
            (range(n), parent, lane, sorted(set(parent[1:]))) for parent in parents
        ]

    def test_a_vertex_1_with_one_child_is_a_zero_row(self, monkeypatch):
        # Vertex 1 with one child is an endpoint of every path through it,
        # so its row is zero: the engine computes it, as it has a child,
        # and hands out the shared zero tuple of the leaves. The estimator
        # finds it zero by its engine index, -1, and builds no ratio array
        # for it.
        n, trials, seed = 4, 50, 2
        lone = want = 0
        for t in range(trials):
            rt = sample_tree(n, random.Random(substream_seed(seed, t)))
            _, Pkv = _parent_prefix_counts(rt.parent, range(n))
            if rt.parent.count(0) == 1:
                lone += 1
                assert not any(Pkv[0]) and Pkv[0] is Pkv[n - 1]
            want += len({row for row in Pkv if any(row)})
        assert 0 < lone < trials
        built = []
        monkeypatch.setattr(scale_free, "array", recording(built, array))
        rows = estimate_expected_profiles(n, trials, seed)
        assert len(built) == want
        monkeypatch.undo()
        assert repr(rows) == repr(reference_estimate(n, trials, seed))

    def test_expected_ordering_shows_up(self):
        rows = estimate_expected_profiles(20, trials=300, seed=11)
        at_k2 = {r["vertex"]: r for r in rows if r["k"] == 2}
        gap = at_k2[1]["mean"] - at_k2[2]["mean"]
        combined = math.hypot(at_k2[1]["stderr"], at_k2[2]["stderr"])
        assert gap > 2 * combined
