"""Dip, monotonicity, crossing and dominance analysis vs brute-force oracles."""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcprof import (
    LengthMismatchError,
    Profile,
    count_crossings,
    count_dips,
    dominates,
    is_monotone,
    monotonicity_class,
    pair_analysis,
    vertex_analysis,
)


def _is_dip(seq, s, e):
    """Interval [s, e]: non-increasing then non-decreasing, not monotone."""
    window = seq[s : e + 1]
    non_inc = all(a >= b for a, b in zip(window, window[1:]))
    non_dec = all(a <= b for a, b in zip(window, window[1:]))
    if non_inc or non_dec:
        return False
    for m in range(len(window)):
        head, tail = window[: m + 1], window[m:]
        if all(a >= b for a, b in zip(head, head[1:])) and all(
            a <= b for a, b in zip(tail, tail[1:])
        ):
            return True
    return False


def max_disjoint_dips(seq):
    """Oracle: max number of dips whose intervals are step-disjoint.

    Two intervals may share one boundary index but never a consecutive-pair
    step, i.e. the next interval must start at or after the previous end.
    """
    seq = tuple(seq)
    n = len(seq)

    @lru_cache(maxsize=None)
    def best(pos):
        out = 0
        for s in range(pos, n):
            for e in range(s + 2, n):
                if _is_dip(seq, s, e):
                    out = max(out, 1 + best(e))
        return out

    return best(0)


class TestCountDips:
    def test_reference_example(self):
        # (3,2,2,3,1,4): one dip in 3,2,2,3 and another in 3,1,4 sharing index 3.
        rep = count_dips((3, 2, 2, 3, 1, 4))
        assert rep.count == 2
        assert rep.intervals == ((0, 3), (3, 5))

    def test_monotone_has_no_dip(self):
        assert count_dips((1, 1, 2, 5)).count == 0
        assert count_dips((5, 3, 3, 1)).count == 0
        assert count_dips((2,)).count == 0
        assert count_dips(()).count == 0

    def test_single_dip(self):
        rep = count_dips((3, 1, 2))
        assert rep.count == 1 and rep.intervals == ((0, 2),)

    def test_exhaustive_small_alphabet(self):
        for n in range(1, 8):
            for seq in product(range(3), repeat=n):
                assert count_dips(seq).count == max_disjoint_dips(seq), seq

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=5), max_size=10))
    def test_greedy_matches_oracle(self, seq):
        assert count_dips(seq).count == max_disjoint_dips(seq)

    def test_intervals_are_dips_and_step_disjoint(self):
        for seq in product(range(3), repeat=7):
            rep = count_dips(seq)
            for s, e in rep.intervals:
                assert _is_dip(seq, s, e)
            for (_, e1), (s2, _) in zip(rep.intervals, rep.intervals[1:]):
                assert s2 >= e1


class TestMonotonicity:
    def test_classes(self):
        assert monotonicity_class((1, 1, 1)) == "constant"
        assert monotonicity_class((1, 1, 2)) == "non_decreasing"
        assert monotonicity_class((2, 1, 1)) == "non_increasing"
        assert monotonicity_class((1, 2, 1)) == "neither"
        assert monotonicity_class(()) == "constant"

    def test_is_monotone(self):
        assert is_monotone((1, 2, 3))
        assert not is_monotone((1, 3, 2))


def crossings_oracle(su, sv):
    """Sign alternations over indices where the sequences differ."""
    signs = [1 if a > b else -1 for a, b in zip(su, sv) if a != b]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


class TestCountCrossings:
    def test_equal_profiles_no_crossing(self):
        assert count_crossings((1, 2, 3), (1, 2, 3)).count == 0
        assert count_crossings((1, 2, 3), (1, 2, 3)).witnesses == ()

    def test_single_crossing(self):
        rep = count_crossings((1, 0, 0), (0, 0, 1))
        assert rep.count == 1 and rep.witnesses == (0, 2)

    def test_ties_ignored(self):
        # equal entries between sign changes do not reset the alternation
        assert count_crossings((2, 1, 1, 0), (0, 1, 1, 2)).count == 1

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            count_crossings((1, 2), (1, 2, 3))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(min_value=0, max_value=8).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
                st.lists(st.integers(0, 3), min_size=n, max_size=n),
            )
        )
    )
    def test_matches_oracle(self, pair):
        su, sv = pair
        rep = count_crossings(su, sv)
        assert rep.count == crossings_oracle(su, sv)
        # symmetry and witness shape
        assert rep.count == count_crossings(sv, su).count
        assert len(rep.witnesses) in (0, rep.count + 1)

    def test_scaling_invariance(self):
        # Crossings computed on raw counts equal crossings on normalized
        # values when the normalizing denominators are shared.
        su, sv, denom = (3, 1, 4, 4), (1, 2, 4, 5), (7, 11, 13, 17)
        raw = count_crossings(su, sv).count
        normalized = count_crossings(
            tuple(Fraction(a, d) for a, d in zip(su, denom)),
            tuple(Fraction(b, d) for b, d in zip(sv, denom)),
        ).count
        assert raw == normalized


class TestDominates:
    def test_basic(self):
        assert dominates((2, 2, 3), (1, 2, 3))
        assert not dominates((1, 2, 3), (2, 2, 3))


class TestJsonReports:
    def test_vertex_analysis_shape(self):
        p = Profile(vertex=4, entries=tuple(Fraction(x) for x in (3, 1, 4)))
        report = vertex_analysis(p)
        assert report == {
            "vertex": 4,
            "dip_count": 1,
            "dip_intervals": [[2, 4]],
            "monotone_class": "neither",
        }

    def test_pair_analysis_shape(self):
        pu = Profile(vertex=0, entries=(Fraction(1), Fraction(0)))
        pv = Profile(vertex=1, entries=(Fraction(0), Fraction(1)))
        report = pair_analysis(pu, pv)
        assert report["vertices"] == [0, 1]
        assert report["crossing_count"] == 1
        assert report["witnesses"] == [2, 3]
        assert report["dominates"] is False
