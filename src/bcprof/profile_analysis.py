"""Dip, monotonicity, crossing and dominance analysis of exact sequences.

The four primitives take plain sequences of exact values (Fraction or int;
no floats are ever compared) and report 0-based positions. Dip intervals
are (start, end) position pairs and are step-disjoint: two intervals may
share a single boundary position but never a consecutive-pair step. This
is the convention under which the maximum number of disjoint dips matches
the greedy scan. The two JSON reports take a `Profile` and give positions
as `k` values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import LengthMismatchError
from .tree_core import Profile


@dataclass(frozen=True)
class DipReport:
    count: int
    intervals: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CrossingReport:
    count: int
    witnesses: tuple[int, ...]


def count_dips(seq: Sequence) -> DipReport:
    """Maximum number of disjoint dips, by greedy left-to-right scan.

    A dip is an interval splitting into a non-increasing prefix and a
    non-decreasing suffix that is not monotone as a whole. The scan opens a
    dip at the first strict decrease, closes it at the right endpoint of the
    first strict increase after that, and lets the next dip start there.
    """
    intervals: list[tuple[int, int]] = []
    start = None
    for i, (a, b) in enumerate(zip(seq, seq[1:])):
        if start is None:
            if a > b:
                start = i
        elif a < b:
            intervals.append((start, i + 1))
            start = None
    return DipReport(count=len(intervals), intervals=tuple(intervals))


def monotonicity_class(seq: Sequence) -> str:
    """One of: constant, non_decreasing, non_increasing, neither."""
    non_dec = all(a <= b for a, b in zip(seq, seq[1:]))
    non_inc = all(a >= b for a, b in zip(seq, seq[1:]))
    if non_dec and non_inc:
        return "constant"
    if non_dec:
        return "non_decreasing"
    if non_inc:
        return "non_increasing"
    return "neither"


def is_monotone(seq: Sequence) -> bool:
    return monotonicity_class(seq) != "neither"


def count_crossings(su: Sequence, sv: Sequence) -> CrossingReport:
    """Crossings between two equal-length sequences.

    Restricted to positions where the values differ, the count is the
    number of sign alternations; witnesses are the leftmost maximal
    alternating position subsequence (empty when the sequences never differ).
    """
    if len(su) != len(sv):
        raise LengthMismatchError(f"profile lengths differ: {len(su)} vs {len(sv)}")
    witnesses: list[int] = []
    last_sign = 0
    for idx, (a, b) in enumerate(zip(su, sv)):
        if a == b:
            continue
        sign = 1 if a > b else -1
        if sign != last_sign:
            witnesses.append(idx)
            last_sign = sign
    return CrossingReport(count=max(len(witnesses) - 1, 0), witnesses=tuple(witnesses))


def dominates(su: Sequence, sv: Sequence) -> bool:
    """True iff su >= sv pointwise (exact)."""
    if len(su) != len(sv):
        raise LengthMismatchError(f"profile lengths differ: {len(su)} vs {len(sv)}")
    return all(a >= b for a, b in zip(su, sv))


def vertex_analysis(p: Profile) -> dict:
    ks = p.k_range()
    dips = count_dips(p.entries)
    return {
        "vertex": p.vertex,
        "dip_count": dips.count,
        "dip_intervals": [[ks[s], ks[e]] for s, e in dips.intervals],
        "monotone_class": monotonicity_class(p.entries),
    }


def pair_analysis(pu: Profile, pv: Profile) -> dict:
    ks = pu.k_range()
    crossings = count_crossings(pu.entries, pv.entries)
    return {
        "vertices": [pu.vertex, pv.vertex],
        "crossing_count": crossings.count,
        "witnesses": [ks[i] for i in crossings.witnesses],
        "dominates": dominates(pu.entries, pv.entries),
    }
