"""Preferential-attachment random trees and exact small-n machinery.

The paper labels vertices 1..n in attachment order, vertex 1 first with one
virtual degree unit; a RecursiveTree is the engine's 0-based parent array, in
which vertex y carries label y + 1; tree() checks it. A walk over attachment
prefixes is the exact oracle for the closed-form path presence probability.
The exact machinery (signatures, prefixes) keeps the paper's labels and
never reads a RecursiveTree.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, islice
from operator import lt, truediv
from typing import Iterable, Sequence

from .errors import (
    NotASimplePathError,
    NTooLargeError,
    OutOfRangeError,
    PreconditionViolatedError,
)
from .tree_core import Tree, _counts, _lane_bits, _unpack, tree_from_parents

MAX_EXACT_N = 9  # the prefix walk reaches (n-1)! complete prefixes; 8! = 40320 at 9

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def substream_seed(master_seed: int, index: int) -> int:
    """Seed for the index-th substream: splitmix64 stream over the master.

    Fixed, published mixing function so parallel and serial runs agree.
    splitmix64 reduces its input modulo 2**64, so callers take master
    seeds through check_seed.
    """
    return splitmix64(splitmix64(master_seed) + index)


def check_seed(seed: int) -> None:
    """Reject a master seed outside [0, 2**64). Such a seed would repeat
    another seed's draws: substream_seed reduces it modulo 2**64, and
    random.Random seeds with its absolute value."""
    if not 0 <= seed <= _MASK64:
        raise OutOfRangeError(f"need 0 <= seed < 2**64, got {seed}")


@dataclass(frozen=True)
class RecursiveTree:
    """Recursive tree as the engine's 0-based parent array; vertex y
    carries label y + 1. The package reads only `.parent` and builds a
    Tree through `tree_from_parents`, the one check of the array, as
    `tree()` does."""

    parent: tuple[int, ...]

    def tree(self) -> Tree:
        """The Tree view of the parent array."""
        return tree_from_parents(self.parent)


def sample_tree(n: int, rng: random.Random) -> RecursiveTree:
    """One preferential-attachment tree; vertex 0 carries a virtual edge.

    The target list holds each vertex as many times as its attachment
    weight (degree, plus one for vertex 0), so a uniform pick is
    degree-proportional. It holds only earlier vertices, so the parent
    array is valid by construction and is filled with no check.
    """
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")
    # rng.randrange(m) without its argument checks: draw m.bit_length()
    # bits and redraw while the draw is m or more, as CPython's
    # _randbelow_with_getrandbits does, so every seed gives the same tree.
    getrandbits = rng.getrandbits
    parent = [-1]
    targets = [0]
    for t in range(1, n):
        m = len(targets)
        bits = m.bit_length()
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        p = targets[r]
        parent.append(p)
        targets.append(t)
        targets.append(p)
    return RecursiveTree(tuple(parent))


@dataclass(frozen=True)
class PathSignature:
    """(a, b, c, L, R): endpoints a < b, minimum label c, side sets."""

    a: int
    b: int
    c: int
    L: frozenset[int]
    R: frozenset[int]

    @property
    def length(self) -> int:
        return len(self.interior) + 1

    @cached_property
    def interior(self) -> frozenset[int]:
        # When a == c, a is the minimum and L is empty. Cached in the
        # instance's __dict__, which eq, hash and repr never read.
        return (self.L | self.R | {self.c}) - {self.a}

    @property
    def vertices(self) -> frozenset[int]:
        return self.interior | {self.a, self.b}


def signature_of_path(vertices: Sequence[int]) -> PathSignature:
    """Signature of a candidate path given as an ordered vertex sequence.

    In a recursive tree labels along a path strictly decrease to the
    minimum and then strictly increase; anything else cannot occur. One
    pass over neighbouring labels marks where they fall: in a valley every
    fall comes before every rise. L and R are read off the sorted labels.
    """
    seq = list(vertices)
    labels = sorted(seq)
    if len(seq) < 2 or labels[0] < 1 or len(set(labels)) != len(seq):
        raise NotASimplePathError(f"not a simple path: {seq}")
    falls = list(map(lt, seq[1:], seq))
    if True in falls[falls.count(True):]:
        raise NotASimplePathError(f"label sequence {seq} is impossible in a recursive tree")
    a, b, c, L, R = _signature_parts(seq if seq[0] < seq[-1] else seq[::-1])
    return PathSignature(a=a, b=b, c=c, L=frozenset(L), R=frozenset(R))


def _signature_parts(path: Sequence[int]) -> tuple[int, int, int, tuple[int, ...], tuple[int, ...]]:
    """(a, b, c, L, R) of a path written from its smaller endpoint a, read
    off its sorted labels: c is the smallest and b the largest, L holds the
    labels between c and a and R those between a and b, each in increasing
    order. The path is not checked."""
    labels = tuple(sorted(path))
    a = path[0]
    i = labels.index(a)
    return a, labels[-1], labels[0], labels[1:i], labels[i + 1:-1]


def _closed_form(
    a: int, b: int, c: int, L: Iterable[int], R: Iterable[int]
) -> tuple[int, int]:
    """Lemma 1's product form for the signature (a, b, c, L, R), as one
    unreduced integer numerator and denominator."""
    num = den = 1
    for t in range(a + 1, b + 1):
        num *= 2 * t - 2
        den *= 2 * t - 3
    den *= 2 * b - 2
    for i in R:
        den *= 2 * i - 2
    if a != c:
        num *= 2
        den *= 2 * c - 1
        for i in L:
            den *= 2 * i - 1
    return num, den


def path_probability(sig: PathSignature) -> Fraction:
    """Probability that a path with this signature occurs (closed form),
    reduced once from `_closed_form`'s integers."""
    return Fraction(*_closed_form(sig.a, sig.b, sig.c, sig.L, sig.R))


def _weight_totals(n: int) -> list[int]:
    """[D_0, ..., D_n], where D_b = prod_{t=2..b} (2t - 3) is the product of
    the total attachment weights up to label b: the denominator of every
    history's probability on labels 1..b. Raises past the exact cap: this
    is the one test of MAX_EXACT_N, for every exact route."""
    if n > MAX_EXACT_N:
        raise NTooLargeError(f"exact enumeration capped at n={MAX_EXACT_N}, got {n}")
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")
    totals = [1] * (n + 1)
    for t in range(2, n + 1):
        totals[t] = totals[t - 1] * (2 * t - 3)
    return totals


@lru_cache(maxsize=None)
def _presence_table(n: int) -> dict[tuple[int, ...], int]:
    """Presence probability of every path that occurs in some history, as
    its numerator over D_n = `_weight_totals(n)[n]`.

    The histories are walked as prefixes, depth first. A path between
    labels a < b holds no label above b, so it is settled once b attaches;
    later labels only add leaves. The weights at step t sum to 2t - 3, so
    all completions of a prefix on labels 1..b together weigh D_n / D_b
    (see `_weight_totals`): each prefix adds its numerator times D_n / D_b
    to the paths that end at its newest label. Paths are keyed by their
    labels from the smaller endpoint, as `all_candidate_paths` writes them.
    That gives the numerators of a sum over every whole history (the tests
    keep that loop as the walk's reference), with no use of Lemma 1's
    product form, so the oracle stays independent of what it checks.
    """
    totals = _weight_totals(n)
    sums: defaultdict[tuple[int, ...], int] = defaultdict(int)
    weight = [0] + [1] * n  # weight[i]: label i's degree, plus label 1's virtual unit
    into = [()] * (n + 1)  # into[b][a - 1]: the labels from a to b, for a < b

    def attach(b: int, num: int) -> None:
        completions = totals[n] // totals[b]
        end = (b,)
        for p in range(1, b):
            w = weight[p]
            # From a < p the path runs up into p; from a > p it is the
            # path from p to a, reversed.
            paths = [path + end for path in into[p]]
            paths.append((p, b))
            paths += [into[a][p - 1][::-1] + end for a in range(p + 1, b)]
            add = num * w * completions
            for path in paths:
                sums[path] += add
            if b < n:
                into[b] = paths
                weight[p] = w + 1
                attach(b + 1, num * w)
                weight[p] = w

    if n > 1:
        attach(2, 1)
    return dict(sums)


def exact_path_presence_prob(n: int, vertices: Sequence[int]) -> Fraction:
    """Oracle: total probability of the histories whose tree has this path.

    The labels must be at least two, distinct and in 1..n. A simple
    sequence that is a path of no recursive tree has probability 0.
    """
    seq = tuple(vertices)
    if len(seq) < 2 or len(set(seq)) != len(seq):
        raise NotASimplePathError(f"not a simple path: {list(seq)}")
    if not all(1 <= x <= n for x in seq):
        raise OutOfRangeError(f"labels must lie in 1..{n}: {list(seq)}")
    table = _presence_table(n)
    return Fraction(table.get(min(seq, seq[::-1]), 0), _weight_totals(n)[n])


@lru_cache(maxsize=None)
def all_candidate_paths(n: int) -> tuple[tuple[int, ...], ...]:
    """Every label sequence that can be a simple path in a recursive tree,
    written once, from its smaller end.

    A path descends to its minimum label c and ascends after it, so it is
    determined by its label set and the split of the labels between c and
    the largest one into the two sides. The largest label is an endpoint,
    so it ends the ascending side.
    """
    out = []
    for size in range(2, n + 1):
        for c, *rest, top in itertools.combinations(range(1, n + 1), size):
            for bits in range(1 << len(rest)):
                # rest is increasing, so both sides come out in order.
                left = [x for i, x in enumerate(rest) if bits >> i & 1]
                right = [x for i, x in enumerate(rest) if not bits >> i & 1]
                out.append((*left[::-1], c, *right, top))
    return tuple(sorted(out))


def _closed_form_mismatch(n: int) -> tuple[tuple[int, ...], Fraction, Fraction] | None:
    """(path, closed form, oracle value) for the first candidate path on
    labels 1..n whose `_closed_form` differs from the presence table, or
    for a table path that is no candidate (closed form 0); None when every
    path agrees. Every candidate's closed form is positive, so once all
    match, each is a table key and an extra key makes the table longer.

    Each candidate is written from its smaller endpoint, so its signature
    is read off its sorted labels by `_signature_parts`, and the closed form
    is compared on integers against D_n: no signature or Fraction is built
    unless there is a mismatch to report.
    """
    table, total = _presence_table(n), _weight_totals(n)[n]
    candidates = all_candidate_paths(n)
    for path in candidates:
        num, den = _closed_form(*_signature_parts(path))
        want = table.get(path, 0)
        if num * total != want * den:
            return path, Fraction(num, den), Fraction(want, total)
    if len(table) > len(candidates):
        path = min(table.keys() - candidates)
        return path, Fraction(0), Fraction(table[path], total)
    return None


@lru_cache(maxsize=None)
def _expected_pk_table(n: int) -> dict[tuple[int, int], int]:
    """E[p_k(v)] keyed by (v, k), as numerators over D_n, summed from the
    presence table alone: Lemma 1's closed form is checked by `lemma1`."""
    sums: defaultdict[tuple[int, int], int] = defaultdict(int)
    for path, num in _presence_table(n).items():
        for v in path[1:-1]:
            sums[v, len(path) - 1] += num
    return sums


def exact_expected_pk(n: int, v: int, k: int) -> Fraction:
    """E[count of length-k paths with v interior], summed from the
    presence table; no closed form is read."""
    if not (1 <= v <= n):
        raise OutOfRangeError(f"vertex {v} out of range for n={n}")
    return Fraction(_expected_pk_table(n).get((v, k), 0), _weight_totals(n)[n])


def injection(sig: PathSignature, v: int) -> tuple[int, PathSignature, Fraction]:
    """Theorem 3's length-preserving map moving v+1 to v, for v >= 1 with
    v+1 interior.

    Returns (case, image, ratio): which of the six cases applies, the image
    path, in which v is interior, and the exact ratio
    path_probability(image) / path_probability(sig). Raises
    PreconditionViolatedError when v < 1 or v+1 is not interior.
    """
    a, b, c, L, R = sig.a, sig.b, sig.c, sig.L, sig.R
    w = v + 1
    if v < 1:
        raise PreconditionViolatedError(f"need v >= 1, got {v}")
    if w not in sig.interior:
        raise PreconditionViolatedError(f"{w} is not interior in {sig}")
    if v in sig.interior:
        return 1, sig, Fraction(1)
    if v not in sig.vertices:
        if w == c:
            return 2, PathSignature(a, b, v, L, R), Fraction(2 * v + 1, 2 * v - 1)
        if w in R:
            return 3, PathSignature(a, b, c, L, (R - {w}) | {v}), Fraction(2 * v, 2 * v - 2)
        return 4, PathSignature(a, b, c, (L - {w}) | {v}, R), Fraction(2 * v + 1, 2 * v - 1)
    # v in path but not interior; v = b is impossible since v+1 < b
    if v != a:
        raise AssertionError(f"{v} is an endpoint of {sig} but not a")
    if a == c:
        return 5, PathSignature(w, b, v, frozenset(), R - {w}), Fraction(2)
    return 6, PathSignature(w, b, c, L | {v}, R - {w}), Fraction(1)


def estimate_expected_profiles(
    n: int, trials: int, seed: int, k: int | None = None
) -> list[dict]:
    """Monte Carlo mean BC_k per vertex with standard errors.

    Returns one row per vertex and k = 2..max_d, the largest sampled
    diameter; rows carry 1-based attachment-order vertex labels. BC_k is
    extended past a sampled tree's diameter by truncation at d, so every
    trial contributes to every k. Given `k`, only the rows of the
    min(k, max_d) column are returned, labelled `k`: P_K = P_d for K >= d.
    """
    if n < 3:
        raise OutOfRangeError(f"need n >= 3 for nonempty profiles, got {n}")
    if trials < 1:
        raise OutOfRangeError(f"need trials >= 1, got {trials}")
    # Paths of length 0 or 1 have no interior vertex.
    if k is not None and k < 2:
        raise OutOfRangeError(f"need k >= 2, got {k}")
    check_seed(seed)
    # BC_k(v) = P_k(v) / P_k, k = 2..d, as an array of doubles per vertex
    # and trial; int / int rounds correctly. A childless vertex lies inside
    # no path, so only vertices with a child are counted. Each trial is one
    # engine pass over its parent array (range(n) is already an order rooted
    # at 0), whose distinct non-zero rows come out packed: each is unpacked,
    # summed and divided once, straight from its lanes, and equal rows of a
    # trial share that array. Index -1 marks every zero row and no other.
    # Each vertex keeps only its non-zero rows (a leaf's, about two thirds
    # of the entries, is never stored), with the trials they came from.
    # Every value is kept to the end, because the standard error needs the
    # mean first.
    nonzero_trials: list[list[int]] = [[] for _ in range(n)]
    ratios: list[list[array]] = [[] for _ in range(n)]
    max_d = 0
    lane = _lane_bits(n)
    for trial in range(trials):
        parent = sample_tree(n, random.Random(substream_seed(seed, trial))).parent
        listed = sorted(set(parent[1:]))
        d, p, packed, index = _counts(range(n), parent, lane, listed)
        max_d = max(max_d, d)
        P = tuple(accumulate(p))[2:]
        bc = [
            array("d", map(truediv, islice(accumulate(_unpack(x, lane, d + 1)), 2, None), P))
            for x in packed
        ]
        for v, i in zip(listed, index):
            if i >= 0:
                nonzero_trials[v].append(trial)
                ratios[v].append(bc[i])
    rows = []
    for v in range(n):
        # Column k holds v's non-zero values, in trial order; past its
        # diameter d a trial holds BC_d(v). Every other trial holds 0.0.
        columns = list(zip(*(x + x[-1:] * (max_d - 1 - len(x)) for x in ratios[v])))
        for col in range(2, max_d + 1) if k is None else (min(k, max_d),):
            values = columns[col - 2] if columns else ()
            # Left to right, as sum() added floats before Python 3.12 made
            # it compensated, so every supported Python prints these bytes.
            # Values are non-negative, so adding a zero trial's 0.0 would
            # leave the total as it is.
            total = 0.0
            for x in values:
                total += x
            mean = total / trials
            if trials > 1:
                # A zero trial's term is (0.0 - mean) ** 2: computed once,
                # and added in trial order among the others.
                terms = [(0.0 - mean) ** 2] * trials
                for t, x in zip(nonzero_trials[v], values):
                    terms[t] = (x - mean) ** 2
                total = 0.0
                for x in terms:
                    total += x
                var = total / (trials - 1)
                stderr = math.sqrt(var / trials)
            else:
                stderr = 0.0
            rows.append(
                {"vertex": v + 1, "k": col if k is None else k, "mean": mean,
                 "stderr": stderr, "trials": trials}
            )
    return rows
