"""Preferential-attachment random trees and exact small-n machinery.

Vertices carry 1-based labels in attachment order (vertex 1 first, with
one virtual degree unit); the Tree view uses 0-based ids, id = label - 1.
Exact enumeration of attachment histories doubles as the oracle for the
closed-form path presence probability.
"""

from __future__ import annotations

import itertools
import math
import random
from array import array
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import lt, sub, truediv
from typing import Iterable, Iterator, Sequence

from .errors import (
    NotASimplePathError,
    NTooLargeError,
    OutOfRangeError,
    PreconditionViolatedError,
)
from .tree_core import Tree, _parent_prefix_counts, tree_from_parents

MAX_EXACT_N = 9  # product of (t-1) histories; 9 keeps it at 8! = 40320

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
    """Recursive tree: parents[t-2] is the parent label of vertex t."""

    n: int
    parents: tuple[int, ...]

    def __post_init__(self):
        if len(self.parents) != self.n - 1:
            raise OutOfRangeError(
                f"need {self.n - 1} parents for n={self.n}, got {len(self.parents)}"
            )
        # 1 <= parents[t-2] < t for every t, at C speed.
        parents = self.parents
        if min(parents, default=1) < 1 or not all(map(lt, parents, range(2, self.n + 1))):
            raise OutOfRangeError(f"parents must satisfy 1 <= parents[t-2] < t: {self.parents}")

    def tree(self) -> Tree:
        """The 0-based Tree view, built straight from the parents."""
        return tree_from_parents(self._parent_array())

    def prefix_counts(self, vertices: Iterable[int]) -> tuple[list[int], list[list[int]]]:
        """Exactly tree_core.prefix_counts(self.tree(), vertices), with no Tree.

        Labels are already a topological order, so the count runs straight
        over the 0-based parent array, rooted at vertex 0.
        """
        return _parent_prefix_counts(self._parent_array(), vertices)

    def _parent_array(self) -> list[int]:
        """0-based parents: -1 for vertex 0, then parents[t-2] - 1 for id t - 1."""
        return [-1, *map(sub, self.parents, itertools.repeat(1))]


def sample_tree(n: int, rng: random.Random) -> RecursiveTree:
    """One preferential-attachment tree; vertex 1 carries a virtual edge.

    The target list holds each label as many times as its attachment
    weight (degree, plus one for vertex 1), so a uniform pick is
    degree-proportional.
    """
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")
    # rng.randrange(m) without its argument checks: draw m.bit_length()
    # bits and redraw while the draw is m or more, as CPython's
    # _randbelow_with_getrandbits does, so every seed gives the same tree.
    getrandbits = rng.getrandbits
    parents = []
    targets = [1]
    for t in range(2, n + 1):
        m = len(targets)
        bits = m.bit_length()
        r = getrandbits(bits)
        while r >= m:
            r = getrandbits(bits)
        p = targets[r]
        parents.append(p)
        targets.append(t)
        targets.append(p)
    return RecursiveTree(n=n, parents=tuple(parents))


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

    @property
    def interior(self) -> frozenset[int]:
        # When a == c, a is the minimum and L is empty.
        return (self.L | self.R | {self.c}) - {self.a}

    @property
    def vertices(self) -> frozenset[int]:
        return self.interior | {self.a, self.b}


def signature_of_path(vertices: Sequence[int]) -> PathSignature:
    """Signature of a candidate path given as an ordered vertex sequence.

    In a recursive tree labels along a path strictly decrease to the
    minimum and then strictly increase; anything else cannot occur.
    """
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
    return PathSignature(a=a, b=b, c=c, L=L, R=R)


def path_probability(sig: PathSignature) -> Fraction:
    """Probability that a path with this signature occurs (closed form).

    The factors are gathered into one integer numerator and denominator,
    so a single Fraction reduces the product once.
    """
    num = den = 1
    for t in range(sig.a + 1, sig.b + 1):
        num *= 2 * t - 2
        den *= 2 * t - 3
    den *= 2 * sig.b - 2
    for i in sig.R:
        den *= 2 * i - 2
    if sig.a != sig.c:
        num *= 2
        den *= 2 * sig.c - 1
        for i in sig.L:
            den *= 2 * i - 1
    return Fraction(num, den)


def _history_numerators(n: int) -> tuple[int, Iterator[tuple[tuple[int, ...], int]]]:
    """(D, every attachment history with its probability's numerator over D).

    D = prod_{t=2..n} (2t - 3) is the product of the total attachment
    weights, so a history's numerator is the product of the weights its
    chosen parents had when chosen.
    """
    if n > MAX_EXACT_N:
        raise NTooLargeError(f"exact enumeration capped at n={MAX_EXACT_N}, got {n}")
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")

    def histories():
        for parents in itertools.product(*(range(1, t) for t in range(2, n + 1))):
            # weight[i] = attachment weight of label i: its degree, plus the
            # virtual unit for label 1; each label arrives with weight 1.
            weight = [0] + [1] * n
            num = 1
            for p in parents:
                num *= weight[p]
                weight[p] += 1
            yield parents, num

    return math.prod(2 * t - 3 for t in range(2, n + 1)), histories()


def enumerate_histories(n: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All attachment histories with their exact probabilities."""
    denominator, histories = _history_numerators(n)
    for parents, num in histories:
        yield parents, Fraction(num, denominator)


@lru_cache(maxsize=None)
def _presence_table(n: int) -> dict[tuple[int, ...], Fraction]:
    """Presence probability of every path that occurs in some history.

    Each history's numerator is added to every path of its tree, keyed by
    the path's labels from the smaller endpoint, as `all_candidate_paths`
    writes them. A parent's label is below its child's, so the path from
    a to b climbs from the larger current label until the two meet.
    """
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
    return _presence_table(n).get(min(seq, seq[::-1]), Fraction(0))


@lru_cache(maxsize=None)
def all_candidate_paths(n: int) -> tuple[tuple[int, ...], ...]:
    """Every label sequence that can be a simple path in a recursive tree.

    A path descends to its minimum label and ascends after it, so it is
    determined by the label set and the split of the non-minimum labels
    into the two sides. Reversals are deduplicated.
    """
    out = set()
    labels = list(range(1, n + 1))
    for size in range(2, n + 1):
        for subset in itertools.combinations(labels, size):
            c, rest = subset[0], subset[1:]
            for bits in range(1 << len(rest)):
                # rest is increasing, so both sides come out in order.
                left = [x for i, x in enumerate(rest) if bits >> i & 1]
                right = [x for i, x in enumerate(rest) if not bits >> i & 1]
                seq = (*left[::-1], c, *right)
                out.add(min(seq, seq[::-1]))
    return tuple(sorted(out))


def _interior_sums(weighted_paths) -> dict[tuple[int, int], Fraction]:
    """Each path's weight summed into (v, k) for every interior v; k is its length."""
    sums: defaultdict[tuple[int, int], Fraction] = defaultdict(Fraction)
    for path, weight in weighted_paths:
        for v in path[1:-1]:
            sums[v, len(path) - 1] += weight
    return sums


@lru_cache(maxsize=None)
def _expected_pk_tables(n: int) -> tuple[dict, dict]:
    """E[p_k(v)] keyed by (v, k): from the history presence table, and from
    the closed form, computed once per candidate path."""
    by_history = _interior_sums(_presence_table(n).items())
    by_paths = _interior_sums(
        (path, path_probability(signature_of_path(path))) for path in all_candidate_paths(n)
    )
    return by_history, by_paths


def exact_expected_pk(n: int, v: int, k: int) -> Fraction:
    """E[count of length-k paths with v interior], by two independent routes.

    Route one sums presence probabilities from enumerated histories; route
    two sums the closed-form presence probability over candidate paths.
    They must agree.
    """
    if not (1 <= v <= n):
        raise OutOfRangeError(f"vertex {v} out of range for n={n}")
    by_history, by_paths = (table.get((v, k), Fraction(0)) for table in _expected_pk_tables(n))
    if by_history != by_paths:
        raise AssertionError(f"n={n}, v={v}, k={k}: {by_history} by history, {by_paths} by paths")
    return by_history


def injection_case(sig: PathSignature, v: int) -> int:
    """Which of the six map cases applies for shifting v+1 toward v."""
    if v + 1 not in sig.interior:
        raise PreconditionViolatedError(f"{v + 1} is not interior in {sig}")
    if v in sig.interior:
        return 1
    if v not in sig.vertices:
        if v + 1 == sig.c:
            return 2
        if v + 1 in sig.R:
            return 3
        return 4  # v+1 in L
    # v in path but not interior; v = b is impossible since v+1 < b
    if v != sig.a:
        raise AssertionError(f"{v} is an endpoint of {sig} but not a")
    return 5 if sig.a == sig.c else 6


def injection_f(sig: PathSignature, v: int) -> PathSignature:
    """The length-preserving map into paths with v interior."""
    case = injection_case(sig, v)
    a, b, c, L, R = sig.a, sig.b, sig.c, sig.L, sig.R
    w = v + 1
    if case == 1:
        return sig
    if case == 2:
        return PathSignature(a=a, b=b, c=v, L=L, R=R)
    if case == 3:
        return PathSignature(a=a, b=b, c=c, L=L, R=(R - {w}) | {v})
    if case == 4:
        return PathSignature(a=a, b=b, c=c, L=(L - {w}) | {v}, R=R)
    if case == 5:
        return PathSignature(a=w, b=b, c=v, L=frozenset(), R=R - {w})
    return PathSignature(a=w, b=b, c=c, L=L | {v}, R=R - {w})


def injection_ratio(v: int, case: int) -> Fraction:
    """Exact factor q(f(P)) / q(P) for each map case."""
    if case == 1 or case == 6:
        return Fraction(1)
    if case == 2 or case == 4:
        return Fraction(2 * v + 1, 2 * v - 1)
    if case == 3:
        return Fraction(2 * v, 2 * v - 2)
    if case == 5:
        return Fraction(2)
    raise OutOfRangeError(f"unknown injection case {case}")


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
    # One row of doubles BC_k(v) = P_k(v) / P_k, k = 2..d, per vertex and
    # trial; int / int rounds correctly. Equal rows of a trial (every
    # leaf's zero row) share one array. Every value is kept to the end,
    # because the standard error needs the mean first.
    ratios = []
    for trial in range(trials):
        rng = random.Random(substream_seed(seed, trial))
        Pk, Pkv = sample_tree(n, rng).prefix_counts(range(n))
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
