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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    NotASimplePathError,
    NTooLargeError,
    OutOfRangeError,
    PreconditionViolatedError,
)
from .tree_core import Tree, path_counts_fast

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
    """
    return splitmix64((splitmix64(master_seed & _MASK64) + index) & _MASK64)


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
        if not all(1 <= p < t for t, p in enumerate(self.parents, start=2)):
            raise OutOfRangeError(f"parents must satisfy 1 <= parents[t-2] < t: {self.parents}")

    def tree(self) -> Tree:
        """The 0-based Tree view, built straight from the validated parents.

        A parent's id is below its child's, so appending in label order
        keeps every adjacency list sorted.
        """
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, p in enumerate(self.parents, start=1):
            adj[u].append(p - 1)
            adj[p - 1].append(u)
        return Tree(self.n, tuple(map(tuple, adj)))


def sample_tree(n: int, rng: random.Random) -> RecursiveTree:
    """One preferential-attachment tree; vertex 1 carries a virtual edge.

    The target list holds each label as many times as its attachment
    weight (degree, plus one for vertex 1), so a uniform pick is
    degree-proportional.
    """
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")
    parents = []
    targets = [1]
    for t in range(2, n + 1):
        p = targets[rng.randrange(len(targets))]
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
        if self.a == self.c:
            return len(self.R) + 1
        return len(self.L) + len(self.R) + 2

    @property
    def interior(self) -> frozenset[int]:
        if self.a == self.c:
            return self.R
        return self.L | self.R | {self.c}

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
    """Probability that a path with this signature occurs (closed form)."""
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


def enumerate_histories(n: int) -> Iterator[tuple[tuple[int, ...], Fraction]]:
    """All attachment histories with their exact probabilities."""
    if n > MAX_EXACT_N:
        raise NTooLargeError(f"exact enumeration capped at n={MAX_EXACT_N}, got {n}")
    if n < 1:
        raise OutOfRangeError(f"need n >= 1, got {n}")

    def rec(t: int, parents: list[int], weights: list[int], prob: Fraction):
        if t > n:
            yield tuple(parents), prob
            return
        total = 2 * (t - 1) - 1
        for cand in range(1, t):
            parents.append(cand)
            weights[cand] += 1
            weights[t] = 1
            yield from rec(t + 1, parents, weights, prob * Fraction(weights[cand] - 1, total))
            parents.pop()
            weights[cand] -= 1
            weights[t] = 0

    # weights[i] = attachment weight of label i (degree, +1 virtual for 1)
    weights = [0] * (n + 1)
    weights[1] = 1
    yield from rec(2, [], weights, Fraction(1))


def _history_edges(parents: tuple[int, ...]) -> set[frozenset[int]]:
    return {frozenset((t, p)) for t, p in enumerate(parents, start=2)}


def exact_path_presence_prob(n: int, vertices: Sequence[int]) -> Fraction:
    """Oracle: total probability of histories realizing the given path."""
    seq = list(vertices)
    if any(x > n for x in seq):
        raise OutOfRangeError(f"label above n={n} in {seq}")
    needed = [frozenset(e) for e in zip(seq, seq[1:])]
    total = Fraction(0)
    for parents, prob in enumerate_histories(n):
        edges = _history_edges(parents)
        if all(e in edges for e in needed):
            total += prob
    return total


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
                left = [x for i, x in enumerate(rest) if bits >> i & 1]
                right = [x for i, x in enumerate(rest) if not bits >> i & 1]
                seq = tuple(sorted(left, reverse=True)) + (c,) + tuple(sorted(right))
                out.add(min(seq, seq[::-1]))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _history_length_counts(n: int):
    """Per history: probability and the tree's exact path-count table."""
    rows = []
    for parents, prob in enumerate_histories(n):
        tree = RecursiveTree(n=n, parents=parents).tree()
        table = path_counts_fast(tree) if tree.n > 1 else None
        rows.append((prob, table))
    return tuple(rows)


def exact_expected_pk(n: int, v: int, k: int) -> Fraction:
    """E[count of length-k paths with v interior], by two independent routes.

    Route one sums over enumerated histories; route two sums the
    closed-form presence probability over candidate paths. They must agree.
    """
    if n > MAX_EXACT_N:
        raise NTooLargeError(f"exact expectation capped at n={MAX_EXACT_N}, got {n}")
    if not (1 <= v <= n):
        raise OutOfRangeError(f"vertex {v} out of range for n={n}")
    by_history = Fraction(0)
    for prob, table in _history_length_counts(n):
        if table is not None and 2 <= k <= table.d:
            by_history += prob * table.pv[v - 1][k]
    by_paths = Fraction(0)
    for seq in all_candidate_paths(n):
        if len(seq) == k + 1 and v in seq[1:-1]:
            by_paths += path_probability(signature_of_path(seq))
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
    n: int, trials: int, seed: int
) -> tuple[int, list[dict]]:
    """Monte Carlo mean BC_k per vertex with standard errors.

    Returns (max_k, rows); rows carry 1-based attachment-order vertex labels.
    BC_k is extended past a sampled tree's diameter by truncation at d,
    so every trial contributes to every k.
    """
    if n < 3:
        raise OutOfRangeError(f"need n >= 3 for nonempty profiles, got {n}")
    if trials < 1:
        raise OutOfRangeError(f"need trials >= 1, got {trials}")
    # Keep only d, Pk and Pkv of each trial: p and pv are never read, and
    # holding them for every trial would grow memory with the trial count.
    tables = []
    max_d = 2
    for trial in range(trials):
        rng = random.Random(substream_seed(seed, trial))
        table = path_counts_fast(sample_tree(n, rng).tree())
        max_d = max(max_d, table.d)
        tables.append((table.d, table.Pk, table.Pkv))

    def held_ratios(d: int, Pk: tuple, Pkv: tuple, v: int) -> list[float]:
        """BC_k(v) for k = 2..max_d, held at its value past the table's d."""
        ratios = [pv / pk for pv, pk in zip(Pkv[v][2:], Pk[2:])]
        return ratios + ratios[-1:] * (max_d - d)

    rows = []
    for v in range(n):
        # Each column holds one value per table, in trial order.
        columns = zip(*(held_ratios(*table, v) for table in tables))
        for k, values in enumerate(columns, start=2):
            mean = sum(values) / trials
            if trials > 1:
                var = sum((x - mean) ** 2 for x in values) / (trials - 1)
                stderr = math.sqrt(var / trials)
            else:
                stderr = 0.0
            rows.append(
                {"vertex": v + 1, "k": k, "mean": mean, "stderr": stderr, "trials": trials}
            )
    return max_d, rows
