"""Labeled undirected trees and exact bounded-length path counting.

All counts are plain Python integers (arbitrary precision) and all
betweenness values are `fractions.Fraction`; nothing here ever rounds.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    BadSpecError,
    DiameterTooSmallError,
    DisconnectedError,
    DuplicateEdgeError,
    OutOfRangeError,
    SelfLoopError,
    WrongEdgeCountError,
)

# The histograms counts_through_vertex convolves in numpy sum to fewer than
# n vertices, so no coefficient exceeds n**2, which fits int64 for every n
# below this bound.
_INT64_VERTEX_LIMIT = 3_037_000_500


@dataclass(frozen=True)
class Tree:
    """Immutable tree on vertices 0..n-1 with sorted adjacency lists."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically."""
        return sorted(
            (min(u, v), max(u, v)) for u in range(self.n) for v in self.adj[u] if u < v
        )


def build_tree(n: int, edges: Iterable[tuple[int, int]]) -> Tree:
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    edges = list(edges)
    if len(edges) != n - 1:
        raise WrongEdgeCountError(f"tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {key}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    tree = Tree(n, tuple(tuple(sorted(a)) for a in adj))
    if sum(1 for d in bfs_distances(tree, 0) if d >= 0) != n:
        raise DisconnectedError("graph is not connected")
    return tree


def bfs_distances(t: Tree, source: int) -> list[int]:
    """Hop distances from source; -1 for unreachable vertices."""
    if not 0 <= source < t.n:
        raise OutOfRangeError(f"source {source} out of range for n={t.n}")
    dist = [-1] * t.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        du = dist[u]
        for w in t.adj[u]:
            if dist[w] < 0:
                dist[w] = du + 1
                queue.append(w)
    return dist


def bfs_parents(t: Tree, source: int) -> list[int]:
    """BFS parent pointers from source (parent[source] = -1)."""
    parent = [-2] * t.n
    parent[source] = -1
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in t.adj[u]:
            if parent[w] == -2:
                parent[w] = u
                queue.append(w)
    return parent


def diameter(t: Tree) -> int:
    """Max pairwise distance, by double BFS (exact on trees)."""
    d0 = bfs_distances(t, 0)
    far = max(range(t.n), key=lambda v: d0[v])
    d1 = bfs_distances(t, far)
    return max(d1)


@dataclass(frozen=True)
class PathCountTable:
    """Per-length path counts for one tree.

    p[l] is the number of (unordered) paths of length exactly l, pv[v][l]
    the number of those containing v as an interior vertex, for l = 0..d
    (entries below l=2 are zero). Pk/Pkv are the prefix sums over l=2..k.
    """

    d: int
    p: tuple[int, ...]
    pv: tuple[tuple[int, ...], ...]
    Pk: tuple[int, ...]
    Pkv: tuple[tuple[int, ...], ...]

    def total_up_to(self, k: int) -> int:
        return self.Pk[min(k, self.d)]

    def through_up_to(self, v: int, k: int) -> int:
        return self.Pkv[v][min(k, self.d)]


def prefix_sums(counts: Sequence[int], d: int) -> list[int]:
    """P[k] = sum of counts[l] over 2 <= l <= k, for k = 0..d.

    Entries of counts past its end count as zero; entries past d are ignored.
    """
    tail = list(counts[2 : d + 1])
    tail += [0] * (d - 1 - len(tail))
    return [0, 0][: d + 1] + list(itertools.accumulate(tail))


def _finish_table(d: int, p: list[int], pv: list[list[int]]) -> PathCountTable:
    return PathCountTable(
        d=d,
        p=tuple(p),
        pv=tuple(tuple(row) for row in pv),
        Pk=tuple(prefix_sums(p, d)),
        Pkv=tuple(tuple(prefix_sums(row, d)) for row in pv),
    )


def path_counts_naive(t: Tree) -> PathCountTable:
    """Brute-force oracle: walk the unique path of every vertex pair."""
    n = t.n
    d = diameter(t)
    p = [0] * (d + 1)
    pv = [[0] * (d + 1) for _ in range(n)]
    for s in range(n):
        parent = bfs_parents(t, s)
        dist = bfs_distances(t, s)
        for u in range(s + 1, n):
            length = dist[u]
            if length < 2:
                continue
            p[length] += 1
            w = parent[u]
            while w != s:
                pv[w][length] += 1
                w = parent[w]
    return _finish_table(d, p, pv)


def _branch_histograms(t: Tree, v: int) -> tuple[list[int], list[tuple[int, ...]]]:
    """BFS from v: total distance histogram and one histogram per neighbor branch."""
    dist = [-1] * t.n
    branch = [-1] * t.n
    dist[v] = 0
    per_branch: list[list[int]] = []
    queue = deque()
    for b, w in enumerate(t.adj[v]):
        dist[w] = 1
        branch[w] = b
        per_branch.append([0, 1])
        queue.append(w)
    total = [0] * 2
    total[1] = len(t.adj[v])
    while queue:
        u = queue.popleft()
        du = dist[u]
        bu = branch[u]
        for w in t.adj[u]:
            if dist[w] < 0:
                dw = du + 1
                dist[w] = dw
                branch[w] = bu
                hb = per_branch[bu]
                if len(hb) <= dw:
                    hb.extend([0] * (dw + 1 - len(hb)))
                hb[dw] += 1
                if len(total) <= dw:
                    total.extend([0] * (dw + 1 - len(total)))
                total[dw] += 1
                queue.append(w)
    return total, [tuple(h) for h in per_branch]


def _check_int64_safe(t: Tree) -> None:
    if t.n >= _INT64_VERTEX_LIMIT:
        raise OutOfRangeError(
            f"n={t.n} is too large: path counts need n < {_INT64_VERTEX_LIMIT}"
        )


def _self_conv(hist: Sequence[int], out_len: int) -> list[int]:
    arr = np.asarray(hist, dtype=np.int64)
    conv = np.convolve(arr, arr)
    return [int(x) for x in conv[:out_len]] + [0] * max(0, out_len - len(conv))


def _through_from_hists(
    total: Sequence[int], branches: Sequence[tuple[int, ...]]
) -> list[int]:
    out_len = 2 * (len(total) - 1) + 1
    conv_total = _self_conv(total, out_len)
    # Branches with identical histograms (e.g. many single leaves) are
    # convolved once and scaled.
    for hist, mult in Counter(branches).items():
        conv_b = _self_conv(hist, out_len)
        for l, c in enumerate(conv_b):
            conv_total[l] -= mult * c
    if any(c % 2 for c in conv_total):
        raise AssertionError("odd count of ordered cross-branch pairs")
    return [c // 2 for c in conv_total]


def counts_through_vertex(t: Tree, v: int) -> list[int]:
    """p_l(v) for l = 0..(max reachable path length through v).

    Pairs the per-branch distance histograms: a path of length l through v
    picks one endpoint in each of two distinct branches at distances a+b=l.
    """
    _check_int64_safe(t)
    total, branches = _branch_histograms(t, v)
    return _through_from_hists(total, branches)


def path_length_counts(t: Tree) -> list[int]:
    """p_l, the number of paths of length exactly l, for l = 0..d (zero below 2).

    One bottom-up pass from root 0: each vertex keeps the depth histogram of
    the part of its subtree merged so far, and every child's histogram,
    shifted by its edge, pairs with it before being merged in. The pairings
    cost at most one step per vertex pair, so plain integer loops beat
    numpy's per-call overhead on the short histograms of bushy trees.
    """
    order, parent = [0], [-1] * t.n
    for u in order:
        for w in t.adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    depth_hist: dict[int, list[int]] = {}
    pairs = [0]
    for u in reversed(order):
        acc = [1]
        for w in t.adj[u]:
            if w == parent[u]:
                continue
            h = [0] + depth_hist.pop(w)
            pairs += [0] * (len(acc) + len(h) - 1 - len(pairs))
            for a, ca in enumerate(acc):
                for l, ch in enumerate(h, a):
                    pairs[l] += ca * ch
            if len(h) > len(acc):
                acc, h = h, acc
            for l, c in enumerate(h):
                acc[l] += c
        depth_hist[u] = acc
    # The longest pair histogram ends at the diameter; lengths 0 and 1 are
    # not paths with an interior vertex.
    return [0, 0][: len(pairs)] + pairs[2:]


def path_counts_fast(t: Tree) -> PathCountTable:
    """Same table as path_counts_naive via per-vertex histogram pairing."""
    _check_int64_safe(t)
    p = path_length_counts(t)
    d = len(p) - 1
    # Each row has 2*ecc(v) + 1 >= d + 1 entries, all zero past d.
    pv = [counts_through_vertex(t, v)[: d + 1] for v in range(t.n)]
    return _finish_table(d, p, pv)


@dataclass(frozen=True)
class Profile:
    """Exact profile (BC_2, ..., BC_d) of one vertex."""

    vertex: int
    entries: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.entries)

    def k_range(self) -> range:
        return range(2, 2 + len(self.entries))

    def decimals(self, digits: int = 6) -> list[str]:
        return [f"{float(e):.{digits}f}" for e in self.entries]


def profile(t: Tree, v: int, table: PathCountTable | None = None) -> Profile:
    if not 0 <= v < t.n:
        raise OutOfRangeError(f"vertex {v} out of range for n={t.n}")
    if table is None:
        table = path_counts_fast(t)
    if table.d < 2:
        raise DiameterTooSmallError(f"diameter {table.d} < 2: profile is empty")
    entries = tuple(
        Fraction(table.Pkv[v][k], table.Pk[k]) for k in range(2, table.d + 1)
    )
    return Profile(vertex=v, entries=entries)


def all_profiles(t: Tree, table: PathCountTable | None = None) -> list[Profile]:
    if table is None:
        table = path_counts_fast(t)
    return [profile(t, v, table) for v in range(t.n)]


def read_tree(lines: Iterable[str]) -> Tree:
    """Parse the tree file format: comments (#), vertex count, n-1 edges."""
    data = [(i, ln.strip()) for i, ln in enumerate(lines, start=1)]
    data = [(i, ln) for i, ln in data if ln and not ln.startswith("#")]
    if not data:
        raise WrongEdgeCountError("empty tree file")
    (n,) = _line_ints(*data[0], 1)
    return build_tree(n, [tuple(_line_ints(i, ln, 2)) for i, ln in data[1:]])


def _line_ints(lineno: int, line: str, count: int) -> list[int]:
    try:
        values = [int(x) for x in line.split()]
    except ValueError:
        values = []
    if len(values) != count:
        raise BadSpecError(f"line {lineno}: expected {count} integer(s), got {line!r}")
    return values


def write_tree(t: Tree, comments: Sequence[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(str(t.n))
    out.extend(f"{u} {v}" for u, v in t.edges())
    return "\n".join(out) + "\n"
