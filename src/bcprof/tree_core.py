"""Labeled undirected trees and exact bounded-length path counting.

All counts are plain Python integers (arbitrary precision) and all
betweenness values are `fractions.Fraction`; nothing here ever rounds.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BadSpecError,
    DiameterTooSmallError,
    DisconnectedError,
    DuplicateEdgeError,
    OutOfRangeError,
    SelfLoopError,
    WrongEdgeCountError,
)

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


def _finish_table(d: int, p: list[int], pv: list[list[int]]) -> PathCountTable:
    # Lanes 0 and 1 of every row are zero, so P_k is a plain running sum.
    return PathCountTable(
        d=d,
        p=tuple(p),
        pv=tuple(tuple(row) for row in pv),
        Pk=tuple(itertools.accumulate(p)),
        Pkv=tuple(tuple(itertools.accumulate(row)) for row in pv),
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


# Distance histograms are packed into one Python int: lane l holds the count
# at distance l. Shifting by one lane crosses one edge, + merges histograms
# and * is their exact convolution.


def _lane_bits(n: int) -> int:
    """Lane width for a tree on n vertices.

    Every lane counts vertex pairs, so it stays below n**2, which needs at
    most lane - 1 bits: no lane carries into the next, and bit_length() //
    lane is the index of the highest non-zero lane.
    """
    return 8 * ((n * n).bit_length() // 8 + 1)


def _unpack(x: int, lane: int, count: int) -> list[int]:
    """Lanes 0..count-1 of x; x must have no non-zero lane past them."""
    w = lane // 8
    raw = x.to_bytes(count * w, "little")
    return [int.from_bytes(raw[i : i + w], "little") for i in range(0, count * w, w)]


def _pair_branches(acc: int, branches: Iterable[int]) -> tuple[int, int]:
    """(histogram of pairs across distinct parts, acc + every branch).

    acc is the part already merged; each branch pairs with everything
    merged before it.
    """
    pairs = 0
    for h in branches:
        pairs += acc * h
        acc += h
    return pairs, acc


def _rooted(t: Tree, root: int, lane: int) -> tuple[list[int], list[int], list[int], int]:
    """One BFS order from root, then one bottom-up pass.

    Returns (order, parent, down, pairs): down[u] is the packed depth
    histogram of u's subtree (lane 0 is u itself) and pairs the packed
    histogram of all vertex pairs by distance.
    """
    order, parent = [root], [-1] * t.n
    for u in order:
        for w in t.adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    down = [0] * t.n
    pairs = 0
    for u in reversed(order):
        # _pair_branches from acc = 1 (u itself, so u pairs with each child
        # branch too), inlined: a call per vertex costs more than the pairing.
        acc = 1
        for w in t.adj[u]:
            if w != parent[u]:
                h = down[w] << lane
                pairs += acc * h
                acc += h
        down[u] = acc
    return order, parent, down, pairs


def _diameter_and_lengths(n: int, pairs: int, lane: int) -> tuple[int, list[int]]:
    """(d, p_l for l = 0..d) from the packed all-pairs histogram.

    Lane 1 holds the n-1 edges, which have no interior vertex, so it is
    cleared; lane 0 is always zero.
    """
    d = pairs.bit_length() // lane
    return d, _unpack(pairs - ((n - 1) << lane), lane, d + 1)


def prefix_counts(t: Tree, vertices: Iterable[int]) -> tuple[list[int], list[list[int]]]:
    """(P_k, [P_k(v) for v in vertices]), each for k = 0..d (zero below 2).

    One pass rooted at each listed vertex: a path of length l through v
    picks one endpoint in each of two distinct branches of v at distances
    a + b = l, so the branches' depth histograms are paired with each other.
    The all-pairs histogram is the same from every root, so P_k comes from
    the first pass (from a pass rooted at 0 when no vertex is listed).
    """
    vertices = list(vertices)
    for v in vertices:
        if not 0 <= v < t.n:
            raise OutOfRangeError(f"vertex {v} out of range for n={t.n}")
    lane = _lane_bits(t.n)
    pairs, through = None, []
    for v in vertices:
        _, _, down, all_pairs = _rooted(t, v, lane)
        if pairs is None:
            pairs = all_pairs
        through.append(_pair_branches(0, (down[w] << lane for w in t.adj[v]))[0])
    if pairs is None:
        *_, pairs = _rooted(t, 0, lane)
    d, p = _diameter_and_lengths(t.n, pairs, lane)
    rows = [list(itertools.accumulate(_unpack(x, lane, d + 1))) for x in through]
    return list(itertools.accumulate(p)), rows


def path_counts_fast(t: Tree) -> PathCountTable:
    """Same table as path_counts_naive: one pass up to root 0, one back down.

    The pass up gives down[u], the packed depth histogram of u's subtree;
    the pass down gives up[u], the packed histogram, by distance from u, of
    the vertices outside u's subtree. Row u pairs u's child branches
    together with up[u]. Every lane of rest - h is a count of vertices, so
    the subtraction never borrows.
    """
    lane = _lane_bits(t.n)
    order, parent, down, pairs = _rooted(t, 0, lane)
    d, p = _diameter_and_lengths(t.n, pairs, lane)
    up = [0] * t.n
    pv: list[list[int]] = [[]] * t.n
    for u in order:
        children = [(w, down[w] << lane) for w in t.adj[u] if w != parent[u]]
        through, rest = _pair_branches(up[u], (h for _, h in children))
        pv[u] = _unpack(through, lane, d + 1)
        rest += 1
        for w, h in children:
            up[w] = (rest - h) << lane
    return _finish_table(d, p, pv)


@dataclass(frozen=True)
class Profile:
    """Exact profile (BC_2, ..., BC_d) of one vertex."""

    vertex: int
    entries: tuple[Fraction, ...]

    def k_range(self) -> range:
        return range(2, 2 + len(self.entries))


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
