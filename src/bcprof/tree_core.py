"""Labeled undirected trees and exact bounded-length path counting.

All counts are plain Python integers (arbitrary precision) and all
betweenness values are `fractions.Fraction`; nothing here ever rounds.
"""

from __future__ import annotations

import itertools
import sys
from array import array
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

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically.

        Both builders leave every adjacency list sorted, so scanning u in
        increasing order already yields that order.
        """
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


def build_tree(n: int, edges: Iterable[tuple[int, int]]) -> Tree:
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    edges = list(edges)
    if len(edges) != n - 1:
        raise WrongEdgeCountError(f"tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
    adj: list[list[int]] = [[] for _ in range(n)]
    seen: set[int] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = u * n + v if u < v else v * n + u
        if key in seen:
            raise DuplicateEdgeError(f"duplicate edge {divmod(key, n)}")
        seen.add(key)
        adj[u].append(v)
        adj[v].append(u)
    tree = Tree(n, tuple(tuple(sorted(a)) for a in adj))
    if sum(1 for d in bfs_distances(tree, 0) if d >= 0) != n:
        raise DisconnectedError("graph is not connected")
    return tree


def tree_from_parents(parent: Sequence[int]) -> Tree:
    """The tree of a 0-based parent array: parent[0] = -1 and
    0 <= parent[y] < y for every other y.

    Such an array is connected and acyclic by construction, so no edge set
    or BFS is needed. Appending in y order keeps every adjacency list
    sorted: y's parent comes first, then its children in increasing order.
    """
    n = len(parent)
    if n < 1 or parent[0] != -1:
        raise OutOfRangeError(f"a parent array starts with -1, got {list(parent[:1])}")
    adj: list[list[int]] = [[] for _ in range(n)]
    for y in range(1, n):
        p = parent[y]
        if not 0 <= p < y:
            raise OutOfRangeError(f"parent[{y}] = {p} is not in 0..{y - 1}")
        adj[y].append(p)
        adj[p].append(y)
    return Tree(n, tuple(map(tuple, adj)))


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
    """Brute-force oracle: walk the unique path of every vertex pair, up
    the parent array rooted at its source, which is unique on a tree."""
    n = t.n
    d = diameter(t)
    p = [0] * (d + 1)
    pv = [[0] * (d + 1) for _ in range(n)]
    for s in range(n):
        _, parent = _bfs_order(t, s)
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


# Lane widths a memoryview can be cast to, with their format codes.
_LANE_FORMATS = {16: "H", 32: "I", 64: "Q"}


def _lane_bits(n: int) -> int:
    """Lane width for a tree on n vertices: 16, 32 or 64 bits.

    Every lane counts vertex pairs, so it stays below n**2, which needs at
    most lane - 1 bits: no lane carries into the next, and bit_length() //
    lane is the index of the highest non-zero lane. Raises OutOfRangeError
    when n**2 does not fit in 63 bits.
    """
    bits = (n * n).bit_length()
    for lane in _LANE_FORMATS:
        if bits < lane:
            return lane
    raise OutOfRangeError(f"n={n} is too large: n**2 must fit in 63 bits")


def _unpack(x: int, lane: int, count: int) -> list[int]:
    """Lanes 0..count-1 of x; x must have no non-zero lane past them."""
    raw = x.to_bytes(count * lane // 8, sys.byteorder)
    return memoryview(raw).cast(_LANE_FORMATS[lane]).tolist()


def _pack(values: Iterable[int], lane: int) -> int:
    """The int whose lane j holds values[j]: the inverse of _unpack. Each
    value must fit in the lane (array raises OverflowError otherwise)."""
    return int.from_bytes(array(_LANE_FORMATS[lane], values).tobytes(), sys.byteorder)


def _bfs_order(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """(order, parent): a BFS order from root and each vertex's parent in
    it (parent[root] = -1). Every vertex comes after its parent."""
    order, parent = [root], [-1] * t.n
    for u in order:
        for w in t.adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    return order, parent


def _merge_up(
    order: Sequence[int], parent: Sequence[int], lane: int, top: dict[int, int]
) -> tuple[list[int], int]:
    """One bottom-up pass over a parent array; order[0] is the root and
    every other vertex comes after its parent.

    Returns (down, pairs): down[u] is the packed depth histogram of u's
    subtree (lane 0 is u itself) and pairs the packed histogram of all
    vertex pairs by distance. Each branch pairs with everything already
    merged into its parent, the parent itself included. For each key v of
    top (all 0 on entry), top[v] gathers the pairs formed at v: those whose
    highest vertex is v.
    """
    down = [1] * len(parent)
    pairs = 0
    for u in order[:0:-1]:
        p = parent[u]
        h = down[u] << lane
        formed = down[p] * h
        pairs += formed
        if p in top:
            top[p] += formed
        down[p] += h
    return down, pairs


def _diameter_and_lengths(n: int, pairs: int, lane: int) -> tuple[int, list[int]]:
    """(d, p_l for l = 0..d) from the packed all-pairs histogram.

    Lane 1 holds the n-1 edges, which have no interior vertex, so it is
    cleared; lane 0 is always zero.
    """
    d = pairs.bit_length() // lane
    return d, _unpack(pairs - ((n - 1) << lane), lane, d + 1)


def _counts(
    order: Sequence[int], parent: Sequence[int], lane: int, vertices: Sequence[int]
) -> tuple[list[int], list[list[int]]]:
    """(p_l, [p_l(v) for v in vertices]), l = 0..d, from one merge up to
    order[0] (see _merge_up for order and parent).

    A path through v has its endpoints in two distinct branches of v. With
    b = down[v] - 1, the depth histogram of v's subtree without v itself:
    top[v] - b are the pairs across two child branches, and up[v] * b those
    with one endpoint outside v's subtree. up[v] is the packed histogram, by
    distance from v, of the vertices outside v's subtree; it is memoised
    down each listed vertex's ancestor chain, so listing every vertex costs
    one pass down. Every lane of down[q] - (down[w] << lane) is a count of
    vertices, so the subtraction never borrows.
    """
    top = dict.fromkeys(vertices, 0)
    down, pairs = _merge_up(order, parent, lane, top)
    d, p = _diameter_and_lengths(len(parent), pairs, lane)
    up = {order[0]: 0}
    rows = []
    for v in vertices:
        chain, w = [], v
        while w not in up:
            chain.append(w)
            w = parent[w]
        for w in reversed(chain):
            q = parent[w]
            up[w] = (up[q] + down[q] - (down[w] << lane)) << lane
        b = down[v] - 1
        rows.append(_unpack(top[v] - b + up[v] * b, lane, d + 1))
    return p, rows


def _check_vertices(n: int, vertices: Iterable[int]) -> list[int]:
    vertices = list(vertices)
    for v in vertices:
        if not 0 <= v < n:
            raise OutOfRangeError(f"vertex {v} out of range for n={n}")
    return vertices


def _prefix_rows(p: list[int], rows: list[list[int]]) -> tuple[list[int], list[list[int]]]:
    """(P_k, [P_k(v)...]): the running sums of _counts's per-length rows."""
    return list(itertools.accumulate(p)), [list(itertools.accumulate(row)) for row in rows]


def prefix_counts(t: Tree, vertices: Iterable[int]) -> tuple[list[int], list[list[int]]]:
    """(P_k, [P_k(v) for v in vertices]), each for k = 0..d (zero below 2).

    One pass, rooted at the first listed vertex (at 0 when none is listed),
    so a single vertex needs no walk down its ancestor chain.
    """
    vertices = _check_vertices(t.n, vertices)
    lane = _lane_bits(t.n)
    order, parent = _bfs_order(t, vertices[0] if vertices else 0)
    return _prefix_rows(*_counts(order, parent, lane, vertices))


def _parent_prefix_counts(
    parent: Sequence[int], vertices: Iterable[int]
) -> tuple[list[int], list[list[int]]]:
    """Exactly prefix_counts(tree_from_parents(parent), vertices), with no Tree.

    The array is not checked (its caller built or validated it): with
    parent[y] < y, range(n) is already an order rooted at 0, so no BFS runs.
    """
    n = len(parent)
    vertices = _check_vertices(n, vertices)
    return _prefix_rows(*_counts(range(n), parent, _lane_bits(n), vertices))


def path_counts_fast(t: Tree) -> PathCountTable:
    """Same table as path_counts_naive: one pass up to root 0, one back down."""
    lane = _lane_bits(t.n)
    order, parent = _bfs_order(t, 0)
    p, pv = _counts(order, parent, lane, range(t.n))
    return _finish_table(len(p) - 1, p, pv)


@dataclass(frozen=True)
class Profile:
    """Exact profile (BC_2, ..., BC_d) of one vertex."""

    vertex: int
    entries: tuple[Fraction, ...]

    def k_range(self) -> range:
        return range(2, 2 + len(self.entries))


def profile(t: Tree, v: int, table: PathCountTable | None = None) -> Profile:
    _check_vertices(t.n, (v,))
    if table is None:
        table = path_counts_fast(t)
    if table.d < 2:
        raise DiameterTooSmallError(f"diameter {table.d} < 2: profile is empty")
    entries = tuple(
        Fraction(table.Pkv[v][k], table.Pk[k]) for k in range(2, table.d + 1)
    )
    return Profile(vertex=v, entries=entries)


def all_profiles(t: Tree) -> list[Profile]:
    table = path_counts_fast(t)
    return [profile(t, v, table) for v in range(t.n)]


def read_tree(lines: Iterable[str]) -> Tree:
    """Parse the tree file format: comments (#), vertex count, n-1 edges."""
    data = [
        (i, line, fields)
        for i, line in enumerate(lines, start=1)
        if (fields := line.split()) and not fields[0].startswith("#")
    ]
    if not data:
        raise WrongEdgeCountError("empty tree file")
    (n,) = _line_ints(*data[0], 1)
    return build_tree(n, [_line_ints(*row, 2) for row in data[1:]])


def _line_ints(lineno: int, line: str, fields: list[str], count: int) -> tuple[int, ...]:
    try:
        values = tuple(map(int, fields))
    except ValueError:
        values = ()
    if len(values) != count:
        raise BadSpecError(f"line {lineno}: expected {count} integer(s), got {line.strip()!r}")
    return values


def write_tree(t: Tree, comments: Sequence[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(str(t.n))
    out.extend(f"{u} {v}" for u, v in t.edges())
    return "\n".join(out) + "\n"
