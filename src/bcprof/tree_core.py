"""Labeled undirected trees and exact bounded-length path counting.

All counts are plain Python integers (arbitrary precision) and all
betweenness values are `fractions.Fraction`; nothing here ever rounds.

All counting is one engine, `_counts`, which reads only an order and a
parent array, so a BFS order from a `Tree` and the labels of a recursive
tree feed the same code. Apart from verify's prop1 and the Monte Carlo
estimator, which read its packed rows, every module counts through
`prefix_counts`, `_parent_prefix_counts` or `path_counts_fast`; the
brute-force `path_counts_naive` is the oracle they are tested against.
"""

from __future__ import annotations

import contextlib
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
    PreconditionViolatedError,
    SelfLoopError,
    WrongEdgeCountError,
)

@dataclass(frozen=True)
class Tree:
    """Immutable tree on vertices 0..n-1 with sorted adjacency lists.

    A plain dataclass that checks nothing: every counting entry goes
    through `_bfs_order`, which rejects an adjacency that is not a tree.
    """

    n: int
    adj: tuple[tuple[int, ...], ...]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) with u < v, sorted lexicographically.

        Both builders leave every adjacency list sorted, so scanning u in
        increasing order already yields that order.
        """
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u < v]


def build_tree(n: int, edges: Iterable[tuple[int, int]]) -> Tree:
    """The tree on vertices 0..n-1 with these edges."""
    return _tree_from_ends(n, list(itertools.chain.from_iterable(edges)))


def _tree_from_ends(n: int, ends: list[int]) -> Tree:
    """build_tree for the edges listed flat as [u0, v0, u1, v1, ...].

    The edge count is checked before anything of size n is allocated,
    and the range by the min and max of all endpoints. n - 1 edges in
    range that pass _bfs_order's guard from vertex 0 reach all n vertices,
    so they hold no self-loop or repeat: they form a tree. Only when the
    guard fails are the edges walked in order, to raise the error of the
    first faulty edge (DisconnectedError if none is), with the same class
    and text as a line-by-line check would give.
    """
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    if len(ends) != 2 * (n - 1):
        raise WrongEdgeCountError(f"tree on {n} vertices needs {n - 1} edges, got {len(ends) // 2}")
    # Range first: a negative id would index adjacency from the end.
    if min(ends, default=0) >= 0 and max(ends, default=0) < n:
        adj: list[list[int]] = [[] for _ in range(n)]
        pairs = iter(ends)
        for u, v in zip(pairs, pairs):
            adj[u].append(v)
            adj[v].append(u)
        for a in adj:
            a.sort()
        tree = Tree(n, tuple(map(tuple, adj)))
        with contextlib.suppress(PreconditionViolatedError):
            _bfs_order(tree, 0)
            return tree
    keys: set[int] = set()
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        if not (0 <= u < n and 0 <= v < n):
            raise OutOfRangeError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {u}")
        key = u * n + v if u < v else v * n + u
        if key in keys:
            raise DuplicateEdgeError(f"duplicate edge {divmod(key, n)}")
        keys.add(key)
    raise DisconnectedError("graph is not connected")


def _check_parent_array(parent: Sequence[int]) -> None:
    """Raise OutOfRangeError unless parent[0] = -1 and 0 <= parent[y] < y for y >= 1.

    One walk, which names the first bad entry; tree_from_parents is its
    only caller."""
    n = len(parent)
    if n < 1 or parent[0] != -1:
        raise OutOfRangeError(f"a parent array starts with -1, got {list(parent[:1])}")
    for y in range(1, n):
        if not 0 <= parent[y] < y:
            raise OutOfRangeError(f"parent[{y}] = {parent[y]} is not in 0..{y - 1}")


def tree_from_parents(parent: Sequence[int]) -> Tree:
    """The tree of a 0-based parent array: parent[0] = -1 and
    0 <= parent[y] < y for every other y.

    Such an array is connected and acyclic by construction, so no edge set
    or BFS is needed. Appending in y order keeps every adjacency list
    sorted: y's parent comes first, then its children in increasing order.
    Every family constructor and `gen scale-free:` build through here;
    build_tree, with its edge checks, is left to tree files.
    """
    _check_parent_array(parent)
    adj: list[list[int]] = [[] for _ in parent]
    for y, p in enumerate(parent[1:], 1):
        adj[y].append(p)
        adj[p].append(y)
    return Tree(len(parent), tuple(map(tuple, adj)))


def bfs_distances(t: Tree, source: int) -> list[int]:
    """Hop distances from source; -1 for unreachable vertices.

    A BFS of its own, independent of the engine's `_bfs_order`: `diameter`
    and the tests use it as a reference."""
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


def _finish_table(
    d: int, p: list[int], rows: list[list[int]], index: Iterable[int]
) -> PathCountTable:
    """The table of _counts's result with its rows unpacked: the i-th
    vertex has row rows[index[i]]. Each distinct row is summed once, and
    every index -1 (a zero row) is one zero tuple that pv and Pkv share."""
    zero = (0,) * (d + 1)
    pv = _spread(map(tuple, rows), index, zero)
    Pkv = _spread(map(tuple, map(itertools.accumulate, rows)), index, zero)
    return PathCountTable(d=d, p=tuple(p), pv=pv, Pk=tuple(itertools.accumulate(p)), Pkv=Pkv)


def path_counts_naive(t: Tree) -> PathCountTable:
    """Brute-force oracle: one BFS per source, which gives each vertex's
    distance and parent from it; then walk the unique path of every vertex
    pair up that parent array, which is unique on a tree."""
    n = t.n
    d = diameter(t)
    p = [0] * (d + 1)
    pv = [[0] * (d + 1) for _ in range(n)]
    for s in range(n):
        order, parent = _bfs_order(t, s)
        dist = [0] * n
        for w in order[1:]:
            dist[w] = dist[parent[w]] + 1
        for u in range(s + 1, n):
            length = dist[u]
            if length < 2:
                continue
            p[length] += 1
            w = parent[u]
            while w != s:
                pv[w][length] += 1
                w = parent[w]
    return _finish_table(d, p, pv, range(n))


# Distance histograms are packed into one Python int: lane l holds the count
# at distance l. Shifting by one lane crosses one edge, + merges histograms
# and * is their exact convolution.


# Lane widths a memoryview can be cast to, with their format codes.
_LANE_FORMATS = {16: "H", 32: "I", 64: "Q"}


def _lane_bits(n: int) -> int:
    """Lane width for a tree on n vertices: 16, 32 or 64 bits.

    Every lane counts vertices or vertex pairs, so it never exceeds
    C(n, 2) = n(n-1)/2: the narrowest lane that holds C(n, 2) never carries
    into the next. A lane's top bit may be set, so the highest non-zero lane
    is (bit_length() - 1) // lane: a star on 362 vertices has 64 980 pairs
    at distance 2, which fills the top bit of a 16-bit lane.

    16-bit lanes reach n = 362, 32-bit lanes n = 92 682, and 64-bit lanes
    n = 6 074 001 000. Past that, OutOfRangeError is raised, before any work
    on the tree.
    """
    bits = (n * (n - 1) // 2).bit_length()
    for lane in _LANE_FORMATS:
        if bits <= lane:
            return lane
    raise OutOfRangeError(f"n={n} is too large: C(n, 2) must fit in 64 bits")


def _unpack(x: int, lane: int, count: int) -> list[int]:
    """Lanes 0..count-1 of x, by one memoryview cast of its bytes; x must
    have no non-zero lane past them."""
    raw = x.to_bytes(count * lane // 8, sys.byteorder)
    return memoryview(raw).cast(_LANE_FORMATS[lane]).tolist()


def _pack(values: Iterable[int], lane: int) -> int:
    """The int whose lane j holds values[j]: the inverse of _unpack. Each
    value must fit in the lane (array raises OverflowError otherwise)."""
    return int.from_bytes(array(_LANE_FORMATS[lane], values).tobytes(), sys.byteorder)


def _bfs_order(t: Tree, root: int) -> tuple[list[int], list[int]]:
    """(order, parent): a BFS order from root and each vertex's parent in
    it (parent[root] = -1). Every vertex comes after its parent. Only n
    entries are expanded; unless they list each vertex once, the adjacency
    is not a tree (a cycle or self-loop repeats a vertex, a second
    component leaves one out) and PreconditionViolatedError is raised.

    The builders never hand the engine such a tree, so the CLI cannot reach
    this; it stops a hand-built non-tree at once instead of looping. The
    guard reads only what the BFS reaches, so it assumes every edge is
    listed at both ends: a one-way edge that still reaches all n vertices
    passes it, as adj = ((1,), (0, 2), ()) from root 0 does."""
    order, parent = [root], [-1] * t.n
    for u in itertools.islice(order, t.n):
        for w in t.adj[u]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    if len(order) != t.n or parent[root] != -1 or parent.count(-1) != 1:
        raise PreconditionViolatedError(f"adjacency is not a tree: no BFS order from {root}")
    return order, parent


def _merge_up(
    order: Sequence[int], parent: Sequence[int], lane: int, top: dict[int, int], rows_only=False
) -> tuple[list[int], int | None]:
    """One bottom-up pass over a parent array; order[0] is the root and
    every other vertex comes after its parent.

    Returns (down, pairs): down[u] is the packed depth histogram of u's
    subtree (lane 0 is u itself) and pairs the packed histogram of all
    vertex pairs by distance. Each branch pairs with everything already
    merged into its parent, the parent itself included. For each key v of
    top (all 0 on entry), top[v] gathers the pairs formed at v: those whose
    highest vertex is v. With rows_only, pairs is None and a branch pairs
    only where its parent is a key of top, which is all the rows need.
    """
    down = [1] * len(parent)
    if rows_only:
        for u in order[:0:-1]:
            p = parent[u]
            h = down[u] << lane
            if p in top:
                top[p] += down[p] * h
            down[p] += h
        return down, None
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
    cleared; lane 0 is always zero. Lane d holds the top set bit, which may
    be a lane's own top bit, so d comes from bit_length() - 1; with no pair
    at all (n = 1), d is 0.
    """
    d = max(pairs.bit_length() - 1, 0) // lane
    return d, _unpack(pairs - ((n - 1) << lane), lane, d + 1)


def _counts(
    order: Sequence[int], parent: Sequence[int], lane: int, vertices: Sequence[int], rows_only=False
) -> tuple[int, list[int] | None, list[int], list[int]]:
    """(d, p_l, rows, index), l = 0..d, from one merge up to order[0] (see
    _merge_up for order and parent): rows[index[i]] is p_l(v) for the i-th
    listed vertex v, packed at this lane (lane l holds p_l(v)), and index
    -1 marks a zero row. The rows stay packed for the callers that read
    them by lane, verify's prop1 columns and the Monte Carlo estimator's
    ratio rows, so neither builds a tuple row; _rows unpacks them into
    tuples for the others.

    With rows_only, p_l is None, no all-pairs histogram is built, and d is
    the top lane of the longest listed row (0 if all are zero). Past its
    own top lane a row is zero, so its prefix row is constant there.

    A path through v has its endpoints in two distinct branches of v. With
    b = down[v] - 1, the depth histogram of v's subtree without v itself:
    top[v] - b are the pairs across two child branches, and up[v] * b those
    with one endpoint outside v's subtree. up[v] is the packed histogram, by
    distance from v, of the vertices outside v's subtree; it is memoised
    down each listed vertex's ancestor chain, so listing every vertex costs
    one pass down, and a vertex whose parent q already has it (every vertex
    when parents are listed first) needs no walk. Every lane of
    down[q] - (down[v] << lane) is a count of vertices, so the subtraction
    never borrows.

    A vertex with no child (b == 0: every leaf, and the lone vertex when
    n = 1) lies inside no path, so its index is -1: no walk, no up[v] and
    no unpack. No ancestor chain passes through it, so the memo still holds
    all a later vertex needs. The only computed row that can be zero is
    that of a root with one child (up is 0 there), which is an endpoint of
    every path through it; its index is -1 too.

    Down a chain no product is needed. If v's parent q has v as its only
    child, then up[v] = (up[q] + 1) << lane and q's row is
    (up[q] << lane) * (b + 1), so on Python ints (where a lane of the middle
    term may be negative; the sum is exact)

        row(v) = row(q) + (top[v] - b) + ((b - up[q]) << lane).

    A vertex with a child has exactly one when top[v] - b == 0, since no
    pair then crosses two branches; its row waits in one_child until that
    child, listed after it, takes it out. For labels that increase away
    from order[0], as in every generated family, range(n) lists every
    parent first, so on paths, brooms, G(i, j) and the tell trees nearly
    every row comes by addition. A vertex listed before its parent, without
    it or again takes the product: same row.

    Non-zero rows are keyed by their packed value, which no lane carries
    out of, so two vertices share an index exactly when their rows are
    equal (v and n - 1 - v on a path, twin branches of G(i, j), every zero
    row), and each distinct non-zero row is unpacked at most once.

    Over a parent array, each listed vertex's walk down its ancestor chain
    costs its depth: O(log n) in a preferential-attachment tree, where
    about two thirds of the vertices are leaves and take no walk.

    The lane must hold C(n, 2), the largest count (see _lane_bits); a wider
    lane gives the same counts.
    """
    top = dict.fromkeys(vertices, 0)
    down, pairs = _merge_up(order, parent, lane, top, rows_only)
    up = {order[0]: 0}
    packed: dict[int, int] = {}
    one_child: dict[int, int] = {}
    index = []
    for v in vertices:
        b = down[v] - 1
        if not b:
            index.append(-1)
            continue
        q = parent[v]
        if v not in up:
            if q not in up:
                # No earlier vertex reached q: fill up[] down from the
                # nearest ancestor that has it.
                chain, w = [], q
                while w not in up:
                    chain.append(w)
                    w = parent[w]
                for w in reversed(chain):
                    u = parent[w]
                    up[w] = (up[u] + down[u] - (down[w] << lane)) << lane
            up[v] = (up[q] + down[q] - (down[v] << lane)) << lane
        across = top[v] - b
        if q in one_child:
            row = one_child.pop(q) + across + ((b - up[q]) << lane)
        else:
            row = across + up[v] * b
        if not across:
            one_child[v] = row
        index.append(packed.setdefault(row, len(packed)) if row else -1)
    if rows_only:  # no lane carries, so the largest row has the top lane
        p, d = None, max(max(packed, default=0).bit_length() - 1, 0) // lane
    else:
        d, p = _diameter_and_lengths(len(parent), pairs, lane)
    return d, p, list(packed), index


def _check_vertices(n: int, vertices: Iterable[int]) -> list[int]:
    vertices = list(vertices)
    for v in vertices:
        if not 0 <= v < n:
            raise OutOfRangeError(f"vertex {v} out of range for n={n}")
    return vertices


_PrefixRows = tuple[tuple[int, ...] | None, tuple[tuple[int, ...], ...]]  # (P_k, (P_k(v)...))


def _spread(rows: Iterable[tuple[int, ...]], index: Iterable[int], zero: tuple[int, ...]) -> tuple:
    """(rows[i] for i in index) with index -1 giving zero: vertices with
    the same index share one tuple."""
    return tuple(map([*rows, zero].__getitem__, index))


def _rows(
    lane: int, order: Sequence[int], parent: Sequence[int], vertices: Sequence[int],
    rows_only: bool = False,
) -> _PrefixRows:
    """(P_k, (P_k(v)...)) from _counts at this lane, as tuples for k = 0..d,
    P_k None when p_l is. Lanes 0 and 1 of every row are zero, so P_k is a
    plain running sum. Each distinct non-zero row is unpacked and summed
    once, and every zero row is one shared zero tuple."""
    d, p, packed, index = _counts(order, parent, lane, vertices, rows_only)
    sums = (tuple(itertools.accumulate(_unpack(x, lane, d + 1))) for x in packed)
    Pk = None if p is None else tuple(itertools.accumulate(p))
    return Pk, _spread(sums, index, (0,) * (d + 1))


def prefix_counts(t: Tree, vertices: Iterable[int]) -> _PrefixRows:
    """(P_k, (P_k(v) for v in vertices)), tuples for k = 0..d (zero below 2):
    the shape of PathCountTable's Pk and Pkv.

    One pass, rooted at the first listed vertex (at 0 when none is listed),
    so a single vertex needs no walk down its ancestor chain.
    """
    vertices = _check_vertices(t.n, vertices)
    lane = _lane_bits(t.n)
    order, parent = _bfs_order(t, vertices[0] if vertices else 0)
    return _rows(lane, order, parent, vertices)


def _parent_prefix_counts(
    parent: Sequence[int], vertices: Iterable[int], rows_only: bool = False
) -> _PrefixRows:
    """Exactly prefix_counts(tree_from_parents(parent), vertices), with no Tree.

    The array is not checked (its caller built or validated it): with
    parent[y] < y, range(n) is already an order rooted at 0, so no BFS runs,
    and a fault in `_bfs_order` shows as a disagreement with the oracle.
    The tell search and the experiment trials count through here.

    With rows_only, P_k is None and the rows are cut (see _counts): two cut
    rows cross as often as the full rows, as count_crossings skips ties.
    Only callers that compare two rows and read no P_k take it: the two
    crossing kinds of experiment and the tell search. The monotone kinds,
    expect, profile, analyze and verify take the full count, so the tell
    suite checks what the search built against a count it did not use.
    """
    n = len(parent)
    vertices = _check_vertices(n, vertices)
    lane = _lane_bits(n)
    return _rows(lane, range(n), parent, vertices, rows_only)


def path_counts_fast(t: Tree) -> PathCountTable:
    """Same table as path_counts_naive: one pass up to root 0, one back down.
    `analyze` is the only command that builds the full table."""
    lane = _lane_bits(t.n)
    order, parent = _bfs_order(t, 0)
    d, p, packed, index = _counts(order, parent, lane, range(t.n))
    return _finish_table(d, p, [_unpack(x, lane, d + 1) for x in packed], index)


@dataclass(frozen=True)
class Profile:
    """Exact profile (BC_2, ..., BC_d) of one vertex."""

    vertex: int
    entries: tuple[Fraction, ...]

    def k_range(self) -> range:
        return range(2, 2 + len(self.entries))


def profile(t: Tree, v: int, table: PathCountTable | None = None) -> Profile:
    """v's profile BC_k(v) = P_k(v) / P_k for k = 2..d.

    The counts come from table, which must be t's, when one is passed (a
    caller that profiles many vertices counts once); otherwise only v's
    row is counted.
    """
    if table is None:
        Pk, (Pkv,) = prefix_counts(t, (v,))
    else:
        _check_vertices(t.n, (v,))
        Pk, Pkv = table.Pk, table.Pkv[v]
    d = len(Pk) - 1
    if d < 2:
        raise DiameterTooSmallError(f"diameter {d} < 2: profile is empty")
    entries = tuple(Fraction(Pkv[k], Pk[k]) for k in range(2, d + 1))
    return Profile(vertex=v, entries=entries)


def all_profiles(t: Tree) -> list[Profile]:
    table = path_counts_fast(t)
    return [profile(t, v, table) for v in range(t.n)]


def read_tree(lines: Iterable[str]) -> Tree:
    """Parse the tree file format: comments (#), vertex count, n-1 edges.

    Lines are numbered as iterated: a text file breaks only at newlines,
    where str.splitlines would also break at form feeds and other
    separators. All lines are split and converted in bulk; a line with the
    wrong number of fields or a token that is not an integer fails that
    pass, and then the first such line is named.
    """
    lines = list(lines)
    rows = [fields for fields in map(str.split, lines) if fields and fields[0][0] != "#"]
    if not rows:
        raise WrongEdgeCountError("empty tree file")
    if len(rows[0]) == 1 and {*map(len, rows[1:])} <= {2}:
        try:
            n, *ends = map(int, itertools.chain.from_iterable(rows))
        except ValueError:
            pass
        else:
            return _tree_from_ends(n, ends)
    raise _bad_line(lines)


def _bad_line(lines: Sequence[str]) -> BadSpecError:
    """The error naming the first line that is not one integer (the first
    data line) or two (every later one). Only called when such a line
    exists: the bulk pass in read_tree accepts exactly the other files."""
    count = 1
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        try:
            values = list(map(int, fields))
        except ValueError:
            values = []
        if len(values) != count:
            return BadSpecError(f"line {lineno}: expected {count} integer(s), got {line.strip()!r}")
        count = 2


def write_tree(t: Tree, comments: Sequence[str] = ()) -> str:
    out = [f"# {c}" for c in comments]
    out.append(str(t.n))
    out.extend(f"{u} {v}" for u, v in t.edges())
    return "\n".join(out) + "\n"
