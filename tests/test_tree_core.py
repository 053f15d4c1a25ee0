"""Tree construction, BFS, and exact path counting (fast vs naive oracle)."""

import functools
import itertools
import os
import random
import re
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bcprof
from bcprof import (
    BadSpecError,
    DiameterTooSmallError,
    DisconnectedError,
    DuplicateEdgeError,
    OutOfRangeError,
    PreconditionViolatedError,
    RecursiveTree,
    SelfLoopError,
    Tree,
    WrongEdgeCountError,
    all_profiles,
    bfs_distances,
    build_tree,
    count_crossings,
    diameter,
    make_broom,
    make_double_broom,
    make_gij,
    make_path,
    make_tell,
    path_counts_fast,
    path_counts_naive,
    prefix_counts,
    profile,
    read_tree,
    sample_tree,
    tree_from_parents,
    write_tree,
)
from bcprof import tree_core
from bcprof.tree_core import _lane_bits, _parent_prefix_counts


def random_tree(n: int, rng: random.Random):
    """Uniform-ish random labeled tree: attach each vertex to a random earlier one."""
    return build_tree(n, [(i + 1, rng.randrange(i + 1)) for i in range(n - 1)])


def draw_tree(data, sizes):
    """A random tree, path or star with a size drawn from sizes."""
    kind = data.draw(st.sampled_from(("random", "path", "star")))
    n = data.draw(sizes)
    if kind == "path":
        return build_tree(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "star":
        return build_tree(n, [(0, i) for i in range(1, n)])
    return random_tree(n, random.Random(data.draw(st.integers(0, 2**32))))


# Sizes on both sides of the packed lane-width step between n=362 and n=363.
LANE_STEP = st.sampled_from((362, 363))

# The oracle walks every path: 0.5 s for a path on 362 vertices. Paths and
# stars drawn at LANE_STEP recur across examples, so each is walked once.
cached_naive = functools.cache(path_counts_naive)


def as_rows(table):
    """A table's (Pk, Pkv): prefix_counts's shape, for every vertex."""
    return table.Pk, table.Pkv


def rooted_level_sequences(n: int):
    """Every rooted unlabeled tree on n vertices, once each, as a preorder
    level sequence (root at level 0), by Beyer and Hedetniemi's successor
    rule starting from the path."""
    levels = list(range(n))
    while True:
        yield levels
        p = n - 1
        while p > 0 and levels[p] == 1:
            p -= 1
        if p == 0:
            return
        q = p - 1
        while levels[q] != levels[p] - 1:
            q -= 1
        levels = list(levels)
        for i in range(p, n):
            levels[i] = levels[i - p + q]


def preorder_parents(levels) -> list[int]:
    """The parent array of a preorder level sequence: parent[y] < y."""
    last = {}
    parent = []
    for y, level in enumerate(levels):
        parent.append(last.get(level - 1, -1))
        last[level] = y
    return parent


def leaf_heavy_parents():
    """Parent arrays (parent[y] < y) of trees where most vertices are
    leaves: stars, brooms, double brooms, caterpillars, seeded
    preferential-attachment trees, and n = 1 and 2. In each single broom
    and caterpillar, root 0 has degree one."""
    yield [-1]
    yield [-1, 0]
    for leaves in (1, 2, 5, 12):
        yield [-1, *[0] * leaves]
    for m, n in ((1, 1), (1, 4), (3, 1), (3, 6), (6, 9)):
        yield [*range(-1, m), *[m] * n]
    for m, n in ((2, 1), (2, 5), (4, 3), (6, 8)):
        yield [*range(-1, m), *[0] * n, *[m] * n]
    rng = random.Random(21)
    for spine in (2, 3, 5, 8):
        legs = [rng.randrange(4) for _ in range(spine)]
        yield [*range(-1, spine - 1), *(s for s in range(1, spine) for _ in range(legs[s]))]
    for n, seed in ((3, 1), (12, 2), (40, 3), (60, 4), (362, 5), (363, 6)):
        yield list(sample_tree(n, random.Random(seed)).parent)


def subdivided(parent, lengths):
    """The parent array of parent's tree with edge (y, parent[y]) made a
    path of lengths[y - 1] >= 1 edges; labels still increase away from 0."""
    out, at = [-1], [0]
    for y in range(1, len(parent)):
        q = at[parent[y]]
        for _ in range(lengths[y - 1]):
            out.append(q)
            q = len(out) - 1
        at.append(q)
    return out


def family_parents(t):
    """A family tree's parent array: every family is built with labels
    that increase away from 0, so the BFS parents from 0 are its own."""
    parent = tree_core._bfs_order(t, 0)[1]
    assert all(p < y for y, p in enumerate(parent))
    return parent


@st.composite
def chain_heavy_parents(draw, max_legs=8):
    """Parent arrays (labels increasing away from 0) of trees made mostly of
    single-child chains: a random tree with every edge subdivided, a
    spider, a caterpillar with long legs, a broom, a double broom, G(i, j)
    or a tell tree."""
    kind = draw(st.sampled_from(
        ("subdivided", "spider", "caterpillar", "broom", "double-broom", "gij", "tell")
    ))
    lengths = st.integers(1, 6)
    if kind == "subdivided":
        base = [-1] + [draw(st.integers(0, y - 1)) for y in range(1, draw(st.integers(1, 12)))]
        return subdivided(base, [draw(lengths) for _ in base[1:]])
    if kind == "spider":
        legs = draw(st.integers(1, max_legs))
        return subdivided([-1, *[0] * legs], [draw(st.integers(1, 12)) for _ in range(legs)])
    if kind == "caterpillar":
        # A spine 0..s-1 whose vertices carry legs, each a chain.
        spine = draw(st.integers(1, 8))
        base = [*range(-1, spine - 1)]
        base += [draw(st.integers(0, spine - 1)) for _ in range(draw(st.integers(0, max_legs)))]
        return subdivided(base, [1] * (spine - 1) + [draw(lengths) for _ in base[spine:]])
    if kind == "broom":
        return family_parents(make_broom(draw(st.integers(1, 40)), draw(st.integers(1, 8)))[0])
    if kind == "double-broom":
        m = 2 * draw(st.integers(1, 20))
        return family_parents(make_double_broom(m, draw(st.integers(1, 6)))[0])
    if kind == "gij":
        return family_parents(make_gij(draw(st.integers(1, 4)), draw(st.integers(1, 5)))[0])
    return family_parents(make_tell(draw(st.integers(1, 4)))[0])


LISTINGS = ("top-down", "reversed", "shuffled", "repeats", "subset")


def listed(listing, n, rng):
    """Vertices 0..n-1 as the listing names them. For labels increasing
    away from 0, range(n) lists every parent before its children."""
    vs = list(range(n))
    if listing == "reversed":
        vs.reverse()
    elif listing == "shuffled":
        rng.shuffle(vs)
    elif listing == "repeats":
        # Each vertex once or twice in a row, then a second top-down pass.
        vs = [v for v in vs for _ in range(rng.randint(1, 2))] + vs
    elif listing == "subset":
        vs = sorted(rng.sample(vs, rng.randint(1, n)))
    return vs


def assert_every_route_equals_naive(parent, listing, rng, naive=path_counts_naive):
    """prefix_counts, _parent_prefix_counts and path_counts_fast agree with
    the oracle on the tree of parent, with the vertices listed as named."""
    t = tree_from_parents(parent)
    want = naive(t)
    assert path_counts_fast(t) == want
    vs = listed(listing, t.n, rng)
    rows = (want.Pk, tuple(want.Pkv[v] for v in vs))
    assert prefix_counts(t, vs) == rows, (parent, vs)
    assert _parent_prefix_counts(parent, vs) == rows, (parent, vs)


# An 11-vertex reference tree: a length-4 path into a 3-way fan, each fan
# arm ending in a leaf. Vertices 5, 6 and 7 are mutually symmetric.
FAN_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7), (5, 8), (6, 9), (7, 10)]


class TestBuildTree:
    def test_rejects_wrong_edge_count(self):
        with pytest.raises(WrongEdgeCountError):
            build_tree(3, [(0, 1)])

    def test_rejects_self_loop(self):
        with pytest.raises(SelfLoopError):
            build_tree(3, [(0, 1), (2, 2)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(DuplicateEdgeError):
            build_tree(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            build_tree(3, [(0, 1), (1, 3)])

    def test_rejects_disconnected(self):
        # right edge count but a cycle plus an isolated vertex
        with pytest.raises(DisconnectedError):
            build_tree(4, [(0, 1), (1, 2), (2, 0)])

    def test_single_vertex(self):
        t = build_tree(1, [])
        assert t.n == 1 and t.edges() == []

    def test_adjacency_sorted(self):
        t = build_tree(4, [(0, 3), (0, 1), (0, 2)])
        assert t.adj[0] == (1, 2, 3)

    @given(st.data())
    def test_edges_sorted_from_either_builder(self, data):
        # edges() does no sort of its own; it relies on sorted adjacency.
        n = data.draw(st.integers(1, 30))
        parent = [-1] + [data.draw(st.integers(0, y - 1)) for y in range(1, n)]
        want = sorted((parent[y], y) for y in range(1, n))
        shuffled = data.draw(st.permutations([e[::-1] for e in want]))
        assert build_tree(n, shuffled).edges() == want
        assert tree_from_parents(parent).edges() == want


# The one fault table of the parent-array check: each bad array with the
# exact message that names its first bad entry.
BAD_PARENT_ARRAYS = {
    (-1, 0, 2): "parent[2] = 2 is not in 0..1",  # parent[y] == y
    (-1, 0, 3, 1): "parent[2] = 3 is not in 0..1",  # parent[y] > y
    (-1, -1): "parent[1] = -1 is not in 0..0",  # a second root
    (-1, 0, -2): "parent[2] = -2 is not in 0..1",  # a negative parent
    (0, 0): "a parent array starts with -1, got [0]",  # no -1 root
    (): "a parent array starts with -1, got []",
}


class TestTreeFromParents:
    @pytest.mark.parametrize("parent", BAD_PARENT_ARRAYS)
    def test_rejects_bad_entries(self, parent):
        # RecursiveTree checks its array only where tree() hands it to
        # tree_from_parents.
        message = BAD_PARENT_ARRAYS[parent]
        for build in (tree_from_parents, lambda p: RecursiveTree(p).tree()):
            with pytest.raises(OutOfRangeError, match=f"^{re.escape(message)}$"):
                build(parent)

    @pytest.mark.parametrize("parent", ("[-1, 0, 2]", "[-1, 0, -1]"))
    def test_bad_entries_rejected_under_optimize(self, parent):
        # `python -O` strips asserts; the parent check must survive it.
        src = str(Path(bcprof.__file__).resolve().parents[1])
        code = f"from bcprof import tree_from_parents; tree_from_parents({parent})"
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 1 and "OutOfRangeError" in proc.stderr


class TestBfsAndDiameter:
    def test_path_distances(self):
        t = build_tree(5, [(i, i + 1) for i in range(4)])
        assert bfs_distances(t, 0) == [0, 1, 2, 3, 4]
        assert diameter(t) == 4

    def test_star_diameter(self):
        t = build_tree(5, [(0, i) for i in range(1, 5)])
        assert diameter(t) == 2

    def test_fan_tree_diameter(self):
        t = build_tree(11, FAN_EDGES)
        assert diameter(t) == 6
        assert max(bfs_distances(t, 1)) == 5


class TestEngineRejectsNonTrees:
    """Tree is a public dataclass that anyone can build with any adjacency.
    The engine's BFS expands at most n entries and raises unless they list
    every vertex once, so a non-tree fails at once instead of looping."""

    NON_TREES = {
        "triangle": Tree(3, ((1, 2), (0, 2), (0, 1))),
        "triangle_and_isolated_vertex": Tree(4, ((1, 2), (0, 2), (0, 1), ())),
        "two_disjoint_edges": Tree(4, ((1,), (0,), (3,), (2,))),
        "self_loop": Tree(2, ((0, 1), (0,))),
        # n entries, but the self-loop repeats vertex 1 where 2 and 3
        # are missing: a length test alone passes it, and the count loops.
        "self_loop_for_missing_vertices": Tree(4, ((1,), (0, 1), (), ())),
    }

    @pytest.mark.parametrize("name", NON_TREES)
    def test_every_entry_raises(self, name):
        t = self.NON_TREES[name]
        entries = (
            lambda: prefix_counts(t, range(t.n)),
            lambda: prefix_counts(t, [t.n - 1]),
            lambda: path_counts_fast(t),
            lambda: path_counts_naive(t),
        )
        for count in entries:
            with pytest.raises(PreconditionViolatedError, match="adjacency is not a tree"):
                count()

    def test_trees_keep_their_order(self):
        # The guard changes no (order, parent) of a tree.
        def unguarded(t, root):
            order, parent = [root], [-1] * t.n
            for u in order:
                for w in t.adj[u]:
                    if w != parent[u]:
                        parent[w] = u
                        order.append(w)
            return order, parent

        pa = sample_tree(1300, random.Random(3)).tree()
        path = tree_from_parents(range(-1, 359))
        for t in (pa, path, Tree(1, ((),))):
            for root in {0, t.n // 2, t.n - 1}:
                assert tree_core._bfs_order(t, root) == unguarded(t, root)


class TestOneWalk:
    """_bfs_order is the only walk that accepts or counts a Tree: the reader
    validates by its guard, and the oracle reads each source's distances off
    its order. bfs_distances stays the independent reference."""

    @pytest.fixture
    def walks(self, monkeypatch):
        """walks(call) -> (call's result, the roots _bfs_order was called
        with, the number of bfs_distances calls) while call() ran."""
        roots, distances = [], []
        bfs_order, bfs = tree_core._bfs_order, tree_core.bfs_distances

        def recorded(t, root):
            roots.append(root)
            return bfs_order(t, root)

        def counted(t, source):
            distances.append(source)
            return bfs(t, source)

        monkeypatch.setattr(tree_core, "_bfs_order", recorded)
        monkeypatch.setattr(tree_core, "bfs_distances", counted)

        def walks(call):
            roots.clear()
            distances.clear()
            return call(), list(roots), len(distances)

        return walks

    def test_read_tree_walks_once_from_vertex_0(self, walks):
        t = build_tree(11, FAN_EDGES)
        lines = write_tree(t).splitlines()
        assert walks(lambda: read_tree(lines)) == (t, [0], 0)

    def test_oracle_walks_once_per_source(self, walks):
        t = build_tree(11, FAN_EDGES)
        table, roots, distances = walks(lambda: path_counts_naive(t))
        assert table == path_counts_fast(t)
        # Only diameter's double BFS calls bfs_distances.
        assert (sorted(roots), distances) == (list(range(t.n)), 2)


class TestPathCounts:
    def test_fast_equals_naive_random(self):
        rng = random.Random(42)
        for _ in range(50):
            t = random_tree(rng.randrange(2, 30), rng)
            assert path_counts_fast(t) == path_counts_naive(t)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_fast_equals_naive_hypothesis(self, data):
        n = data.draw(st.integers(min_value=2, max_value=16))
        parents = [data.draw(st.integers(min_value=0, max_value=i)) for i in range(n - 1)]
        t = build_tree(n, [(i + 1, p) for i, p in enumerate(parents)])
        naive = path_counts_naive(t)
        assert path_counts_fast(t) == naive
        assert prefix_counts(t, range(t.n)) == as_rows(naive)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_prefix_counts_equals_naive_hypothesis(self, data):
        t = draw_tree(data, st.one_of(LANE_STEP, st.integers(1, 40)))
        naive = cached_naive(t)
        assert prefix_counts(t, range(t.n)) == as_rows(naive)
        # The pass is rooted at the first listed vertex, so list one other
        # than 0 first; the others are reached down the chain from it.
        first = data.draw(st.integers(min(1, t.n - 1), t.n - 1))
        vs = [first] + data.draw(st.lists(st.integers(0, t.n - 1), min_size=1, max_size=4))
        assert prefix_counts(t, vs) == (naive.Pk, tuple(naive.Pkv[v] for v in vs))
        for v in (-1, t.n):
            with pytest.raises(OutOfRangeError):
                prefix_counts(t, [v])

    # Below a listed parent with one child, a row comes from the parent's
    # by addition; a vertex listed before its parent, again, or without its
    # parent takes the product. Every listing must give the oracle's rows.

    @settings(max_examples=60, deadline=None)
    @given(chain_heavy_parents(), st.sampled_from(LISTINGS), st.randoms(use_true_random=False))
    def test_chain_heavy_trees_hypothesis(self, parent, listing, rng):
        assert_every_route_equals_naive(parent, listing, rng)

    @pytest.mark.parametrize("listing", LISTINGS)
    def test_every_chain_family_in_every_listing(self, listing):
        rng = random.Random(39)
        trees = [
            subdivided([-1, 0, 0, 1, 1, 2, 4], [1, 3, 2, 5, 1, 4]),
            subdivided([-1, 0, 0, 0, 0], [7, 1, 4, 9]),  # spider
            subdivided([-1, 0, 1, 2, 0, 1, 1, 3], [1, 1, 1, 3, 2, 6, 1]),  # caterpillar
            [*range(-1, 15)],  # path
            family_parents(make_broom(12, 5)[0]),
            family_parents(make_double_broom(10, 3)[0]),
            family_parents(make_gij(3, 4)[0]),
            family_parents(make_tell(3)[0]),
        ]
        for parent in trees:
            assert_every_route_equals_naive(parent, listing, rng)

    @pytest.mark.parametrize("listing", LISTINGS)
    def test_chain_heavy_trees_at_32_bit_lanes(self, listing):
        rng = random.Random(363)
        base = [-1, *(rng.randrange(y) for y in range(1, 60))]
        trees = [
            subdivided(base, [rng.randint(1, 12) for _ in base[1:]]),
            family_parents(make_double_broom(300, 35)[0]),
            family_parents(make_gij(24, 5)[0]),
        ]
        for parent in trees:
            assert len(parent) >= 363 and _lane_bits(len(parent)) == 32
            assert_every_route_equals_naive(parent, listing, rng, cached_naive)

    @pytest.mark.parametrize("n", (1, 2))
    def test_tiny_trees(self, n):
        t = build_tree(n, [(0, 1)][: n - 1])
        naive = path_counts_naive(t)
        assert naive.p == (0,) * n
        assert path_counts_fast(t) == naive
        assert naive.d == n - 1
        assert prefix_counts(t, range(n)) == {1: ((0,), ((0,),)), 2: ((0, 0), ((0, 0), (0, 0)))}[n]

    def test_total_pairs_identity(self):
        # Sum of p_l over all l (including l=1 edges) is C(n, 2) on a tree.
        rng = random.Random(7)
        for _ in range(20):
            t = random_tree(rng.randrange(2, 25), rng)
            table = path_counts_fast(t)
            n_pairs = t.n * (t.n - 1) // 2
            assert sum(table.p) + (t.n - 1) == n_pairs

    def test_interior_count_identity(self):
        # Each length-l path has l-1 interior vertices.
        rng = random.Random(8)
        for _ in range(20):
            t = random_tree(rng.randrange(3, 25), rng)
            table = path_counts_fast(t)
            for l in range(2, table.d + 1):
                assert sum(row[l] for row in table.pv) == (l - 1) * table.p[l]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_engine_identities_hypothesis(self, data):
        t = draw_tree(data, st.one_of(LANE_STEP, st.integers(1, 400)))
        n = t.n
        table = path_counts_fast(t)
        # Each length-l path has l-1 interior vertices.
        for l in range(2, table.d + 1):
            assert sum(row[l] for row in table.pv) == (l - 1) * table.p[l]
        # Every vertex pair that is not an edge is a path of length >= 2.
        assert sum(table.p) == n * (n - 1) // 2 - (n - 1)
        v = data.draw(st.integers(0, n - 1))
        assert prefix_counts(t, [v]) == (table.Pk, (table.Pkv[v],))

    def test_prefix_counts_matches_table(self):
        rng = random.Random(9)
        for _ in range(10):
            t = random_tree(rng.randrange(3, 20), rng)
            table = path_counts_fast(t)
            assert prefix_counts(t, range(t.n)) == as_rows(table)
            # Rows follow the listed order, repeats included.
            assert prefix_counts(t, [2, 0, 2])[1] == tuple(table.Pkv[v] for v in (2, 0, 2))

    def test_prefix_counts_makes_one_pass(self, monkeypatch):
        # One BFS for the whole list, not one per listed vertex.
        calls = []

        def counted(t, root):
            calls.append(root)
            return bfs_order(t, root)

        t = build_tree(11, FAN_EDGES)
        table = path_counts_fast(t)
        bfs_order = tree_core._bfs_order
        monkeypatch.setattr(tree_core, "_bfs_order", counted)
        assert prefix_counts(t, [8, 2, 5]) == (table.Pk, tuple(table.Pkv[v] for v in (8, 2, 5)))
        assert calls == [8]

    def test_every_rooted_tree_up_to_10_vertices(self):
        # Exhaustive: every shape once, with every vertex listed, against
        # the oracle along each counting route.
        counts = []
        for n in range(1, 11):
            trees = [preorder_parents(levels) for levels in rooted_level_sequences(n)]
            counts.append(len(trees))
            for parent in trees:
                t = tree_from_parents(parent)
                naive = path_counts_naive(t)
                Pk, Pkv = as_rows(naive)
                assert prefix_counts(t, range(n)) == (Pk, Pkv)
                assert prefix_counts(t, reversed(range(n))) == (Pk, Pkv[::-1])
                assert _parent_prefix_counts(parent, range(n)) == (Pk, Pkv)
                assert path_counts_fast(t) == naive
        assert counts == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]

    def test_broken_bfs_order_fails_the_route_comparison(self, monkeypatch):
        # _parent_prefix_counts runs no BFS, so a fault in _bfs_order must
        # make some route of the exhaustive comparison above disagree with
        # the oracle, on every labelled tree with 3 to 7 vertices. The fault
        # re-parents the last vertex of the order, a leaf, to the root.
        bfs_order = tree_core._bfs_order

        def broken(t, root):
            order, parent = bfs_order(t, root)
            parent[order[-1]] = root
            return order, parent

        monkeypatch.setattr(tree_core, "_bfs_order", broken)
        trees = 0
        for n in range(3, 8):
            for tail in itertools.product(*(range(y) for y in range(1, n))):
                parent = [-1, *tail]
                t = tree_from_parents(parent)
                want = as_rows(path_counts_naive(t))
                Pk, reversed_rows = prefix_counts(t, reversed(range(n)))
                routes = (
                    prefix_counts(t, range(n)),
                    (Pk, reversed_rows[::-1]),
                    _parent_prefix_counts(parent, range(n)),
                    as_rows(path_counts_fast(t)),
                )
                assert any(route != want for route in routes), parent
                trees += 1
        assert trees == 2 + 6 + 24 + 120 + 720

    @pytest.mark.parametrize("v", (-1, 4))
    def test_prefix_counts_rejects_out_of_range(self, v):
        # -1 must not index from the end: it names no vertex.
        with pytest.raises(OutOfRangeError):
            prefix_counts(build_tree(4, [(0, 1), (1, 2), (2, 3)]), [0, v])


class TestChildlessVertices:
    # A vertex with no child gets its zero row without a walk or an unpack.

    def test_leaf_heavy_trees_match_the_oracle(self):
        for parent in leaf_heavy_parents():
            t = tree_from_parents(parent)
            n = t.n
            Pk, Pkv = as_rows(path_counts_naive(t))
            assert prefix_counts(t, range(n)) == (Pk, Pkv)
            assert _parent_prefix_counts(parent, range(n)) == (Pk, Pkv)
            # Start from a leaf, so the pass's root has degree one, and list
            # the leaf, the root and an inner vertex twice.
            leaf = max(v for v in range(n) if len(t.adj[v]) <= 1)
            vs = [leaf, *range(n), leaf, 0, n // 2, n // 2]
            want = (Pk, tuple(Pkv[v] for v in vs))
            assert prefix_counts(t, vs) == want, parent
            assert _parent_prefix_counts(parent, vs) == want, parent

    def test_rows_are_tuples_with_one_shared_zero(self):
        # Rows cannot be mutated, so every entry hands all childless
        # vertices one zero tuple, and path_counts_fast's table shares it
        # between pv and Pkv.
        star = [-1, *[0] * 6]
        broom = [*range(-1, 3), *[3] * 5]
        for parent in (star, broom):
            t = tree_from_parents(parent)
            naive = path_counts_naive(t)
            leaves = [v for v in range(1, t.n) if len(t.adj[v]) == 1]
            vs = [*range(t.n), leaves[0]]
            rt = RecursiveTree(tuple(parent))
            for Pk, rows in (
                prefix_counts(t, vs),
                _parent_prefix_counts(parent, vs),
                _parent_prefix_counts(rt.parent, vs),
            ):
                assert type(Pk) is type(rows) is tuple
                assert all(type(row) is tuple for row in rows)
                assert (Pk, rows) == (naive.Pk, tuple(naive.Pkv[v] for v in vs))
                assert len({id(rows[v]) for v in [*leaves, -1]}) == 1
            table = path_counts_fast(t)
            assert table == naive
            assert len({id(rows[v]) for rows in (table.pv, table.Pkv) for v in leaves}) == 1

    def test_sums_once_per_distinct_row_with_a_child(self, monkeypatch):
        # One unpack for the all-pairs histogram, then one prefix scan over
        # the distinct non-zero rows among the listed vertices with a child
        # in the pass rooted at 0; leaves and a root with one child cost
        # none. The distinct rows are counted on the oracle's.
        unpacked, scanned = [], []
        unpack, prefix_lanes = tree_core._unpack, tree_core._prefix_lanes

        def counted_unpack(x, lane, count):
            unpacked.append(count)
            return unpack(x, lane, count)

        def counted_scan(packed, lane, lo, hi):
            scanned.append(len(packed))
            return prefix_lanes(packed, lane, lo, hi)

        sizes = []
        for t in (sample_tree(300, random.Random(5)).tree(), make_broom(4, 20)[0]):
            with_child = [v for v in range(t.n) if len(t.adj[v]) > (v != 0)]
            assert 2 * len(with_child) < t.n
            pv = path_counts_naive(t).pv
            distinct = len({pv[v] for v in with_child if any(pv[v])})
            monkeypatch.setattr(tree_core, "_unpack", counted_unpack)
            monkeypatch.setattr(tree_core, "_prefix_lanes", counted_scan)
            unpacked.clear()
            scanned.clear()
            prefix_counts(t, range(t.n))
            monkeypatch.undo()
            assert len(unpacked) == 1 and scanned == [distinct]
            sizes.append((distinct, len(with_child)))
        # The recursive tree repeats rows; the broom's rows all differ, and
        # its handle's end, vertex 0, has a zero row.
        assert sizes == [(85, 105), (4, 5)]


class TestSharedRows:
    # Vertices whose rows are equal share one tuple from every entry, zero
    # rows included, and vertices whose rows differ never do.

    @staticmethod
    def routes(t):
        """Every vertex's rows from each entry, after checking each against
        the oracle: prefix_counts rooted at the first and at the last
        vertex, _parent_prefix_counts with and without rows_only, and the
        pv and Pkv of path_counts_fast."""
        naive = path_counts_naive(t)
        parent = tree_core._bfs_order(t, 0)[1]
        table = path_counts_fast(t)
        assert table == naive
        last_first = prefix_counts(t, reversed(range(t.n)))
        routes = [
            prefix_counts(t, range(t.n)),
            (last_first[0], last_first[1][::-1]),
            _parent_prefix_counts(parent, range(t.n)),
        ]
        for route in routes:
            assert route == as_rows(naive)
        Pk, cut = _parent_prefix_counts(parent, range(t.n), rows_only=True)
        assert Pk is None and cut == tuple(row[: len(cut[0])] for row in naive.Pkv)
        return [rows for _, rows in routes] + [cut, table.pv, table.Pkv]

    @staticmethod
    def assert_shared_exactly_when_equal(t, routes):
        # Over every vertex, each distinct row is one object.
        for rows in routes:
            assert len({id(row) for row in rows}) == len(set(rows))

    def test_mirror_rows_of_a_path(self):
        for n in range(2, 41):
            t = make_path(n)
            routes = self.routes(t)
            for rows in routes:
                for v in range(n + 1):
                    assert rows[v] is rows[n - v]
                assert len({id(row) for row in rows}) == n // 2 + 1
            self.assert_shared_exactly_when_equal(t, routes)

    @pytest.mark.parametrize("i, j", [(1, 1), (2, 3), (3, 5), (5, 2)])
    def test_twin_branches_of_gij(self, i, j):
        t, _ = make_gij(i, j)
        central = i * (j + 1) + 2
        twins = [
            (central + 2 * b * j + s, central + (2 * b + 1) * j + s)
            for b in range(i) for s in range(j)
        ]
        routes = self.routes(t)
        for rows in routes:
            assert all(rows[x] is rows[y] for x, y in twins)
        self.assert_shared_exactly_when_equal(t, routes)

    def test_brooms_and_recursive_trees(self):
        trees = [make_broom(5, 7)[0], make_double_broom(6, 4)[0]]
        rng = random.Random(37)
        trees += [sample_tree(rng.randrange(2, 120), rng).tree() for _ in range(30)]
        for t in trees:
            self.assert_shared_exactly_when_equal(t, self.routes(t))

    @settings(max_examples=30, deadline=None)
    @given(chain_heavy_parents())
    def test_chain_heavy_trees(self, parent):
        # Rows made by addition down a chain are keyed like the products.
        t = tree_from_parents(parent)
        self.assert_shared_exactly_when_equal(t, self.routes(t))


def assert_rows_only_match_naive(parent, vs, naive=path_counts_naive):
    """A rows-only count of the listed vertices against the oracle: no P_k,
    and every row cut one past the longest listed row's last non-zero
    length (lane 0 when all are zero), equal to the full row up to there,
    with the full row constant from there on. Two listed vertices cross
    where and as often as their full rows do. Returns the crossing count
    (0 unless two vertices are listed)."""
    table = naive(tree_from_parents(parent))
    Pk, rows = _parent_prefix_counts(parent, vs, rows_only=True)
    assert Pk is None
    last = max((l for v in vs for l, c in enumerate(table.pv[v]) if c), default=0)
    assert len(rows) == len(vs)
    for v, row in zip(vs, rows):
        assert type(row) is tuple
        assert row == table.Pkv[v][: last + 1], (parent, vs, v)
        assert set(table.Pkv[v][last:]) == {row[-1]}, (parent, vs, v)
    if len(vs) != 2:
        return 0
    (u, v), (cut_u, cut_v) = vs, rows
    report = count_crossings(cut_u[2:], cut_v[2:])
    assert report == count_crossings(table.Pkv[u][2:], table.Pkv[v][2:]), (parent, vs)
    return report.count


class TestRowsOnly:
    # Crossing trials and the tell search count their rows with no all-pairs
    # histogram and no P_k, cut at one shared length. Each family the engine
    # tests draw is counted this way against the oracle.

    def test_every_rooted_tree_up_to_8_vertices_and_every_pair(self):
        for n in range(1, 9):
            for levels in rooted_level_sequences(n):
                parent = preorder_parents(levels)
                table = path_counts_naive(tree_from_parents(parent))
                oracle = lambda _: table  # noqa: E731 (one oracle per tree)
                for u, v in itertools.product(range(n), repeat=2):
                    assert_rows_only_match_naive(parent, (u, v), oracle)
                assert_rows_only_match_naive(parent, range(n), oracle)
                assert_rows_only_match_naive(parent, (), oracle)

    @settings(max_examples=60, deadline=None)
    @given(chain_heavy_parents(), st.sampled_from(LISTINGS), st.randoms(use_true_random=False))
    def test_chain_heavy_trees_hypothesis(self, parent, listing, rng):
        assert_rows_only_match_naive(parent, listed(listing, len(parent), rng))
        assert_rows_only_match_naive(parent, [rng.randrange(len(parent)) for _ in range(2)])

    @pytest.mark.parametrize("listing", LISTINGS)
    def test_families_in_every_listing(self, listing):
        rng = random.Random(41)
        trees = [
            [*range(-1, 15)],
            family_parents(make_broom(12, 5)[0]),
            family_parents(make_double_broom(10, 3)[0]),
            family_parents(make_gij(3, 4)[0]),
            subdivided([-1, 0, 0, 0, 0], [7, 1, 4, 9]),
            *(family_parents(make_tell(l)[0]) for l in (1, 2, 3, 4)),
        ]
        for parent in trees:
            assert_rows_only_match_naive(parent, listed(listing, len(parent), rng))

    @pytest.mark.parametrize("l", (1, 2, 3, 4, 5))
    def test_tell_pair_keeps_its_crossings(self, l):
        # u = 0 and v = 2l: the pair the tell search counts, whose rows
        # cross at least 2l - 3 times (the tell suite's bound).
        parent = family_parents(make_tell(l)[0])
        assert assert_rows_only_match_naive(parent, (0, 2 * l)) >= 2 * l - 3

    def test_recursive_trees_at_the_trial_pairs(self):
        # The pairs the crossing kinds list, on trees of n = 3 up, including
        # two leaves; some pairs must cross, so the check is not vacuous.
        rng = random.Random(43)
        crossed = 0
        for n in (3, 4, 5, 8, 13, 30, 60, 120):
            for _ in range(12):
                parent = sample_tree(n, rng).parent
                for pair in ((0, 1), (n - 2, n - 1), (n // 2 - 1, n // 2)):
                    crossed += assert_rows_only_match_naive(parent, pair) > 0
        assert crossed

    def test_pairs_with_no_child(self):
        # Neither listed vertex has a child: both rows are the one lane 0.
        star = [-1, *[0] * 6]
        broom = [*range(-1, 3), *[3] * 5]
        for parent in (star, broom, [-1], [-1, 0], [-1, 0, 0]):
            n = len(parent)
            leaves = [v for v in range(n) if v not in parent]
            pairs = [(leaves[0], leaves[-1]), (leaves[-1], leaves[-1])]
            for pair in pairs:
                assert_rows_only_match_naive(parent, pair)
                assert _parent_prefix_counts(parent, pair, rows_only=True) == (None, ((0,), (0,)))
            # A leaf beside its parent, which has a child: the leaf's zero
            # row takes the parent's row's length.
            if n > 1:
                assert_rows_only_match_naive(parent, (leaves[0], parent[leaves[0]]))

    @pytest.mark.parametrize("pair", [(0, 1), (150, 151), (361, 362)])
    def test_32_bit_lanes(self, pair):
        parent = family_parents(make_double_broom(300, 35)[0])
        assert _lane_bits(len(parent)) == 32
        assert_rows_only_match_naive(parent, pair, cached_naive)

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(1, 39), st.sampled_from(("attachment", "uniform")),
        st.sampled_from(LISTINGS), st.randoms(use_true_random=False),
    )
    def test_64_bit_lanes(self, n, kind, listing, rng):
        # From n = 92 683 the engine counts at 64-bit lanes. Small branching
        # trees forced to the wider lanes count as at their own 16 bits,
        # with and without rows_only.
        if kind == "attachment":
            parent = sample_tree(n, rng).parent
        else:
            parent = [-1, *(rng.randrange(y) for y in range(1, n))]
        vs = listed(listing, n, rng)
        table = path_counts_naive(tree_from_parents(parent))
        full = (table.Pk, tuple(table.Pkv[v] for v in vs))
        cut = _parent_prefix_counts(parent, vs, rows_only=True)
        assert _parent_prefix_counts(parent, vs) == full
        assert_rows_only_match_naive(parent, vs, lambda _: table)
        for lane in (32, 64):
            assert tree_core._rows(lane, range(n), parent, vs) == full, lane
            assert tree_core._rows(lane, range(n), parent, vs, rows_only=True) == cut, lane


class TestLaneWidth:
    @pytest.mark.parametrize("n, lane", [
        (1, 16), (181, 16), (362, 16), (363, 32), (46340, 32), (92682, 32),
        (92683, 64), (3_037_000_499, 64), (6_074_001_000, 64),
    ])
    def test_steps(self, n, lane):
        # C(n, 2) < 2**lane, and past 16 bits C(n, 2) does not fit in the
        # next narrower lane: checked on both sides of each step.
        assert n * (n - 1) // 2 < 2**lane
        assert lane == 16 or n * (n - 1) // 2 >= 2 ** (lane // 2)
        assert _lane_bits(n) == lane

    def test_rejects_pairs_beyond_64_bits(self):
        assert 6_074_001_001 * 6_074_001_000 // 2 >= 2**64
        with pytest.raises(OutOfRangeError, match=r"C\(n, 2\) must fit in 64 bits"):
            _lane_bits(6_074_001_001)

    def test_format_codes_match_lane_widths(self):
        for lane, code in tree_core._LANE_FORMATS.items():
            assert array(code).itemsize * 8 == lane

    def test_top_bit_of_the_top_lane(self):
        # A star on 362 vertices has C(361, 2) = 64_980 >= 2**15 pairs at
        # distance 2, so the top lane of its 16-bit all-pairs histogram has
        # its top bit set; bit_length() // lane would read d = 3.
        parent = [-1, *[0] * 361]
        t = tree_from_parents(parent)
        naive = path_counts_naive(t)
        assert _lane_bits(t.n) == 16 and naive.d == 2 and naive.p[2] >= 2**15
        assert path_counts_fast(t) == naive
        for vs in (range(t.n), [361, 0, 5]):
            want = (naive.Pk, tuple(naive.Pkv[v] for v in vs))
            assert prefix_counts(t, vs) == want
            assert _parent_prefix_counts(parent, vs) == want

    @given(
        st.sampled_from(sorted(tree_core._LANE_FORMATS)),
        st.lists(st.lists(st.integers(0, 2**16 - 1), min_size=1, max_size=40), max_size=5),
        st.integers(0, 45), st.integers(0, 45),
    )
    @settings(max_examples=300, deadline=None)
    def test_prefix_lanes_are_running_sums(self, lane, rows, a, b):
        # Each row's lanes sum to at most the lane's top value, as a row of
        # a tree's counts does, whose sum is at most C(n, 2); the top value
        # itself is reached. Lanes past a row's own end repeat its sum.
        lo, hi = min(a, b), max(a, b)
        top = 2**lane - 1
        rows = [[x * top // max(sum(row), top) for x in row] for row in rows]
        if rows:
            rows[0][-1] += top - sum(rows[0])
        packed = [tree_core._pack(row, lane) for row in rows]
        want = []
        for row in rows:
            sums = list(itertools.accumulate(row + [0] * (hi + 1 - len(row))))
            want += sums[lo:hi + 1]
        assert tree_core._prefix_lanes(packed, lane, lo, hi).tolist() == want

    def test_rejects_huge_n_before_any_work(self):
        # adj is empty: any pass over the tree would raise IndexError.
        t = Tree(n=6_074_001_001, adj=())
        with pytest.raises(OutOfRangeError):
            path_counts_fast(t)
        for vertices in ((), (0,)):
            with pytest.raises(OutOfRangeError):
                prefix_counts(t, vertices)


class TestProfile:
    def test_entries_in_unit_interval(self):
        rng = random.Random(11)
        for _ in range(10):
            t = random_tree(rng.randrange(4, 20), rng)
            if diameter(t) < 2:
                continue
            for p in all_profiles(t):
                assert all(Fraction(0) <= e <= Fraction(1) for e in p.entries)

    def test_leaf_profile_is_zero(self):
        t = build_tree(11, FAN_EDGES)
        leaf = profile(t, 0)
        assert all(e == 0 for e in leaf.entries)

    def test_symmetric_vertices_share_profile(self):
        t = build_tree(11, FAN_EDGES)
        p5, p6, p7 = (profile(t, v) for v in (5, 6, 7))
        assert p5.entries == p6.entries == p7.entries

    def test_counts_only_its_row(self, monkeypatch):
        trees = [make_path(40), make_broom(5, 30)[0], make_gij(3, 5)[0], make_tell(3)[0]]
        trees += [sample_tree(n, random.Random(n)).tree() for n in (3, 17, 60)]
        want = [[profile(t, v, path_counts_fast(t)) for v in range(t.n)] for t in trees]
        monkeypatch.setattr(tree_core, "path_counts_fast", None)  # a call raises
        assert [[profile(t, v) for v in range(t.n)] for t in trees] == want

    def test_two_vertex_tree_has_no_profile(self):
        for t in (build_tree(1, []), build_tree(2, [(0, 1)])):
            message = f"^diameter {t.n - 1} < 2: profile is empty$"
            for table in (None, path_counts_fast(t)):
                with pytest.raises(DiameterTooSmallError, match=message):
                    profile(t, 0, table)
                with pytest.raises(OutOfRangeError):  # checked before the diameter
                    profile(t, t.n, table)

    def test_vertex_out_of_range(self):
        t = build_tree(3, [(0, 1), (1, 2)])
        for v, table in itertools.product((-1, 3), (None, path_counts_fast(t))):
            with pytest.raises(OutOfRangeError, match=f"^vertex {v} out of range for n=3$"):
                profile(t, v, table)


class TestTreeIo:
    def test_roundtrip(self):
        rng = random.Random(12)
        for _ in range(10):
            t = random_tree(rng.randrange(2, 20), rng)
            assert read_tree(write_tree(t).splitlines()) == t

    def test_comments_ignored(self):
        text = "# a comment\n3\n0 1\n# another\n1 2\n"
        t = read_tree(text.splitlines())
        assert t.n == 3 and diameter(t) == 2

    def test_empty_file_rejected(self):
        with pytest.raises(WrongEdgeCountError):
            read_tree(["# nothing"])

    def test_indented_comment_and_blank_lines_skipped(self):
        t = read_tree(["  # indented\n", "\t\n", "3\n", "0 1\n", "#1 2\n", " 1\t2 \n"])
        assert t == build_tree(3, [(0, 1), (1, 2)])

    # (file, error class, message): the first faulty line or edge in file
    # order wins, and a line is quoted as written, stripped at its ends.
    FAULTS = (
        (["4", "0 1", "1 0", "2 9"], DuplicateEdgeError, "duplicate edge (0, 1)"),
        (["4", "0 1", "2 9", "1 0"], OutOfRangeError, "edge (2, 9) out of range for n=4"),
        (["4", "2 2", "1 0", "1 0"], SelfLoopError, "self-loop at vertex 2"),
        (["4", "3 1", "0 2", "1 3"], DuplicateEdgeError, "duplicate edge (1, 3)"),
        (["3", "0 1", " 1\t 2  x \n"], BadSpecError,
         "line 3: expected 2 integer(s), got '1\\t 2  x'"),
        (["0", "0 1", "1"], BadSpecError, "line 3: expected 2 integer(s), got '1'"),
        (["3 3", "0 1"], BadSpecError, "line 1: expected 1 integer(s), got '3 3'"),
        (["0"], OutOfRangeError, "vertex count must be >= 1, got 0"),
        (["3", "0 1"], WrongEdgeCountError, "tree on 3 vertices needs 2 edges, got 1"),
        # n - 1 edges with a cycle: away from vertex 0, then through it
        (["5", "0 1", "2 3", "3 4", "4 2"], DisconnectedError, "graph is not connected"),
        (["4", "0 1", "1 2", "2 0"], DisconnectedError, "graph is not connected"),
        # a negative id must not index adjacency from the end (0-2-1 here)
        (["3", "0 -1", "1 2"], OutOfRangeError, "edge (0, -1) out of range for n=3"),
        (["4000000000", "0 1"], WrongEdgeCountError,
         "tree on 4000000000 vertices needs 3999999999 edges, got 1"),
        (["3", "0 7", "1 x"], BadSpecError, "line 3: expected 2 integer(s), got '1 x'"),
        (["3", "0 1", "0 x"], BadSpecError, "line 3: expected 2 integer(s), got '0 x'"),
    )

    @pytest.mark.parametrize("lines, error, message", FAULTS)
    def test_fault_class_and_message(self, lines, error, message):
        with pytest.raises(error) as info:
            read_tree(lines)
        assert type(info.value) is error and str(info.value) == message


def reference_read_tree(lines):
    """read_tree as it was before the bulk parse: every line parsed on its
    own, then every edge checked in order before a BFS from vertex 0."""
    data = [
        (i, line, fields)
        for i, line in enumerate(lines, start=1)
        if (fields := line.split()) and not fields[0].startswith("#")
    ]
    if not data:
        raise WrongEdgeCountError("empty tree file")
    (n,) = reference_line_ints(*data[0], 1)
    return reference_build_tree(n, [reference_line_ints(*row, 2) for row in data[1:]])


def reference_line_ints(lineno, line, fields, count):
    try:
        values = tuple(map(int, fields))
    except ValueError:
        values = ()
    if len(values) != count:
        raise BadSpecError(f"line {lineno}: expected {count} integer(s), got {line.strip()!r}")
    return values


def reference_build_tree(n, edges):
    if n < 1:
        raise OutOfRangeError(f"vertex count must be >= 1, got {n}")
    edges = list(edges)
    if len(edges) != n - 1:
        raise WrongEdgeCountError(f"tree on {n} vertices needs {n - 1} edges, got {len(edges)}")
    adj = [[] for _ in range(n)]
    seen = set()
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


def outcome(read, lines):
    """What a reader makes of a file: its Tree, or its error's class and text."""
    try:
        return read(lines)
    except bcprof.BcprofError as error:
        return type(error), str(error)


def messy_tree_file(t, rng):
    """t written as a user might: edges shuffled, endpoints flipped at
    random, CRLF or LF endings, stray blank, whitespace and comment lines."""
    edges = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in t.edges()]
    rng.shuffle(edges)
    lines = [str(t.n), *(rng.choice((" ", "\t", "  ")).join(map(str, e)) for e in edges)]
    for _ in range(rng.randrange(4)):
        stray = rng.choice(("", "  ", "\t", "# note", "  #x 1 2", "#"))
        lines.insert(rng.randrange(len(lines) + 1), stray)
    end = rng.choice(("\n", "\r\n"))
    return [line + end for line in lines]


def single_line_mutations(lines, n):
    """Every file one edit away: a line dropped, repeated or swapped with the
    next, or one token replaced by -1, n, x, its edge's other endpoint, or
    vertex 0 or 1 (which makes repeats and cycles)."""
    for i in range(len(lines)):
        yield lines[:i] + lines[i + 1:]
        yield lines[:i + 1] + lines[i:]
        if i + 1 < len(lines):
            yield lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]
        fields = lines[i].split()
        for j in range(len(fields)):
            other = fields[1 - j] if len(fields) == 2 else fields[j]
            for token in ("-1", str(n), "x", other, "0", "1"):
                edited = fields[:j] + [token] + fields[j + 1:]
                yield lines[:i] + [" ".join(edited) + "\n"] + lines[i + 1:]


class TestReadTreeAgainstReference:
    """The bulk reader against the line-by-line reader it replaced."""

    def test_same_tree_on_messy_files(self):
        rng = random.Random(30)
        for n in (*range(1, 12), 50, 200, 363):
            for _ in range(3):
                t = random_tree(n, rng)
                lines = messy_tree_file(t, rng)
                assert read_tree(lines) == reference_read_tree(lines) == t

    def test_same_error_on_every_single_line_mutation(self):
        rng = random.Random(31)
        mutations = 0
        for n in (1, 2, 3, 5, 8, 13):
            for _ in range(3):
                lines = messy_tree_file(random_tree(n, rng), rng)
                for mutated in single_line_mutations(lines, n):
                    assert outcome(read_tree, mutated) == outcome(reference_read_tree, mutated)
                    mutations += 1
        assert mutations > 1000

    def test_same_outcome_on_every_small_edge_list(self):
        # Every list of n - 1 edges: for n <= 4 with ids in -1..n, so out of
        # range at both ends, and for n = 5 with each edge one of the 15
        # pairs u <= v of 0..4. Self-loops, repeats and cycles all occur.
        lists = 0
        for n in range(1, 6):
            if n < 5:
                edges = list(itertools.product(range(-1, n + 1), repeat=2))
            else:
                edges = list(itertools.combinations_with_replacement(range(n), 2))
            build, reference = (functools.partial(f, n) for f in (build_tree, reference_build_tree))
            for edge_list in itertools.product(edges, repeat=n - 1):
                assert outcome(build, edge_list) == outcome(reference, edge_list), (n, edge_list)
                lists += 1
        assert lists == 1 + 4**2 + 5**4 + 6**6 + 15**4 == 97923
