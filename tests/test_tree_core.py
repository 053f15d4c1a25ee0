"""Tree construction, BFS, and exact path counting (fast vs naive oracle)."""

import itertools
import os
import random
import subprocess
import sys
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
    SelfLoopError,
    Tree,
    WrongEdgeCountError,
    all_profiles,
    bfs_distances,
    build_tree,
    diameter,
    path_counts_fast,
    path_counts_naive,
    prefix_counts,
    profile,
    read_tree,
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


# Sizes on both sides of the packed lane-width step between n=181 and n=182.
LANE_STEP = st.sampled_from((181, 182))


def as_lists(table):
    """A table's (Pk, Pkv) in prefix_counts's shape, for every vertex."""
    return list(table.Pk), [list(row) for row in table.Pkv]


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


class TestTreeFromParents:
    @pytest.mark.parametrize("parent", (
        [-1, 0, 2],  # parent[y] == y
        [-1, 0, 3, 1],  # parent[y] > y
        [-1, -1],  # a second root
        [-1, 0, -2],
        [0, 0],  # parent[0] is not -1
        [],
    ))
    def test_rejects_bad_entries(self, parent):
        with pytest.raises(OutOfRangeError):
            tree_from_parents(parent)

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
        assert prefix_counts(t, range(t.n)) == as_lists(naive)

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_prefix_counts_equals_naive_hypothesis(self, data):
        t = draw_tree(data, st.one_of(LANE_STEP, st.integers(1, 40)))
        naive = path_counts_naive(t)
        assert prefix_counts(t, range(t.n)) == as_lists(naive)
        # The pass is rooted at the first listed vertex, so list one other
        # than 0 first; the others are reached down the chain from it.
        first = data.draw(st.integers(min(1, t.n - 1), t.n - 1))
        vs = [first] + data.draw(st.lists(st.integers(0, t.n - 1), min_size=1, max_size=4))
        assert prefix_counts(t, vs) == (list(naive.Pk), [list(naive.Pkv[v]) for v in vs])
        for v in (-1, t.n):
            with pytest.raises(OutOfRangeError):
                prefix_counts(t, [v])

    @pytest.mark.parametrize("n", (1, 2))
    def test_tiny_trees(self, n):
        t = build_tree(n, [(0, 1)][: n - 1])
        naive = path_counts_naive(t)
        assert list(naive.p) == [0] * n
        assert path_counts_fast(t) == naive
        assert prefix_counts(t, range(n)) == {1: ([0], [[0]]), 2: ([0, 0], [[0, 0], [0, 0]])}[n]

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
        assert prefix_counts(t, [v]) == (list(table.Pk), [list(table.Pkv[v])])

    def test_prefix_counts_matches_table(self):
        rng = random.Random(9)
        for _ in range(10):
            t = random_tree(rng.randrange(3, 20), rng)
            table = path_counts_fast(t)
            assert prefix_counts(t, range(t.n)) == as_lists(table)
            # Rows follow the listed order, repeats included.
            assert prefix_counts(t, [2, 0, 2])[1] == [list(table.Pkv[v]) for v in (2, 0, 2)]

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
        assert prefix_counts(t, [8, 2, 5]) == (list(table.Pk), [list(table.Pkv[v]) for v in (8, 2, 5)])
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
                Pk, Pkv = as_lists(naive)
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
                want = as_lists(path_counts_naive(t))
                Pk, reversed_rows = prefix_counts(t, reversed(range(n)))
                routes = (
                    prefix_counts(t, range(n)),
                    (Pk, reversed_rows[::-1]),
                    _parent_prefix_counts(parent, range(n)),
                    as_lists(path_counts_fast(t)),
                )
                assert any(route != want for route in routes), parent
                trees += 1
        assert trees == 2 + 6 + 24 + 120 + 720

    @pytest.mark.parametrize("v", (-1, 4))
    def test_prefix_counts_rejects_out_of_range(self, v):
        # -1 must not index from the end: it names no vertex.
        with pytest.raises(OutOfRangeError):
            prefix_counts(build_tree(4, [(0, 1), (1, 2), (2, 3)]), [0, v])


class TestLaneWidth:
    @pytest.mark.parametrize("n, lane", [
        (1, 16), (181, 16), (182, 32), (46340, 32), (46341, 64), (3_037_000_499, 64),
    ])
    def test_steps(self, n, lane):
        # n**2 must fit in lane - 1 bits, on both sides of each step.
        assert (n * n).bit_length() < lane
        assert _lane_bits(n) == lane

    def test_rejects_n_squared_beyond_63_bits(self):
        with pytest.raises(OutOfRangeError):
            _lane_bits(3_037_000_500)

    def test_rejects_huge_n_before_any_work(self):
        # adj is empty: any pass over the tree would raise IndexError.
        t = Tree(n=4 * 10**9, adj=())
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

    def test_two_vertex_tree_has_no_profile(self):
        t = build_tree(2, [(0, 1)])
        with pytest.raises(DiameterTooSmallError):
            profile(t, 0)

    def test_vertex_out_of_range(self):
        t = build_tree(3, [(0, 1), (1, 2)])
        for v in (-1, 3):
            with pytest.raises(OutOfRangeError, match=f"^vertex {v} out of range for n=3$"):
                profile(t, v)


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
    )

    @pytest.mark.parametrize("lines, error, message", FAULTS)
    def test_fault_class_and_message(self, lines, error, message):
        with pytest.raises(error) as info:
            read_tree(lines)
        assert type(info.value) is error and str(info.value) == message
