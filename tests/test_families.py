"""Tree families and their closed forms against the brute-force oracle."""

import random
from fractions import Fraction

import pytest

from bcprof import tree_core, tree_families
from bcprof import (
    OddMError,
    OutOfDomainError,
    OutOfRangeError,
    OutOfTabulatedRangeError,
    SearchCapExceededError,
    build_tree,
    closed_form_gij_pk,
    closed_form_gij_Pk,
    closed_form_gij_Pkv,
    closed_form_path_bck,
    closed_form_path_Pkv,
    count_crossings,
    diameter,
    make_broom,
    make_double_broom,
    make_gij,
    make_path,
    make_tell,
    path_counts_naive,
    prefix_counts,
    tabulated_gij_k_values,
    tree_from_parents,
)
from bcprof.tree_core import _parent_prefix_counts
from bcprof.verify import run_check


class TestMakers:
    def test_path(self):
        t = make_path(5)
        assert t.n == 6 and diameter(t) == 5
        with pytest.raises(OutOfRangeError):
            make_path(0)

    def test_broom(self):
        t, center = make_broom(4, 3)
        assert t.n == 8 and len(t.adj[center]) == 4
        assert diameter(t) == 5
        with pytest.raises(OutOfRangeError):
            make_broom(0, 3)

    def test_double_broom(self):
        t, middle = make_double_broom(4, 3)
        assert t.n == 11 and middle == 2
        assert diameter(t) == 6
        with pytest.raises(OddMError):
            make_double_broom(3, 3)

    def test_gij_size_and_diameter(self):
        for i, j in ((3, 5), (4, 6), (5, 7)):
            t, v = make_gij(i, j)
            assert v == 1
            assert t.n == i * (j + 1) + 3 + 2 * i * j
            assert diameter(t) == i * j + i + j - 1

    def test_gij_reference_instance(self):
        t, _ = make_gij(3, 5)
        assert t.n == 51
        assert path_counts_naive(t).p[2] == 58


class TestMakersAsParentArrays:
    """Every maker builds through tree_from_parents; the Trees must equal
    what build_tree makes of the same edges."""

    @staticmethod
    def assert_same_as_build_tree(t):
        assert t == build_tree(t.n, t.edges())

    def test_path(self):
        for n in range(1, 40):
            self.assert_same_as_build_tree(make_path(n))

    def test_brooms(self):
        for m in range(1, 9):
            for n in range(1, 6):
                self.assert_same_as_build_tree(make_broom(m, n)[0])
                if m % 2 == 0:
                    self.assert_same_as_build_tree(make_double_broom(m, n)[0])

    def test_gij(self):
        for i in range(1, 6):
            for j in range(1, 8):
                self.assert_same_as_build_tree(make_gij(i, j)[0])

    @pytest.mark.parametrize("l", range(1, 9))
    def test_tell(self, l):
        self.assert_same_as_build_tree(make_tell(l)[0])

    def test_tell_search_builds_no_tree(self, monkeypatch):
        # The search counts each candidate straight from its parent array:
        # no build_tree and no BFS order.
        want = make_tell(6)

        def boom(*args):
            raise AssertionError("the tell search built a Tree or ran a BFS")

        monkeypatch.setattr(tree_core, "build_tree", boom)
        monkeypatch.setattr(tree_families, "build_tree", boom, raising=False)
        monkeypatch.setattr(tree_core, "_bfs_order", boom)
        assert make_tell(6) == want


class TestPathClosedForms:
    def test_reference_value(self):
        assert closed_form_path_bck(4, 2, 2) == Fraction(1, 3)

    def test_matches_oracle(self):
        for n in range(2, 26):
            table = path_counts_naive(make_path(n))
            for i in range(0, n // 2 + 1):
                for k in range(2, n + 1):
                    assert closed_form_path_Pkv(n, i, k) == table.Pkv[i][k]
                    assert closed_form_path_bck(n, i, k) == Fraction(
                        table.Pkv[i][k], table.Pk[k]
                    )

    def test_symmetry_covers_other_half(self):
        # vertex i and n-i are mirror images, so i <= n/2 loses nothing
        n = 9
        table = path_counts_naive(make_path(n))
        for i in range(0, n + 1):
            assert table.Pkv[i] == table.Pkv[n - i]

    def test_domain_errors(self):
        with pytest.raises(OutOfDomainError):
            closed_form_path_Pkv(10, 6, 4)  # i > n/2
        with pytest.raises(OutOfDomainError):
            closed_form_path_Pkv(10, 2, 11)  # k > n


class TestGijClosedForms:
    @pytest.mark.parametrize("i", (3, 4))
    @pytest.mark.parametrize("j", (5, 6, 7))
    def test_pk_rows_match_oracle(self, i, j):
        t, _ = make_gij(i, j)
        table = path_counts_naive(t)
        ks = tabulated_gij_k_values(i, j)
        assert ks == sorted(set(ks))
        for k in ks:
            assert closed_form_gij_pk(i, j, k) == table.p[k], (i, j, k)

    @pytest.mark.parametrize("i", (3, 4))
    @pytest.mark.parametrize("j", (5, 6, 7))
    def test_prefix_rows_match_oracle(self, i, j):
        t, v = make_gij(i, j)
        table = path_counts_naive(t)
        for r in range(2, i):
            ks = tuple(r * (j + 1) + off for off in (2, 3, 4))
            assert closed_form_gij_Pk(i, j, r) == tuple(table.Pk[k] for k in ks)
            assert closed_form_gij_Pkv(i, j, r) == tuple(table.Pkv[v][k] for k in ks)

    def test_untabulated_k_rejected(self):
        with pytest.raises(OutOfTabulatedRangeError):
            closed_form_gij_pk(3, 5, 200)

    def test_small_j_rejected(self):
        with pytest.raises(OutOfDomainError):
            closed_form_gij_pk(3, 4, 2)


class TestTell:
    def test_minimal_search_reference_counts(self):
        _, _, _, choice = make_tell(3)
        assert choice.a == (2, 4, 1)
        assert choice.b == (3, 2, 1)

    @pytest.mark.parametrize("l", (1, 2, 3))
    def test_alternation(self, l):
        t, u, v, _ = make_tell(l)
        _, (Pu, Pv) = prefix_counts(t, (u, v))
        for i in range(1, l):
            assert Pu[2 * i] > Pv[2 * i]
            assert Pv[2 * i + 1] > Pu[2 * i + 1]

    def test_u_v_distance(self):
        t, u, v, _ = make_tell(2)
        from bcprof import bfs_distances

        assert bfs_distances(t, u)[v] == 4

    def test_minimal_search_over_cap(self, monkeypatch):
        monkeypatch.setattr(tree_families, "SEARCH_CAP", 1)
        with pytest.raises(SearchCapExceededError, match=r"^no a\[0\] below 1 works at k=2$"):
            make_tell(3)

    def test_bad_l(self):
        with pytest.raises(OutOfRangeError):
            make_tell(0)


class TestTellRule:
    """The one leaf rule, checked on whole trees counted by prefix_counts,
    independently of the search's rows-only counts and extrapolation."""

    L = range(1, 11)

    @staticmethod
    def margin(l, leaves, k):
        """The margin at k of the side that must lead there: u at even k."""
        parent, u, v = tree_families._tell_parents(l, leaves)
        _, (Pu, Pv) = prefix_counts(tree_from_parents(parent), (u, v))
        return Pv[k] - Pu[k] if k % 2 else Pu[k] - Pv[k]

    @pytest.mark.parametrize("l", L)
    def test_margins_positive_and_counts_minimal(self, l):
        t, _, _, choice = make_tell(l)
        leaves = [x for pair in zip(choice.a, choice.b) for x in pair]
        assert tree_from_parents(tree_families._tell_parents(l, leaves)[0]) == t
        for k in range(2, 2 * l):
            assert self.margin(l, leaves, k) > 0, k
            if leaves[k - 2] > 1:
                fewer = list(leaves)
                fewer[k - 2] -= 1
                assert self.margin(l, fewer, k) <= 0, k

    @pytest.mark.parametrize("l, crossings", zip(L, (0, 1, 3, 7, 7, 9, 11, 15, 15, 19)))
    def test_crossings(self, l, crossings):
        t, u, v, _ = make_tell(l)
        _, (Pu, Pv) = prefix_counts(t, (u, v))
        got = count_crossings(Pu[2:], Pv[2:]).count
        assert got == crossings and got >= 2 * l - 3

    def test_verify_suite_to_l_10(self):
        report = run_check("tell", 10)
        assert report.passed and len(report.cases) == 10


class TestTellSearchCounts:
    """The tell search counts each branch once, at one leaf, and extrapolates
    the margin row from the algebra these tests check."""

    @staticmethod
    def margins(l, leaves):
        """P_k(u) - P_k(v) at even k, P_k(v) - P_k(u) at odd k, for k <= 2l + 1."""
        parent, u, v = tree_families._tell_parents(l, leaves)
        _, (Pu, Pv) = _parent_prefix_counts(parent, (u, v))
        return [(-1) ** k * (Pu[k] - Pv[k]) for k in range(2 * l + 2)]

    @pytest.mark.parametrize("l", range(1, 9))
    def test_margins_affine_but_for_pairs_on_u(self, l):
        # Second difference in leaves[j]: zero for every branch off a handle
        # that is neither u nor v; for the leaves on u, one path through u
        # per pair at every k >= 2, so +1 at even k and -1 at odd k.
        on_u = [0, 0, *((-1) ** k for k in range(2, 2 * l + 2))]
        rng = random.Random(l)
        for _ in range(5):
            leaves = [rng.randint(0, 4) for _ in range(2 * l)]
            for j in range(2 * l):
                rows = []
                for extra in range(3):
                    trial = list(leaves)
                    trial[j] += extra
                    rows.append(self.margins(l, trial))
                second = [a - 2 * b + c for a, b, c in zip(*rows)]
                assert second == (on_u if j == 0 else [0] * (2 * l + 2)), (leaves, j)

    @pytest.mark.parametrize("l", range(1, 9))
    def test_one_count_per_branch(self, l, monkeypatch):
        calls = []

        def counting(parent, vertices, rows_only=False):
            calls.append(vertices)
            return _parent_prefix_counts(parent, vertices, rows_only)

        monkeypatch.setattr(tree_families, "_parent_prefix_counts", counting)
        make_tell(l)
        assert len(calls) == 2 * l + 1

    def test_the_search_reads_no_all_pairs_lengths(self, monkeypatch):
        # The search reads two rows per count, counted with no all-pairs
        # histogram, so the stage that reads p_l and d off it never runs.
        def no_lengths(*args):
            raise AssertionError("the search read the all-pairs lengths")

        want = [make_tell(l) for l in range(1, 9)]
        monkeypatch.setattr(tree_core, "_diameter_and_lengths", no_lengths)
        assert [make_tell(l) for l in range(1, 9)] == want
        # The full route still reaches it.
        with pytest.raises(AssertionError, match="all-pairs lengths"):
            prefix_counts(want[0][0], (0, 2))
