"""Worst-case tree families and their closed-form path counts.

Families: simple paths, brooms, double brooms, the dip construction
(central path with paired branches), and the crossing construction (two
sets of leaf-tipped brooms hanging off a u-v path).

Every family is numbered so that each vertex after 0 hangs off an older
one, so each is built as a 0-based parent array (parent[0] = -1 and
parent[y] < y) and turned into a Tree by tree_from_parents.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .errors import (
    BadSpecError,
    OddMError,
    OutOfDomainError,
    OutOfRangeError,
    OutOfTabulatedRangeError,
    SearchCapExceededError,
)
from .tree_core import Tree, _parent_prefix_counts, tree_from_parents

SEARCH_CAP = 10**9


def make_path(n: int) -> Tree:
    """Path with n edges, vertices 0..n."""
    if n < 1:
        raise OutOfRangeError(f"path length must be >= 1, got {n}")
    return tree_from_parents(range(-1, n))


def make_broom(m: int, n: int) -> tuple[Tree, int]:
    """Path of length m with n leaves attached to endpoint m.

    Returns (tree, center) where center is the endpoint carrying the leaves.
    """
    if m < 1 or n < 1:
        raise OutOfRangeError(f"broom needs m >= 1 and n >= 1, got m={m}, n={n}")
    return tree_from_parents([*range(-1, m), *[m] * n]), m


def make_double_broom(m: int, n: int) -> tuple[Tree, int]:
    """Path of length m (m even) with n leaves at both endpoints.

    Returns (tree, middle) where middle is the central path vertex.
    """
    if m < 2:
        raise OutOfRangeError(f"double broom needs m >= 2, got {m}")
    if m % 2 != 0:
        raise OddMError(f"double broom needs even m, got {m}")
    if n < 1:
        raise OutOfRangeError(f"double broom needs n >= 1, got {n}")
    return tree_from_parents([*range(-1, m), *[0] * n, *[m] * n]), m // 2


def make_gij(i: int, j: int) -> tuple[Tree, int]:
    """Dip construction: central path of length i(j+1)+2 with 2i branches.

    Two length-j branches are attached at every central position congruent
    to 3 mod (j+1). The designated vertex is central position 1.
    """
    if i < 1 or j < 1:
        raise OutOfRangeError(f"construction needs i >= 1 and j >= 1, got i={i}, j={j}")
    parent = list(range(-1, i * (j + 1) + 2))
    for idx in range(i):
        attach = 3 + idx * (j + 1)
        for _ in range(2):
            _hang_path(parent, attach, j)
    return tree_from_parents(parent), 1


def _hang_path(parent: list[int], at: int, edges: int) -> int:
    """Append a path of `edges` edges hanging off vertex `at`; return its far
    end (`at` itself for no edges). The new vertices are numbered outward."""
    if edges == 0:
        return at
    first = len(parent)
    parent.append(at)
    parent.extend(range(first, first + edges - 1))
    return first + edges - 1


@dataclass(frozen=True)
class TellChoice:
    """Leaf counts of the crossing construction: a[i] tips u's branch with
    2i edges, b[i] tips v's branch with 2i + 1 edges."""

    a: tuple[int, ...]
    b: tuple[int, ...]
    strategy: str


def _tell_parents(l: int, leaves: list[int]) -> tuple[list[int], int, int]:
    """(parent array, u, v) of the crossing construction for given leaf counts.

    u = 0 and v = 2l sit on a central path of length 2l. Branch j, for
    j = 0..2l-1, hangs off u for even j and off v for odd j: a path of j
    edges ending at a handle with leaves[j] leaves (the handle is u itself
    for j = 0). Zero leaf counts are allowed (partial trees during search).
    """
    u, v = 0, 2 * l
    parent = list(range(-1, 2 * l))
    for j, count in enumerate(leaves):
        handle = _hang_path(parent, v if j % 2 else u, j)
        parent.extend([handle] * count)
    return parent, u, v


def _tell_minimal_search(l: int) -> list[int]:
    """Branch by branch, the smallest positive leaf count that makes the
    branch's side lead at its constraint.

    Constraint k tunes branch k - 2, which hangs off the vertex that must
    lead at k: u for even k, v for odd k. At k = 2l, the u-v distance, there
    is no constraint and branch 2l - 2 gets one leaf; at k = 2l + 1 branch
    2l - 1 extends the alternation one step further if affordable.

    `base` is the signed margin row of the current tree: entry k is
    P_k(u) - P_k(v) for even k and P_k(v) - P_k(u) for odd k. After one
    count of the tree with no leaves, each branch costs one count, at one
    leaf: 2l + 1 counts in all. A new leaf's paths are its handle's paths
    plus one edge, and a path between two new leaves has only the handle
    inside, so every margin is affine in the leaf count of a branch whose
    handle is neither u nor v (k > 2). Branch 0's leaves sit on u itself,
    where each pair of them adds one path through u at every k >= 2: +1 at
    even k and -1 at odd k of the row (`on_u`). So base + val * slope, plus
    C(val, 2) * on_u for branch 0, is the exact row at val leaves, and the
    next branch needs no count at zero leaves.

    Each count is rows-only, with no all-pairs histogram and no P_k: v lies
    inside the path from u to branch 1's handle, of length 2l + 1, so the
    cut rows reach every k < top.
    """
    top = 2 * l + 2

    def margins(leaves: list[int]) -> list[int]:
        parent, u, v = _tell_parents(l, leaves)
        # u = 0 is the root of the count, so only v walks its ancestor chain.
        _, (Pu, Pv) = _parent_prefix_counts(parent, (u, v), rows_only=True)
        return [Pv[k] - Pu[k] if k % 2 else Pu[k] - Pv[k] for k in range(top)]

    on_u = [0, 0, *((-1) ** k for k in range(2, top))]
    off_u = [0] * top
    leaves = [0] * (2 * l)
    base = margins(leaves)
    for k in range(2, top):
        leaves[k - 2] = 1
        slope = [m - b for m, b in zip(margins(leaves), base)]
        pair = on_u if k == 2 else off_u
        val = 1 if k == 2 * l else _least_positive(base[k], slope[k], pair[k])
        if val is None and k < 2 * l:
            slot = f"{'ab'[k % 2]}[{(k - 2) // 2}]"
            raise SearchCapExceededError(f"no {slot} below {SEARCH_CAP} works at k={k}")
        leaves[k - 2] = val = val or 1
        base = [b + val * s + comb(val, 2) * p for b, s, p in zip(base, slope, pair)]
    return leaves


def _least_positive(g0: int, d1: int, d2: int) -> int | None:
    """Smallest t in 1..SEARCH_CAP with g0 + d1 * t + d2 * C(t, 2) > 0, or None.

    Adding leaves to the favored side never decreases the margin, so binary
    search applies.
    """

    def g(t: int) -> int:
        return g0 + d1 * t + d2 * t * (t - 1) // 2

    if g(1) > 0:
        return 1
    if g(SEARCH_CAP) <= 0:
        return None
    lo, hi = 1, SEARCH_CAP
    while lo < hi:
        mid = (lo + hi) // 2
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _tell_paper_bound(l: int) -> list[int]:
    # Branches no constraint tunes (the last two) keep one leaf. Constraint
    # k reads only branches below k - 2, which are already set.
    leaves = [1] * (2 * l)
    leaves[0] = comb(l + 1, 2)

    def upper(m: int, side: int) -> int:
        """The bound from side's branches (0: u, 1: v) with under m - 1 edges."""
        return (sum(leaves[side : m - 1 : 2]) + (l + 1) * (m - 1)) ** 2

    for k in range(3, 2 * l):
        side = k % 2
        s_k = sum(upper(m, 1 - side) for m in range(2, k + 1))
        # ceil((s_k - 2 * own) / (1 + side)), own being the leaves already on side
        own = sum(leaves[side : k - 2 : 2])
        leaves[k - 2] = max(1, -((2 * own - s_k) // (1 + side)))
    for name, vals in (("a", leaves[0::2]), ("b", leaves[1::2])):
        for slot, val in enumerate(vals):
            if val > SEARCH_CAP:
                raise SearchCapExceededError(f"{name}[{slot}] = {val} exceeds {SEARCH_CAP}")
    return leaves


_TELL_STRATEGIES = {"minimal_search": _tell_minimal_search, "paper_bound": _tell_paper_bound}


def make_tell(l: int, strategy: str = "minimal_search") -> tuple[Tree, int, int, TellChoice]:
    """Crossing construction with leaf counts chosen by the given strategy."""
    if l < 1:
        raise OutOfRangeError(f"construction needs l >= 1, got {l}")
    if strategy not in _TELL_STRATEGIES:
        raise BadSpecError(f"unknown strategy {strategy!r}")
    leaves = _TELL_STRATEGIES[strategy](l)
    parent, u, v = _tell_parents(l, leaves)
    choice = TellChoice(a=tuple(leaves[0::2]), b=tuple(leaves[1::2]), strategy=strategy)
    return tree_from_parents(parent), u, v, choice


def closed_form_path_Pkv(n: int, i: int, k: int) -> int:
    """Paths of length at most k containing vertex i of a length-n path."""
    if not (0 <= i <= n // 2) or not (2 <= k <= n):
        raise OutOfDomainError(f"need 0 <= i <= n/2 and 2 <= k <= n, got n={n}, i={i}, k={k}")
    if k <= i:
        return comb(k, 2)
    if k <= n + 1 - i:
        return comb(i, 2) + i * (k - i)
    return (
        comb(i, 2)
        + i * (n - 2 * i + 1)
        + (n + 1) * (k - n + i - 1)
        + comb(n + 2 - i, 2)
        - comb(k + 1, 2)
    )


def closed_form_path_bck(n: int, i: int, k: int) -> Fraction:
    return Fraction(closed_form_path_Pkv(n, i, k), k * (n + 1) - n - comb(k + 1, 2))


def closed_form_gij_pk(i: int, j: int, k: int) -> int:
    """Tabulated exact-length path counts p_k of the dip construction (j >= 5)."""
    if i < 1 or j < 5:
        raise OutOfDomainError(f"tabulated rows need i >= 1 and j >= 5, got i={i}, j={j}")
    if k == 2:
        return 3 * i * j + 4 * i + 1
    if k == 3:
        return 3 * i * j + 7 * i
    if 4 <= k <= j + 1:
        return i * (3 * j + 3) + (3 * k - 5) * (i - 1) + 6
    if j + 2 <= k <= j + 4:
        return k * (3 * i - 9) + i * (3 * j - 6) + 6 * j + 21
    if j + 5 <= k <= 2 * j:
        return k * (3 * i - 9) + i * (3 * j - 6) + 6 * j + 23
    if k == 2 * j + 1:
        return k * (-4 * i + 1) + i * (17 * j + 1) - 14 * j + 13
    if 2 * j + 2 <= k <= 2 * j + 3:
        return k * (-4 * i - 1) + i * (17 * j + 9) - 10 * j + 9
    r = (k - 2) // (j + 1)
    if 2 <= r <= i - 1:
        if k <= r * (j + 1) + 3:
            return -9 * k + i * (9 * j - 3) + 6 * j + 12 * r + 9
        if k <= (r + 1) * j + r - 1:
            return -9 * k + i * (9 * j - 3) + 6 * j + 12 * r + 11
        if k <= (r + 1) * j + r + 1:
            return (
                k * (4 * i - 3 - 4 * r)
                + i * (-3 + 5 * j - 4 * r * j - 4 * r)
                + j * (-2 * r + 4 * r * r)
                + 6 * r
                + 4 * r * r
                + 11
            )
        if k == (r + 1) * j + r + 2:
            return (
                k * (-4 * i - 3 + 4 * r)
                + i * (4 * r * j + 13 * j + 4 * r + 5)
                + j * (-4 * r * r - 10 * r)
                - 4 * r * r
                - 2 * r
                + 9
            )
    raise OutOfTabulatedRangeError(f"k={k} not covered by any tabulated row for i={i}, j={j}")


def tabulated_gij_k_values(i: int, j: int) -> list[int]:
    """All k for which closed_form_gij_pk has a row, in increasing order."""
    ks = list(range(2, 2 * j + 4))
    for r in range(2, i):
        ks.extend(range(r * (j + 1) + 2, (r + 1) * j + r + 3))
    return ks


def closed_form_gij_Pk(i: int, j: int, r: int) -> tuple[int, int, int]:
    """Prefix sums P_k of the dip construction at k = r(j+1)+2, +3, +4."""
    if j < 5 or not (2 <= r <= i - 1):
        raise OutOfDomainError(f"need j >= 5 and 2 <= r <= i-1, got i={i}, j={j}, r={r}")
    base = (
        r * r * Fraction(-9 * j * j - 6 * j - 1, 2)
        + r
        * (
            9 * i * j * j
            + 6 * i * j
            + i
            + 6 * j * j
            + Fraction(-23 * j + 17, 2)
        )
        + i * (-6 * j * j + 16 * j - 7)
        - 3 * j * j
        + 15 * j
        - 17
    )
    if base.denominator != 1:
        raise AssertionError(f"P_k closed form is not an integer: {base}")
    first = int(base)
    inc1 = (9 * j - 3) * (i - r) + 6 * j - 18
    inc2 = (9 * j - 3) * (i - r) + 6 * j - 25
    return first, first + inc1, first + inc1 + inc2


def closed_form_gij_Pkv(i: int, j: int, r: int) -> tuple[int, int, int]:
    """P_k(v) of the designated vertex at k = r(j+1)+2, +3, +4."""
    if not (2 <= r <= i - 1) or j < 1:
        raise OutOfDomainError(f"need 2 <= r <= i-1 and j >= 1, got i={i}, j={j}, r={r}")
    base = r * (3 * j + 1)
    return base + 1, base + 2, base + 5
