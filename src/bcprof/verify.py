"""Named verification suites: each closed form or inequality against an oracle.

Each suite sweeps finite instances and lists one (case name, check) pair
per instance, where check() returns the text of the instance's first
counterexample, or "" when it holds. Listing does no checking, so
`run_check` can split the checks across worker processes (see workers.py)
and build the report in case order. Every comparison is exact (integers or
fractions); the suites are the same ones the acceptance tests run.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .errors import BadSpecError, OutOfRangeError, UnknownCheckError
from .profile_analysis import count_crossings, count_dips
from .scale_free import (
    all_candidate_paths,
    exact_expected_pk,
    exact_path_presence_prob,
    injection,
    path_probability,
    signature_of_path,
)
from .tree_core import _lane_bits, _pack, path_counts_naive, prefix_counts
from .tree_families import (
    closed_form_gij_pk,
    closed_form_gij_Pk,
    closed_form_gij_Pkv,
    closed_form_path_bck,
    closed_form_path_Pkv,
    make_broom,
    make_double_broom,
    make_gij,
    make_path,
    make_tell,
    tabulated_gij_k_values,
)
from .workers import run_shares, worker_count


@dataclass(frozen=True, kw_only=True)
class CheckCase:
    name: str
    detail: str = ""  # the first counterexample's text; "" when the case passed

    @property
    def passed(self) -> bool:
        return self.detail == ""


@dataclass(frozen=True)
class CheckReport:
    check: str
    cases: tuple[CheckCase, ...]
    workers: int = field(compare=False, default=1)

    @property
    def passed(self) -> bool:
        """True when every case passed; a report with no cases checked nothing."""
        return bool(self.cases) and all(c.passed for c in self.cases)


Case = tuple[str, Callable[[], str]]  # (case name, check() -> failure text)
Cases = Iterator[Case]


def _prop1_lane(n: int) -> int:
    """Lane width for path n's packed columns: every count is below n**2 / 2,
    so a product of two stays below n**4 / 4 and keeps each lane's top bit
    clear."""
    try:
        return _lane_bits(n * n)
    except OutOfRangeError:
        raise OutOfRangeError(f"prop1 max size {n} is too large: n**4 must fit in 63 bits") from None


def _lanes_at_least(x: int, y: int, guard: int) -> bool:
    """True iff every lane of x is >= the same lane of y. guard holds the top
    bit of each lane, which x and y must leave clear: setting it in x lets
    each lane subtract without borrowing from the next, and it survives
    exactly where x's lane is not below y's."""
    return ((x | guard) - y) & guard == guard


def _packed_monotone(Pk: Sequence[int], columns: Sequence[int], guard: int) -> bool:
    """True iff every lane's row is monotone: P_k(v) * P_{k+1} <= P_{k+1}(v) * P_k
    for each k, where columns[k] packs the P_k(v) of every row."""
    return all(
        _lanes_at_least(pk0 * c1, pk1 * c0, guard)
        for pk0, pk1, c0, c1 in zip(Pk, Pk[1:], columns, columns[1:])
    )


def _packed_chain(columns: Sequence[int], lane: int, guard: int) -> bool:
    """True iff in every column each lane is at most the lane above it, so
    the rows packed into the lanes form a chain under pointwise <=. The top
    lane compares 0 with 0."""
    low = (1 << guard.bit_length() - lane) - 1  # every lane but the top one
    return all(_lanes_at_least(c >> lane, c & low, guard) for c in columns)


def check_prop1(max_size: int = 200) -> Cases:
    """Path profiles are non-decreasing and no vertex pair ever crosses.

    Rows i and n - i of path n are equal, so only vertices 0..n//2 are
    counted. Their rows are packed column by column, one lane per row, so
    each k is decided for every row by one exact subtraction.
    """

    def failure(n: int) -> str:
        Pk, rows = prefix_counts(make_path(n), range(n // 2 + 1))
        # A pair crosses iff its raw-count difference takes both signs, so
        # no pair crosses iff the rows, sorted by sum, form a chain.
        rows.sort(key=sum)
        lane = _prop1_lane(n)
        columns = [_pack(column, lane) for column in zip(*rows)][2:]
        guard = _pack([1 << lane - 1] * len(rows), lane)
        # BC_k <= BC_{k+1} by cross-multiplication (shared denominators).
        mono = _packed_monotone(Pk[2:], columns, guard)
        no_cross = _packed_chain(columns, lane, guard)
        return "" if mono and no_cross else f"monotone={mono}, no_cross={no_cross}"

    _prop1_lane(max_size)  # reject an oversized sweep before its first case
    for n in range(2, max_size + 1):
        yield f"path n={n}", partial(failure, n)


def check_corollary1(max_size: int = 50) -> Cases:
    """Closed-form path P_k(i) and BC_k(i) equal the brute-force oracle."""

    def failure(n: int) -> str:
        table = path_counts_naive(make_path(n))
        for i in range(0, n // 2 + 1):
            for k in range(2, n + 1):
                want_pkv = table.Pkv[i][k]
                got_pkv = closed_form_path_Pkv(n, i, k)
                got_bck = closed_form_path_bck(n, i, k)
                # got_bck == P_k(i) / P_k, cross-multiplied (P_k > 0 for k >= 2).
                bck_ok = got_bck.numerator * table.Pk[k] == want_pkv * got_bck.denominator
                if got_pkv != want_pkv or not bck_ok:
                    return f"i={i}, k={k}: {got_pkv} != {want_pkv}"
        return ""

    for n in range(2, max_size + 1):
        yield f"path n={n}", partial(failure, n)


def check_gij_tables(max_size: int = 5) -> Cases:
    """Tabulated p_k, P_k and P_k(v) rows equal the oracle on small instances."""

    def failure(i: int, j: int) -> str:
        t, v = make_gij(i, j)
        table = path_counts_naive(t)
        for k in tabulated_gij_k_values(i, j):
            got = closed_form_gij_pk(i, j, k)
            if got != table.p[k]:
                return f"p_k mismatch at k={k}: {got} != {table.p[k]}"
        for r in range(2, i):
            ks = (r * (j + 1) + 2, r * (j + 1) + 3, r * (j + 1) + 4)
            got = closed_form_gij_Pk(i, j, r)
            want = tuple(table.Pk[k] for k in ks)
            got_v = closed_form_gij_Pkv(i, j, r)
            want_v = tuple(table.Pkv[v][k] for k in ks)
            if got != want or got_v != want_v:
                return f"r={r}: P_k {got} vs {want}, P_k(v) {got_v} vs {want_v}"
        return ""

    for i in range(3, max_size + 1):
        for j in (5, 6, 7):
            yield f"G(i={i}, j={j})", partial(failure, i, j)


def check_theorem1(max_size: int = 10) -> Cases:
    """Dip inequalities BC_{6r+2} > BC_{6r+3} < BC_{6r+4} on the j=5 family.

    The pointwise inequality is verified for 2 <= r <= i-2; at r = i-1 the
    left inequality is exactly false once i >= 6 (e.g. i=6: BC_32 = 81/4506
    < BC_33 = 82/4560), so that value of r is excluded. The dip count of
    the full profile is still required to be at least i-2.

    The default max_size 10 is the verified range. Past it the left
    inequality also fails at r = i-2 from i = 11 and at r = i-3 from i = 15,
    and the dip count for i = 10..15 is 10, 10, 11, 12, 12, 12, so it meets
    i-2 up to i = 14 and falls short at i = 15 (12 < 13).
    """

    def failure(i: int) -> str:
        t, v = make_gij(i, 5)
        Pk, (Pkv,) = prefix_counts(t, [v])
        for r in range(2, i - 1):
            k = 6 * r + 2
            left = Pkv[k] * Pk[k + 1] > Pkv[k + 1] * Pk[k]
            right = Pkv[k + 1] * Pk[k + 2] < Pkv[k + 2] * Pk[k + 1]
            if not (left and right):
                return f"r={r}: left={left}, right={right}"
        dips = count_dips(tuple(Fraction(Pkv[k], Pk[k]) for k in range(2, len(Pk)))).count
        return f"dip count {dips} < {i - 2}" if dips < i - 2 else ""

    for i in range(3, max_size + 1):
        yield f"G(i={i}, j=5)", partial(failure, i)


def check_tell(max_size: int = 3) -> Cases:
    """Alternation inequalities and crossing count of the crossing family."""

    def failure(l: int) -> str:
        t, u, v, _choice = make_tell(l)
        _, (Pu, Pv) = prefix_counts(t, (u, v))
        for i in range(1, l):
            if not Pu[2 * i] > Pv[2 * i]:
                return f"P_{2 * i}(u) <= P_{2 * i}(v)"
            if not Pv[2 * i + 1] > Pu[2 * i + 1]:
                return f"P_{2 * i + 1}(v) <= P_{2 * i + 1}(u)"
        crossings = count_crossings(Pu[2:], Pv[2:]).count
        return f"crossings {crossings} < {2 * l - 3}" if crossings < 2 * l - 3 else ""

    for l in range(1, max_size + 1):
        yield f"l={l}", partial(failure, l)


def check_prop2() -> Cases:
    """Finite witnesses of the double-broom gap and the broom dominance."""

    def bc(t, v) -> list[Fraction]:
        Pk, (Pkv,) = prefix_counts(t, [v])
        return [Fraction(Pkv[k], Pk[k]) for k in range(2, len(Pk))]

    def double_broom_failure() -> str:
        double = bc(*make_double_broom(10, 1000))
        ok = all(x / double[-1] < Fraction(1, 10) for x in double[:-1])
        return "" if ok else "ratio >= 1/10 at some k < d"

    def broom_failure() -> str:
        # delta = 0.05: check k <= delta^2 * m = 2.5, i.e. k = 2.
        broom = bc(*make_broom(1000, 50))
        return "" if broom[0] / broom[-1] > 2 else "ratio <= 2 at k=2"

    yield "double broom m=10, n=1000", double_broom_failure
    yield "broom m=1000, n=50", broom_failure


def check_lemma1(max_size: int = 7) -> Cases:
    """Closed-form path probability equals the history-enumeration oracle."""

    def failure(n: int) -> str:
        for seq in all_candidate_paths(n):
            got = path_probability(signature_of_path(seq))
            want = exact_path_presence_prob(n, seq)
            if got != want:
                return f"path {seq}: {got} != {want}"
        return ""

    for n in range(2, max_size + 1):
        yield f"n={n}", partial(failure, n)


def check_theorem3(max_size: int = 7) -> Cases:
    """Expectation ordering plus the injection's three promised properties."""

    def order_failure(n: int) -> str:
        for k in range(2, n):
            values = [exact_expected_pk(n, v, k) for v in range(1, n + 1)]
            if not all(x > y for x, y in zip(values, values[1:])):
                return f"k={k}: E[p_k(v)] not strictly decreasing: {values}"
        return ""

    def injection_failure() -> str:
        images: dict[tuple[int, int, object], object] = {}
        for sig in map(signature_of_path, all_candidate_paths(max_size)):
            prob = path_probability(sig)
            for w in sorted(sig.interior):
                v = w - 1
                if v < 1:
                    continue
                case, img, ratio = injection(sig, v)
                if img.length != sig.length:
                    return f"f not length-preserving on {sig}, v={v}"
                if v not in img.interior:
                    return f"v={v} not interior in image of {sig}"
                if path_probability(img) != prob * ratio:
                    return f"ratio mismatch (case {case}) on {sig}, v={v}"
                key = (v, sig.length, img)
                if key in images and images[key] != sig:
                    return f"f not injective at v={v}: {images[key]} and {sig} -> {img}"
                images[key] = sig
        return "" if images else "no (path, v) pair to check"

    for n in range(3, max_size + 1):
        yield f"expectation order n={n}", partial(order_failure, n)
    yield f"injection labels <= {max_size}", injection_failure


_CHECKS = {
    "prop1": check_prop1,
    "corollary1": check_corollary1,
    "gij-tables": check_gij_tables,
    "theorem1": check_theorem1,
    "tell": check_tell,
    "prop2": check_prop2,
    "lemma1": check_lemma1,
    "theorem3": check_theorem3,
}

CHECK_NAMES = tuple(_CHECKS)


def _cases(name: str, max_size: int | None) -> list[Case]:
    """The suite's (case name, check) pairs; `max_size` replaces the suite's
    own default when given. Size errors are raised here, before any check."""
    if name not in _CHECKS:
        raise UnknownCheckError(
            f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}"
        )
    func = _CHECKS[name]
    if max_size is None:
        return list(func())
    if func is check_prop2:
        raise BadSpecError(f"{name} checks fixed instances and takes no max size")
    return list(func(max_size))


def _share_failures(name: str, max_size: int | None, first: int, stride: int) -> list[str]:
    """Failure texts of cases first, first + stride, ... of one suite. A child
    worker lists the cases itself, so it needs only these arguments."""
    return [check() for _, check in _cases(name, max_size)[first::stride]]


def run_check(name: str, max_size: int | None = None) -> CheckReport:
    """Run one suite; `max_size` replaces the suite's own default when given.
    The cases are split across BCPROF_THREADS workers, at most one per case."""
    cases = _cases(name, max_size)
    workers = worker_count(len(cases), chunk=1)
    failures = [""] * len(cases)
    for r, share in enumerate(run_shares(_share_failures, (name, max_size), workers)):
        failures[r::workers] = share
    return CheckReport(
        name,
        tuple(CheckCase(name=case, detail=failure) for (case, _), failure in zip(cases, failures)),
        workers,
    )
