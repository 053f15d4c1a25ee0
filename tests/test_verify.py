"""The verify suites: pinned reports, and the failure each injected fault gives."""

import dataclasses
import hashlib
import multiprocessing
import re
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_experiments import _allow_cpus
from test_scale_free import CLOSED_FORM_FAULTS

import bcprof.scale_free as scale_free
import bcprof.tree_core as tree_core
import bcprof.tree_families as tree_families
import bcprof.verify as verify
from bcprof import (
    BadSpecError, NTooLargeError, OutOfRangeError, make_gij, make_path, path_counts_naive,
    prefix_counts, profile, tree_from_parents,
)
from bcprof.cli import main
from bcprof.profile_analysis import count_dips, dominates
from bcprof.tree_core import _pack, _unpack
from bcprof.verify import (
    CHECK_NAMES,
    CheckCase,
    _lanes_at_least,
    _packed_chain,
    _packed_monotone,
    _prop1_columns,
    _prop1_lane,
    run_check,
)
from bcprof.workers import start_method


def run_verify(capsys, *argv):
    code = main(["verify", "--check", *argv])
    return code, capsys.readouterr().out


def _use_workers(monkeypatch, workers):
    """BCPROF_THREADS = workers, with that many CPUs allowed, so the
    children start on any machine."""
    _allow_cpus(monkeypatch, workers)
    monkeypatch.setenv("BCPROF_THREADS", str(workers))


def _no_child(*args):
    raise AssertionError("a worker process started")


FORK_ONLY = pytest.mark.skipif(start_method() != "fork",
                               reason="children see a patched name only when forked")


# sha256 of `bcprof verify --check <suite>` stdout at the suite's default
# size, recorded before the suites became case generators. Each digest also
# fixes the case count in the summary line.
PINNED = {
    "prop1": "f0a1b7a4e6987d76fb4285c11a9ad03f297adda96929e7f1dfaec7510b401553",
    "corollary1": "8a4fa0b5d0942c932003e01c7bbeaec95ffe2517f01221818fa2c2e16b2ab4c2",
    "gij-tables": "110c908322dfd0eeebef393e3a931cd4e5918d1d1ba833bf97a9491d9a35ec40",
    "theorem1": "cc219dd3572cba20c502cf7d9fbc003dc681264a3c00257b89177c30ff58dca8",
    "tell": "4d851c511f2848e8daba75e88d8e07d962c31304af192fbb67eaa033a5da9883",
    "prop2": "b81457ce95a21fecf0451131990f19472141b89bc1bbd7bfbed269713c42ba1b",
    "lemma1": "dd6108e231138b7caaaaed6b36ed1ae4b8a85c9c1229c2f79cbb4822bad7b9cb",
    "theorem3": "2a67a0c630775819702c37c08e6acb1774880e5c344f4145e4e7297720bad5bc",
}


def test_pinned_covers_every_suite():
    assert sorted(PINNED) == sorted(CHECK_NAMES)


@pytest.mark.parametrize("suite", sorted(PINNED))
def test_default_size_pinned_bytes(capsys, suite):
    code, out = run_verify(capsys, suite)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[suite]


SIZES_THAT_CHECK_NOTHING = [
    ("prop1", "-3", "prop1: FAIL (0 cases)\n"),
    ("corollary1", "1", "corollary1: FAIL (0 cases)\n"),
    ("gij-tables", "2", "gij-tables: FAIL (0 cases)\n"),
    ("theorem1", "2", "theorem1: FAIL (0 cases)\n"),
    ("tell", "0", "tell: FAIL (0 cases)\n"),
    ("lemma1", "1", "lemma1: FAIL (0 cases)\n"),
    ("theorem3", "1", "FAIL theorem3 injection labels <= 1: no (path, v) pair to check\n"
                      "theorem3: FAIL (1 cases)\n"),
    ("theorem3", "2", "FAIL theorem3 injection labels <= 2: no (path, v) pair to check\n"
                      "theorem3: FAIL (1 cases)\n"),
]


@pytest.mark.parametrize("suite, size, out", SIZES_THAT_CHECK_NOTHING)
def test_sizes_that_check_nothing_fail(capsys, suite, size, out):
    assert run_verify(capsys, suite, "--max-size", size) == (1, out)


@pytest.mark.parametrize("workers", (2, 3))
@pytest.mark.parametrize("suite, size, out", SIZES_THAT_CHECK_NOTHING)
def test_sizes_that_check_nothing_start_no_child(monkeypatch, capsys, suite, size, out, workers):
    # Workers are capped at the case count, and the caller is always one.
    _use_workers(monkeypatch, workers)
    monkeypatch.setattr(multiprocessing, "get_context", _no_child)
    assert run_verify(capsys, suite, "--max-size", size) == (1, out)


@pytest.mark.parametrize("workers", (2, 3))
@pytest.mark.parametrize("suite", sorted(PINNED))
def test_pinned_bytes_on_workers(monkeypatch, capsys, suite, workers):
    # Worker r checks case count - 1 - r and every W-th case before it;
    # the report keeps case order.
    _use_workers(monkeypatch, workers)
    monkeypatch.setattr("bcprof.workers.START_S", 0)
    code = main(["verify", "--check", suite])
    out, err = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[suite]
    cases = int(re.search(r"\((\d+) cases\)\n$", out)[1])
    assert err.endswith(f" s, {min(workers, cases)} workers\n")


@pytest.mark.parametrize("start_s", (0, None, 60), ids=("start-0", "start-default", "start-60"))
@pytest.mark.parametrize("workers", (1, 2, 3))
@pytest.mark.parametrize("suite", sorted(PINNED))
def test_pinned_bytes_whenever_children_start(monkeypatch, capsys, suite, workers, start_s):
    # START_S = 0 splits every case, 60 runs them all here, and the default
    # splits what is left after its few milliseconds: stdout is the same,
    # and stderr reports the workers that ran.
    _use_workers(monkeypatch, workers)
    if start_s is not None:
        monkeypatch.setattr("bcprof.workers.START_S", start_s)
    if start_s == 60:
        monkeypatch.setattr(multiprocessing, "get_context", _no_child)
    code = main(["verify", "--check", suite])
    out, err = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[suite]
    cases = int(re.search(r"\((\d+) cases\)\n$", out)[1])
    used = int(re.search(r" s, (\d+) workers?\n$", err)[1])
    if start_s == 0:
        assert used == min(workers, cases)
    elif start_s == 60:
        assert used == 1
    else:
        assert 1 <= used <= min(workers, cases)


# G(i, 5) up to theorem1's default size 10 and past it: the dip count of v's
# profile, and every r in 2..i-1 at which the left inequality
# BC_{6r+2} > BC_{6r+3} fails. The right inequality BC_{6r+3} < BC_{6r+4}
# holds at every such r.
THEOREM1_DIP_FAMILY = {
    3: (3, []),
    4: (4, []),
    5: (6, []),
    6: (6, [5]),
    7: (7, [6]),
    8: (8, [7]),
    9: (9, [8]),
    10: (10, [9]),
    11: (10, [9, 10]),
    12: (11, [10, 11]),
    13: (12, [11, 12]),
    14: (12, [12, 13]),
    15: (12, [12, 13, 14]),
}


@pytest.mark.parametrize("i", sorted(THEOREM1_DIP_FAMILY))
def test_theorem1_dip_family(i):
    bc = profile(*make_gij(i, 5)).entries  # bc[k - 2] is BC_k
    left_fails = [r for r in range(2, i) if not bc[6 * r] > bc[6 * r + 1]]
    assert all(bc[6 * r + 1] < bc[6 * r + 2] for r in range(2, i))
    assert (count_dips(bc).count, left_fails) == THEOREM1_DIP_FAMILY[i]


def test_theorem1_left_inequality_fails_at_r_5_for_i_6():
    # The example check_theorem1's docstring and the README quote.
    t, v = make_gij(6, 5)
    Pk, (Pkv,) = prefix_counts(t, [v])
    assert (Pkv[32], Pk[32], Pkv[33], Pk[33]) == (81, 4506, 82, 4560)
    bc = profile(t, v).entries
    assert bc[30] == Fraction(81, 4506) < Fraction(82, 4560) == bc[31]


THEOREM1_FAILURES = [
    (f"G(i={i}, j=5)", f"r={THEOREM1_DIP_FAMILY[i][1][0]}: left=False, right=True")
    for i in range(11, 16)
]


def test_theorem1_fails_from_i_11():
    # The suite skips r = i - 1, so its first failure is r = i - 2 at i = 11.
    report = run_check("theorem1", 15)
    assert [(c.name, c.detail) for c in report.cases if not c.passed] == THEOREM1_FAILURES


@pytest.mark.parametrize("workers", (2, 3))
def test_theorem1_failures_on_workers(monkeypatch, workers):
    _use_workers(monkeypatch, workers)
    monkeypatch.setattr("bcprof.workers.START_S", 0)
    report = run_check("theorem1", 15)
    assert report.workers == workers
    assert [(c.name, c.detail) for c in report.cases if not c.passed] == THEOREM1_FAILURES


# prop1 decides each k for all rows at once, on columns packed one lane per
# row. These are the cell-by-cell definitions it replaced.

def _cellwise_monotone(Pk, rows):
    return all(
        a * pk1 <= b * pk0
        for row in rows
        for a, b, pk0, pk1 in zip(row, row[1:], Pk, Pk[1:])
    )


def _cellwise_chain(rows):
    rows = sorted(rows, key=sum)
    return all(dominates(hi, lo) for lo, hi in zip(rows, rows[1:]))


def _packed(rows, lane):
    """prop1's layout: column k as one int whose lane j is rows[j][k], and
    the guard holding each lane's top bit."""
    return [_pack(col, lane) for col in zip(*rows)], _pack([1 << lane - 1] * len(rows), lane)


LANES = st.sampled_from((16, 32, 64))


def _entry(top):
    # Small values make ties, equal rows and chains likely.
    return st.integers(0, 3) | st.integers(0, top)


@st.composite
def _lane_and_pair(draw):
    lane = draw(LANES)
    top = (1 << lane - 1) - 1
    x = draw(st.lists(_entry(top), min_size=1, max_size=6))
    moves = st.lists(st.sampled_from((-1, 0, 1)), min_size=len(x), max_size=len(x))
    y = draw(st.lists(_entry(top), min_size=len(x), max_size=len(x)) | moves.map(
        lambda ds: [min(top, max(0, a + d)) for a, d in zip(x, ds)]))
    return lane, x, y


@st.composite
def _lane_and_rows(draw, top_of):
    """(lane, top, matrix) with entries in 0..top = top_of(lane): a chain
    built by non-negative steps, with one cell moved by 1 half the time."""
    lane = draw(LANES)
    top = top_of(lane)
    cols = draw(st.integers(1, 6))
    row = draw(st.lists(_entry(top), min_size=cols, max_size=cols))
    rows = [row]
    for _ in range(draw(st.integers(0, 5))):
        row = [min(top, a + draw(_entry(top))) for a in row]
        rows.append(row)
    if draw(st.booleans()):
        j = draw(st.integers(0, len(rows) - 1))
        k = draw(st.integers(0, cols - 1))
        rows[j][k] = min(top, max(0, rows[j][k] + draw(st.sampled_from((-1, 1)))))
    return lane, top, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(_lane_and_pair())
def test_lanes_at_least_equals_per_lane_comparison(case):
    lane, x, y = case
    guard = _pack([1 << lane - 1] * len(x), lane)
    assert _lanes_at_least(_pack(x, lane), _pack(y, lane), guard) == all(
        a >= b for a, b in zip(x, y))


@settings(max_examples=300, deadline=None)
@given(_lane_and_rows(lambda lane: (1 << lane - 1) - 1))
def test_packed_chain_equals_dominates_over_sorted_rows(case):
    lane, _, rows = case
    columns, guard = _packed(sorted(rows, key=sum), lane)
    assert _packed_chain(columns, lane, guard) == _cellwise_chain(rows)


@settings(max_examples=300, deadline=None)
@given(_lane_and_rows(lambda lane: (1 << (lane - 1) // 2) - 1), st.data())
def test_packed_monotone_equals_cross_multiplication(case, data):
    # Monotonicity packs products of two entries, so entries stay below
    # 2**((lane - 1) // 2) and every product fits in lane - 1 bits, which is
    # what prop1's lane rule guarantees for path counts.
    lane, top, rows = case
    Pk = data.draw(st.lists(st.integers(1, 3) | st.integers(1, top),
                            min_size=len(rows[0]), max_size=len(rows[0])))
    columns, guard = _packed(rows, lane)
    assert _packed_monotone(Pk, columns, guard) == _cellwise_monotone(Pk, rows)


@pytest.mark.parametrize("lane", (16, 32, 64))
def test_guard_bits_catch_a_lane_one_below(lane):
    # Lane 0 of x is 1 below y's and lane 1 is above, so x > y as whole
    # ints: only the guard bits see the low lane.
    x, y = _pack([5, 9], lane), _pack([6, 3], lane)
    assert x > y
    assert not _lanes_at_least(x, y, _pack([1 << lane - 1] * 2, lane))
    # prop1's monotonicity: row 0 drops from 5 to 4 while row 1 rises.
    rows = [[5, 4], [3, 9]]
    columns, guard = _packed(rows, lane)
    assert columns[1] > columns[0]
    assert not _packed_monotone([1, 1], columns, guard)
    assert not _cellwise_monotone([1, 1], rows)
    # prop1's chain: in the first column the second row (by sum) is 1
    # below the first, while the third is above the second.
    rows = [[4, 0], [3, 5], [9, 9]]
    columns, guard = _packed(rows, lane)
    low = (1 << 2 * lane) - 1
    assert columns[0] >> lane > columns[0] & low
    assert not _packed_chain(columns, lane, guard)
    assert not _cellwise_chain(rows)


def _rows_of(columns, lane, count):
    """The prefix rows packed in prop1's columns, in vertex order."""
    return list(zip(*(_unpack(c, lane, count) for c in columns)))


def _same(x):
    return x


def _pk2_one(Pk):
    return [*Pk[:2], 1, *Pk[3:]]


def _prop1_changed(pk=_same, row=_same):
    """A make for verify._prop1_columns that applies pk to P_k and row to
    every prefix row: it unpacks the columns into rows, changes them and
    packs them again. row sees only the row, so mirrored vertices still
    get equal rows."""
    def make(orig):
        def columns(n):
            Pk, columns, lane, count = orig(n)
            rows = map(row, _rows_of(columns, lane, count))
            return pk(Pk), [_pack(col, lane) for col in zip(*rows)], lane, count
        return columns
    return make


# Each fault replaces one name in bcprof.verify with `make(original)`.

def _leaf_instead_of_v(orig):
    return lambda i, j: (orig(i, j)[0], 0)


def _swap_uv(orig):
    def f(l):
        t, u, v, choice = orig(l)
        return t, v, u, choice
    return f


def _zero_last_row(orig):
    def f(t, vs):
        Pk, rows = orig(t, vs)
        return Pk, (*rows[:-1], [0] * len(Pk))
    return f


def _flat_profile(orig):
    def f(t, vs):
        Pk, _ = orig(t, vs)
        return Pk, (Pk,)
    return f


def _flat_entries(orig):
    def f(t, v):
        p = orig(t, v)
        return dataclasses.replace(p, entries=(Fraction(1),) * len(p.entries))
    return f


def _extra_label(orig):
    def f(sig, v):
        case, img, ratio = orig(sig, v)
        return case, dataclasses.replace(img, R=img.R | {99}), ratio
    return f


def _identity_image(orig):
    def f(sig, v):
        case, _, ratio = orig(sig, v)
        return case, sig, ratio
    return f


def _doubled_ratio(orig):
    def f(sig, v):
        case, img, ratio = orig(sig, v)
        return case, img, 2 * ratio
    return f


def _shared_image(orig):
    # Pairs with the same v, length, case and probability share one image,
    # so only the injectivity test can tell them apart.
    seen = {}

    def f(sig, v):
        case, img, ratio = orig(sig, v)
        key = (v, sig.length, case, scale_free.path_probability(sig))
        return case, seen.setdefault(key, img), ratio
    return f


def _no_dips(orig):
    return lambda seq: SimpleNamespace(count=0)


def _no_crossings(orig):
    return lambda su, sv: SimpleNamespace(count=0)


SIG_13 = "PathSignature(a=1, b=3, c=1, L=frozenset(), R=frozenset({2}))"

# (suite, max size, name, make, case count, [(failing case, detail)]); name
# is an attribute of verify, or of scale_free when written "scale_free.<name>".
FAULTS = {
    "prop1-crossing": ("prop1", 4, "_packed_chain", lambda orig: lambda *args: False, 3, [
        ("path n=2", "monotone=True, no_cross=False"),
        ("path n=3", "monotone=True, no_cross=False"),
        ("path n=4", "monotone=True, no_cross=False"),
    ]),
    "prop1-monotone": ("prop1", 5, "_prop1_columns", _prop1_changed(pk=_pk2_one), 4, [
        ("path n=3", "monotone=False, no_cross=True"),
        ("path n=4", "monotone=False, no_cross=True"),
        ("path n=5", "monotone=False, no_cross=True"),
    ]),
    "corollary1-Pkv": (
        "corollary1", 8, "closed_form_path_Pkv",
        lambda orig: lambda n, i, k: orig(n, i, k) + ((n, i, k) == (7, 2, 5)),
        7, [("path n=7", "i=2, k=5: 8 != 7")]),
    "corollary1-bck": (
        "corollary1", 6, "closed_form_path_bck",
        lambda orig: lambda n, i, k: orig(n, i, k) + ((n, i, k) == (5, 1, 3)),
        5, [("path n=5", "i=1, k=3: 2 != 2")]),
    "gij-tables-pk": (
        "gij-tables", 5, "closed_form_gij_pk",
        lambda orig: lambda i, j, k: orig(i, j, k) + ((i, j) == (4, 6)),
        9, [("G(i=4, j=6)", "p_k mismatch at k=2: 90 != 89")]),
    "gij-tables-Pkv": (
        "gij-tables", 5, "closed_form_gij_Pkv",
        lambda orig: lambda i, j, r: tuple(x + ((i, j, r) == (5, 7, 3)) for x in orig(i, j, r)),
        9, [("G(i=5, j=7)", "r=3: P_k (4744, 4888, 5025) vs (4744, 4888, 5025), "
                            "P_k(v) (68, 69, 72) vs (67, 68, 71)")]),
    "theorem1-leaf": ("theorem1", 5, "make_gij", _leaf_instead_of_v, 3, [
        ("G(i=3, j=5)", "dip count 0 < 1"),
        ("G(i=4, j=5)", "r=2: left=False, right=False"),
        ("G(i=5, j=5)", "r=2: left=False, right=False"),
    ]),
    "theorem1-dips": ("theorem1", 5, "count_dips", _no_dips, 3, [
        ("G(i=3, j=5)", "dip count 0 < 1"),
        ("G(i=4, j=5)", "dip count 0 < 2"),
        ("G(i=5, j=5)", "dip count 0 < 3"),
    ]),
    "tell-u": ("tell", 3, "make_tell", _swap_uv, 3, [
        ("l=2", "P_2(u) <= P_2(v)"),
        ("l=3", "P_2(u) <= P_2(v)"),
    ]),
    "tell-v": ("tell", 3, "prefix_counts", _zero_last_row, 3, [
        ("l=2", "P_3(v) <= P_3(u)"),
        ("l=3", "P_3(v) <= P_3(u)"),
    ]),
    "tell-crossings": ("tell", 3, "count_crossings", _no_crossings, 3, [
        ("l=2", "crossings 0 < 1"),
        ("l=3", "crossings 0 < 3"),
    ]),
    "prop2-double": ("prop2", None, "profile", _flat_entries, 2, [
        ("double broom m=10, n=1000", "ratio >= 1/10 at some k < d"),
    ]),
    "prop2-broom": ("prop2", None, "prefix_counts", _flat_profile, 2, [
        ("broom m=1000, n=50", "ratio <= 2 at k=2"),
    ]),
    # A zero centre row makes BC_d = 0, which the ratio must not divide by.
    "prop2-broom-zero": ("prop2", None, "prefix_counts", _zero_last_row, 2, [
        ("broom m=1000, n=50", "ratio <= 2 at k=2"),
    ]),
    "lemma1": (
        "lemma1", 6, "scale_free._closed_form", CLOSED_FORM_FAULTS["doubled on a = 3, b = 5"],
        5, [
            ("n=5", "path (3, 1, 2, 4, 5): 4/105 != 2/105"),
            ("n=6", "path (3, 1, 2, 4, 5): 4/105 != 2/105"),
        ]),
    "theorem3-order": (
        "theorem3", 4, "exact_expected_pk",
        lambda orig: lambda n, v, k: orig(n, n + 1 - v, k),
        3, [
            ("expectation order n=3", "k=2: E[p_k(v)] not strictly decreasing: "
                                      "[Fraction(0, 1), Fraction(1, 3), Fraction(2, 3)]"),
            ("expectation order n=4", "k=2: E[p_k(v)] not strictly decreasing: "
                                      "[Fraction(0, 1), Fraction(1, 5), Fraction(11, 15), "
                                      "Fraction(8, 5)]"),
        ]),
    "theorem3-length": ("theorem3", 4, "injection", _extra_label, 3, [
        ("injection labels <= 4", f"f not length-preserving on {SIG_13}, v=1"),
    ]),
    "theorem3-interior": ("theorem3", 4, "injection", _identity_image, 3, [
        ("injection labels <= 4", f"v=1 not interior in image of {SIG_13}"),
    ]),
    "theorem3-ratio": ("theorem3", 4, "injection", _doubled_ratio, 3, [
        ("injection labels <= 4", f"ratio mismatch (case 5) on {SIG_13}, v=1"),
    ]),
    "theorem3-injective": ("theorem3", 5, "injection", _shared_image, 4, [
        ("injection labels <= 5",
         "f not injective at v=1: "
         "PathSignature(a=3, b=5, c=1, L=frozenset({2}), R=frozenset({4})) and "
         "PathSignature(a=4, b=5, c=1, L=frozenset({2, 3}), R=frozenset()) -> "
         "PathSignature(a=3, b=5, c=1, L=frozenset({2}), R=frozenset({4}))"),
    ]),
}


def test_faults_cover_every_suite():
    assert {row[0] for row in FAULTS.values()} == set(CHECK_NAMES)


@pytest.mark.parametrize("fault, workers", [
    *(pytest.param(fault, 1, id=fault) for fault in sorted(FAULTS)),
    *(pytest.param(fault, 2, id=f"{fault}-2-workers", marks=FORK_ONLY) for fault in sorted(FAULTS)),
])
def test_fault_gives_its_failures(monkeypatch, fault, workers):
    suite, size, name, make, count, failures = FAULTS[fault]
    _use_workers(monkeypatch, workers)
    monkeypatch.setattr("bcprof.workers.START_S", 0)
    # A name is verify's own unless it names its module first.
    module, _, name = name.rpartition(".")
    owner = {"": verify, "scale_free": scale_free}[module]
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))
    report = run_check(suite, size)
    assert len(report.cases) == count
    assert report.workers == workers
    assert [(c.name, c.detail) for c in report.cases if not c.passed] == failures
    # A passing case carries no text; a failing one always does.
    assert all(c.passed == (c.detail == "") for c in report.cases)
    assert not report.passed


def test_check_case_is_keyword_only():
    # A positional (name, passed) call from before `passed` became a property
    # must not build a case whose detail is a bool.
    with pytest.raises(TypeError):
        CheckCase("n=3", True)
    assert CheckCase(name="n=3").passed
    assert not CheckCase(name="n=3", detail="k=2: 1 > 0").passed


# Changes to the counts prop1 reads, as (change to P_k, change to each
# prefix row), and the (monotone, no_cross) verdicts they give over
# n = 2..60, so the oracle comparison meets all four.
PROP1_ORACLE = {
    "exact": (_same, _same, {(True, True): 59}),
    "P_2 = 1": (_pk2_one, _same, {(False, True): 58, (True, True): 1}),
    "rows reversed": (_same, lambda row: row[::-1], {(False, True): 57, (True, True): 2}),
    "odd-sum rows doubled": (
        _same, lambda row: [2 * x if sum(row) % 2 else x for x in row],
        {(True, False): 38, (True, True): 21}),
    "rows mod 97": (_same, lambda row: [x % 97 for x in row],
                    {(False, False): 41, (True, True): 18}),
}

# The changes whose rows are out of sum order for some n, so prop1 sorts
# its lanes; the path's own rows already come in sum order.
PROP1_REORDERED = {"odd-sum rows doubled", "rows mod 97"}


@pytest.mark.parametrize("change", sorted(PROP1_ORACLE))
def test_prop1_equals_cellwise_verdict_on_all_rows(monkeypatch, change):
    pk, row, verdicts = PROP1_ORACLE[change]
    permute, permuted = verify._permuted, []

    def spy(columns, lane, count, order):
        permuted.append(order)
        return permute(columns, lane, count, order)

    # One worker: a child sees the patched names only when forked.
    monkeypatch.setenv("BCPROF_THREADS", "1")
    monkeypatch.setattr(verify, "_prop1_columns", _prop1_changed(pk, row)(_prop1_columns))
    monkeypatch.setattr(verify, "_permuted", spy)
    seen = Counter()
    for n, case in zip(range(2, 61), run_check("prop1", 60).cases, strict=True):
        Pk, rows = prefix_counts(make_path(n), range(n + 1))
        Pk, rows = pk(Pk), [row(r)[2:] for r in rows]
        mono, no_cross = _cellwise_monotone(Pk[2:], rows), _cellwise_chain(rows)
        want = "" if mono and no_cross else f"monotone={mono}, no_cross={no_cross}"
        assert (case.name, case.detail) == (f"path n={n}", want)
        seen[mono, no_cross] += 1
    assert seen == verdicts
    assert bool(permuted) == (change in PROP1_REORDERED)
    assert all(order != sorted(order) for order in permuted)


@pytest.mark.parametrize("n", (2, 13, 14, 60, 200, 216))
def test_prop1_columns_are_the_path_rows(n):
    # 13 -> 14 steps prop1's lane from 16 to 32 bits, 215 -> 216 to 64.
    # _prop1_columns counts range(-1, n) as make_path(n)'s parent array.
    assert tree_from_parents(range(-1, n)) == make_path(n)
    Pk, columns, lane, count = _prop1_columns(n)
    assert (lane, count, len(columns)) == (_prop1_lane(n), n // 2 + 1, n + 1)
    assert (Pk, tuple(_rows_of(columns, lane, count))) == prefix_counts(
        make_path(n), range(n // 2 + 1))
    if n <= 40:
        table = path_counts_naive(make_path(n))
        assert Pk == table.Pk
        assert _rows_of(columns, lane, count) == list(table.Pkv[:count])


def test_prop1_builds_no_tree_and_no_tuple_rows(monkeypatch):
    # prop1 counts each path from its parent array and reads the engine's
    # packed rows: no make_path, no BFS and no prefix_counts tuples.
    def boom(*args):
        raise AssertionError("prop1 built a Tree or tuple rows")

    monkeypatch.setenv("BCPROF_THREADS", "1")
    monkeypatch.setattr(tree_core, "_bfs_order", boom)
    monkeypatch.setattr(verify, "prefix_counts", boom)
    monkeypatch.setattr(tree_families, "make_path", boom)
    monkeypatch.setattr(verify, "make_path", boom)
    report = run_check("prop1", 60)
    assert report.passed and len(report.cases) == 59


def test_path_rows_are_mirror_symmetric():
    # prop1 counts only vertices 0..n//2 because rows i and n - i are equal.
    for n in range(2, 61):
        _, rows = prefix_counts(make_path(n), range(n + 1))
        assert all(rows[i] == rows[n - i] for i in range(n + 1)), n


@pytest.mark.parametrize("n, lane", [
    (2, 16), (13, 16), (14, 32), (215, 32), (216, 64), (55108, 64),
])
def test_prop1_lane_steps(n, lane):
    # A product of two counts, each below n**2 / 2, fits in lane - 1 bits.
    assert (n**4).bit_length() < lane
    assert _prop1_lane(n) == lane


def test_prop1_lane_rejects_n4_beyond_63_bits():
    assert (55109**4).bit_length() == 64
    with pytest.raises(OutOfRangeError, match="prop1 max size 55109 is too large"):
        _prop1_lane(55109)


def test_oversized_prop1_exits_before_its_first_case(monkeypatch, capsys):
    def no_case(n):
        raise AssertionError("a case ran before the size check")
    monkeypatch.setattr(verify, "_prop1_columns", no_case)
    assert main(["verify", "--check", "prop1", "--max-size", "55109"]) == OutOfRangeError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prop1 max size 55109 is too large" in captured.err


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("suite", ("lemma1", "theorem3"))
def test_size_past_the_exact_cap_exits_before_its_first_case(
    monkeypatch, capsys, suite, workers
):
    def no_enumeration(n):
        raise AssertionError("histories were enumerated before the size check")
    _use_workers(monkeypatch, workers)
    monkeypatch.setattr(scale_free, "_presence_table", no_enumeration)
    assert main(["verify", "--check", suite, "--max-size", "10"]) == NTooLargeError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "exact enumeration capped at n=9, got 10" in captured.err


@pytest.mark.parametrize("raw", ("-1", "x"))
def test_bad_threads_value_exits_before_any_case(monkeypatch, capsys, raw):
    # verify reads BCPROF_THREADS as experiment does, and rejects it alike.
    def no_case(t, vs):
        raise AssertionError("a case ran before BCPROF_THREADS was read")
    monkeypatch.setattr(verify, "prefix_counts", no_case)
    monkeypatch.setenv("BCPROF_THREADS", raw)
    assert main(["verify", "--check", "tell"]) == BadSpecError.exit_code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "BCPROF_THREADS must be a non-negative integer" in captured.err


def test_prop1_past_the_default_size_uses_64_bit_lanes():
    # The default sweep stops at n = 200; lanes are 64 bits from n = 216.
    report = run_check("prop1", 220)
    assert report.passed and len(report.cases) == 219
