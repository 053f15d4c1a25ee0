"""Named verification suites: each closed form or inequality against an oracle.

Each check runs a sweep of finite instances and reports one case per
instance. Every comparison is exact (integers or fractions); the suites are
the same ones the acceptance tests run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadSpecError, UnknownCheckError
from .profile_analysis import count_crossings, count_dips, dominates
from .scale_free import (
    all_candidate_paths,
    exact_expected_pk,
    exact_path_presence_prob,
    injection_case,
    injection_f,
    injection_ratio,
    path_probability,
    signature_of_path,
)
from .tree_core import path_counts_fast, path_counts_naive, prefix_counts
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


@dataclass(frozen=True)
class CheckCase:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CheckReport:
    check: str
    cases: tuple[CheckCase, ...]

    @property
    def passed(self) -> bool:
        """True when every case passed; a report with no cases checked nothing."""
        return bool(self.cases) and all(c.passed for c in self.cases)


def _case(name: str, ok: bool, detail: str = "") -> CheckCase:
    return CheckCase(name=name, passed=ok, detail="" if ok else detail)


def check_prop1(max_size: int = 200) -> CheckReport:
    """Path profiles are non-decreasing and no vertex pair ever crosses."""
    cases = []
    for n in range(2, max_size + 1):
        table = path_counts_fast(make_path(n))
        Pk = table.Pk[2:]
        rows = [row[2:] for row in table.Pkv]
        # BC_k <= BC_{k+1} by cross-multiplication (shared denominators).
        mono = all(
            a * pk1 <= b * pk0
            for row in rows
            for a, b, pk0, pk1 in zip(row, row[1:], Pk, Pk[1:])
        )
        # A pair crosses iff its raw-count difference takes both signs, so
        # no pair crosses iff the rows form a chain under pointwise <=.
        rows.sort(key=sum)
        no_cross = all(dominates(hi, lo) for lo, hi in zip(rows, rows[1:]))
        cases.append(
            _case(f"path n={n}", mono and no_cross,
                  f"monotone={mono}, no_cross={no_cross}")
        )
    return CheckReport(check="prop1", cases=tuple(cases))


def check_corollary1(max_size: int = 50) -> CheckReport:
    """Closed-form path P_k(i) and BC_k(i) equal the brute-force oracle."""
    cases = []
    for n in range(2, max_size + 1):
        table = path_counts_naive(make_path(n))
        ok, detail = True, ""
        for i in range(0, n // 2 + 1):
            for k in range(2, n + 1):
                want_pkv = table.Pkv[i][k]
                got_pkv = closed_form_path_Pkv(n, i, k)
                got_bck = closed_form_path_bck(n, i, k)
                want_bck = Fraction(want_pkv, table.Pk[k])
                if got_pkv != want_pkv or got_bck != want_bck:
                    ok, detail = False, f"i={i}, k={k}: {got_pkv} != {want_pkv}"
                    break
            if not ok:
                break
        cases.append(_case(f"path n={n}", ok, detail))
    return CheckReport(check="corollary1", cases=tuple(cases))


def check_gij_tables(max_size: int = 5) -> CheckReport:
    """Tabulated p_k, P_k and P_k(v) rows equal the oracle on small instances."""
    cases = []
    for i in range(3, max_size + 1):
        for j in (5, 6, 7):
            t, v = make_gij(i, j)
            table = path_counts_naive(t)
            ok, detail = True, ""
            for k in tabulated_gij_k_values(i, j):
                if closed_form_gij_pk(i, j, k) != table.p[k]:
                    ok, detail = False, (
                        f"p_k mismatch at k={k}: "
                        f"{closed_form_gij_pk(i, j, k)} != {table.p[k]}"
                    )
                    break
            if ok:
                for r in range(2, i):
                    ks = (r * (j + 1) + 2, r * (j + 1) + 3, r * (j + 1) + 4)
                    got = closed_form_gij_Pk(i, j, r)
                    want = tuple(table.Pk[k] for k in ks)
                    got_v = closed_form_gij_Pkv(i, j, r)
                    want_v = tuple(table.Pkv[v][k] for k in ks)
                    if got != want or got_v != want_v:
                        ok, detail = False, (
                            f"r={r}: P_k {got} vs {want}, P_k(v) {got_v} vs {want_v}"
                        )
                        break
            cases.append(_case(f"G(i={i}, j={j})", ok, detail))
    return CheckReport(check="gij-tables", cases=tuple(cases))


def check_theorem1(max_size: int = 10) -> CheckReport:
    """Dip inequalities BC_{6r+2} > BC_{6r+3} < BC_{6r+4} on the j=5 family.

    The pointwise inequality is verified for 2 <= r <= i-2; at r = i-1 the
    left inequality is exactly false once i >= 6 (e.g. i=6: BC_32 = 81/4506
    < BC_33 = 82/4560), so that value of r is excluded. The dip count of
    the full profile is still required to be at least i-2.
    """
    cases = []
    for i in range(3, max_size + 1):
        t, v = make_gij(i, 5)
        Pk, (Pkv,) = prefix_counts(t, [v])
        d = len(Pk) - 1
        ok, detail = True, ""
        for r in range(2, i - 1):
            k = 6 * r + 2
            left = Pkv[k] * Pk[k + 1] > Pkv[k + 1] * Pk[k]
            right = Pkv[k + 1] * Pk[k + 2] < Pkv[k + 2] * Pk[k + 1]
            if not (left and right):
                ok, detail = False, f"r={r}: left={left}, right={right}"
                break
        if ok:
            prof = tuple(Fraction(Pkv[k], Pk[k]) for k in range(2, d + 1))
            dips = count_dips(prof).count
            if dips < i - 2:
                ok, detail = False, f"dip count {dips} < {i - 2}"
        cases.append(_case(f"G(i={i}, j=5)", ok, detail))
    return CheckReport(check="theorem1", cases=tuple(cases))


def check_tell(max_size: int = 3) -> CheckReport:
    """Alternation inequalities and crossing count of the crossing family."""
    cases = []
    for l in range(1, max_size + 1):
        t, u, v, _choice = make_tell(l)
        _, (Pu, Pv) = prefix_counts(t, (u, v))
        ok, detail = True, ""
        for i in range(1, l):
            if not Pu[2 * i] > Pv[2 * i]:
                ok, detail = False, f"P_{2 * i}(u) <= P_{2 * i}(v)"
                break
            if not Pv[2 * i + 1] > Pu[2 * i + 1]:
                ok, detail = False, f"P_{2 * i + 1}(v) <= P_{2 * i + 1}(u)"
                break
        if ok:
            crossings = count_crossings(Pu[2:], Pv[2:]).count
            if crossings < 2 * l - 3:
                ok, detail = False, f"crossings {crossings} < {2 * l - 3}"
        cases.append(_case(f"l={l}", ok, detail))
    return CheckReport(check="tell", cases=tuple(cases))


def check_prop2() -> CheckReport:
    """Finite witnesses of the double-broom gap and the broom dominance."""
    profiles = []
    for t, v in (make_double_broom(10, 1000), make_broom(1000, 50)):
        Pk, (Pkv,) = prefix_counts(t, [v])
        profiles.append([Fraction(Pkv[k], Pk[k]) for k in range(2, len(Pk))])
    double, broom = profiles

    ok = all(bc / double[-1] < Fraction(1, 10) for bc in double[:-1])
    cases = [_case("double broom m=10, n=1000", ok, "ratio >= 1/10 at some k < d")]
    # delta = 0.05: check k <= delta^2 * m = 2.5, i.e. k = 2.
    ok = all(broom[k - 2] / broom[-1] > 2 for k in (2,))
    cases.append(_case("broom m=1000, n=50", ok, "ratio <= 2 at k=2"))

    return CheckReport(check="prop2", cases=tuple(cases))


def check_lemma1(max_size: int = 7) -> CheckReport:
    """Closed-form path probability equals the history-enumeration oracle."""
    cases = []
    for n in range(2, max_size + 1):
        bad = None
        for seq in all_candidate_paths(n):
            got = path_probability(signature_of_path(seq))
            want = exact_path_presence_prob(n, seq)
            if got != want:
                bad = f"path {seq}: {got} != {want}"
                break
        cases.append(_case(f"n={n}", bad is None, bad or ""))
    return CheckReport(check="lemma1", cases=tuple(cases))


def check_theorem3(max_size: int = 7) -> CheckReport:
    """Expectation ordering plus the injection's three promised properties."""
    cases = []
    for n in range(3, max_size + 1):
        bad = None
        for k in range(2, n):
            values = [exact_expected_pk(n, v, k) for v in range(1, n + 1)]
            drops = all(x > y for x, y in zip(values, values[1:]))
            if not drops:
                bad = f"k={k}: E[p_k(v)] not strictly decreasing: {values}"
                break
        cases.append(_case(f"expectation order n={n}", bad is None, bad or ""))

    sigs = [signature_of_path(seq) for seq in all_candidate_paths(max_size)]
    bad = None
    images: dict[tuple[int, int, object], object] = {}
    for sig in sigs:
        for w in sorted(sig.interior):
            v = w - 1
            if v < 1:
                continue
            case = injection_case(sig, v)
            img = injection_f(sig, v)
            if img.length != sig.length:
                bad = f"f not length-preserving on {sig}, v={v}"
                break
            if v not in img.interior:
                bad = f"v={v} not interior in image of {sig}"
                break
            ratio = injection_ratio(v, case)
            if path_probability(img) != path_probability(sig) * ratio:
                bad = f"ratio mismatch (case {case}) on {sig}, v={v}"
                break
            key = (v, sig.length, img)
            if key in images and images[key] != sig:
                bad = f"f not injective at v={v}: {images[key]} and {sig} -> {img}"
                break
            images[key] = sig
        if bad:
            break
    if bad is None and not images:
        bad = "no (path, v) pair to check"
    cases.append(_case(f"injection labels <= {max_size}", bad is None, bad or ""))
    return CheckReport(check="theorem3", cases=tuple(cases))


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


def run_check(name: str, max_size: int | None = None) -> CheckReport:
    """Run one suite; `max_size` replaces the suite's own default when given."""
    if name not in _CHECKS:
        raise UnknownCheckError(
            f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}"
        )
    func = _CHECKS[name]
    if max_size is None:
        return func()
    if func is check_prop2:
        raise BadSpecError(f"{name} checks fixed instances and takes no max size")
    return func(max_size)
