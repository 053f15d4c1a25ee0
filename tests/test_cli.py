"""CLI behavior: subcommands, output formats, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_experiments import _allow_cpus
from test_verify import PINNED as VERIFY_PINNED

import bcprof
from bcprof import (
    RecursiveTree,
    all_profiles,
    build_tree,
    make_broom,
    make_gij,
    make_path,
    prefix_counts,
    sample_tree,
    write_tree,
)
from bcprof.cli import _write_profile_rows, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_gij_file(self, tmp_path, capsys):
        out = tmp_path / "g.tree"
        code, _, _ = run_cli(capsys, "gen", "gij:3,5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert "# family: gij:3,5" in lines
        assert "# designated vertex: 1" in lines
        body = [ln for ln in lines if not ln.startswith("#")]
        assert body[0] == "51" and len(body) == 51

    def test_scale_free_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "gen", "scale-free:250", "--seed", "7")
        code2, out2, _ = run_cli(capsys, "gen", "scale-free:250", "--seed", "7")
        assert code1 == code2 == 0 and out1 == out2
        _, out3, _ = run_cli(capsys, "gen", "scale-free:250", "--seed", "8")
        assert out3 != out1

    def test_bad_spec_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "gen", "broom:0,3")
        assert code == 24 and "broom" in err

    def test_unknown_family(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "wheel:5")
        assert code == 24

    # sha256 of `gen tell:l` stdout, recorded before the tell search counted
    # its candidates from parent arrays (l = 8, 14, 18) and before it kept
    # its leaf counts in one list (l = 1..12).
    PINNED_TELL = {
        1: "e2af76187b2f5f89c941864da1bd0af26c3bf524305419c419771c59dee5b1e0",
        2: "5383c5ad589228e886db9e0ca06ff52b8e4b16007e3b47967c894cdca60822ad",
        3: "62ded3121a3c5d42ba8436b1b6a5ecdcce06b8372e8bafa501aaa00063933308",
        4: "481519203e23a40d3724592aa672bd93d42632417490b989e2d783c1cb6ce0c3",
        5: "2830c106c2ca89b405595e2386996e85de03c243013fed3b1db139d3bfad36cb",
        6: "851d3933a47f06ef5367001112869d7c89203a8d18064c9ba7827f9cb6c5b2de",
        7: "86a1259098e75443d45f0837f78034343ae297176e70899187c7a1dc4b47c3a6",
        8: "e3d1d8b59e450bc6f6736f96654a704f9f6f992418ae9496c72d243fc7b5f439",
        9: "729befbe97e9a9a96684d9fa9f76d446eb2785f3be48b4fd8f6c03d70a0ff741",
        10: "1f6ae37b1151a6ba3e3c15ffa432c075fa9abb4baef266ca70cdbcd0d6ae19e7",
        11: "3138014459ed5915bbc991c61bd0abbb0c7f6076f68c4a9ae3d8a949d0899895",
        12: "279fe33814029ae56e23a701d7dfd210ff1bf97183d4b692ba75d2506161eaed",
        14: "4e9b32bd4244183be5cc4bf266f9213daf897e6d672a351b9d3e1246f8531644",
        18: "6dd934c30b4adc47088b9f94caf74e62a75f3e6664a909e303cf9322ba7309b0",
    }

    @pytest.mark.parametrize("l", sorted(PINNED_TELL))
    def test_tell_pinned_bytes(self, capsys, l):
        code, out, _ = run_cli(capsys, "gen", f"tell:{l}")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_TELL[l]

    @pytest.mark.parametrize(
        "l, message",
        [
            (3, "b[1] = 2496001604 exceeds 1000000000"),
            (4, "a[2] = 4035773671173485152159 exceeds 1000000000"),
        ],
    )
    def test_tell_paper_bound_over_cap(self, capsys, l, message):
        code, out, err = run_cli(capsys, "gen", f"tell:{l},paper_bound")
        assert code == 20 and out == ""
        assert message in err

    # sha256 of `gen` stdout for a valid broom and double broom.
    PINNED_BROOMS = {
        "broom:3,2": "f10852378298a77dc8484d16f5efbc02a16ecd4a7cb064e0bb4c551f54520ab3",
        "double-broom:2,2": "913eb143c9f3e6bfffee3ab2d9671961edbe589508e97d7871f5274dfd20dc8f",
    }

    @pytest.mark.parametrize("spec", sorted(PINNED_BROOMS))
    def test_broom_pinned_bytes(self, capsys, spec):
        code, out, _ = run_cli(capsys, "gen", spec)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_BROOMS[spec]


class TestProfileCmd:
    @pytest.fixture()
    def fan_tree(self, tmp_path):
        # symmetric reference tree: vertices 5, 6, 7 interchangeable
        edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7),
                 (5, 8), (6, 9), (7, 10)]
        path = tmp_path / "fan.tree"
        path.write_text("11\n" + "\n".join(f"{u} {v}" for u, v in edges) + "\n")
        return str(path)

    def test_symmetric_rows_identical(self, fan_tree, capsys):
        code, out, _ = run_cli(capsys, "profile", "--tree", fan_tree, "--all",
                               "--format", "json")
        assert code == 0
        rows = json.loads(out)
        by_vertex = {}
        for r in rows:
            by_vertex.setdefault(r["vertex"], []).append(
                (r["k"], r["numerator"], r["denominator"])
            )
        assert by_vertex[5] == by_vertex[6] == by_vertex[7]

    def test_leaf_rows_zero(self, fan_tree, capsys):
        code, out, _ = run_cli(capsys, "profile", "--tree", fan_tree,
                               "--vertex", "8")
        assert code == 0
        for line in out.splitlines()[1:]:
            assert line.split(",")[2] == "0"

    def test_path_vertex_non_decreasing(self, tmp_path, capsys):
        tree = tmp_path / "p.tree"
        run_cli(capsys, "gen", "path:10", "--out", str(tree))
        code, out, _ = run_cli(capsys, "profile", "--tree", str(tree),
                               "--vertex", "5")
        assert code == 0
        decimals = [float(ln.split(",")[4]) for ln in out.splitlines()[1:]]
        assert decimals == sorted(decimals)

    def test_vertex_out_of_range(self, fan_tree, capsys):
        code, _, _ = run_cli(capsys, "profile", "--tree", fan_tree,
                             "--vertex", "99")
        assert code == 12


def _reference_rows_text(entries, fmt):
    """profile's stdout for (vertex, k, Fraction) entries, built the way it
    was before rows were written from the counts: one dict per row, then
    json.dumps or joined csv lines."""
    rows = [
        {
            "vertex": v,
            "k": k,
            "numerator": e.numerator,
            "denominator": e.denominator,
            "decimal": f"{float(e):.6f}",
        }
        for v, k, e in entries
    ]
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = ["vertex,k,numerator,denominator,decimal"]
    lines += [f"{r['vertex']},{r['k']},{r['numerator']},{r['denominator']},{r['decimal']}"
              for r in rows]
    return "\n".join(lines) + "\n"


def _reference_profile_output(t, fmt, vertices):
    """The reference text of profile on tree t, from all_profiles' Fractions."""
    return _reference_rows_text(
        ((p.vertex, k, e) for p in all_profiles(t) if p.vertex in vertices
         for k, e in zip(p.k_range(), p.entries)),
        fmt,
    )


class TestProfileBytes:
    # sha256 of profile's stdout, recorded before profile wrote its rows
    # straight from the counts. Trees come from `gen SPEC --seed 7`.
    PINNED = {
        ("path:40", "--all", "csv"):
            "2538cf16903c580b8953817ea41c06c83fa2f599cb656bfa67acc504e76fca3c",
        ("path:40", "--all", "json"):
            "5ef138f413b647fe261f645ff8b417c517e82858e497b004df87c4f2c53bbef1",
        ("gij:3,5", "--all", "csv"):
            "b49ea79d0a30969bfc54c838da83ee5bfb2eed9d764643d66f69c824bae8f865",
        ("gij:3,5", "--all", "json"):
            "056a4b94ad18cfcf4ccb4643d7347330db712056ab2dff17a0025977de1120ed",
        ("scale-free:200", "--all", "csv"):
            "4ba7eb254109c2350f4d6e5c5546a5e7a8c38d0f5f5ab7bf876d1b0bf3a95780",
        ("scale-free:200", "--all", "json"):
            "be41c49b5257a3e38a8828bd6c84889e2e6c3cc3d0a9fd1a2be32845a757b4bc",
        ("gij:3,5", "--vertex=3", "csv"):
            "e6c190d62c199a4ce4bd607a720143e649b6f016d0f2bba1140f0a8fa471f589",
        ("gij:3,5", "--vertex=3", "json"):
            "8b4ab7d73ecd33eaf21bcec9c3604d1bfb89ccc5c578229f65791db26bde4c06",
    }

    @pytest.mark.parametrize("spec, select, fmt", sorted(PINNED))
    def test_pinned_bytes(self, tmp_path, capsys, monkeypatch, spec, select, fmt):
        tree = tmp_path / "t.tree"
        run_cli(capsys, "gen", spec, "--seed", "7", "--out", str(tree))
        # Both selections count with one prefix_counts pass and build no table.
        calls = []

        def counted(t, vertices):
            calls.append(vertices)
            return prefix_counts(t, vertices)

        def no_table(t):
            raise AssertionError("profile built the full path-count table")

        monkeypatch.setattr("bcprof.cli.prefix_counts", counted)
        monkeypatch.setattr("bcprof.cli.path_counts_fast", no_table)
        code, out, _ = run_cli(capsys, "profile", "--tree", str(tree), select, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED[spec, select, fmt]
        assert len(calls) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_matches_fraction_rows(self, data):
        n = data.draw(st.integers(3, 60))
        kind = data.draw(st.sampled_from(("random", "path", "star")))
        if kind == "path":
            edges = [(i, i + 1) for i in range(n - 1)]
        elif kind == "star":  # d = 2: one k per vertex
            edges = [(0, i) for i in range(1, n)]
        else:
            rng = random.Random(data.draw(st.integers(0, 2**32)))
            edges = [(i + 1, rng.randrange(i + 1)) for i in range(n - 1)]
        t = build_tree(n, edges)
        v = data.draw(st.integers(0, n - 1))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.tree"
            path.write_text(write_tree(t))
            for fmt in ("csv", "json"):
                for select, vertices in ((["--all"], range(n)), (["--vertex", str(v)], [v])):
                    out = io.StringIO()
                    with contextlib.redirect_stdout(out):
                        code = main(["profile", "--tree", str(path), *select, "--format", fmt])
                    assert code == 0
                    assert out.getvalue() == _reference_profile_output(t, fmt, vertices)

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    @pytest.mark.parametrize("select, exit_code", [
        (("--all",), 15),
        (("--vertex", "1"), 15),
        (("--vertex", "2"), 12),  # the vertex is checked before the diameter
    ])
    def test_two_vertex_tree_writes_nothing(self, tmp_path, capsys, fmt, select, exit_code):
        tree = tmp_path / "two.tree"
        tree.write_text("2\n0 1\n")
        code, out, err = run_cli(capsys, "profile", "--tree", str(tree), *select,
                                 "--format", fmt)
        assert code == exit_code and out == ""
        if exit_code == 15:
            assert "diameter 1 < 2: profile is empty" in err


def _assert_renders_reference(fmt, Pk, rows):
    """_write_profile_rows of (vertex, P_k(v) row) pairs prints the Fraction reference."""
    out = io.StringIO()
    _write_profile_rows(out, fmt, Pk, rows)
    expected = _reference_rows_text(
        ((v, k, Fraction(Pkv[k], Pk[k])) for v, Pkv in rows for k in range(2, len(Pk))),
        fmt,
    )
    assert out.getvalue() == expected


class TestRenderLargeCounts:
    """_write_profile_rows on counts far past 2**53, where a float taken of
    either count alone would round: every cell must still be the reduced
    Fraction and its correctly rounded decimal."""

    @staticmethod
    def _counts(rng, d, vertices):
        # A common factor of 2**30 in every count makes the gcd reduction matter.
        Pk = [0, 0] + [rng.randrange(2**58, 2**60) << 30 for _ in range(d - 1)]
        rows = []
        for i, v in enumerate(vertices):
            if i == 1:
                Pkv = [0] * (d + 1)  # a leaf
            elif i == 2:
                Pkv = list(Pk)  # on every path: 1/1
            else:
                Pkv = [0, 0] + [rng.randrange((b >> 30) + 1) << 30 for b in Pk[2:]]
            rows.append((v, Pkv))
        return Pk, rows

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    @pytest.mark.parametrize("d, vertices", [
        (9, range(5)),
        (2, range(4)),  # one column per vertex
        (9, [7]),  # a one-vertex selection
        (2, [123456]),
    ])
    def test_matches_fraction_reference(self, fmt, d, vertices):
        Pk, rows = self._counts(random.Random(f"{d} {len(vertices)}"), d, vertices)
        assert max(Pk) > 2**88
        _assert_renders_reference(fmt, Pk, rows)

    def test_decimal_is_the_exact_quotients(self):
        # The quotient sits just past a sixth-decimal half-point: dividing
        # the rounded floats of a and b would print 0.436388.
        a, b = 220522942136476445263986366, 505336282089185288447449536
        assert f"{float(a) / float(b):.6f}" == "0.436388"
        out = io.StringIO()
        _write_profile_rows(out, "csv", [0, 0, b], [(0, [0, 0, a])])
        f = Fraction(a, b)
        assert out.getvalue().splitlines()[1] == f"0,2,{f.numerator},{f.denominator},0.436389"


class TestRenderRepeatedRows:
    """Equal rows are formatted once and written again with the vertex
    swapped; every output must still be the Fraction reference's."""

    Pk = [0, 0, 12, 8, 6]
    A = [0, 0, 3, 2, 1]
    B = [0, 0, 0, 0, 0]  # a leaf
    C = [0, 0, 12, 8, 6]  # on every path: 1/1

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_first_row_repeats(self, fmt):
        # The first row is written after the head, its copies after a separator.
        rows = [(0, self.A), (1, self.B), (2, self.A), (3, self.A)]
        _assert_renders_reference(fmt, self.Pk, rows)

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    @pytest.mark.parametrize("vertices", [(7, 10, 1234, 5), (1234, 10, 7, 99999)])
    def test_vertices_of_other_digit_counts(self, fmt, vertices):
        rows = [(v, self.A) for v in vertices]
        rows.insert(2, (3, self.C))
        _assert_renders_reference(fmt, self.Pk, rows)

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_three_occurrences_around_single_rows(self, fmt):
        rows = [(0, self.B), (1, self.A), (2, self.C), (3, self.A), (4, [0, 0, 1, 1, 1]),
                (5, self.A), (6, self.B)]
        _assert_renders_reference(fmt, self.Pk, rows)

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_one_vertex(self, fmt):
        _assert_renders_reference(fmt, self.Pk, [(4, self.A)])

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    def test_equal_hashes_of_distinct_rows(self, fmt):
        # Rows are keyed by hash; two distinct rows on one key must each
        # print their own cells.
        x, y = [0, 0, -1], [0, 0, -2]
        if hash(tuple(x)) != hash(tuple(y)):
            pytest.skip("this Python does not hash -1 and -2 alike")
        _assert_renders_reference(fmt, [0, 0, 5], [(0, x), (1, y), (2, x), (3, y), (4, y)])


class TestRenderMemory:
    """A formatted row is kept only while an equal row is still to come."""

    class _Sink:
        chars = 0

        def write(self, text):
            self.chars += len(text)

    @pytest.mark.parametrize("fmt", ("csv", "json"))
    @pytest.mark.parametrize("tree, bound", [
        # 201 equal leaf rows (the handle's far end and the 200 leaves) and
        # 99 rows that never repeat: only the leaf row waits.
        (make_broom(99, 200)[0], 0.25),
        # Rows v and n - v are equal: the first half waits for the second.
        (make_path(120), 0.75),
    ], ids=("broom", "path"))
    def test_traced_peak_below_output(self, fmt, tree, bound):
        Pk, Pkv = prefix_counts(tree, range(tree.n))
        rows = list(zip(range(tree.n), Pkv))
        sink = self._Sink()
        tracemalloc.start()
        try:
            _write_profile_rows(sink, fmt, Pk, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * sink.chars


_GOLDENS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json").read_text()
)["outputs"]


def _golden_tree(spec):
    """The tree of a benchmark input spec: path:<n>, gij:<i>,<j> or pa:<n>:<seed>."""
    family, _, arg = spec.partition(":")
    if family == "path":
        return make_path(int(arg))
    if family == "gij":
        i, j = arg.split(",")
        return make_gij(int(i), int(j))[0]
    n, seed = arg.split(":")
    return sample_tree(int(n), random.Random(int(seed))).tree()


class TestBenchGoldens:
    """profile --all and Monte Carlo expect on the benchmark's inputs, byte
    for byte as recorded in perfbench/goldens.json, so a change that would
    fail the benchmark's output check fails here first."""

    KEYS = sorted(key for key in _GOLDENS if key.startswith("profile "))
    EXPECT_KEYS = sorted(key for key in _GOLDENS if key.startswith("expect "))

    @staticmethod
    def check_golden(key, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0
        data = out.getvalue().encode()
        assert len(data) == _GOLDENS[key]["bytes"]
        assert hashlib.sha256(data).hexdigest() == _GOLDENS[key]["sha256"]

    def test_every_profile_golden_is_covered(self):
        assert len(self.KEYS) == 9

    def test_every_expect_golden_is_covered(self):
        assert len(self.EXPECT_KEYS) == 18

    @pytest.mark.parametrize("key", KEYS)
    def test_profile_all_bytes(self, tmp_path, key):
        _, _, spec, *rest = key.split()
        tree = tmp_path / "t.tree"
        tree.write_text(write_tree(_golden_tree(spec)))
        self.check_golden(key, ["profile", "--tree", str(tree), *rest])

    @pytest.mark.parametrize("key", EXPECT_KEYS)
    def test_expect_bytes(self, key):
        self.check_golden(key, key.split())


class TestAnalyzeCmd:
    def test_gij_dips(self, tmp_path, capsys):
        tree = tmp_path / "g.tree"
        run_cli(capsys, "gen", "gij:6,5", "--out", str(tree))
        code, out, _ = run_cli(capsys, "analyze", "--tree", str(tree),
                               "--vertex", "1")
        assert code == 0
        assert json.loads(out)["dip_count"] >= 4

    def test_identical_pair_no_crossings(self, tmp_path, capsys):
        tree = tmp_path / "p.tree"
        run_cli(capsys, "gen", "path:6", "--out", str(tree))
        code, out, _ = run_cli(capsys, "analyze", "--tree", str(tree),
                               "--pair", "2", "4")  # mirror vertices
        assert code == 0
        assert json.loads(out)["crossing_count"] == 0

    def test_tell_pair_crossings(self, tmp_path, capsys):
        tree = tmp_path / "t.tree"
        run_cli(capsys, "gen", "tell:3", "--out", str(tree))
        code, out, _ = run_cli(capsys, "analyze", "--tree", str(tree),
                               "--pair", "0", "6")
        assert code == 0
        assert json.loads(out)["crossing_count"] >= 3


class TestVerifyCmd:
    def test_known_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "corollary1",
                               "--max-size", "10")
        assert code == 0
        assert "corollary1: pass" in out

    def test_zero_cases_fail(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--check", "prop1",
                               "--max-size", "-3")
        assert code == 1
        assert "prop1: FAIL (0 cases)" in out
        # theorem3 always reports its injection case; below 3 labels that
        # case has no (path, v) pair to check.
        code, out, _ = run_cli(capsys, "verify", "--check", "theorem3",
                               "--max-size", "2")
        assert code == 1
        assert "theorem3: FAIL (1 cases)" in out

    def test_unknown_check(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--check", "bogus")
        assert code == 25 and "unknown check" in err

    def test_seconds_on_stderr_only(self, capsys, monkeypatch):
        # The bytes verify wrote before it reported its time and workers;
        # stdout is the same for any worker count.
        _allow_cpus(monkeypatch, 2)
        for threads, workers in (("1", "1 worker"), ("2", "2 workers")):
            monkeypatch.setenv("BCPROF_THREADS", threads)
            code, out, err = run_cli(capsys, "verify", "--check", "lemma1", "--max-size", "4")
            assert code == 0
            assert out == ("PASS lemma1 n=2\nPASS lemma1 n=3\nPASS lemma1 n=4\n"
                           "lemma1: pass (3 cases)\n")
            assert re.fullmatch(rf"lemma1: \d+\.\d{{3}} s, {workers}\n", err)


class TestMalformedInput:
    @pytest.mark.parametrize("argv, tree_bytes, named", [
        (("profile", "--tree", "{tree}", "--all"), b"3\n0 1\n1\n", "line 3"),
        (("profile", "--tree", "{tree}", "--all"), b"3\nx\n", "line 2"),
        (("experiment", "--which", "no_cross_12_vs_n", "--grid", "10,x"), b"", "'x'"),
        (("profile", "--tree", "{tree}", "--all"), b"3\n0 1\xff\n1 2\n", "bad.tree"),
        (("verify", "--check", "prop2", "--max-size", "-7"), b"", "prop2"),
    ], ids=("short-edge-line", "non-integer-n", "grid-token", "not-utf8", "prop2-max-size"))
    def test_exits_24_naming_the_input(self, tmp_path, capsys, argv, tree_bytes, named):
        path = tmp_path / "bad.tree"
        path.write_bytes(tree_bytes)
        code, out, err = run_cli(capsys, *(str(path) if a == "{tree}" else a for a in argv))
        assert code == 24 and out == ""
        assert named in err


@st.composite
def _near_tree(draw):
    """A tree file with at most one fault: one edge line replaced by any pair
    (self-loop, duplicate, out of range or cycle) or by a stray token, or one
    line dropped or repeated. n <= 2 and n < 1 come up too."""
    n = draw(st.integers(-1, 7))
    lines = [f"{i + 1} {draw(st.integers(0, i))}" for i in range(n - 1)]
    fault = draw(st.sampled_from(("none", "replace", "stray", "drop", "repeat")))
    if lines and fault != "none":
        i = draw(st.integers(0, len(lines) - 1))
        if fault == "replace":
            lines[i] = f"{draw(st.integers(-1, n))} {draw(st.integers(-1, n))}"
        elif fault == "stray":
            lines[i] = draw(st.sampled_from(("x", "#", "1.5", "7 8 9", "\udcff", "")))
        elif fault == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    return "\n".join((str(n), *lines)).encode("utf-8", "surrogateescape")


class TestMalformedTreeFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(max_size=64) | _near_tree())
    def test_only_documented_exit_codes(self, tree_bytes):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "fuzz.tree"
            path.write_bytes(tree_bytes)
            for argv in (("profile", "--all"), ("analyze", "--vertex", "0"),
                         ("analyze", "--pair", "0", "1")):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main([argv[0], "--tree", str(path), *argv[1:]])
                assert code in (0, 3) or 10 <= code <= 25, (argv, code)
                if code != 0:
                    assert out.getvalue() == "", argv


class TestExpectCmd:
    def test_exact_reference(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n", "4", "--k", "2", "--exact")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("1,2,8/5")
        assert lines[2].startswith("2,2,11/15")
        assert lines[3].startswith("3,2,1/5")

    @pytest.mark.parametrize("n", ("0", "-3"))
    def test_exact_rejects_n_below_one(self, capsys, n):
        code, out, err = run_cli(capsys, "expect", "--n", n, "--k", "2", "--exact")
        assert code == 12 and out == "" and "--n" in err

    @pytest.mark.parametrize("route", ((), ("--exact",)))
    @pytest.mark.parametrize("k", ("1", "0", "-3"))
    def test_k_below_two_exit_12(self, capsys, monkeypatch, route, k):
        # No path of length below 2 has an interior vertex; the check must
        # fire before any sampling or enumeration.
        def no_run(*args):
            raise AssertionError("expect sampled or enumerated")

        monkeypatch.setattr("bcprof.cli.estimate_expected_profiles", no_run)
        monkeypatch.setattr("bcprof.cli.exact_expected_pk", no_run)
        code, out, err = run_cli(capsys, "expect", "--n", "5", "--k", k, *route)
        assert (code, out) == (12, "")
        assert "--k" in err

    def test_exact_cap(self, capsys):
        code, out, err = run_cli(capsys, "expect", "--n", "12", "--k", "3", "--exact")
        assert code == 22 and out == ""
        # The history enumeration states the cap for every exact route.
        assert err == "error: exact enumeration capped at n=9, got 12\n"

    def test_exact_cap_at_ten(self, capsys):
        code, out, err = run_cli(capsys, "expect", "--n", "10", "--k", "2", "--exact")
        assert (code, out) == (22, "")
        assert "capped at n=9, got 10" in err

    # sha256 of `expect --exact` stdout, recorded before the history
    # enumeration moved to one presence table per n.
    PINNED_EXACT = {
        (1, 2): "d34bb3fda3fdb366bb41df3106896c0fe5bc0d65839e107e55a9c5e5dcb439fa",
        (4, 2): "52e895e0ab8e0706589936ca9d727a5da0be84761dc2c2a1aa7f028dfc52f574",
        (7, 3): "43c6815dc5038eab26757ab7581d810a365e1fcd1d556b546a8a8a4e3c605e7b",
        (8, 4): "610c695c8ae4692ea963d85cfe501ce463456fa36a2accec4684ad74dd7aae3b",
        (5, 9): "78762056aab75969426bb8616334a3457aefd8ab419a67f4d12c56d4f6b6d35b",  # k > d
    }

    @pytest.mark.parametrize("n, k", sorted(PINNED_EXACT))
    def test_exact_pinned_bytes(self, capsys, n, k):
        code, out, _ = run_cli(capsys, "expect", "--n", str(n), "--k", str(k), "--exact")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_EXACT[n, k]

    def test_monte_carlo(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n", "5", "--k", "2",
                               "--trials", "20", "--seed", "3")
        assert code == 0
        assert out.splitlines()[0] == "vertex,k,mean,stderr,trials"
        assert all(ln.endswith(",20") for ln in out.splitlines()[1:])

    def test_monte_carlo_k_past_every_diameter(self, capsys):
        # The largest sampled diameter here is 4, and BC_K = BC_d for K >= d.
        argv = ("expect", "--n", "5", "--trials", "20", "--seed", "3", "--k")
        code9, out9, _ = run_cli(capsys, *argv, "9")
        code4, out4, _ = run_cli(capsys, *argv, "4")
        assert code9 == code4 == 0
        rows9 = [ln.split(",") for ln in out9.splitlines()[1:]]
        rows4 = [ln.split(",") for ln in out4.splitlines()[1:]]
        assert len(rows9) == 5
        assert [r[1] for r in rows9] == ["9"] * 5
        assert [r[:1] + r[2:] for r in rows9] == [r[:1] + r[2:] for r in rows4]

    # Digest of the 1846 stdout bytes recorded before the per-table ratio
    # rows replaced the per-(vertex, k) table lookups.
    MONTE_CARLO_ARGV = ("expect", "--n", "12", "--trials", "30", "--seed", "3")
    MONTE_CARLO_SHA256 = "6a867888745333af260718bd2f0b58b2251dea0618335f705e8b166788ed3f5e"

    def test_monte_carlo_pinned_bytes(self, capsys):
        code, out, _ = run_cli(capsys, *self.MONTE_CARLO_ARGV)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.MONTE_CARLO_SHA256

    def test_monte_carlo_never_builds_a_tree(self, capsys, monkeypatch):
        # Each trial counts straight from the attachment order.
        def no_tree(self):
            raise AssertionError("a trial built a Tree")

        monkeypatch.setattr(RecursiveTree, "tree", no_tree)
        self.test_monte_carlo_pinned_bytes(capsys)

    def test_monte_carlo_bytes_without_builtin_sum(self, capsys, monkeypatch):
        # CPython 3.12 made sum() over floats compensated, so means and
        # variances must be accumulated left to right for these bytes to
        # hold on every supported Python.
        def no_sum(*args):
            raise AssertionError("the estimator called sum()")

        monkeypatch.setattr("bcprof.scale_free.sum", no_sum, raising=False)
        self.test_monte_carlo_pinned_bytes(capsys)


class TestExperimentCmd:
    def test_csv_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            capsys, "experiment", "--which", "no_cross_12_vs_n",
            "--grid", "5,8", "--trials", "10", "--seed", "1",
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,estimate,stderr,trials,seed"
        manifest = json.loads((tmp_path / "curve.csv.manifest.json").read_text())
        assert manifest["trials"] == 10

    def test_manifest_argv_reruns(self, tmp_path, capsys):
        # The manifest's argv, with a fresh --out, reproduces the CSV bytes.
        argv = ["experiment", "--which", "no_cross_ii1_vs_i", "--grid", "3,7",
                "--trials", "12", "--seed", "4", "--fixed-n", "20",
                "--out", str(tmp_path / "first.csv")]
        assert main(argv) == 0
        manifest = json.loads((tmp_path / "first.csv.manifest.json").read_text())
        assert manifest["argv"] == argv
        rerun = list(manifest["argv"])
        rerun[rerun.index("--out") + 1] = str(tmp_path / "second.csv")
        assert main(rerun) == 0
        assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()

    def test_rerun_identical(self, tmp_path, capsys):
        args = ("experiment", "--which", "monotone_1_vs_n", "--grid", "6",
                "--trials", "15", "--seed", "2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_trials_beyond_substream_width_exit_12(self, capsys, monkeypatch):
        # The config check must fire before the task list is built.
        def no_run(cfg):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("bcprof.cli.run_experiment", no_run)
        code, out, err = run_cli(capsys, "experiment", "--which", "no_cross_12_vs_n",
                                 "--trials", "16777217")
        assert (code, out) == (12, "")
        assert "trials" in err

    @pytest.mark.parametrize("which", ("monotone_i_vs_i", "no_cross_ii1_vs_i"))
    def test_fixed_n_below_three_exit_12(self, capsys, monkeypatch, which):
        # On two vertices every profile is empty and the estimate would read
        # 1 for a vacuous indicator.
        def no_run(cfg):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("bcprof.cli.run_experiment", no_run)
        code, out, err = run_cli(capsys, "experiment", "--which", which,
                                 "--fixed-n", "2", "--grid", "1", "--trials", "10")
        assert (code, out) == (12, "")
        assert "fixed vertex count" in err

    def test_empty_grid_exit_24(self, capsys, monkeypatch):
        # An empty --grid is a bad spec, not a request for the default grid.
        def no_run(cfg):
            raise AssertionError("a trial ran")

        monkeypatch.setattr("bcprof.cli.run_experiment", no_run)
        code, out, err = run_cli(capsys, "experiment", "--which", "no_cross_12_vs_n",
                                 "--grid", "", "--trials", "1")
        assert (code, out) == (24, "")
        assert "''" in err


class TestErrorExits:
    # Each case's exit code, empty stdout and the start of its stderr.
    CASES = (
        (("expect", "--exact", "--n", "3"), 24, "error: --exact requires --k"),
        (("expect", "--n", "2"), 12, "error: need n >= 3"),
        (("expect", "--n", "5", "--trials", "0"), 12, "error: need trials >= 1"),
        (("gen", "path:3", "--out", "{missing}/x.tree"), 3, "io error:"),
        (("gen", "double-broom:3,1"), 24, "error: bad family spec 'double-broom:3,1'"),
        (("gen", "double-broom:0,1"), 24, "error: bad family spec 'double-broom:0,1'"),
        (("gen", "gij:0,5"), 24, "error: bad family spec 'gij:0,5'"),
        (("gen", "broom:0,2"), 24, "error: bad family spec 'broom:0,2'"),
        (("gen", "tell:2,nope"), 24, "error: unknown strategy 'nope'\n"),
        # Seeds outside [0, 2**64) would repeat another seed's draws.
        *((("experiment", "--which", "monotone_1_vs_n", "--grid", "5", "--trials", "3",
            "--seed", seed), 12, f"error: need 0 <= seed < 2**64, got {seed}")
          for seed in ("18446744073709551616", "-1")),
        *((("expect", "--n", "5", "--trials", "3", "--seed", seed), 12,
           f"error: need 0 <= seed < 2**64, got {seed}")
          for seed in ("18446744073709551616", "-1")),
        *((("gen", "scale-free:8", "--seed", seed), 24,
           f"error: bad family spec 'scale-free:8': need 0 <= seed < 2**64, got {seed}")
          for seed in ("18446744073709551616", "-1")),
    )

    @pytest.mark.parametrize(
        "argv, exit_code, prefix", CASES, ids=[" ".join(argv) for argv, _, _ in CASES]
    )
    def test_exit_code_and_stderr(self, tmp_path, capsys, argv, exit_code, prefix):
        argv = [a.format(missing=tmp_path / "missing") for a in argv]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (exit_code, "")
        assert err.startswith(prefix)

    @pytest.mark.parametrize("argv", (
        ("experiment", "--which", "monotone_1_vs_n", "--grid", "5", "--trials", "3"),
        ("expect", "--n", "5", "--trials", "3"),
        ("gen", "scale-free:8"),
    ), ids=lambda argv: argv[0])
    def test_largest_seed_runs(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", str(2**64 - 1))
        assert (code, err) == (0, "") and out


class TestOptimizedBytes:
    """`python -O` strips every assert, so no output byte may depend on one.
    One subprocess prints the digest of each run's stdout."""

    SCRIPT = (
        "import contextlib, hashlib, io, json, sys\n"
        "from bcprof.cli import main\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        code = main(argv)\n"
        "    print(code, hashlib.sha256(out.getvalue().encode()).hexdigest())\n"
    )
    PROFILE_KEY = "profile --tree pa:1300:3 --all"

    def test_pinned_digests_under_dash_o(self, tmp_path):
        tree = tmp_path / "t.tree"
        tree.write_text(write_tree(_golden_tree("pa:1300:3")))
        runs = {
            **{suite: ["verify", "--check", suite] for suite in VERIFY_PINNED},
            "expect": list(TestExpectCmd.MONTE_CARLO_ARGV),
            "profile": ["profile", "--tree", str(tree), "--all"],
        }
        src = str(Path(bcprof.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT, json.dumps(list(runs.values()))],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        got = dict(zip(runs, proc.stdout.splitlines()))
        want = {
            **{suite: f"0 {digest}" for suite, digest in VERIFY_PINNED.items()},
            "expect": f"0 {TestExpectCmd.MONTE_CARLO_SHA256}",
            "profile": f"0 {_GOLDENS[self.PROFILE_KEY]['sha256']}",
        }
        assert got == want


def test_import_loads_no_process_machinery():
    # Only `experiment` and `verify` with more than one worker start
    # processes, and they import multiprocessing then. Modules the
    # interpreter loaded before bcprof (site hooks) are left out of the
    # comparison; the first line lists what the import loaded, the second
    # what a one-worker `verify` run loaded besides.
    code = (
        "import contextlib, io, sys\n"
        "before = set(sys.modules)\n"
        "import bcprof.cli\n"
        "imported = set(sys.modules) - before\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert bcprof.cli.main(['verify', '--check', 'tell']) == 0\n"
        "print(' '.join(sorted(imported)))\n"
        "print(' '.join(sorted(set(sys.modules) - before - imported)))\n"
    )
    src = str(Path(bcprof.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "BCPROF_THREADS": "1"}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    imported, ran = (line.split() for line in proc.stdout.split("\n")[:2])
    assert "bcprof.cli" in imported
    # A submodule loads its package too, so the packages are enough to test.
    for loaded in (imported, ran):
        assert {"multiprocessing", "concurrent.futures", "logging"}.isdisjoint(loaded)
