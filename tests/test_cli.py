"""CLI behavior: subcommands, output formats, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import types
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_experiments import TestDeterminism as ExperimentPins, _allow_cpus
from test_scale_free import CLOSED_FORM_FAULTS
from test_verify import PINNED as VERIFY_PINNED

import bcprof
from bcprof import errors
from bcprof import (
    LengthMismatchError,
    OutOfDomainError,
    OutOfRangeError,
    RecursiveTree,
    all_profiles,
    bfs_distances,
    build_tree,
    closed_form_gij_Pk,
    closed_form_gij_Pkv,
    dominates,
    exact_expected_pk,
    make_broom,
    make_double_broom,
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


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_section(heading):
    """The lines of README.md under heading, up to the next heading of the
    same or a higher level."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index(heading) + 1
    level = heading.split()[0]
    end = next(
        (i for i in range(start, len(lines))
         if lines[i].startswith("#") and lines[i].split()[0] <= level),
        len(lines),
    )
    return lines[start:end]


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

    # sha256 of `gen scale-free:250 --seed 7` stdout, recorded before
    # RecursiveTree.tree() built its Tree through tree_from_parents.
    SCALE_FREE_ARGV = ("gen", "scale-free:250", "--seed", "7")
    SCALE_FREE_SHA256 = "7fbba5215525f5f8992f0199c290eee8131e4cdc3eb9636f6f31f36339b8bbcd"

    def test_scale_free_pinned_bytes(self, capsys):
        code, out, _ = run_cli(capsys, *self.SCALE_FREE_ARGV)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.SCALE_FREE_SHA256

    def test_scale_free_builds_its_tree_from_the_parent_array(self, capsys, monkeypatch):
        # As every other parent array does, through tree_from_parents.
        def no_tree(self):
            raise AssertionError("gen scale-free: called RecursiveTree.tree()")

        monkeypatch.setattr(RecursiveTree, "tree", no_tree)
        self.test_scale_free_pinned_bytes(capsys)

    def test_bad_spec_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "gen", "broom:0,3")
        assert code == 24 and "broom" in err

    def test_unknown_family(self, capsys):
        code, _, _ = run_cli(capsys, "gen", "wheel:5")
        assert code == 24

    # sha256 of `gen tell:l` stdout, recorded before the tell search counted
    # its candidates from parent arrays (l = 8), before it kept its leaf
    # counts in one list (l = 1..12) and before it counted each branch once
    # (l = 24, 30). l = 14 and 18 are pinned in perfbench/goldens.json,
    # which TestBenchGoldens replays.
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
        24: "4855b76af654d374ae4644f8bfca3f05f037e136ca521d15680c1636b690134d",
        30: "581edf9c53a534236a6f8f18244e540f875b04a6551f7ffaaea6d999da385953",
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

    def test_tell_minimal_search_over_cap(self, capsys, monkeypatch):
        monkeypatch.setattr(bcprof.tree_families, "SEARCH_CAP", 1)
        code, out, err = run_cli(capsys, "gen", "tell:3")
        assert code == 20 and out == ""
        assert "no a[0] below 1 works at k=2" in err

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
    # straight from the counts; path:400's (32-bit lanes, zero rows at
    # both ends) before rows were keyed by object. Trees come from
    # `gen SPEC --seed 7`.
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
        ("path:400", "--all", "csv"):
            "fbf71ac2b3e77c38e1d2058a4681264c06dd5ab9d48c480dfa8e6e8f74fb9c74",
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
    def test_equal_rows_of_distinct_objects(self, fmt):
        # Rows are keyed by object; equal rows that are two objects are
        # each formatted, with the same cells.
        x, y = [0, 0, 3], [0, 0, 3]
        _assert_renders_reference(fmt, [0, 0, 5], [(0, x), (1, y), (2, x), (3, y), (4, y)])

    @pytest.mark.parametrize("tree", [
        make_path(40), make_gij(3, 5)[0], make_broom(5, 30)[0],
    ], ids=("path:40", "gij:3,5", "broom:5,30"))
    def test_profile_formats_each_distinct_row_once(self, tmp_path, capsys, monkeypatch, tree):
        # The engine hands equal rows out as one tuple, zero rows included,
        # so `profile --all` takes the gcd row of each distinct row once.
        path = tmp_path / "t.tree"
        path.write_text(write_tree(tree))
        Pk, Pkv = prefix_counts(tree, range(tree.n))
        calls = []

        def counted(a, b):
            calls.append(a)
            return math.gcd(a, b)

        monkeypatch.setattr("bcprof.cli.gcd", counted)
        code, _, _ = run_cli(capsys, "profile", "--tree", str(path), "--all")
        assert code == 0
        assert len(calls) == (len(Pk) - 2) * len(set(Pkv))


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


_BENCH = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "goldens.json").read_text()
)
_GOLDENS = _BENCH["outputs"]


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
    """Every output of the benchmark's ops, byte for byte as recorded in
    perfbench/goldens.json, so a change that would fail the benchmark's
    output check fails here first. Each of these outputs is pinned only
    there."""

    KEYS = sorted(key for key in _GOLDENS if key.startswith("profile "))
    ANALYZE_KEYS = sorted(key for key in _GOLDENS if key.startswith("analyze "))
    GEN_KEYS = sorted(key for key in _GOLDENS if key.startswith("gen "))
    EXPECT_KEYS = sorted(key for key in _GOLDENS if key.startswith("expect "))
    EXPERIMENT_KEYS = sorted(_BENCH["experiment_csv"])

    @staticmethod
    def stdout_of(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        assert code == 0
        return out.getvalue()

    @classmethod
    def check_golden(cls, key, argv):
        data = cls.stdout_of(argv).encode()
        assert len(data) == _GOLDENS[key]["bytes"]
        assert hashlib.sha256(data).hexdigest() == _GOLDENS[key]["sha256"]

    @pytest.fixture(scope="class")
    def on_tree_file(self, tmp_path_factory):
        """The argv of a `<command> --tree <spec> ...` key, with the spec's
        tree written to a file once per spec."""
        directory, paths = tmp_path_factory.mktemp("trees"), {}

        def argv(key):
            command, option, spec, *rest = key.split()
            if spec not in paths:
                paths[spec] = directory / f"{len(paths)}.tree"
                paths[spec].write_text(write_tree(_golden_tree(spec)))
            return [command, option, str(paths[spec]), *rest]

        return argv

    def test_every_profile_golden_is_covered(self):
        assert len(self.KEYS) == 9

    def test_every_expect_golden_is_covered(self):
        assert len(self.EXPECT_KEYS) == 18

    def test_every_other_golden_is_covered(self):
        assert (len(self.ANALYZE_KEYS), len(self.GEN_KEYS), len(self.EXPERIMENT_KEYS)) == (71, 2, 48)
        assert len(self.KEYS + self.ANALYZE_KEYS + self.GEN_KEYS + self.EXPECT_KEYS) == len(_GOLDENS)

    @pytest.mark.parametrize("key", KEYS)
    def test_profile_all_bytes(self, on_tree_file, key):
        self.check_golden(key, on_tree_file(key))

    @pytest.mark.parametrize("key", ANALYZE_KEYS)
    def test_analyze_bytes(self, on_tree_file, key):
        self.check_golden(key, on_tree_file(key))

    @pytest.mark.parametrize("key", GEN_KEYS)
    def test_gen_bytes(self, key):
        self.check_golden(key, key.split())

    @pytest.mark.parametrize("key", EXPECT_KEYS)
    def test_expect_bytes(self, key):
        self.check_golden(key, key.split())

    @pytest.mark.parametrize("key", EXPERIMENT_KEYS)
    def test_experiment_csv(self, key):
        assert self.stdout_of(key.split()) == _BENCH["experiment_csv"][key]


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

    # sha256 of `analyze --pair 3 250` stdout on `gen path:400`, recorded
    # while every row was a product. path:400 has 401 vertices (32-bit
    # lanes), and every row below the root comes by addition down the chain.
    PINNED_DEEP_PAIR = "538845abf98ecd7a725390505e6b0da6e404f69d71c6bb34451aee21abfb2975"

    def test_deep_path_pinned_bytes(self, tmp_path, capsys):
        tree = tmp_path / "p.tree"
        run_cli(capsys, "gen", "path:400", "--out", str(tree))
        code, out, _ = run_cli(capsys, "analyze", "--tree", str(tree), "--pair", "3", "250")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_DEEP_PAIR


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
        monkeypatch.setattr("bcprof.workers.START_S", 0)
        for threads, workers in (("1", "1 worker"), ("2", "2 workers")):
            monkeypatch.setenv("BCPROF_THREADS", threads)
            code, out, err = run_cli(capsys, "verify", "--check", "lemma1", "--max-size", "4")
            assert code == 0
            assert out == ("PASS lemma1 n=2\nPASS lemma1 n=3\nPASS lemma1 n=4\n"
                           "lemma1: pass (3 cases)\n")
            assert re.fullmatch(rf"lemma1: \d+\.\d{{3}} s, {workers}\n", err)

    def test_closed_form_fault_fails_each_suites_own_case(self, capsys, monkeypatch):
        # theorem3's order cases sum the prefix walk alone, so only its
        # injection case reads the faulty closed form; neither suite raises.
        monkeypatch.setenv("BCPROF_THREADS", "1")
        faulty = CLOSED_FORM_FAULTS["doubled on a = 3, b = 5"](bcprof.scale_free._closed_form)
        monkeypatch.setattr(bcprof.scale_free, "_closed_form", faulty)
        monkeypatch.setattr(bcprof.verify, "_closed_form", faulty)
        bcprof.scale_free._expected_pk_table.cache_clear()
        for suite, failures in (
            ("theorem3", ["FAIL theorem3 injection labels <= 6: ratio mismatch (case 6) on "
                          "PathSignature(a=2, b=5, c=1, L=frozenset(), R=frozenset({3, 4})), v=2"]),
            ("lemma1", [f"FAIL lemma1 n={n}: path (3, 1, 2, 4, 5): 4/105 != 2/105"
                        for n in (5, 6)]),
        ):
            code, out, err = run_cli(capsys, "verify", "--check", suite, "--max-size", "6")
            assert code == 1 and "Traceback" not in err
            assert [ln for ln in out.splitlines() if ln.startswith("FAIL ")] == failures
            assert out.endswith(f"{suite}: FAIL (5 cases)\n")


class TestMalformedInput:
    @pytest.mark.parametrize("argv, tree_bytes, named", [
        (("profile", "--tree", "{tree}", "--all"), b"3\n0 1\n1\n", "line 3"),
        (("profile", "--tree", "{tree}", "--all"), b"3\nx\n", "line 2"),
        (("experiment", "--which", "no_cross_12_vs_n", "--grid", "10,x"), b"", "'x'"),
        (("profile", "--tree", "{tree}", "--all"), b"3\n0 1\xff\n1 2\n", "bad.tree"),
        (("verify", "--check", "prop2", "--max-size", "-7"), b"", "prop2"),
        # a form feed splits fields but not lines, so "1 x" stays line 3
        (("profile", "--tree", "{tree}", "--all"), b"3\n0\x0c1\n1 x\n", "line 3: "),
        # only a leading byte-order mark is dropped
        (("profile", "--tree", "{tree}", "--all"), b"3\n\xef\xbb\xbf0 1\n1 2\n", "line 2: "),
        (("profile", "--tree", "{tree}", "--all"), b"\xef\xbb\xbf3\n0 1\xff\n1 2\n", "bad.tree"),
    ], ids=("short-edge-line", "non-integer-n", "grid-token", "not-utf8", "prop2-max-size",
            "form-feed-in-line", "bom-inside", "bom-then-not-utf8"))
    def test_exits_24_naming_the_input(self, tmp_path, capsys, argv, tree_bytes, named):
        path = tmp_path / "bad.tree"
        path.write_bytes(tree_bytes)
        code, out, err = run_cli(capsys, *(str(path) if a == "{tree}" else a for a in argv))
        assert code == 24 and out == ""
        assert named in err

    def test_leading_byte_order_mark_is_ignored(self, tmp_path, capsys):
        text = write_tree(sample_tree(40, random.Random(30)).tree()).encode()
        outputs = []
        for name, data in (("plain.tree", text), ("bom.tree", b"\xef\xbb\xbf" + text)):
            path = tmp_path / name
            path.write_bytes(data)
            outputs.append(run_cli(capsys, "profile", "--tree", str(path), "--all"))
        assert outputs[0] == outputs[1] and outputs[0][0] == 0 and outputs[0][1]


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
        # At the cap; recorded while the table still walked full histories.
        (9, 4): "93b12a24ec73586ce768a37d6418cd7346b27f92bb893ebd8c06b4184a900700",
    }

    @pytest.mark.parametrize("n, k", sorted(PINNED_EXACT))
    def test_exact_pinned_bytes(self, capsys, n, k):
        code, out, _ = run_cli(capsys, "expect", "--n", str(n), "--k", str(k), "--exact")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.PINNED_EXACT[n, k]

    @pytest.mark.parametrize("fault", sorted(CLOSED_FORM_FAULTS))
    def test_exact_bytes_ignore_the_closed_form(self, capsys, monkeypatch, fault):
        # The expectations are the prefix walk's sums; the closed form is
        # Lemma 1's statement, which `verify --check lemma1` checks.
        faulty = CLOSED_FORM_FAULTS[fault](bcprof.scale_free._closed_form)
        monkeypatch.setattr(bcprof.scale_free, "_closed_form", faulty)
        bcprof.scale_free._expected_pk_table.cache_clear()
        self.test_exact_pinned_bytes(capsys, 7, 3)

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
        (("gen", "double-broom:2,0"), 24,
         "error: bad family spec 'double-broom:2,0': double broom needs n >= 1, got 0\n"),
        (("gen", "scale-free:0"), 24, "error: bad family spec 'scale-free:0': need n >= 1, got 0\n"),
        (("gen", "tell:2,nope"), 24, "error: unknown strategy 'nope'\n"),
        # A wrong number of family parameters names the expected count.
        *((("gen", spec), 24, f"error: bad family spec {spec!r}: expected {want}\n")
          for spec, want in (
              ("broom:3", "2 parameter(s), got 1"),
              ("path:", "1 parameter(s), got 0"),
              ("gij:1,2,3", "2 parameter(s), got 3"),
              ("tell:2,3,4", "1 or 2 parameter(s), got 3"),
              ("scale-free:5,6", "1 parameter(s), got 2"),
          )),
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

    # Sizes from 2**63 - 1 up overflow a list or range inside the builder.
    @pytest.mark.parametrize("spec", (
        f"path:{2**63 - 1}",
        f"broom:1,{2**63}",
        f"double-broom:2,{2**63}",
        f"double-broom:{2**63},1",
        f"gij:3,{2**63}",
    ))
    def test_huge_family_parameters(self, capsys, spec):
        code, out, err = run_cli(capsys, "gen", spec)
        assert (code, out) == (24, "")
        assert err.startswith(f"error: bad family spec {spec!r}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv", (
        ("experiment", "--which", "monotone_1_vs_n", "--grid", "5", "--trials", "3"),
        ("expect", "--n", "5", "--trials", "3"),
        ("gen", "scale-free:8"),
    ), ids=lambda argv: argv[0])
    def test_largest_seed_runs(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--seed", str(2**64 - 1))
        assert (code, err) == (0, "") and out


class TestApiInputErrors:
    # A bad argument to a public function: the error, its exit code and
    # its whole message.
    CASES = {
        "sample_tree": (lambda: sample_tree(0, random.Random(0)),
                        OutOfRangeError, 12, "need n >= 1, got 0"),
        "bfs_distances": (lambda: bfs_distances(make_path(3), 4),
                          OutOfRangeError, 12, "source 4 out of range for n=4"),
        "exact_expected_pk-v0": (lambda: exact_expected_pk(4, 0, 2),
                                 OutOfRangeError, 12, "vertex 0 out of range for n=4"),
        "exact_expected_pk-v5": (lambda: exact_expected_pk(4, 5, 2),
                                 OutOfRangeError, 12, "vertex 5 out of range for n=4"),
        "make_double_broom": (lambda: make_double_broom(2, 0),
                              OutOfRangeError, 12, "double broom needs n >= 1, got 0"),
        "dominates": (lambda: dominates((1, 2), (1,)),
                      LengthMismatchError, 16, "profile lengths differ: 2 vs 1"),
        "closed_form_gij_Pk": (lambda: closed_form_gij_Pk(5, 4, 2), OutOfDomainError, 18,
                               "need j >= 5 and 2 <= r <= i-1, got i=5, j=4, r=2"),
        "closed_form_gij_Pkv": (lambda: closed_form_gij_Pkv(5, 5, 1), OutOfDomainError, 18,
                                "need 2 <= r <= i-1 and j >= 1, got i=5, j=5, r=1"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_error_class_code_and_message(self, case):
        call, error, exit_code, message = self.CASES[case]
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert (info.value.exit_code, str(info.value)) == (exit_code, message)

    def test_module_runs_as_a_script(self, capsys):
        # No argv: main reads sys.argv, behind the __main__ guard.
        src = str(Path(bcprof.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "bcprof.cli", "gen", "path:3"], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == run_cli(capsys, "gen", "path:3")


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
    EXPERIMENT = "monotone_i_vs_i"

    def test_pinned_digests_under_dash_o(self, tmp_path):
        tree = tmp_path / "t.tree"
        tree.write_text(write_tree(_golden_tree("pa:1300:3")))
        grid, rows = ExperimentPins.PINNED_CSV[self.EXPERIMENT]
        csv = "x,estimate,stderr,trials,seed\n" + rows
        runs = {
            **{suite: ["verify", "--check", suite] for suite in VERIFY_PINNED},
            "expect": list(TestExpectCmd.MONTE_CARLO_ARGV),
            # The exact route at the cap, with only the directory holding bcprof
            # on the path: no test helper may stand in for a module the package ships.
            "expect --exact": ["expect", "--n", "9", "--k", "4", "--exact"],
            "profile": ["profile", "--tree", str(tree), "--all"],
            "gen scale-free": list(TestGen.SCALE_FREE_ARGV),
            "experiment": ["experiment", "--which", self.EXPERIMENT, "--grid",
                           ",".join(map(str, grid)), "--trials", "200", "--seed", "11"],
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
            "expect --exact": f"0 {TestExpectCmd.PINNED_EXACT[9, 4]}",
            "profile": f"0 {_GOLDENS[self.PROFILE_KEY]['sha256']}",
            "gen scale-free": f"0 {TestGen.SCALE_FREE_SHA256}",
            "experiment": f"0 {hashlib.sha256(csv.encode()).hexdigest()}",
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


def test_public_names():
    # What `import bcprof` exports, submodules left out; an export added or
    # removed is an API change and edits this list.
    names = {
        name for name, value in vars(bcprof).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert names == {
        "BadSpecError", "BcprofError", "CHECK_NAMES", "CheckCase", "CheckReport",
        "CrossingReport", "DiameterTooSmallError", "DipReport", "DisconnectedError",
        "DuplicateEdgeError", "ExperimentConfig", "ExperimentResult", "LengthMismatchError",
        "NTooLargeError", "NotASimplePathError", "OddMError", "OutOfDomainError",
        "OutOfRangeError", "OutOfTabulatedRangeError", "PathCountTable", "PathSignature",
        "PreconditionViolatedError", "Profile", "RecursiveTree", "SearchCapExceededError",
        "SelfLoopError", "TellChoice", "Tree", "UnknownCheckError", "WrongEdgeCountError",
        "all_candidate_paths", "all_profiles", "bfs_distances", "build_tree",
        "closed_form_gij_Pk", "closed_form_gij_Pkv", "closed_form_gij_pk",
        "closed_form_path_Pkv", "closed_form_path_bck", "count_crossings", "count_dips",
        "diameter", "dominates", "estimate_expected_profiles", "exact_expected_pk",
        "exact_path_presence_prob", "injection", "is_monotone", "make_broom",
        "make_double_broom", "make_gij", "make_path", "make_tell", "monotonicity_class",
        "pair_analysis", "path_counts_fast", "path_counts_naive", "path_probability",
        "prefix_counts", "profile", "read_tree", "run_check", "run_experiment",
        "sample_tree", "signature_of_path", "splitmix64", "substream_seed",
        "tabulated_gij_k_values", "tree_from_parents", "vertex_analysis", "write_csv",
        "write_manifest", "write_tree",
    }


class TestReadme:
    # README.md is the user contract: its examples run and its exit codes
    # are errors.py's.

    def test_cli_examples_exit_0(self, tmp_path, monkeypatch, capsys):
        # In order, in one directory: the first line writes g.tree.
        lines = readme_section("## CLI")
        block = lines[lines.index("```sh") + 1:]
        block = block[:block.index("```")]
        examples = [argv for argv in (shlex.split(line, comments=True) for line in block) if argv]
        assert examples and all(argv[0] == "bcprof" for argv in examples)
        monkeypatch.chdir(tmp_path)
        for argv in examples:
            assert main(argv[1:]) == 0, (argv, capsys.readouterr().err)
            capsys.readouterr()

    def test_exit_code_table_matches_errors(self, capsys):
        rows = [
            [cell.strip() for cell in line.strip("|").split("|")]
            for line in readme_section("### Exit codes") if re.match(r"\| \d", line)
        ]
        codes = [int(code) for code, *_ in rows]
        assert len(codes) == len(set(codes))
        named = {name: int(code) for code, *cells in rows for name in re.findall(r"`(\w+)`", cells[0])}
        classes = {
            cls.__name__: cls.exit_code for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.BcprofError)
        }
        assert named == {**classes, "OSError": 3}
        assert set(codes) == {0, 2, *named.values()}
        # 2 is argparse's usage error, which main does not catch.
        with pytest.raises(SystemExit) as info:
            main(["profile"])
        assert info.value.code == 2
        assert "usage: bcprof profile" in capsys.readouterr().err


def test_closed_stdout_exits_0_quietly(tmp_path):
    # `bcprof profile ... | head -1`: the reader takes one line and closes
    # the pipe while the rows (4 MB) are still being written.
    tree = tmp_path / "p.tree"
    assert main(["gen", "path:360", "--out", str(tree)]) == 0
    src = str(Path(bcprof.__file__).resolve().parents[1])
    proc = subprocess.Popen(
        [sys.executable, "-m", "bcprof.cli", "profile", "--tree", str(tree), "--all"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.readline() == b"vertex,k,numerator,denominator,decimal\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=120), err) == (0, b"")
