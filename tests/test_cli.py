"""CLI behavior: subcommands, output formats, exit codes."""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcprof.cli import main


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

    def test_exact_cap(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n", "12", "--k", "3", "--exact")
        assert code == 22 and out == ""

    def test_monte_carlo(self, capsys):
        code, out, _ = run_cli(capsys, "expect", "--n", "5", "--k", "2",
                               "--trials", "20", "--seed", "3")
        assert code == 0
        assert out.splitlines()[0] == "vertex,k,mean,stderr,trials"
        assert all(ln.endswith(",20") for ln in out.splitlines()[1:])

    def test_monte_carlo_pinned_bytes(self, capsys):
        # Digest of the 1846 stdout bytes recorded before the per-table ratio
        # rows replaced the per-(vertex, k) table lookups.
        code, out, _ = run_cli(capsys, "expect", "--n", "12", "--trials", "30",
                               "--seed", "3")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "6a867888745333af260718bd2f0b58b2251dea0618335f705e8b166788ed3f5e"
        )


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

    def test_rerun_identical(self, tmp_path, capsys):
        args = ("experiment", "--which", "monotone_1_vs_n", "--grid", "6",
                "--trials", "15", "--seed", "2")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2
