"""Command-line interface: gen | profile | analyze | verify | expect | experiment.

Every command is deterministic given its flags. Errors exit with the code
of their error class (see errors.py); success exits 0. Decimal columns are
for humans only — all decisions inside the library are made on exact values.
`main` exits 3 for any other OSError and 0 when the reader closes stdout;
a usage error is argparse's exit 2. README.md's exit-code table lists them
all.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from math import gcd
from operator import floordiv, truediv
from typing import Sequence

from .errors import (
    BadSpecError,
    BcprofError,
    DiameterTooSmallError,
    OddMError,
    OutOfRangeError,
)
from .experiments import (
    DEFAULT_FIXED_N,
    DEFAULT_TRIALS,
    EXPERIMENT_KINDS,
    ExperimentConfig,
    default_grid,
    render_csv,
    run_experiment,
    write_csv,
    write_manifest,
)
from .scale_free import check_seed, estimate_expected_profiles, exact_expected_pk, sample_tree
from .tree_core import (
    path_counts_fast, prefix_counts, profile, read_tree, tree_from_parents, write_tree,
)
from .tree_families import (
    make_broom,
    make_double_broom,
    make_gij,
    make_path,
    make_tell,
)
from .profile_analysis import pair_analysis, vertex_analysis
from .verify import CHECK_NAMES, run_check


def _parse_ints(parts: list[str], spec: str, count: int | None = None) -> list[int]:
    """The integers in parts; given a count, a family spec's parameters must
    number exactly that many."""
    if count is not None and len(parts) != count:
        raise BadSpecError(
            f"bad family spec {spec!r}: expected {count} parameter(s), got {len(parts)}"
        )
    values = []
    for p in parts:
        try:
            values.append(int(p))
        except ValueError:
            raise BadSpecError(f"non-integer {p!r} in {spec!r}") from None
    return values


def build_family(spec: str, seed: int):
    """(tree, comment lines) for a family spec string."""
    name, _, argstr = spec.partition(":")
    parts = argstr.split(",") if argstr else []
    comments = [f"family: {spec}"]
    try:
        if name == "path":
            (n,) = _parse_ints(parts, spec, 1)
            return make_path(n), comments
        if name == "broom":
            m, n = _parse_ints(parts, spec, 2)
            tree, center = make_broom(m, n)
            return tree, comments + [f"center: {center}"]
        if name == "double-broom":
            m, n = _parse_ints(parts, spec, 2)
            tree, middle = make_double_broom(m, n)
            return tree, comments + [f"middle: {middle}"]
        if name == "gij":
            i, j = _parse_ints(parts, spec, 2)
            tree, v = make_gij(i, j)
            return tree, comments + [f"designated vertex: {v}"]
        if name == "tell":
            (l,) = _parse_ints(parts, spec, 1)
            tree, u, v, choice = make_tell(l)
            return tree, comments + [
                f"u: {u}",
                f"v: {v}",
                f"a: {','.join(map(str, choice.a))}",
                f"b: {','.join(map(str, choice.b))}",
                "strategy: minimal_search",  # kept: older tree files hold this line
            ]
        if name == "scale-free":
            (n,) = _parse_ints(parts, spec, 1)
            check_seed(seed)
            tree = tree_from_parents(sample_tree(n, random.Random(seed)).parent)
            return tree, comments + [f"seed: {seed}"]
    except (ValueError, OverflowError, OutOfRangeError, OddMError) as exc:
        raise BadSpecError(f"bad family spec {spec!r}: {exc}")
    raise BadSpecError(f"unknown family {name!r} in spec {spec!r}")


def cmd_gen(args) -> int:
    tree, comments = build_family(args.family, args.seed)
    text = write_tree(tree, comments)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _load_tree(path: str):
    """The tree in the file at path. A byte-order mark anywhere but at the
    start is a bad token in read_tree (exit 24)."""
    try:
        # utf-8-sig drops a leading byte-order mark, as some editors write.
        with open(path, encoding="utf-8-sig") as fh:
            return read_tree(fh)
    except UnicodeDecodeError:
        raise BadSpecError(f"tree file {path!r} is not UTF-8 text") from None


# One profile row per k, written from the exact counts: numerator and
# denominator are P_k(v) / P_k reduced by gcd, and a / b on ints is
# correctly rounded, so the decimal is float(Fraction(a, b))'s. The JSON
# layout is json.dump(rows, indent=2)'s. Each cell pattern takes k; its
# escaped fields (%%d, %%.6f) are left for the vertex and the counts.
_ROW_FORMATS = {
    "csv": ("vertex,k,numerator,denominator,decimal\n", "%%d,%d,%%d,%%d,%%.6f", "\n", "\n"),
    "json": (
        "[\n",
        '  {\n    "vertex": %%d,\n    "k": %d,\n    "numerator": %%d,\n'
        '    "denominator": %%d,\n    "decimal": "%%.6f"\n  }',
        ",\n",
        "\n]\n",
    ),
}

# A vertex's row is joined from pieces of at most this many characters,
# each formatted by one %, and is allocated once at its exact size. A
# piece stays within CPython's small-object allocator (512 bytes, 463 ASCII
# characters) even when % grows its working buffer by a quarter. A row
# formatted whole by one % comes out over-allocated and is then shrunk, and
# the offcuts land between the rows that an in-memory stream keeps: peak
# RSS of profile-deep then moved by a whole output (14 MB) from run to run.
_PIECE_CHARS = 370


def _write_profile_rows(out, fmt: str, Pk: Sequence[int], rows) -> None:
    """Write each (vertex, P_k(v) row) of rows as profile rows in fmt, one
    exact-size write per vertex. Pk and every row run over k = 0..d.

    Rows are keyed by object, as the engine shares one tuple among equal
    rows: each is formatted once, its text kept only while that row is still
    to come, and each later occurrence swaps the vertex field. An equal row
    that is another object is formatted again. rows is held to the end, so
    no id is reused."""
    head, cell, sep, tail = _ROW_FORMATS[fmt]
    # Every cell opens with lead and then the vertex, and lead occurs
    # nowhere else in a row.
    lead = sep + cell[:cell.index("%")]
    P = Pk[2:]
    m = len(P)
    cells = [sep + cell % k for k in range(2, len(Pk))]
    # A cell prints at most 3 * digits(max P) characters more than its
    # pattern while no count exceeds max(P) and the vertex has at most one
    # digit more.
    c = max(1, _PIECE_CHARS // (max(map(len, cells)) + 3 * len(str(max(P)))))
    starts = range(0, m, c)
    pieces = ["".join(cells[a:a + c]) for a in starts]
    spans = [slice(4 * a, 4 * (a + c)) for a in starts]
    args = [0] * (4 * m)
    rows = list(rows)
    # A text is dropped at its row's last occurrence.
    last = {id(Pkv): i for i, (_, Pkv) in enumerate(rows)}
    kept = {}
    out.write(head)
    cut = len(sep)  # the first row follows the head, not a separator
    for i, (v, Pkv) in enumerate(rows):
        key = id(Pkv)
        hit = kept.get(key)
        if hit is not None:
            u, text = hit
            text = text.replace(f"{lead}{u},", f"{lead}{v},")
        else:
            row = Pkv[2:]
            g = list(map(gcd, row, P))
            args[0::4] = [v] * m
            args[1::4] = map(floordiv, row, g)
            args[2::4] = map(floordiv, P, g)
            args[3::4] = map(truediv, row, P)
            flat = tuple(args)
            text = "".join(map(str.__mod__, pieces, map(flat.__getitem__, spans)))
            if last[key] > i:
                kept[key] = v, text
        if last[key] == i:
            kept.pop(key, None)
        out.write(text[cut:])
        cut = 0
    out.write(tail)


def cmd_profile(args) -> int:
    # One prefix_counts pass for either selection: --all lists every vertex
    # from a pass rooted at 0, --vertex only that vertex, from a pass rooted
    # at it.
    tree = _load_tree(args.tree)
    vertices = range(tree.n) if args.all else [args.vertex]
    Pk, Pkv = prefix_counts(tree, vertices)
    d = len(Pk) - 1
    if d < 2:
        raise DiameterTooSmallError(f"diameter {d} < 2: profile is empty")
    _write_profile_rows(sys.stdout, args.format, Pk, zip(vertices, Pkv))
    return 0


def cmd_analyze(args) -> int:
    tree = _load_tree(args.tree)
    table = path_counts_fast(tree)
    if args.pair is not None:
        u, v = args.pair
        report = pair_analysis(profile(tree, u, table), profile(tree, v, table))
    else:
        report = vertex_analysis(profile(tree, args.vertex, table))
    json.dump(report, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


def cmd_verify(args) -> int:
    start = time.perf_counter()
    report = run_check(args.check, args.max_size)
    seconds = time.perf_counter() - start
    for case in report.cases:
        status = "PASS" if case.passed else "FAIL"
        suffix = f": {case.detail}" if case.detail else ""
        print(f"{status} {report.check} {case.name}{suffix}")
    print(f"{report.check}: {'pass' if report.passed else 'FAIL'} "
          f"({len(report.cases)} cases)")
    # Stdout carries only the cases; the timing and worker count go to stderr.
    workers = f"{report.workers} worker{'' if report.workers == 1 else 's'}"
    print(f"{report.check}: {seconds:.3f} s, {workers}", file=sys.stderr)
    return 0 if report.passed else 1


def cmd_expect(args) -> int:
    # Paths of length 0 or 1 have no interior vertex, so k starts at 2.
    if args.k is not None and args.k < 2:
        raise OutOfRangeError(f"--k must be >= 2, got {args.k}")
    if args.exact:
        if args.k is None:
            raise BadSpecError("--exact requires --k")
        if args.n < 1:
            raise OutOfRangeError(f"--n must be >= 1, got {args.n}")
        values = [exact_expected_pk(args.n, v, args.k) for v in range(1, args.n + 1)]
        print("vertex,k,expectation,decimal")
        for v, e in enumerate(values, start=1):
            print(f"{v},{args.k},{e.numerator}/{e.denominator},{float(e):.6f}")
        return 0
    rows = estimate_expected_profiles(args.n, args.trials, args.seed, args.k)
    text = "".join(
        f"{r['vertex']},{r['k']},{r['mean']:.6f},{r['stderr']:.6f},{r['trials']}\n" for r in rows
    )
    sys.stdout.write("vertex,k,mean,stderr,trials\n" + text)
    return 0


def cmd_experiment(args) -> int:
    if args.grid is not None:
        grid = tuple(_parse_ints(args.grid.split(","), args.grid))
    else:
        grid = default_grid(args.which)
    cfg = ExperimentConfig(
        which=args.which,
        grid=grid,
        trials=args.trials,
        fixed_n=args.fixed_n,
        seed=args.seed,
    )
    res = run_experiment(cfg)
    if args.out:
        write_csv(res, args.out)
        write_manifest(res, args.out + ".manifest.json", args.argv)
    else:
        sys.stdout.write(render_csv(res))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcprof",
        description="Exact k-betweenness-centrality profiles of trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a tree family instance")
    p.add_argument("family", help="family spec, e.g. path:10, gij:3,5, scale-free:250")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("profile", help="exact profile of one or all vertices")
    p.add_argument("--tree", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--vertex", type=int)
    group.add_argument("--all", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("analyze", help="dip/crossing analysis as JSON")
    p.add_argument("--tree", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--vertex", type=int)
    group.add_argument("--pair", type=int, nargs=2)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--check", required=True,
                   help=f"one of: {', '.join(CHECK_NAMES)}")
    p.add_argument("--max-size", type=int, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("expect", help="expected interior-path counts")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("experiment", help="seeded Monte Carlo curves as CSV")
    p.add_argument("--which", required=True, choices=EXPERIMENT_KINDS)
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--grid", help="comma-separated x values")
    p.add_argument("--fixed-n", type=int, default=DEFAULT_FIXED_N)
    p.add_argument("--out")
    p.set_defaults(func=cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    args.argv = list(argv)  # the experiment manifest records it for reruns
    try:
        code = args.func(args)
        # A closed stdout shows here, not in the interpreter's exit flush.
        sys.stdout.flush()
        return code
    except BcprofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except BrokenPipeError:
        # The reader closed stdout (`bcprof ... | head -1`): stop quietly, as
        # most Unix tools do. What is still buffered goes to the null device
        # at exit.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
