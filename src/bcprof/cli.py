"""Command-line interface: gen | profile | analyze | verify | expect | experiment.

Every command is deterministic given its flags. Errors exit with the code
of their error class (see errors.py); success exits 0. Decimal columns are
for humans only — all decisions inside the library are made on exact values.
"""

from __future__ import annotations

import argparse
import json
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
from .tree_core import path_counts_fast, prefix_counts, profile, read_tree, write_tree
from .tree_families import (
    make_broom,
    make_double_broom,
    make_gij,
    make_path,
    make_tell,
)
from .profile_analysis import pair_analysis, vertex_analysis
from .verify import CHECK_NAMES, run_check


def _parse_ints(parts: list[str], spec: str) -> list[int]:
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
            (n,) = _parse_ints(parts, spec)
            return make_path(n), comments
        if name == "broom":
            m, n = _parse_ints(parts, spec)
            tree, center = make_broom(m, n)
            return tree, comments + [f"center: {center}"]
        if name == "double-broom":
            m, n = _parse_ints(parts, spec)
            tree, middle = make_double_broom(m, n)
            return tree, comments + [f"middle: {middle}"]
        if name == "gij":
            i, j = _parse_ints(parts, spec)
            tree, v = make_gij(i, j)
            return tree, comments + [f"designated vertex: {v}"]
        if name == "tell":
            if len(parts) == 2:
                l = _parse_ints(parts[:1], spec)[0]
                strategy = parts[1]
            else:
                (l,) = _parse_ints(parts, spec)
                strategy = "minimal_search"
            tree, u, v, choice = make_tell(l, strategy=strategy)
            return tree, comments + [
                f"u: {u}",
                f"v: {v}",
                f"a: {','.join(map(str, choice.a))}",
                f"b: {','.join(map(str, choice.b))}",
                f"strategy: {choice.strategy}",
            ]
        if name == "scale-free":
            (n,) = _parse_ints(parts, spec)
            check_seed(seed)
            tree = sample_tree(n, random.Random(seed)).tree()
            return tree, comments + [f"seed: {seed}"]
    except (ValueError, OutOfRangeError, OddMError) as exc:
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
    try:
        with open(path, encoding="utf-8") as fh:
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

    Each distinct row is formatted once. Its text is kept only while an
    equal row is still to come, and each later equal row is that text with
    the vertex field swapped."""
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
    # Rows are keyed by hash and compared in full on a hit, so the output
    # never depends on the hash. A text is dropped at its key's last row.
    keys = [hash(tuple(Pkv)) for _, Pkv in rows]
    last = {key: i for i, key in enumerate(keys)}
    kept = {}
    out.write(head)
    cut = len(sep)  # the first row follows the head, not a separator
    for i, (v, Pkv) in enumerate(rows):
        key = keys[i]
        hit = kept.get(key)
        if hit is not None and hit[1] == Pkv:
            u, _, text = hit
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
            if hit is None and last[key] > i:
                kept[key] = v, Pkv, text
        if last[key] == i:
            kept.pop(key, None)
        out.write(text[cut:])
        cut = 0
    out.write(tail)


def cmd_profile(args) -> int:
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
    print("vertex,k,mean,stderr,trials")
    for r in rows:
        print(f"{r['vertex']},{r['k']},{r['mean']:.6f},{r['stderr']:.6f},{r['trials']}")
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
        return args.func(args)
    except BcprofError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
