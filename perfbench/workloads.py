"""The benchmark's workloads: fixed op lists drawn from recorded pools.

An op is one call of one bcprof CLI command on one input. Each workload is a
list of slots; a run draws one op per slot from the seed and shuffles their
order, which gives the op list of one pass. Every op a slot can draw has its
output recorded in goldens.json, so any seed's outputs can be checked.

The input trees are fixed per slot and the seed picks vertices, orders and
command seeds. Engine cost varies by about 15% between preferential-attachment
trees of the same size, so drawing the trees themselves from the seed would
spread the timings of a pass more than the machine's own noise does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

SMALL_OUTPUT = 1 << 16  # outputs up to this size are kept whole for checking


@dataclass(frozen=True)
class Op:
    """One CLI call. `argv` holds "{tree}" where the input file's path goes."""

    argv: tuple[str, ...]
    tree: str | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def uses_pool(self) -> bool:
        """Runs bcprof's worker pool on every CPU (see calibration.py)."""
        return self.command == "experiment"

    @property
    def key(self) -> str:
        """Name of the op independent of where its input file lives."""
        return " ".join(self.tree if a == "{tree}" else a for a in self.argv)

    def resolved(self, paths: dict[str, str]) -> list[str]:
        return [paths[self.tree] if a == "{tree}" else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    slots: tuple[tuple[Op, ...], ...]
    nominal_pass_s: float  # one pass, measured on 2 CPUs when the benchmark was defined

    def op_list(self, seed: int) -> list[Op]:
        rng = random.Random(f"{self.name}:{seed}")
        ops = [rng.choice(slot) for slot in self.slots]
        rng.shuffle(ops)
        return ops

    def passes(self, seconds: float) -> int:
        """Passes that take about `seconds` at the nominal pass time, at least two.

        The amount of work is fixed for a given --seconds, so the sample
        count, and with it the tail percentile, is the same on every commit,
        and a run on a loaded machine takes longer rather than measuring less.
        """
        return max(2, round(seconds / self.nominal_pass_s))

    def pool(self) -> list[Op]:
        return [op for slot in self.slots for op in slot]


def make_tree(spec: str):
    """The bcprof Tree for an input spec: pa:<n>:<seed>, path:<n> or gij:<i>,<j>."""
    from bcprof.scale_free import sample_tree
    from bcprof.tree_families import make_gij, make_path

    family, _, arg = spec.partition(":")
    if family == "pa":
        n, seed = arg.split(":")
        return sample_tree(int(n), random.Random(int(seed))).tree()
    if family == "path":
        return make_path(int(arg))
    if family == "gij":
        i, j = arg.split(",")
        return make_gij(int(i), int(j))[0]
    raise ValueError(f"unknown input spec {spec!r}")


def write_inputs(ops: list[Op], directory: Path) -> dict[str, str]:
    """Write each distinct input tree of `ops` to a file; spec -> path."""
    from bcprof.tree_core import write_tree

    paths = {}
    for spec in sorted({op.tree for op in ops if op.tree}):
        path = directory / (spec.replace(":", "_").replace(",", "_") + ".tree")
        path.write_text(write_tree(make_tree(spec)))
        paths[spec] = str(path)
    return paths


def tree_vertex_count(spec: str) -> int:
    family, _, arg = spec.partition(":")
    if family == "pa":
        return int(arg.split(":")[0])
    if family == "path":
        return int(arg) + 1
    i, j = (int(x) for x in arg.split(","))
    return i * (j + 1) + 3 + 2 * i * j


def _analyze_ops(spec: str, choices: int, first: int | None = None) -> tuple[tuple[Op, ...], tuple[Op, ...]]:
    """Candidate `analyze --vertex` and `analyze --pair` ops on one tree."""
    n = tree_vertex_count(spec)
    rng = random.Random(spec)
    vertices = [rng.randrange(n) for _ in range(choices)]
    if first is not None:
        vertices[0] = first
    pairs = [rng.sample(range(n), 2) for _ in range(choices)]
    by_vertex = tuple(Op(("analyze", "--tree", "{tree}", "--vertex", str(v)), spec) for v in vertices)
    by_pair = tuple(
        Op(("analyze", "--tree", "{tree}", "--pair", str(u), str(w)), spec) for u, w in pairs
    )
    return by_vertex, by_pair


def _profile_wide() -> Workload:
    slots = []
    for spec in ("pa:1000:1", "pa:1150:2", "pa:1300:3"):
        slots.append((Op(("profile", "--tree", "{tree}", "--all"), spec),))
        slots.extend(_analyze_ops(spec, 6))
    for n in (30, 45, 60):
        slots.append(tuple(
            Op(("expect", "--n", str(n), "--trials", "200", "--seed", str(s))) for s in range(6)
        ))
    return Workload(
        name="profile-wide",
        why="profile and analyze on preferential-attachment trees (n 1000-1300) plus Monte Carlo "
            "expect on tiny trees: the per-vertex path-count engine dominates",
        slots=tuple(slots),
        nominal_pass_s=5.0,
    )


def _profile_deep() -> Workload:
    slots = []
    for spec, first in (("path:360", None), ("path:240", None), ("gij:20,5", 1)):
        slots.append((Op(("profile", "--tree", "{tree}", "--all"), spec),))
        slots.append((Op(("profile", "--tree", "{tree}", "--all", "--format", "json"), spec),))
        slots.extend(_analyze_ops(spec, 6, first))
    for l in (14, 18):
        slots.append((Op(("gen", f"tell:{l}")),))
    return Workload(
        name="profile-deep",
        why="profile (csv and json) and analyze on long paths and the dip family, plus the tell "
            "search: Fraction building, profile analysis and CLI rendering carry weight",
        slots=tuple(slots),
        nominal_pass_s=4.4,
    )


# (kind, ((grid, trials), ...)). The trial counts differ so that op times
# spread evenly instead of in clusters, which keeps percentiles off cluster edges.
EXPERIMENT_SHAPES = (
    ("no_cross_12_vs_n", (("50,150,250", 200), ("250", 300))),
    ("monotone_1_vs_n", (("50,150,250", 250), ("250", 350))),
    ("no_cross_ii1_vs_i", (("1,100,200", 150), ("249", 450))),
    ("monotone_i_vs_i", (("1,125,249", 100), ("50", 500))),
)


def _experiment() -> Workload:
    slots = []
    for which, shapes in EXPERIMENT_SHAPES:
        for grid, trials in shapes:
            fixed = () if which.endswith("_vs_n") else ("--fixed-n", "250")
            slots.append(tuple(
                Op(("experiment", "--which", which, "--grid", grid, "--trials", str(trials),
                    "--seed", str(s)) + fixed)
                for s in range(6)
            ))
    return Workload(
        name="experiment",
        why="seeded Monte Carlo experiments of all four kinds on a worker pool of nproc: "
            "sampling and the per-trial indicator, never the path-count engine",
        slots=tuple(slots),
        nominal_pass_s=3.6,
    )


VERIFY_SUITES = (
    "prop1", "corollary1", "gij-tables", "theorem1", "tell", "prop2", "lemma1", "theorem3",
)


def _verify() -> Workload:
    return Workload(
        name="verify",
        why="every verify suite at its default size with cold caches: exact enumeration in "
            "scale_free and the verify module's own checks",
        slots=tuple((Op(("verify", "--check", suite)),) for suite in VERIFY_SUITES),
        nominal_pass_s=9.2,
    )


WORKLOADS = {w.name: w for w in (_profile_wide(), _profile_deep(), _experiment(), _verify())}


@dataclass
class Execution:
    """What one call of an op did. Large outputs are kept as a digest only."""

    op: Op
    op_id: int
    seconds: float
    code: int | None
    digest: str
    nbytes: int
    text: str | None
    error: str = ""
    scale: float = 1.0  # to reference seconds, see calibration.py

    @property
    def reference_seconds(self) -> float:
        return self.seconds * self.scale


def run_cli(main, op: Op, paths: dict[str, str], op_id: int = -1, around=None) -> Execution:
    """Call bcprof.cli.main on one op, timing only the call itself.

    `around`, when given, makes a context manager entered just outside the
    timed call (the traced run's root span).
    """
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            (around or contextlib.nullcontext)():
        start = time.perf_counter()
        try:
            code = main(op.resolved(paths))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # the op failed; record it and keep measuring
            code = None
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    data = out.getvalue().encode()
    if code != 0 and not error:
        error = f"exit {code}: {err.getvalue().strip()[:200]}"
    return Execution(
        op=op,
        op_id=op_id,
        seconds=seconds,
        code=code,
        digest=hashlib.sha256(data).hexdigest(),
        nbytes=len(data),
        text=data.decode() if len(data) <= SMALL_OUTPUT else None,
        error=error,
    )
