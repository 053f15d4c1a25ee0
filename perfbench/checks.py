"""Output checks. An execution that fails any of them counts against ok_frac.

Every execution is compared with what goldens.json recorded for its op. Each
distinct tree an op computes on is checked once per run, outside timing:
the engine identities, and equality with the brute-force oracle where the
tree is small enough for it.
"""

from __future__ import annotations

import json
import random
import re
from math import comb
from pathlib import Path

from .workloads import Execution, Op

GOLDENS = Path(__file__).with_name("goldens.json")
NAIVE_MAX_N = 400  # path_counts_naive on a 400-vertex path takes about 1 s
_VERIFY_SUMMARY = re.compile(r"^(\S+): (pass|FAIL) \((\d+) cases\)$")


def load_goldens() -> dict:
    with open(GOLDENS) as fh:
        return json.load(fh)


def execution_problem(ex: Execution, goldens: dict, replays: dict[str, str]) -> str:
    """Why this execution's output is wrong, or "" when it is right."""
    if ex.error or ex.code != 0:
        return ex.error or f"exit {ex.code}"
    key = ex.op.key
    if ex.op.command == "verify":
        return verify_problem(ex.text or "", goldens["verify_cases"].get(ex.op.argv[-1]))
    if ex.op.command == "experiment":
        want = goldens["experiment_csv"].get(key)
        if want is None:
            return "no golden CSV"
        if ex.text != want:
            return "CSV differs from golden"
        if key in replays and replays[key] != ex.text:
            return "CSV differs from the serial replay"
        return ""
    want = goldens["outputs"].get(key)
    if want is None:
        return "no golden digest"
    if ex.digest != want["sha256"] or ex.nbytes != want["bytes"]:
        return f"stdout differs from golden ({ex.nbytes} bytes)"
    return ""


def verify_summary(text: str) -> tuple[str, int] | None:
    """(status, case count) from the last line of a verify report."""
    lines = text.strip().splitlines()
    match = _VERIFY_SUMMARY.match(lines[-1]) if lines else None
    return (match.group(2), int(match.group(3))) if match else None


def verify_problem(text: str, recorded_cases: int | None) -> str:
    """A verify report must pass with exactly the recorded, non-zero case count."""
    summary = verify_summary(text)
    if summary is None:
        return "no verify summary line"
    status, cases = summary
    if status != "pass":
        return "verify reported FAIL"
    if cases == 0:
        return "verify passed with 0 cases"
    if cases != recorded_cases:
        return f"{cases} cases, recorded {recorded_cases}"
    return ""


def table_problem(tree) -> str:
    """Engine identities on one tree, and the oracle when the tree is small."""
    from bcprof.tree_core import path_counts_fast, path_counts_naive

    table = path_counts_fast(tree)
    n = tree.n
    for l in range(2, table.d + 1):
        through = sum(row[l] for row in table.pv)
        if through != (l - 1) * table.p[l]:
            return f"sum_v p_{l}(v) = {through} != {l - 1} * p_{l}"
    if sum(table.p[2:]) != comb(n, 2) - (n - 1):
        return "sum_l p_l != C(n,2) - (n-1)"
    if n <= NAIVE_MAX_N:
        naive = path_counts_naive(tree)
        if (naive.p, naive.pv) != (table.p, table.pv):
            return "path_counts_fast != path_counts_naive"
    return ""


def op_trees(op: Op, paths: dict[str, str], ex: Execution):
    """The trees an op computed on, rebuilt outside the op."""
    from bcprof.scale_free import sample_tree, substream_seed
    from bcprof.tree_core import read_tree

    if op.tree is not None:
        with open(paths[op.tree]) as fh:
            return [read_tree(fh)]
    if op.command == "gen":
        return [read_tree((ex.text or "").splitlines())]
    if op.command == "expect":
        args = dict(zip(op.argv[1::2], op.argv[2::2]))
        n, trials, seed = int(args["--n"]), int(args["--trials"]), int(args["--seed"])
        return [
            sample_tree(n, random.Random(substream_seed(seed, trial))).tree()
            for trial in range(trials)
        ]
    return []


def tree_set(op: Op) -> str:
    """Names the trees an op computes on: its input file's spec, or the op
    itself when it makes its own trees (gen, expect)."""
    return op.tree or op.key


def check_executions(
    executions: list[Execution], goldens: dict, paths: dict[str, str],
    replays: dict[str, str] | None = None,
) -> list[str]:
    """One problem string per execution ("" when correct).

    Tree checks run once per distinct tree set; a problem there fails every
    execution that computed on it.
    """
    replays = replays or {}
    tree_problems: dict[str, str] = {}
    problems = []
    for ex in executions:
        problem = execution_problem(ex, goldens, replays)
        trees = tree_set(ex.op)
        if not problem and trees not in tree_problems:
            tree_problems[trees] = next(
                (p for p in map(table_problem, op_trees(ex.op, paths, ex)) if p), ""
            )
        problems.append(problem or tree_problems.get(trees, ""))
    return problems
