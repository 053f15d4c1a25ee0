"""One benchmark run of bcprof on one workload.

    python3 perfbench/run.py --workload profile-wide --seed 1 --seconds 12 --trace 0

Run it from the root of a bcprof checkout; it imports bcprof from src/ there.
It drives bcprof from outside: each op is one call of bcprof.cli.main, timed
alone, with stdout captured and checked against goldens.json. The load is a
closed loop with one client. The only parallelism is the experiment
workload's worker pool, with BCPROF_THREADS set to the CPUs this process may
use.

A run sets up SETUP_REPS times (a fresh interpreter importing bcprof, input
generation, golden loading) and reports the median as setup_s. It then runs
the workload's op list for a fixed number of passes, sized so that the passes
take about --seconds, and checks every output. It prints the run record,
every metric with its unit and sample count, and as its last line one JSON
object: the end-to-end metrics with --trace 0, the per-layer ones with
--trace 1.

End-to-end times are scaled to a reference machine speed measured around
each op (see calibration.py); the raw seconds and the scale of every op are
in the run record.

--trace 1 sets up once with spans on, runs the passes once without spans and
once with them (see tracing.py), and replays each experiment op serially with
spans. Its metrics come from the spans, in raw seconds; trace.overhead_frac
is the drop in ops/s from the untraced passes to the traced ones. Spans and
the run record are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_frac": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass
class Result:
    executions: list
    problems: list[str]
    metrics: dict[str, tuple[float, int]]  # name -> (value, sample count)
    units: dict[str, str]
    notes: dict[str, str]
    wall_s: dict[str, float]
    tracer: object = None


def git_sha(root: Path) -> str:
    """HEAD's commit, read from .git without running git; "unknown" outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def lru_caches() -> list:
    """Every functools cache in bcprof's modules, to empty before each op."""
    found = []
    for name, module in list(sys.modules.items()):
        if name == "bcprof" or name.startswith("bcprof."):
            for value in vars(module).values():
                if (hasattr(value, "cache_clear")
                        and getattr(value, "__module__", "").startswith("bcprof")
                        and all(value is not f for f in found)):
                    found.append(value)
    return found


def setup(ops, input_dir: Path):
    """Import bcprof in a fresh interpreter, write the inputs, load the goldens."""
    from perfbench.checks import load_goldens
    from perfbench.workloads import write_inputs

    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", "import bcprof.cli"], env=env, cwd=ROOT, check=True)
    return write_inputs(ops, input_dir), load_goldens()


def run_passes(ops, passes: int, paths, caches, calibrator, tracer=None):
    """Run the op list `passes` times, timing the calibration kernel between
    ops; (executions, reference seconds busy per pass)."""
    import bcprof.cli
    from perfbench.calibration import scale
    from perfbench.tracing import OP
    from perfbench.workloads import run_cli

    executions, pass_seconds = [], []
    before = calibrator.measure()
    for _ in range(passes):
        busy = 0.0
        for op in ops:
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            op_id = len(executions)
            around = (lambda: tracer.root(OP, op_id)) if tracer else None
            ex = run_cli(bcprof.cli.main, op, paths, op_id, around)
            after = calibrator.measure()
            ex.scale = scale(before, after)
            before = after
            executions.append(ex)
            busy += ex.reference_seconds
        pass_seconds.append(busy)
    return executions, pass_seconds


def replay_experiments(ops, paths, caches, tracer, workers: int) -> dict[str, str]:
    """Run each distinct experiment op once more with one worker, under spans."""
    import bcprof.cli
    from perfbench.tracing import REPLAY
    from perfbench.workloads import run_cli

    replays = {}
    os.environ["BCPROF_THREADS"] = "1"
    try:
        for op in {op.key: op for op in ops if op.command == "experiment"}.values():
            for cache in caches:
                cache.cache_clear()
            gc.collect()
            ex = run_cli(bcprof.cli.main, op, paths, -1, lambda: tracer.root(REPLAY, op.key))
            replays[op.key] = ex.text if ex.code == 0 and ex.text is not None else f"<{ex.error}>"
    finally:
        os.environ["BCPROF_THREADS"] = str(workers)
    return replays


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(ops, executions, pass_seconds, problems, setup_seconds):
    from perfbench.stats import TAIL_BEYOND, median, pass_median, tail

    latencies = [ex.reference_seconds for ex in executions]
    p50 = pass_median(latencies, len(pass_seconds))
    found = tail(latencies)
    if found is None:
        tail_value, tail_note = p50, f"p50: fewer than {2 * TAIL_BEYOND} samples"
    else:
        tail_value, tail_note = found[0], f"p{found[1]:.1f}, {TAIL_BEYOND} samples beyond"
    failed = sum(1 for p in problems if p)
    metrics = {
        "ops_per_s": (len(ops) / median(pass_seconds), len(pass_seconds)),
        "op_p50_s": (p50, len(latencies)),
        "op_tail_s": (tail_value, len(latencies)),
        "ok_frac": (1.0 - failed / len(executions), len(executions)),
        "setup_s": (median(setup_seconds), len(setup_seconds)),
        "peak_rss_mb": (peak_rss_mb(), 1),
    }
    notes = {"op_p50_s": "median over passes of each pass's median",
             "op_tail_s": tail_note,
             "ok_frac": f"failed_frac {failed / len(executions):g}"}
    return metrics, notes


def timed_run(ops, passes, input_dir, caches, workers, calibrator) -> Result:
    from perfbench.calibration import scale
    from perfbench.checks import check_executions

    started = time.perf_counter()
    setup_seconds = []
    before = calibrator.measure()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        paths, goldens = setup(ops, input_dir)
        seconds = time.perf_counter() - start
        after = calibrator.measure()
        setup_seconds.append(seconds * scale(before, after))
        before = after
    measured = time.perf_counter()
    executions, pass_seconds = run_passes(ops, passes, paths, caches, calibrator)
    checked = time.perf_counter()
    problems = check_executions(executions, goldens, paths)
    wall = {"setup": measured - started, "ops": checked - measured,
            "checks": time.perf_counter() - checked}
    metrics, notes = end_to_end(ops, executions, pass_seconds, problems, setup_seconds)
    return Result(executions, problems, metrics, END_TO_END_UNITS, notes, wall)


def traced_run(ops, passes, input_dir, caches, workers, calibrator) -> Result:
    from perfbench.checks import check_executions
    from perfbench.stats import median
    from perfbench.tracing import SETUP, Tracer, layer_metrics, patched, unit_of

    started = time.perf_counter()
    tracer = Tracer()
    with patched(tracer), tracer.root(SETUP, SETUP):
        paths, goldens = setup(ops, input_dir)
    measured = time.perf_counter()
    plain, plain_seconds = run_passes(ops, passes, paths, caches, calibrator)
    with patched(tracer):
        traced, traced_seconds = run_passes(ops, passes, paths, caches, calibrator, tracer)
        replays = replay_experiments(ops, paths, caches, tracer, workers)
    checked = time.perf_counter()
    executions = plain + traced
    problems = check_executions(executions, goldens, paths, replays)
    wall = {"setup": measured - started, "ops": checked - measured,
            "checks": time.perf_counter() - checked}
    overhead = 1.0 - median(plain_seconds) / median(traced_seconds)
    metrics = layer_metrics(
        tracer.spans, {ex.op_id: ex.op.key for ex in traced},
        sum(ex.nbytes for ex in traced), workers, overhead, len(plain_seconds) + len(traced_seconds),
    )
    units = {name: unit_of(name) for name in metrics}
    notes = {"tree_core.conv_cells": "computed from tree shape, not counted",
             "trace.overhead_frac": f"untraced {len(ops) / median(plain_seconds):.4g} ops/s, "
                                    f"traced {len(ops) / median(traced_seconds):.4g} ops/s"}
    return Result(executions, problems, metrics, units, notes, wall, tracer)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bcprof" / "__init__.py").is_file():
        print(f"perfbench: no bcprof sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bcprof
    import numpy

    from perfbench.calibration import Calibrator
    from perfbench.stats import median

    if Path(bcprof.__file__).resolve().parent != (SRC / "bcprof").resolve():
        print(f"perfbench: imported bcprof from {bcprof.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workers = len(os.sched_getaffinity(0))
    os.environ["BCPROF_THREADS"] = str(workers)
    wl = WORKLOADS[args.workload]
    ops = wl.op_list(args.seed)
    passes = wl.passes(args.seconds)
    record = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(ROOT), "nproc": workers, "python": platform.python_version(),
        "numpy": numpy.__version__, "loadavg_start": os.getloadavg(),
        "BCPROF_THREADS": os.environ["BCPROF_THREADS"], "passes": passes,
        "ops_per_pass": len(ops), "closed_loop_clients": 1,
    }
    caches = lru_caches()
    record["caches_emptied_before_each_op"] = [f"{c.__module__}.{c.__name__}" for c in caches]
    OUT.mkdir(exist_ok=True)
    input_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=OUT))
    calibrator = Calibrator(workers if any(op.uses_pool for op in ops) else 1)
    try:
        run = traced_run if args.trace else timed_run
        result = run(ops, passes, input_dir, caches, workers, calibrator)
    finally:
        calibrator.close()
        shutil.rmtree(input_dir, ignore_errors=True)

    executions, metrics, units, notes = result.executions, result.metrics, result.units, result.notes
    failed = sum(1 for p in result.problems if p)
    record["wall_s"] = result.wall_s
    record["calibration_cpus"] = calibrator.cpus
    record["median_time_scale"] = median(ex.scale for ex in executions)
    record["failures"] = sorted(
        {f"{ex.op.key}: {p}" for ex, p in zip(executions, result.problems) if p}
    )
    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if result.tracer is not None:
        result.tracer.dump(stem.with_suffix(".spans.jsonl"))
    stem.with_suffix(".json").write_text(json.dumps({
        "record": record,
        "metrics": {k: {"value": v, "unit": units[k], "samples": n} for k, (v, n) in metrics.items()},
        "ops": [{"op": ex.op.key, "seconds": ex.seconds, "scale": ex.scale} for ex in executions],
    }, indent=1) + "\n")

    print("run " + json.dumps(record))
    print(f"{'metric':44} {'value':>14}  {'unit':6} samples")
    for name, (value, samples) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:44} {value:>14.6g}  {units[name]:6} {samples}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(executions),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
