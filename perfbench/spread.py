"""Run one workload with several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload verify --runs 10 --seconds 12

Spread is (Q3 - Q1) / median over the runs, the figure the benchmark's
bounds in BENCHMARK.json are set against. Each run is a separate process.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.stats import median, quartile_spread  # noqa: E402

RUN = Path(__file__).with_name("run.py")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    values: dict[str, list[float]] = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed", file=sys.stderr)
        line = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
        print(f"seed {seed}: {json.dumps(line)}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for name, vals in values.items():
        spread = quartile_spread(vals) if len(vals) >= 2 and median(vals) else float("nan")
        print(f"{name:44} median {median(vals):12.6g}  spread {spread:7.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
