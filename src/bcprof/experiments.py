"""Seeded Monte Carlo harness for the crossing/monotonicity experiments.

Each (grid point, trial) pair gets its own PRNG substream, and a grid
point's estimate is an integer count of hits, so results are byte-identical
regardless of worker count. With W workers (see workers.py), process r
runs trials t = r (mod W) of every grid point and counts its hits per
point; the parent adds them. Raw prefix counts P_k(v) share
the tree-wide normalization P_k, so crossing indicators compare integer
counts directly. Monotonicity compares BC_k(v) = P_k(v) / P_k with
BC_{k+1}(v) by cross-multiplying, since P_k > 0 for 2 <= k <= d, so it is
exact with no fractions.
"""

from __future__ import annotations

import datetime
import json
import platform
import random
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from math import sqrt
from typing import Sequence

from . import __version__
from .errors import BadSpecError, OutOfRangeError
from .profile_analysis import count_crossings
from .scale_free import check_seed, sample_tree, substream_seed
from .workers import run_shares, worker_count

# The 0-based vertices a trial of each kind lists at grid point x: two
# vertices are tested for a crossing, one for monotonicity.
_TRIAL_VERTICES = {
    "no_cross_12_vs_n": lambda x: (0, 1),
    "no_cross_ii1_vs_i": lambda x: (x - 1, x),
    "monotone_i_vs_i": lambda x: (x - 1,),
    "monotone_1_vs_n": lambda x: (0,),
}
EXPERIMENT_KINDS = tuple(_TRIAL_VERTICES)

DEFAULT_TRIALS = 5000
DEFAULT_FIXED_N = 250
DEFAULT_N_GRID = (10, 25, 50, 100, 150, 200)
DEFAULT_I_GRID = (1, 2, 5, 10, 25, 50, 100, 150, 200, 249)

# Trial t of grid point x draws substream (x << TRIAL_BITS) + t, so each
# grid point owns 2**TRIAL_BITS streams and no two points share one.
TRIAL_BITS = 24
MAX_TRIALS = 1 << TRIAL_BITS


@dataclass(frozen=True)
class ExperimentConfig:
    which: str
    grid: tuple[int, ...]
    trials: int = DEFAULT_TRIALS
    fixed_n: int = DEFAULT_FIXED_N
    seed: int = 0

    def __post_init__(self):
        if self.which not in EXPERIMENT_KINDS:
            raise BadSpecError(f"unknown experiment {self.which!r}")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise OutOfRangeError(f"need 1 <= trials <= {MAX_TRIALS}, got {self.trials}")
        check_seed(self.seed)
        if self.which.endswith("_vs_n"):
            if any(n < 3 for n in self.grid):
                raise OutOfRangeError("vertex counts must be >= 3")
        else:
            # Below 3 vertices every tree has diameter 1 and every profile is
            # empty, so no indicator would test anything. From 3 vertices on
            # it tests a real profile. Up to 7 vertices every estimate is
            # exactly 1 because every kind's exact probability is 1 there.
            if self.fixed_n < 3:
                raise OutOfRangeError(f"fixed vertex count must be >= 3, got {self.fixed_n}")
            if any(not 1 <= i < self.fixed_n for i in self.grid):
                raise OutOfRangeError(f"vertex indices must be in [1, {self.fixed_n})")


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[dict, ...]
    wall_seconds: float = field(compare=False, default=0.0)
    workers: int = field(compare=False, default=1)
    # Seconds the calling process spent on its own share of each grid
    # point, in grid order.
    grid_seconds: tuple[float, ...] = field(compare=False, default=())


def default_grid(which: str) -> tuple[int, ...]:
    return DEFAULT_N_GRID if which.endswith("_vs_n") else DEFAULT_I_GRID


def _trial_indicator(which: str, x: int, fixed_n: int, seed: int, trial: int) -> bool:
    rng = random.Random(substream_seed(seed, (x << TRIAL_BITS) + trial))
    n = x if which.endswith("_vs_n") else fixed_n
    Pk, rows = sample_tree(n, rng).prefix_counts(_TRIAL_VERTICES[which](x))
    if len(rows) == 2:
        return count_crossings(rows[0][2:], rows[1][2:]).count == 0
    # Step k has the sign of BC_{k+1}(v) - BC_k(v): a/p <= b/q iff a*q <= b*p.
    Pkv = rows[0]
    steps = [b * p - a * q for a, b, p, q in zip(Pkv[2:], Pkv[3:], Pk[2:], Pk[3:])]
    return min(steps, default=0) >= 0 or max(steps, default=0) <= 0


def _share_hits(cfg: ExperimentConfig, first: int, stride: int) -> tuple[list[int], list[float]]:
    """Hits at each grid point over trials first, first + stride, ..., and
    the seconds each point took."""
    hits, seconds = [], []
    last = time.monotonic()
    for x in cfg.grid:
        trial = partial(_trial_indicator, cfg.which, x, cfg.fixed_n, cfg.seed)
        hits.append(sum(map(trial, range(first, cfg.trials, stride))))
        now = time.monotonic()
        seconds.append(now - last)
        last = now
    return hits, seconds


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    start = time.monotonic()
    workers = worker_count(cfg.trials * len(cfg.grid))
    shares = run_shares(_share_hits, (cfg,), workers)
    point_hits = [sum(hits) for hits in zip(*(hits for hits, _ in shares))]
    grid_seconds = shares[0][1] if shares else []
    rows = []
    for x, hits in zip(cfg.grid, point_hits):
        estimate = hits / cfg.trials
        stderr = sqrt(estimate * (1.0 - estimate) / cfg.trials)
        rows.append(
            {
                "x": x,
                "estimate": estimate,
                "stderr": stderr,
                "trials": cfg.trials,
                "seed": cfg.seed,
            }
        )
    return ExperimentResult(
        config=cfg,
        rows=tuple(rows),
        wall_seconds=time.monotonic() - start,
        workers=workers,
        grid_seconds=tuple(grid_seconds),
    )


def render_csv(res: ExperimentResult) -> str:
    lines = ["x,estimate,stderr,trials,seed"]
    for row in res.rows:
        lines.append(
            f"{row['x']},{row['estimate']:.6f},{row['stderr']:.6f},"
            f"{row['trials']},{row['seed']}"
        )
    return "\n".join(lines) + "\n"


def write_csv(res: ExperimentResult, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(render_csv(res))


def write_manifest(res: ExperimentResult, path: str, argv: Sequence[str] = ()) -> None:
    """The run's config, timings and environment as JSON. argv is the
    command line that produced it, so `main(argv)` reruns it."""
    trials = res.config.trials * len(res.config.grid)
    manifest = {
        "argv": list(argv),
        "which": res.config.which,
        "grid": list(res.config.grid),
        "trials": res.config.trials,
        "fixed_n": res.config.fixed_n,
        "seed": res.config.seed,
        "version": __version__,
        "wall_seconds": res.wall_seconds,
        "grid_seconds": list(res.grid_seconds),
        "workers": res.workers,
        "trials_per_s": trials / res.wall_seconds if res.wall_seconds > 0 else 0.0,
        "python": platform.python_version(),
        "platform": sys.platform,
        "generated": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
