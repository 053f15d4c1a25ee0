"""Machine-speed calibration for timings taken on a shared, noisy CPU.

On the shared 2-vCPU virtual machine (Xeon, 2.1 GHz) the benchmark was
defined on, other tenants' load comes and goes: the same op took from 0.33 s
to 0.52 s within three minutes, and the median of 16-second windows spread by
31% (Q3 - Q1 over the median). A fixed kernel timed just before and just
after each op slows down with it. Over four minutes of six different ops
repeated in turn, the coefficient of variation of each op's time fell from
18% raw to 8% (mean over the six) once divided by the mean kernel time
around it.

So every end-to-end time is reported scaled to the reference speed:
raw seconds * REFERENCE_S / (mean kernel time around the op). On an idle
machine like the reference one the scale is about 1. The kernel runs only
while bcprof is idle, and it does not use bcprof, so a change to bcprof
cannot change it. Raw times are kept in the run record.

A workload whose ops run a worker pool on every CPU (experiment) times the
kernel on every CPU at once, in this process and in helper processes that
wait on a pipe between measurements: one CPU's speed did not track a pool
op's, and scaling by it widened that workload's spread of ops/s.

    python3 -m perfbench.calibration    # a helper: one timing per input line
"""

from __future__ import annotations

import random
import subprocess
import sys
import time
from collections import deque
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

REFERENCE_S = 0.0060  # kernel time on an idle core of the reference machine


class Calibrator:
    """A fixed mix of bcprof's three kinds of work, without bcprof: breadth-first
    searches over a random tree (about two thirds of the time), Fraction
    arithmetic, and numpy convolutions of short integer arrays. Over four
    minutes of six ops repeated in turn, the mean coefficient of variation of
    op time over kernel time was 9.4% with searches alone, 8.1% with mostly
    Fractions, and 7.8% with an even blend of the two, which this mix follows.

    With cpus > 1 it starts cpus - 1 helper processes; close() stops them.
    """

    def __init__(self, cpus: int = 1):
        n, sources = 2000, 16
        rng = random.Random(20160708)
        adj: list[list[int]] = [[] for _ in range(n)]
        for v in range(1, n):
            p = rng.randrange(v)
            adj[v].append(p)
            adj[p].append(v)
        self.adj = tuple(tuple(a) for a in adj)
        self.sources = tuple(range(0, n, n // sources))
        self.fractions = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6)) for _ in range(200)]
        self.arrays = [np.arange(1, k + 1, dtype=np.int64) for k in range(5, 60)]
        self.cpus = cpus
        self._helpers = [
            subprocess.Popen([sys.executable, "-m", "perfbench.calibration"], cwd=ROOT,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(cpus - 1)
        ]

    def measure(self) -> float:
        """Median seconds of three passes of the kernel, averaged over the
        helpers running it at the same time."""
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [self._median()] + [float(helper.stdout.readline()) for helper in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
            helper.wait(timeout=30)
            helper.stdout.close()
        self._helpers = []

    def _median(self) -> float:
        return sorted(self._once() for _ in range(3))[1]

    def _once(self) -> float:
        adj, n = self.adj, len(self.adj)
        start = time.perf_counter()
        for source in self.sources:
            dist = [-1] * n
            dist[source] = 0
            queue = deque([source])
            while queue:
                u = queue.popleft()
                du = dist[u] + 1
                for w in adj[u]:
                    if dist[w] < 0:
                        dist[w] = du
                        queue.append(w)
        acc = Fraction(0)
        for a, b in zip(self.fractions, self.fractions[1:]):
            acc += a * b
            if a < b:
                acc -= a
        total = 0
        for a in self.arrays:
            total += int(np.convolve(a, a)[: len(a)].sum())
            total += int((a[:-1] * a[1:] <= a[1:] * a[:-1]).all())
        return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns raw seconds between two kernel runs into reference seconds."""
    return REFERENCE_S / ((before + after) / 2)


if __name__ == "__main__":
    calibrator = Calibrator()
    for _ in sys.stdin:
        print(calibrator._median(), flush=True)
