"""Spans around bcprof's public calls, and the per-layer metrics they give.

The traced run swaps each public function below for a wrapper that records
a span, in every bcprof module that holds a reference to it, so the calls
the CLI makes and the calls between modules are both seen. Spans stay in
memory and are written out when the run ends. Work done in experiment pool
workers is not seen; a serial replay of each experiment op stands in for it.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict, deque
from math import comb
from statistics import median

from .workloads import EXPERIMENT_SHAPES, VERIFY_SUITES

# (module, attribute, span name); "Class.method" patches the class. Besides
# the functions the per-layer metrics name, write_tree and render_csv are
# wrapped so that their time is not counted as the CLI's own.
TARGETS = (
    ("bcprof.tree_core", "read_tree", "tree_core.read_tree"),
    ("bcprof.tree_core", "write_tree", "tree_core.write_tree"),
    ("bcprof.tree_core", "path_counts_fast", "tree_core.path_counts_fast"),
    ("bcprof.tree_core", "profile", "tree_core.profile"),
    ("bcprof.tree_core", "all_profiles", "tree_core.all_profiles"),
    ("bcprof.profile_analysis", "vertex_analysis", "profile_analysis.vertex_analysis"),
    ("bcprof.profile_analysis", "pair_analysis", "profile_analysis.pair_analysis"),
    ("bcprof.tree_families", "make_path", "tree_families.make_path"),
    ("bcprof.tree_families", "make_broom", "tree_families.make_broom"),
    ("bcprof.tree_families", "make_double_broom", "tree_families.make_double_broom"),
    ("bcprof.tree_families", "make_gij", "tree_families.make_gij"),
    ("bcprof.tree_families", "make_tell", "tree_families.make_tell"),
    ("bcprof.scale_free", "sample_tree", "scale_free.sample_tree"),
    ("bcprof.scale_free", "RecursiveTree.tree", "scale_free.to_tree"),
    ("bcprof.scale_free", "estimate_expected_profiles", "scale_free.estimate_expected_profiles"),
    ("bcprof.scale_free", "exact_path_presence_prob", "scale_free.exact_path_presence_prob"),
    ("bcprof.scale_free", "exact_expected_pk", "scale_free.exact_expected_pk"),
    ("bcprof.experiments", "run_experiment", "experiments.run_experiment"),
    ("bcprof.experiments", "render_csv", "experiments.render_csv"),
    ("bcprof.verify", "run_check", "verify.run_check"),
)

OP = "op"  # root span of a timed op: one bcprof.cli.main call
REPLAY = "replay"  # root span of a serial replay of an experiment op
SETUP = "setup"  # root span of the traced set-up


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs", "tree")

    def __init__(self, name, start, parent, op):
        self.name, self.start, self.end = name, start, start
        self.parent, self.op = parent, op
        self.attrs: dict = {}
        self.tree = None  # input of path_counts_fast, kept until its op ends

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _counts(name: str, args: tuple, result) -> dict:
    """Work counts a span records at its boundary; O(1) or O(n) each."""
    if name == "tree_core.path_counts_fast":
        return {"n": args[0].n}
    if name == "tree_core.profile":
        return {"fractions": len(result.entries)}
    if name == "tree_core.all_profiles":
        return {"fractions": sum(len(p.entries) for p in result)}
    if name == "profile_analysis.vertex_analysis":
        return {"entries": len(args[0].entries)}
    if name == "profile_analysis.pair_analysis":
        return {"entries": len(args[0].entries) + len(args[1].entries)}
    if name == "verify.run_check":
        return {"suite": args[0], "cases": len(result.cases)}
    if name == "experiments.run_experiment":
        cfg = args[0]
        return {"which": cfg.which, "trials": cfg.trials * len(cfg.grid)}
    return {}


class Tracer:
    """Spans in memory: name, start, end, parent span, op id."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | str | None = None

    def open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str, op):
        """A root span for one op; derived counts are taken after it closes."""
        self.op = op
        first = len(self.spans)
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)
            for s in self.spans[first:]:
                if s.tree is not None:
                    s.attrs["conv_cells"] = conv_cells(s.tree)
                    s.tree = None
            self.op = None

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            span.attrs = _counts(name, args, result)
            if name == "tree_core.path_counts_fast":
                span.tree = args[0]
            return result

        return functools.update_wrapper(wrapper, fn)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, **s.attrs,
                }) + "\n")


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Route every bcprof reference to each target through a span wrapper."""
    undo = []
    try:
        for module_name, attr, span_name in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, tracer.wrap(span_name, original))
                undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(span_name, original)
            for name, mod in list(sys.modules.items()):
                if name == "bcprof" or name.startswith("bcprof."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            undo.append((mod, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def conv_cells(tree) -> int:
    """Sum over v of (ecc(v) + 1)^2: the cells of one self-convolution of
    each vertex's distance histogram. Computed from the tree's shape, not
    counted inside the engine. On a tree, ecc(v) is the larger distance to
    the two ends of a diameter."""

    def distances(source):
        dist = [-1] * tree.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in tree.adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    d0 = distances(0)
    a = max(range(tree.n), key=d0.__getitem__)
    da = distances(a)
    b = max(range(tree.n), key=da.__getitem__)
    db = distances(b)
    return sum((max(x, y) + 1) ** 2 for x, y in zip(da, db))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [s.seconds for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.seconds
    return own


def _outermost(spans: list[Span], names: set[str]) -> list[Span]:
    """Spans with a name in `names` and no ancestor with a name in `names`."""
    out = []
    for s in spans:
        if s.name not in names:
            continue
        parent = s.parent
        while parent >= 0 and spans[parent].name not in names:
            parent = spans[parent].parent
        if parent < 0:
            out.append(s)
    return out


def _root_of(spans: list[Span], s: Span) -> Span:
    while s.parent >= 0:
        s = spans[s.parent]
    return s


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or name.startswith("experiments.trial_s."):
        return "s"
    return {
        "tree_core.ns_per_pair": "ns",
        "cli.output_bytes": "bytes",
        "experiments.parallel_efficiency": "ratio",
        "trace.overhead_frac": "ratio",
    }.get(name, "count")


def layer_metrics(
    spans: list[Span], op_keys: dict[int, str], output_bytes: int, workers: int,
    overhead_frac: float, overhead_samples: int,
) -> dict[str, tuple[float, int]]:
    """Per-layer metrics of one traced run: name -> (value, sample count).

    `_s` metrics are time busy summed over the run (set-up, traced ops and
    replays); a function called inside itself is counted once. `op_keys`
    maps the op ids of traced ops to op keys, to pair replays with pool runs.
    """
    m: dict[str, tuple[float, int]] = {}

    def outer(*names):
        return _outermost(spans, set(names))

    def busy(metric, *names):
        found = outer(*names)
        m[metric] = (sum(s.seconds for s in found), len(found))
        return found

    busy("tree_core.read_tree_s", "tree_core.read_tree")
    fast = busy("tree_core.path_counts_fast_s", "tree_core.path_counts_fast")
    pairs = sum(comb(s.attrs["n"], 2) for s in fast)
    m["tree_core.path_counts_fast_calls"] = (len(fast), len(fast))
    m["tree_core.pairs"] = (pairs, len(fast))
    m["tree_core.ns_per_pair"] = (
        m["tree_core.path_counts_fast_s"][0] * 1e9 / pairs if pairs else 0.0, len(fast)
    )
    m["tree_core.conv_cells"] = (sum(s.attrs.get("conv_cells", 0) for s in fast), len(fast))
    profiles = busy("tree_core.profile_s", "tree_core.profile", "tree_core.all_profiles")
    m["tree_core.fractions"] = (sum(s.attrs["fractions"] for s in profiles), len(profiles))

    one = busy("profile_analysis.vertex_analysis_s", "profile_analysis.vertex_analysis")
    two = busy("profile_analysis.pair_analysis_s", "profile_analysis.pair_analysis")
    m["profile_analysis.entries"] = (sum(s.attrs["entries"] for s in one + two), len(one + two))

    own = self_times(spans)
    ops = [i for i, s in enumerate(spans) if s.name == OP]
    m["cli.self_s"] = (sum(own[i] for i in ops), len(ops))
    m["cli.output_bytes"] = (output_bytes, len(ops))

    busy("tree_families.make_s", *(t[2] for t in TARGETS if t[2].startswith("tree_families.make_")))
    busy("tree_families.make_tell_s", "tree_families.make_tell")

    sampled = busy("scale_free.sample_tree_s", "scale_free.sample_tree")
    m["scale_free.sample_tree_calls"] = (len(sampled), len(sampled))
    for short in ("to_tree", "estimate_expected_profiles", "exact_path_presence_prob",
                  "exact_expected_pk"):
        busy(f"scale_free.{short}_s", f"scale_free.{short}")

    index = {id(s): i for i, s in enumerate(spans)}
    serial: dict[str, float] = defaultdict(float)
    parallel: dict[str, list[float]] = defaultdict(list)
    by_kind: dict[str, list[float]] = defaultdict(list)
    trials = 0
    exp_self = 0.0
    for s in outer("experiments.run_experiment"):
        root = _root_of(spans, s)
        if root.name == REPLAY:
            serial[root.op] += s.seconds
            by_kind[s.attrs["which"]].append(s.seconds)
            trials += s.attrs["trials"]
            exp_self += own[index[id(s)]]
        elif root.name == OP:
            parallel[op_keys[root.op]].append(s.seconds)
    for which, _ in EXPERIMENT_SHAPES:
        m[f"experiments.trial_s.{which}"] = (sum(by_kind[which]), len(by_kind[which]))
    serial_total = sum(serial.values())
    m["experiments.trials_per_s"] = (trials / serial_total if serial_total else 0.0, len(serial))
    m["experiments.self_s"] = (exp_self, len(serial))
    matched = [key for key in serial if parallel.get(key)]
    pool_total = sum(median(parallel[key]) for key in matched)
    m["experiments.parallel_efficiency"] = (
        sum(serial[key] for key in matched) / (workers * pool_total) if pool_total else 0.0,
        len(matched),
    )

    checks = outer("verify.run_check")
    for suite in VERIFY_SUITES:
        mine = [s for s in checks if s.attrs["suite"] == suite]
        m[f"verify.{suite}_s"] = (sum(s.seconds for s in mine), len(mine))
        m[f"verify.{suite}_cases"] = (sum(s.attrs["cases"] for s in mine), len(mine))

    m["trace.overhead_frac"] = (overhead_frac, overhead_samples)
    return m
