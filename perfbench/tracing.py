"""In-memory span tracer wrapped around equirouter's public functions.

`Tracer.install()` replaces every public function of the traced modules by a
timing wrapper, under every name a caller looks it up by: the defining
module's own attribute and every `from .x import f` binding in another
equirouter module. So `evaluation` calling its imported `router_scores`, or
`router` calling its imported `forward`, goes through the wrapper too.

Spans (name, start, end, parent, operation) are kept in memory, capped at
`max_spans`, and written out once at the end by `dump()`. Per-function
totals are kept for every call, capped or not.
"""

from __future__ import annotations

import functools
import inspect
import json
import resource
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

TRACED_MODULES = ("dataset", "neuralnet", "router", "oracle", "evaluation", "cli")
# functions whose inclusive time (`.s`) or call count (`.calls`) is reported
TIMED = (
    "dataset.load_table", "dataset.save_table", "dataset.generate_synthetic",
    "neuralnet.forward", "neuralnet.adam_step", "neuralnet.save_checkpoint",
    "neuralnet.load_checkpoint", "router.train_equirouter",
    "router.ranking_objective", "router.build_pair_set",
    "router.train_mse_ablation", "router.mse_objective",
    "router.train_cost_predictor", "router.router_scores",
    "router.predict_costs", "router.knn_scores",
    "oracle.select_under_budget_batch", "oracle.select_under_budget",
    "oracle.margin_stats", "evaluation.sweep", "evaluation.metrics_summary",
    "evaluation.rci", "evaluation.noise_sensitivity",
    "evaluation.training_set_eval",
)
COUNTED = (
    "neuralnet.forward", "neuralnet.adam_step", "router.ranking_objective",
    "router.ranking_loss", "router.router_scores", "router.filter_costs",
    "router.route", "oracle.select_under_budget_batch", "oracle.feasible_set",
)


def maxrss_mb() -> float:
    """The process's peak resident set size so far, MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self, max_spans: int = 200_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.stack: list[list] = []  # [span_id, name, start, child_seconds]
        # name -> [calls, inclusive seconds, self seconds]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)
        self.op = "setup"
        self._op_rows = 0
        self._op_ids: list[np.ndarray] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- operations -----------------------------------------------------

    def begin_op(self, label: str) -> None:
        self.op = label
        self._op_rows = 0
        self._op_ids = []

    def end_op(self) -> None:
        # rows scored per query count CLI commands only: a `route()` call
        # scores its one row once by definition
        if self._op_ids and not self.op.startswith("route_"):
            ids = np.concatenate(self._op_ids)
            distinct = len(set(ids.tolist())) if ids.size <= 64 else np.unique(ids).size
            self.counters["router.scored_rows"] += self._op_rows
            self.counters["router.scored_distinct"] += distinct
        self._op_ids = []
        self._op_rows = 0

    # -- wrapping -------------------------------------------------------

    def _on_call(self, name: str, args, kwargs) -> None:
        if name == "router.router_scores":
            idx = np.asarray(kwargs.get("indices", args[2] if len(args) > 2 else ()))
            idx = idx.reshape(-1)
            self._op_rows += idx.size
            self._op_ids.append(idx)
        elif name == "evaluation.sweep":
            indices = kwargs.get("indices", args[2] if len(args) > 2 else ())
            grid = kwargs.get("grid", args[3] if len(args) > 3 else ())
            self.counters["evaluation.decisions"] += len(indices) * len(grid)

    def _wrap(self, name: str, fn):
        tracer = self
        track_rss = name == "router.router_scores"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._on_call(name, args, kwargs)
            span_id = tracer.next_id
            tracer.next_id += 1
            parent = tracer.stack[-1][0] if tracer.stack else -1
            rss0 = maxrss_mb() if track_rss else 0.0
            frame = [span_id, name, time.perf_counter(), 0.0]
            tracer.stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                dur = end - frame[2]
                st = tracer.stats[name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[3]
                if tracer.stack:
                    tracer.stack[-1][3] += dur
                if track_rss:
                    tracer.counters["router.router_scores.hwm_rise_mb"] += maxrss_mb() - rss0
                if len(tracer.spans) < tracer.max_spans:
                    tracer.spans.append((span_id, parent, name, frame[2], end, tracer.op))
                else:
                    tracer.dropped += 1

        return wrapper

    def install(self) -> None:
        """Wrap the public functions of TRACED_MODULES in every equirouter
        module namespace that binds them."""
        originals: dict[int, object] = {}
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"equirouter.{short}"]
            for attr, fn in inspect.getmembers(mod, inspect.isfunction):
                if attr.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                originals[id(fn)] = fn
                wrappers[id(fn)] = self._wrap(f"{short}.{attr}", fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "equirouter" and not modname.startswith("equirouter."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and originals[id(value)] is value:
                    self._originals.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._originals):
            setattr(mod, attr, value)
        self._originals = []

    # -- results --------------------------------------------------------

    def merge(self, payload: dict) -> None:
        """Fold in the stats, counters and spans dumped by another process."""
        for name, (calls, total, self_s) in payload["stats"].items():
            st = self.stats[name]
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for key, value in payload["counters"].items():
            self.counters[key] += value
        room = self.max_spans - len(self.spans)
        self.spans.extend(tuple(s) for s in payload["spans"][:room])
        self.dropped += payload["dropped"] + max(0, len(payload["spans"]) - room)

    def payload(self) -> dict:
        return {
            "stats": {k: list(v) for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "spans": [list(s) for s in self.spans],
            "dropped": self.dropped,
        }

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(self.payload()))

    def span_count(self) -> int:
        return sum(int(st[0]) for st in self.stats.values())

    def layer_metrics(self, per_span_cost_s: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the functions this run called. A metric whose
        function never ran is left out, not reported as 0."""
        stats, counters = self.stats, self.counters
        out: dict[str, tuple[float, str]] = {}
        for name in TIMED:
            if name in stats:
                out[f"{name}.s"] = (float(stats[name][1]), "s")
        for name in COUNTED:
            if name in stats:
                out[f"{name}.calls"] = (float(stats[name][0]), "count")
        if counters.get("router.scored_distinct"):
            rows = counters["router.scored_rows"]
            out["router.queries_scored"] = (rows, "count")
            out["router.scored_per_query"] = (rows / counters["router.scored_distinct"], "rows/query")
        if "router.router_scores" in stats:
            out["router.router_scores.hwm_rise_mb"] = (
                counters.get("router.router_scores.hwm_rise_mb", 0.0), "MB")
        if "evaluation.sweep" in stats:
            out["evaluation.decisions"] = (counters.get("evaluation.decisions", 0.0), "count")
        writes = [st[1] for name, st in stats.items()
                  if name.split(".")[0] in ("evaluation", "oracle")
                  and name.split(".")[1].startswith("write_")]
        if writes:
            out["evaluation.write_s"] = (sum(writes), "s")
        if "cli.main" in stats:
            # the cli layer's own time: inside main, not covered by another layer's span
            out["cli.main.self_s"] = (
                sum(st[2] for name, st in stats.items() if name.startswith("cli.")), "s")
        spans = self.span_count()
        out["trace.spans"] = (float(spans), "count")
        out["trace.overhead_s"] = (spans * per_span_cost_s, "s")
        return out


def per_span_cost(n: int = 20_000) -> float:
    """Seconds one wrapper adds to a call, measured on a wrapped no-op."""

    def noop():
        return None

    tracer = Tracer(max_spans=n)
    wrapped = tracer._wrap("calibrate.noop", noop)
    t0 = time.perf_counter()
    for _ in range(n):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        wrapped()
    return max((time.perf_counter() - t0 - bare) / n, 0.0)
