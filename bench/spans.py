"""Spans around the public functions of each tracklink layer.

The tracer wraps functions from outside: every module of the package
that holds a reference to a wrapped function gets the wrapper under the
same attribute name, so a call is traced whichever name its caller looks
up (``association`` imports ``learn_segment_metrics`` by name, while
``refine_tracklets`` reaches it through ``tracklink.metric``).  Spans
are kept in memory as (name, start, end, parent) and written out at the
end of the run.  A layer's self time is the duration of its spans minus
the time covered by their child spans.
"""

from __future__ import annotations

import time
from collections import Counter

# Per-layer time metric -> the spans whose self time it sums.
LAYER_TIMES = {
    "mot_io.load_s": ("mot_io.load_detections", "mot_io.load_ground_truth"),
    "tracklets.generate_s": ("tracklets.generate_initial_tracklets",),
    "metric.learn_s": ("metric.learn_segment_metrics",),
    "metric.collect_pairs_s": ("metric.collect_pairs",),
    "metric.refine_s": ("metric.refine_tracklets",),
    "dynamics.similarity_s": ("dynamics.motion_similarity",),
    "affinity.table_s": ("affinity.candidate_pairs", "affinity.build_affinity_table"),
    "affinity.appearance_s": ("affinity.appearance_distance_product",),
    "affinity.difficult_s": ("affinity.assess_difficult",),
    "affinity.refit_s": ("affinity.refit_lambdas",),
    "flow.solve_s": ("flow.solve_paths",),
    "association.self_s": (
        "association.track_sequence",
        "association.prepare_reliable_tracklets",
        "association.associate",
        "association.build_association_graph",
        "association.interpolate_members",
    ),
    "evaluation.evaluate_s": ("evaluation.evaluate",),
    "evaluation.sweep_s": ("evaluation.learn_weights",),
}

COUNTS = (
    "mot_io.rows",
    "tracklets.count",
    "metric.learned",
    "metric.identity_fallbacks",
    "metric.columns",
    "metric.descent_steps",
    "metric.capped_pairings",
    "metric.splits",
    "dynamics.similarity_calls",
    "dynamics.rank_calls",
    "affinity.rows",
    "affinity.appearance_calls",
    "affinity.flagged",
    "flow.solves",
    "flow.nodes",
    "flow.edges",
    "evaluation.calls",
)


# A counter is called as counter(tracer, args, result) after each call.


def _rows_loaded(tracer, args, result):
    tracer.counts["mot_io.rows"] += sum(len(v) for v in result.values())


def _metrics_learned(tracer, args, result):
    c, cap = tracer.counts, tracer.modules["metric"]._PAIR_CAP
    for pairs in result[1].values():
        c["metric.capped_pairings"] += len(pairs.positives) * len(pairs.negatives) > cap
    for m in result[0].values():
        if m.column_curves:
            c["metric.learned"] += 1
            c["metric.columns"] += len(m.column_curves)
            c["metric.descent_steps"] += sum(len(curve) - 1 for curve in m.column_curves)
        else:
            c["metric.identity_fallbacks"] += 1


def _splits(tracer, args, result):
    c = tracer.counts
    kept = {(t.id, t.start, t.end) for t in result}
    c["metric.splits"] += sum((t.id, t.start, t.end) not in kept for t in args[0])


def _solve(tracer, args, result):
    c, graph = tracer.counts, args[0]
    c["flow.solves"] += 1
    c["flow.nodes"] += len(graph.node_ids)
    c["flow.edges"] += len(graph.edges)


def _count(key, size=None):
    def add(tracer, args, result):
        tracer.counts[key] += 1 if size is None else size(result)
    return add


# (module, function, counter or None); spans are named "module.function"
SPANNED = (
    ("mot_io", "load_detections", _rows_loaded),
    ("mot_io", "load_ground_truth", _rows_loaded),
    ("tracklets", "generate_initial_tracklets", _count("tracklets.count", len)),
    ("metric", "learn_segment_metrics", _metrics_learned),
    ("metric", "collect_pairs", None),
    ("metric", "refine_tracklets", _splits),
    ("dynamics", "motion_similarity", _count("dynamics.similarity_calls")),
    ("affinity", "candidate_pairs", None),
    ("affinity", "build_affinity_table", _count("affinity.rows", lambda t: len(t.rows))),
    ("affinity", "appearance_distance_product", _count("affinity.appearance_calls")),
    ("affinity", "assess_difficult", _count("affinity.flagged", len)),
    ("affinity", "refit_lambdas", None),
    ("flow", "solve_paths", _solve),
    ("association", "track_sequence", None),
    ("association", "prepare_reliable_tracklets", None),
    ("association", "associate", None),
    ("association", "build_association_graph", None),
    ("association", "interpolate_members", None),
    ("evaluation", "learn_weights", None),
    ("evaluation", "evaluate", _count("evaluation.calls")),
)
# counted without a span: one SVD per call, thousands of calls per run
COUNTED = (("dynamics", "estimate_rank", _count("dynamics.rank_calls")),)


class Tracer:
    """Installs wrappers into the loaded modules of a package and records
    a span for each call; ``uninstall`` puts the originals back."""

    def __init__(self, modules: dict):
        self.modules = modules  # short name -> module, e.g. "flow" -> tracklink.flow
        self.spans: list = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.solves: list = []  # (graph, FlowResult) of every solve_paths call
        self._stack: list[int] = []
        self._undo: list = []

    def install(self):
        for mod, fn, counter in SPANNED:
            self._replace(mod, fn, self._spanned(f"{mod}.{fn}", getattr(self.modules[mod], fn), counter))
        for mod, fn, counter in COUNTED:
            self._replace(mod, fn, self._counted(getattr(self.modules[mod], fn), counter))

    def uninstall(self):
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()

    def _replace(self, mod: str, fn: str, wrapper):
        original = getattr(self.modules[mod], fn)
        for module in self.modules.values():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, original))

    def _spanned(self, name: str, fn, counter):
        spans, stack = self.spans, self._stack
        keep_solves = name == "flow.solve_paths"

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, time.perf_counter(), parent)
                stack.pop()
            if counter is not None:
                counter(self, args, result)
            if keep_solves:
                self.solves.append((args[0], result))
            return result

        return wrapper

    def _counted(self, fn, counter):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(self, args, result)
            return result

        return wrapper


def self_times(spans: list, lo: int = 0, hi: int | None = None) -> dict[str, float]:
    """Self time per span name over spans[lo:hi], which must hold whole
    call trees (every parent of a span in the range is in the range)."""
    chunk = spans[lo:hi]
    child = [0.0] * len(chunk)
    for name, start, end, parent in chunk:
        if parent >= 0:
            child[parent - lo] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), covered in zip(chunk, child):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


def layer_times(by_span: dict[str, float]) -> dict[str, float]:
    return {
        metric: sum(by_span.get(name, 0.0) for name in names)
        for metric, names in LAYER_TIMES.items()
    }
