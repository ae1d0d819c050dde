"""Span tracing from outside the latloc package.

A Tracer replaces selected functions with timing wrappers at the names their
callers look them up under (for example ``latloc.estimation.grid_center``,
which ``filter_outliers`` and ``estimate_target`` resolve from their module
globals), records one span per call, and restores the originals on exit.
Spans stay in memory until ``write`` is called.

Span names are ``<layer>.<function>``, where the layer is the latloc module
that defines the function. ``least_squares`` belongs to scipy, so it is named
after the module that calls it (``latency.least_squares``).
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter
from dataclasses import dataclass

LAYERS = ("topology", "placement", "simulator", "latency", "lateration",
          "geodesy", "estimation", "cli")


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    request_id: str
    name: str
    start: float
    end: float = math.nan


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its child spans cover.

    Children may nest or overlap each other; the covered part is the length
    of the union of the children's intervals clipped to the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent_id is not None:
            children.setdefault(s.parent_id, []).append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.span_id, ())):
            start = max(start, cursor)
            end = min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        result[s.span_id] = (s.end - s.start) - covered
    return result


class Tracer:
    """Records spans and counters for the wrapped latloc functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.models: list[dict] = []  # every calibrate_all result, for checks
        self.request_id = "-"
        self._stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """Return fn wrapped in a span named `name`.

        before(args, kwargs) may rewrite the call's arguments;
        after(result, args, kwargs) sees the return value. Exceptions are
        counted as `<name>.raised` and re-raised unchanged.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), None if parent is None else parent.span_id,
                        tracer.request_id, name, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counters[f"{name}.raised"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def patch(self, module_name: str, attr: str, name: str, before=None, after=None):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        self._installed.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, before, after))

    def __enter__(self):
        for module_name, attr, name, hooks in _patch_table(self):
            self.patch(module_name, attr, name, **hooks)
        return self

    def __exit__(self, *exc):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
        return False

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        rows = [
            {"id": s.span_id, "parent": s.parent_id, "request": s.request_id,
             "name": s.name, "start": s.start, "end": s.end}
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "counters": dict(self.counters)}, fh)
            fh.write("\n")

    def metrics(self) -> dict[str, float]:
        """Per-function and per-layer calls, inclusive and self time, plus
        the counters, keyed by metric name. Every name in FUNCTIONS and
        LAYERS is present, with zeros where nothing was called."""
        own = self_times(self.spans)
        by_id = {s.span_id: s for s in self.spans}
        out: dict[str, float] = {}
        for name in FUNCTIONS:
            out[f"{name}.calls"] = 0
            out[f"{name}.s"] = 0.0
            out[f"{name}.self_s"] = 0.0
        for layer in LAYERS:
            out[f"{layer}.s"] = 0.0
            out[f"{layer}.self_s"] = 0.0
        total = 0.0
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            duration = s.end - s.start
            out[f"{s.name}.calls"] += 1
            out[f"{s.name}.s"] += duration
            out[f"{s.name}.self_s"] += own[s.span_id]
            out[f"{layer}.self_s"] += own[s.span_id]
            # A layer's inclusive time counts only its outermost spans.
            ancestor = s.parent_id
            nested = False
            while ancestor is not None:
                if by_id[ancestor].name.split(".", 1)[0] == layer:
                    nested = True
                    break
                ancestor = by_id[ancestor].parent_id
            if not nested:
                out[f"{layer}.s"] += duration
            if s.parent_id is None:
                total += duration
        for layer in LAYERS:
            out[f"{layer}.share"] = out[f"{layer}.self_s"] / total if total > 0 else 0.0
        for counter in COUNTERS:
            out[counter] = self.counters.get(counter, 0)
        out["trace.spans"] = len(self.spans)
        return out


# -- what gets wrapped ------------------------------------------------------

# (module whose globals the caller reads, attribute, span name)
_TARGETS = (
    ("latloc.placement", "hop_distances", "topology.hop_distances"),
    ("latloc.cli", "load_topology_json", "topology.load_topology_json"),
    ("latloc.simulator", "dragoon_place", "placement.dragoon_place"),
    ("latloc.placement", "place_orientation_mark", "placement.place_orientation_mark"),
    ("latloc.placement", "two_approx", "placement.two_approx"),
    ("latloc.placement", "refine", "placement.refine"),
    ("latloc.placement", "objective_key", "placement.objective_key"),
    ("latloc.simulator", "run_experiment", "simulator.run_experiment"),
    ("latloc.simulator", "calibration_mesh", "simulator.calibration_mesh"),
    ("latloc.simulator", "simulate_measurement", "simulator.simulate_measurement"),
    ("latloc.simulator", "shortest_hop_path", "simulator.shortest_hop_path"),
    ("latloc.simulator", "calibrate_all", "latency.calibrate_all"),
    ("latloc.latency", "fit_model", "latency.fit_model"),
    ("latloc.latency", "least_squares", "latency.least_squares"),
    ("latloc.latency", "effective_latency", "latency.effective_latency"),
    ("latloc.lateration", "effective_latency", "latency.effective_latency"),
    ("latloc.cli", "measurements_from_csv", "latency.measurements_from_csv"),
    ("latloc.cli", "models_from_json", "latency.models_from_json"),
    ("latloc.simulator", "build_circle", "lateration.build_circle"),
    ("latloc.cli", "build_circle", "lateration.build_circle"),
    ("latloc.estimation", "all_candidates", "lateration.all_candidates"),
    ("latloc.lateration", "circle_intersections", "geodesy.circle_intersections"),
    ("latloc.simulator", "estimate_target", "estimation.estimate_target"),
    ("latloc.cli", "estimate_target", "estimation.estimate_target"),
    ("latloc.estimation", "filter_outliers", "estimation.filter_outliers"),
    ("latloc.estimation", "grid_center", "estimation.grid_center"),
    ("latloc.cli", "main", "cli.main"),
    ("latloc.cli", "cmd_locate", "cli.cmd_locate"),
)

FUNCTIONS = tuple(dict.fromkeys(name for _, _, name in _TARGETS))

CASE_TAGS = ("pair_branch", "tangent", "midpoint_gap", "contained_tangent")

COUNTERS = (
    "latency.least_squares.nfev",
    "latency.least_squares.raised",
    "latency.fit_model.rss_sum",
    "latency.effective_latency.clamped",
    "estimation.filter_outliers.dropped",
    "estimation.kept",
    *(f"lateration.candidates.{tag}" for tag in CASE_TAGS),
    "lateration.pairs_dropped",
    "placement.refine.moves",
    "topology.hop_distances.sources",
)


def _patch_table(tracer: Tracer):
    c = tracer.counters

    def least_squares_after(res, args, kwargs):
        c["latency.least_squares.nfev"] += int(res.nfev)

    def fit_model_after(model, args, kwargs):
        c["latency.fit_model.rss_sum"] += model.fit_rss

    def effective_latency_after(lat, args, kwargs):
        c["latency.effective_latency.clamped"] += int(lat.clamped)

    def filter_outliers_after(result, args, kwargs):
        kept, dropped = result
        c["estimation.filter_outliers.dropped"] += len(dropped)
        c["estimation.kept"] += len(kept)

    def all_candidates_after(candidates, args, kwargs):
        circles = args[0] if args else kwargs["circles"]
        for cand in candidates:
            c[f"lateration.candidates.{cand.case_tag}"] += 1
        pairs = math.comb(len(circles), 2)
        c["lateration.pairs_dropped"] += pairs - len({cand.source_pair for cand in candidates})

    def refine_before(args, kwargs):
        # refine(t, ls, hops=None, move_log=None): supply a log to count moves.
        if len(args) < 4 and kwargs.get("move_log") is None:
            kwargs = {**kwargs, "move_log": []}
        return args, kwargs

    def refine_after(result, args, kwargs):
        log = args[3] if len(args) >= 4 else kwargs["move_log"]
        c["placement.refine.moves"] += len(log)

    def calibrate_all_after(models, args, kwargs):
        tracer.models.append(models)

    def hop_distances_after(result, args, kwargs):
        c["topology.hop_distances.sources"] += len(result)

    def probe_before(args, kwargs):
        # A probe issued straight from run_experiment (not from the
        # calibration mesh) starts the work for one target: its destination
        # becomes the request id of the spans that follow.
        stack = tracer._stack
        if stack and stack[-1].name == "simulator.run_experiment":
            dst = args[2] if len(args) > 2 else kwargs["dst"]
            tracer.request_id = getattr(dst, "target_id", dst)
        return args, kwargs

    hooks = {
        "latency.least_squares": {"after": least_squares_after},
        "latency.fit_model": {"after": fit_model_after},
        "latency.effective_latency": {"after": effective_latency_after},
        "estimation.filter_outliers": {"after": filter_outliers_after},
        "lateration.all_candidates": {"after": all_candidates_after},
        "placement.refine": {"before": refine_before, "after": refine_after},
        "topology.hop_distances": {"after": hop_distances_after},
        "latency.calibrate_all": {"after": calibrate_all_after},
        "simulator.simulate_measurement": {"before": probe_before},
    }
    for module_name, attr, name in _TARGETS:
        yield module_name, attr, name, hooks.get(name, {})
