"""Spans around the package's layers, recorded from outside the package.

The tracer replaces a module's public function with a timing wrapper at the
place where callers look it up, and restores it afterwards. Nothing under
``src/`` changes. A function imported by name into another module is wrapped
there too: ``cli`` calls its own ``iterate``, ``sensitivity_experiment`` and
``diagram_samples`` bindings, and ``emit`` its own ``diagram_samples``.

Each span is ``[op, parent, name, start, end, counts]``, kept in memory and
written out when the worker exits. ``counts`` are read off the call's
arguments and result after the span has ended.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict


def _orbit_counts(args, kwargs, orbit) -> dict:
    escaped = orbit.escaped is not None
    return {"steps": len(orbit.states) - 1 + escaped, "states": len(orbit.states)}


def _scan_counts(args, kwargs, scan) -> dict:
    n_total = scan.settings.n_total
    return {
        "points": len(scan.v0_grid),
        # Escaped points stop early at an unrecorded step; only complete points count.
        "steps": n_total * sum(not e for e in scan.escaped),
        "states": sum(len(s) for s in scan.samples),
        "aperiodic": sum(p is None and not e for p, e in zip(scan.detected_periods, scan.escaped)),
        "escaped": sum(scan.escaped),
    }


def _curve_counts(args, kwargs, curve) -> dict:
    per_point = curve.settings.n_transient + curve.settings.n - 1
    ran = sum(used + skipped > 0 for used, skipped in zip(curve.n_terms, curve.skipped_terms))
    return {
        "points": len(curve.v0_grid),
        "steps": per_point * ran,
        "missing": sum(lam is None for lam in curve.lambdas),
        "skipped": sum(curve.skipped_terms),
    }


def _samples_counts(args, kwargs, samples) -> dict:
    return {"states": len(samples)}


def _csv_counts(args, kwargs, rows) -> dict:
    destination = args[1] if len(args) > 1 else kwargs["destination"]
    return {"bytes": os.path.getsize(destination)}


def _json_counts(args, kwargs, nbytes) -> dict:
    return {"bytes": nbytes}


def _svg_counts(args, kwargs, text) -> dict:
    return {"bytes": len(text) if text.isascii() else len(text.encode("utf-8"))}


# (module, attribute, span name, count extractor)
SITES = (
    ("cli", "main", "cli.main", None),
    ("cli", "build_parser", "cli.build_parser", None),
    ("cli", "iterate", "dynamics.iterate", _orbit_counts),
    ("cli", "sensitivity_experiment", "dynamics.sensitivity_experiment", None),
    ("cli", "diagram_samples", "model.diagram_samples", _samples_counts),
    ("dynamics", "iterate", "dynamics.iterate", _orbit_counts),
    ("analysis", "bifurcation_scan", "analysis.bifurcation_scan", _scan_counts),
    ("analysis", "detect_period", "analysis.detect_period", None),
    ("analysis", "lyapunov_curve", "analysis.lyapunov_curve", _curve_counts),
    ("emit", "diagram_samples", "model.diagram_samples", _samples_counts),
    ("emit", "write_csv", "emit.write_csv", _csv_counts),
    ("emit", "write_json", "emit.write_json", _json_counts),
    ("emit", "render_svg", "emit.render_svg", _svg_counts),
)


class Tracer:
    """In-memory span recorder that wraps the package's layer functions."""

    def __init__(self, modules: dict):
        self.spans: list[list] = []
        self.op = None
        self._stack: list[int] = []
        self._originals = [
            (modules[mod], attr, getattr(modules[mod], attr)) for mod, attr, _, _ in SITES
        ]

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [self.op, stack[-1] if stack else None, name, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = clock()
                stack.pop()
            if counts is not None:
                record[5] = counts(args, kwargs, result)
            return result

        return traced

    def install(self, op) -> None:
        self.op = op
        for (module, attr, fn), (_, _, name, counts) in zip(self._originals, SITES):
            setattr(module, attr, self._wrap(name, fn, counts))

    def uninstall(self) -> None:
        for module, attr, fn in self._originals:
            setattr(module, attr, fn)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(self.spans, out)


# Per-layer metrics: name -> unit. Times and counts are per repetition.
LAYER_METRICS = {
    "cli.main.calls": "count",
    "cli.main.busy_s": "s",
    "cli.main.self_s": "s",
    "cli.build_parser.busy_s": "s",
    "analysis.lyapunov_curve.busy_s": "s",
    "analysis.lyapunov_curve.self_s": "s",
    "analysis.lyapunov_curve.points": "count",
    "analysis.lyapunov_curve.ns_per_step": "ns",
    "analysis.lyapunov_curve.missing_points": "count",
    "analysis.lyapunov_curve.skipped_terms": "count",
    "analysis.bifurcation_scan.busy_s": "s",
    "analysis.bifurcation_scan.self_s": "s",
    "analysis.bifurcation_scan.points": "count",
    "analysis.bifurcation_scan.ns_per_step": "ns",
    "analysis.bifurcation_scan.aperiodic_points": "count",
    "analysis.bifurcation_scan.escaped_points": "count",
    "analysis.detect_period.calls": "count",
    "analysis.detect_period.busy_s": "s",
    "dynamics.iterate.calls": "count",
    "dynamics.iterate.busy_s": "s",
    "dynamics.iterate.ns_per_step": "ns",
    "dynamics.sensitivity_experiment.busy_s": "s",
    "model.map_steps": "count",
    "model.states_built": "count",
    "model.diagram_samples.calls": "count",
    "model.diagram_samples.busy_s": "s",
    "emit.write_csv.calls": "count",
    "emit.write_csv.busy_s": "s",
    "emit.write_csv.bytes": "bytes",
    "emit.write_json.calls": "count",
    "emit.write_json.busy_s": "s",
    "emit.write_json.bytes": "bytes",
    "emit.render_svg.calls": "count",
    "emit.render_svg.busy_s": "s",
    "emit.render_svg.bytes": "bytes",
    "emit.busy_s": "s",
    "emit.mb_per_s": "MB/s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "repro.artifacts_changed": "count",
}

_COUNTED = {
    "analysis.lyapunov_curve": {"points": "points", "missing": "missing_points",
                                "skipped": "skipped_terms"},
    "analysis.bifurcation_scan": {"points": "points", "aperiodic": "aperiodic_points",
                                  "escaped": "escaped_points"},
}


def _rep_metrics(items: list[tuple[list, float]], wall: float) -> dict:
    """Per-layer metrics of one traced repetition from its (span, self time) pairs."""
    busy = defaultdict(float)
    self_time = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(lambda: defaultdict(int))
    root = 0.0
    for (_, parent, name, start, end, extra), own in items:
        busy[name] += end - start
        self_time[name] += own
        calls[name] += 1
        if parent is None:
            root += end - start
        for key, value in (extra or {}).items():
            counts[name][key] += value

    m = {
        "cli.main.calls": calls["cli.main"],
        "cli.main.busy_s": busy["cli.main"],
        "cli.main.self_s": self_time["cli.main"],
        "cli.build_parser.busy_s": busy["cli.build_parser"],
        "analysis.lyapunov_curve.busy_s": busy["analysis.lyapunov_curve"],
        "analysis.lyapunov_curve.self_s": self_time["analysis.lyapunov_curve"],
        "analysis.bifurcation_scan.busy_s": busy["analysis.bifurcation_scan"],
        "analysis.bifurcation_scan.self_s": self_time["analysis.bifurcation_scan"],
        "analysis.detect_period.calls": calls["analysis.detect_period"],
        "analysis.detect_period.busy_s": busy["analysis.detect_period"],
        "dynamics.iterate.calls": calls["dynamics.iterate"],
        "dynamics.iterate.busy_s": busy["dynamics.iterate"],
        "dynamics.sensitivity_experiment.busy_s": busy["dynamics.sensitivity_experiment"],
        "model.diagram_samples.calls": calls["model.diagram_samples"],
        "model.diagram_samples.busy_s": busy["model.diagram_samples"],
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - root,
    }
    for layer, keys in _COUNTED.items():
        for key, metric in keys.items():
            m[f"{layer}.{metric}"] = counts[layer][key]
    stepping = ("analysis.lyapunov_curve", "analysis.bifurcation_scan", "dynamics.iterate")
    for layer in stepping:
        steps = counts[layer]["steps"]
        m[f"{layer}.ns_per_step"] = busy[layer] / steps * 1e9 if steps else 0.0
    m["model.map_steps"] = sum(counts[layer]["steps"] for layer in stepping)
    m["model.states_built"] = sum(
        counts[layer]["states"]
        for layer in ("analysis.bifurcation_scan", "dynamics.iterate", "model.diagram_samples")
    )
    emitters = ("emit.write_csv", "emit.write_json", "emit.render_svg")
    for name in emitters:
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.busy_s"] = busy[name]
        m[f"{name}.bytes"] = counts[name]["bytes"]
    m["emit.busy_s"] = sum(busy[name] for name in emitters)
    emit_bytes = sum(counts[name]["bytes"] for name in emitters)
    m["emit.mb_per_s"] = emit_bytes / m["emit.busy_s"] / 1e6 if m["emit.busy_s"] else 0.0
    return m


def layer_metrics(spans: list[list], rep_of_op: dict, rep_walls: dict) -> dict:
    """Median over traced repetitions of each per-layer metric.

    A span's self time is its duration minus that of its direct children;
    calls are sequential on one thread, so children never overlap.
    """
    child = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            child[parent] += end - start
    by_rep = defaultdict(list)
    for i, span in enumerate(spans):
        by_rep[rep_of_op[span[0]]].append((span, span[4] - span[3] - child[i]))
    per_rep = [_rep_metrics(items, rep_walls[rep]) for rep, items in sorted(by_rep.items())]
    return {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
