"""Serialization and plotting: CSV/JSON emitters and standalone SVG renderers.

Numbers in CSV files carry 17 significant digits so every double round-trips
exactly; JSON uses the shortest exact representation. SVG output is plain
text with no external dependencies, and identical payload + spec pairs
always produce byte-identical documents.

Every document is built whole in memory and written in one call. The cost
is per value, so each value is formatted by as few calls as possible: one
%-format per CSV row and per SVG dot, the shared v0 prefix of a bifurcation
point formatted once, and every JSON array of numbers encoded by json's C
encoder in one call (``_json_text``).
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import dataclass
from operator import attrgetter
from typing import Sequence

from .analysis import BifurcationScan, LyapunovCurve, fixed_point
from .dynamics import Orbit, SensitivityResult, cobweb_path
from .errors import RenderError, SpecError
from .model import TrafficParams, TrafficState, diagram_samples

SCHEMA_VERSION = "1"

KIND_DIAGRAMS = "fundamental-diagrams"
KIND_COBWEB = "cobweb-triptych"
KIND_BIFURCATION = "bifurcation"
KIND_LYAPUNOV = "lyapunov"
KIND_SENSITIVITY = "sensitivity"

# In CSV a detected period of 0 marks an aperiodic attractor; JSON uses null.
APERIODIC_CSV_MARKER = 0

_CURVE_COLOR = "#1f77b4"
_PATH_COLOR = "#d62728"
_MARKER_COLOR = "#2ca02c"
_GUIDE_COLOR = "#777777"


@dataclass(frozen=True)
class DiagramPayload:
    """Fundamental-diagram samples together with the parameters that made them."""

    params: TrafficParams
    samples: tuple[TrafficState, ...]


@dataclass(frozen=True)
class PlotSpec:
    """What to draw and how: plot kind, geometry, labels and overlays.

    Axis ranges left as None are computed from the payload; explicit ranges
    must be finite with min < max. ``y_field`` picks the bifurcation
    ordinate ("k", "q" or "v").
    """

    kind: str
    title: str = ""
    width: int = 960
    height: int = 360
    x_range: tuple[float, float] | None = None
    y_range: tuple[float, float] | None = None
    show_identity: bool = True
    show_fixed_point: bool = True
    show_threshold: bool = True
    y_field: str = "k"


def _sink(destination):
    if hasattr(destination, "write"):
        return nullcontext(destination)
    return open(destination, "w", encoding="utf-8", newline="")


def _orbit_rows(orbit: Orbit) -> tuple[str, list[str]]:
    last = len(orbit.states) - 1
    flag = "1" if orbit.escaped is not None else "0"
    rows = [
        "%d,%.17g,%.17g,%.17g,%s\n" % (i, s.k, s.q, s.v, flag if i == last else "")
        for i, s in enumerate(orbit.states)
    ]
    return "i,k,q,v,escaped", rows


def _diagram_rows(payload: DiagramPayload) -> tuple[str, list[str]]:
    rows = ["%.17g,%.17g,%.17g\n" % (s.k, s.q, s.v) for s in payload.samples]
    return "k,q,v", rows


def _scan_rows(scan: BifurcationScan) -> tuple[str, list[str]]:
    rows = []
    for v0, states, period in zip(scan.v0_grid, scan.samples, scan.detected_periods):
        # The v0 prefix and the period suffix are shared by every sample of a point.
        prefix = "%.17g," % v0
        suffix = ",%d\n" % (APERIODIC_CSV_MARKER if period is None else period)
        rows.extend(
            "%s%d,%.17g,%.17g,%.17g%s" % (prefix, j, s.k, s.q, s.v, suffix)
            for j, s in enumerate(states)
        )
    return "v0,sample_index,k,q,v,detected_period", rows


def _curve_rows(curve: LyapunovCurve) -> tuple[str, list[str]]:
    rows = [
        "%.17g,,%d,%d\n" % (v0, terms, skipped)
        if lam is None
        else "%.17g,%.17g,%d,%d\n" % (v0, lam, terms, skipped)
        for v0, lam, terms, skipped in zip(
            curve.v0_grid, curve.lambdas, curve.n_terms, curve.skipped_terms
        )
    ]
    return "v0,lambda,n_terms,skipped_terms", rows


def _sensitivity_rows(result: SensitivityResult) -> tuple[str, list[str]]:
    a, b = result.orbit_a.states, result.orbit_b.states
    rows = [
        "%d,%.17g,%.17g,%.17g\n" % (i, a[i].k, b[i].k, sep)
        for i, sep in enumerate(result.separation)
    ]
    return "i,k_a,k_b,separation", rows


def write_csv(payload, destination) -> int:
    """Write one CSV document for the payload; returns the data row count.

    The document is built whole and written in one call.
    """
    if isinstance(payload, Orbit):
        header, rows = _orbit_rows(payload)
    elif isinstance(payload, DiagramPayload):
        header, rows = _diagram_rows(payload)
    elif isinstance(payload, BifurcationScan):
        header, rows = _scan_rows(payload)
    elif isinstance(payload, LyapunovCurve):
        header, rows = _curve_rows(payload)
    elif isinstance(payload, SensitivityResult):
        header, rows = _sensitivity_rows(payload)
    else:
        raise SpecError(f"no CSV schema for payload type {type(payload).__name__}")
    with _sink(destination) as out:
        out.write(header + "\n" + "".join(rows))
    return len(rows)


def _settings_of(payload) -> dict:
    """The exact input parameters behind a payload, echoed into every artifact."""
    if isinstance(payload, Orbit):
        return {
            "v0": payload.params.v0,
            "kj": payload.params.kj,
            "k0": payload.k0,
            "n": payload.n,
        }
    if isinstance(payload, DiagramPayload):
        return {
            "v0": payload.params.v0,
            "kj": payload.params.kj,
            "n": len(payload.samples),
        }
    if isinstance(payload, BifurcationScan):
        grid = payload.v0_grid
        return {
            "v0_min": grid[0] if grid else None,
            "v0_max": grid[-1] if grid else None,
            "steps": len(grid),
            "k0": payload.settings.k0,
            "n_total": payload.settings.n_total,
            "n_keep": payload.settings.n_keep,
            "tolerance": payload.settings.tolerance,
            "max_period": payload.settings.max_period,
        }
    if isinstance(payload, LyapunovCurve):
        grid = payload.v0_grid
        return {
            "v0_min": grid[0] if grid else None,
            "v0_max": grid[-1] if grid else None,
            "steps": len(grid),
            "k0": payload.settings.k0,
            "n": payload.settings.n,
            "n_transient": payload.settings.n_transient,
        }
    if isinstance(payload, SensitivityResult):
        a, b = payload.orbit_a, payload.orbit_b
        return {
            "v0": a.params.v0,
            "kj": a.params.kj,
            "k0": a.k0,
            "delta": b.k0 - a.k0,
            "n": a.n,
            "threshold": payload.threshold,
        }
    raise SpecError(f"no settings schema for payload type {type(payload).__name__}")


def _orbit_document(orbit: Orbit) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "orbit",
        "settings": _settings_of(orbit),
        "data": {
            "k": [s.k for s in orbit.states],
            "q": [s.q for s in orbit.states],
            "v": [s.v for s in orbit.states],
            "escaped": orbit.escaped,
        },
    }


def _diagram_document(payload: DiagramPayload) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "diagram",
        "settings": _settings_of(payload),
        "data": {
            "k": [s.k for s in payload.samples],
            "q": [s.q for s in payload.samples],
            "v": [s.v for s in payload.samples],
        },
    }


def _scan_document(scan: BifurcationScan) -> dict:
    grid = scan.v0_grid
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "bifurcation-scan",
        "settings": _settings_of(scan),
        "data": {
            "v0": list(grid),
            "k0": list(scan.k0_values),
            "detected_period": list(scan.detected_periods),
            "escaped": list(scan.escaped),
            "k": [[s.k for s in states] for states in scan.samples],
            "q": [[s.q for s in states] for states in scan.samples],
            "v": [[s.v for s in states] for states in scan.samples],
        },
    }


def _curve_document(curve: LyapunovCurve) -> dict:
    grid = curve.v0_grid
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "lyapunov-curve",
        "settings": _settings_of(curve),
        "data": {
            "v0": list(grid),
            "lambda": list(curve.lambdas),
            "n_terms": list(curve.n_terms),
            "skipped_terms": list(curve.skipped_terms),
        },
    }


def _sensitivity_document(result: SensitivityResult) -> dict:
    a, b = result.orbit_a, result.orbit_b
    m = len(result.separation)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "sensitivity",
        "settings": _settings_of(result),
        "data": {
            "k_a": [s.k for s in a.states[:m]],
            "k_b": [s.k for s in b.states[:m]],
            "separation": list(result.separation),
            "first_divergence_index": result.first_divergence_index,
        },
    }


def _json_text(obj, depth: int) -> str:
    """The text of ``json.dumps(obj, indent=2, allow_nan=False)`` nested ``depth`` deep.

    json ignores its C encoder once ``indent`` is set. Here dicts (with str
    keys) and lists holding containers or strings are walked in Python,
    while a list of numbers, bools and None goes to the C encoder in one
    call; with no string inside, every ", " in that text is a separator and
    becomes the indented line break. NaN and infinities raise ValueError.
    """
    inner = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        items = [
            json.dumps(key) + ": " + _json_text(value, depth + 1)
            for key, value in obj.items()
        ]
        brackets = "{}"
    elif isinstance(obj, (list, tuple)):
        if any(isinstance(x, (str, list, tuple, dict)) for x in obj):
            items = [_json_text(x, depth + 1) for x in obj]
        else:
            flat = json.dumps(obj, allow_nan=False)[1:-1]
            items = [flat.replace(", ", "," + inner)] if obj else []
        brackets = "[]"
    else:
        return json.dumps(obj, allow_nan=False)
    if not items:
        return brackets
    return (
        brackets[0] + inner + ("," + inner).join(items)
        + "\n" + "  " * depth + brackets[1]
    )


def write_json(payload, destination) -> int:
    """Write one JSON document for the payload; returns the byte count."""
    if isinstance(payload, Orbit):
        doc = _orbit_document(payload)
    elif isinstance(payload, DiagramPayload):
        doc = _diagram_document(payload)
    elif isinstance(payload, BifurcationScan):
        doc = _scan_document(payload)
    elif isinstance(payload, LyapunovCurve):
        doc = _curve_document(payload)
    elif isinstance(payload, SensitivityResult):
        doc = _sensitivity_document(payload)
    else:
        raise SpecError(f"no JSON schema for payload type {type(payload).__name__}")
    text = _json_text(doc, 0) + "\n"
    with _sink(destination) as out:
        out.write(text)
    # json escapes every non-ASCII character, so characters are bytes.
    return len(text)


def _escape_xml(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _checked_range(rng: tuple[float, float], axis: str) -> tuple[float, float]:
    lo, hi = rng
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise RenderError(f"{axis} range must be finite with min < max, got {rng}")
    return lo, hi


def _auto_range(values: Sequence[float], pad: float = 0.05) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return (0.0, 1.0)
    lo, hi = min(finite), max(finite)
    if hi - lo < 1e-12:
        slack = max(0.5, abs(hi) * 0.1)
        return (lo - slack, hi + slack)
    slack = (hi - lo) * pad
    return (lo - slack, hi + slack)


class _Panel:
    """One plotting area: data-to-pixel mapping plus element builders."""

    def __init__(self, left, top, width, height, x_range, y_range, x_label, y_label, clip_id):
        self.left, self.top = left, top
        self.width, self.height = width, height
        self.x0, self.x1 = x_range
        self.y0, self.y1 = y_range
        self.x_label, self.y_label = x_label, y_label
        self.clip_id = clip_id
        self.elements: list[str] = []

    def px(self, v: float) -> float:
        return self.left + (v - self.x0) / (self.x1 - self.x0) * self.width

    def py(self, v: float) -> float:
        return self.top + self.height - (v - self.y0) / (self.y1 - self.y0) * self.height

    def polyline(self, points, color, width=1.3, dash=None):
        if len(points) < 2:
            return
        coords = " ".join(f"{self.px(x):.2f},{self.py(y):.2f}" for x, y in points)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def dots(self, points, color, radius=2.0):
        self.elements.extend(
            '<circle cx="%.2f" cy="%.2f" r="%s" fill="%s"/>'
            % (self.px(x), self.py(y), radius, color)
            for x, y in points
        )

    def column(self, x, ys, color, radius):
        """Dots sharing the abscissa x: cx is formatted once, each dot by one %-format."""
        dot = '<circle cx="%.2f" cy="%%.2f" r="%s" fill="%s"/>' % (self.px(x), radius, color)
        # py(y) inlined with its operation order kept, so every cy rounds the same
        base, span = self.top + self.height, self.y1 - self.y0
        y0, height = self.y0, self.height
        self.elements.extend(dot % (base - (y - y0) / span * height) for y in ys)

    def hline(self, y, color, dash="4 3", width=1.0):
        if not (self.y0 <= y <= self.y1):
            return
        self.elements.append(
            f'<line x1="{self.left:.2f}" y1="{self.py(y):.2f}" '
            f'x2="{self.left + self.width:.2f}" y2="{self.py(y):.2f}" '
            f'stroke="{color}" stroke-width="{width}" stroke-dasharray="{dash}"/>'
        )

    def vline(self, x, color, dash="4 3", width=1.0):
        if not (self.x0 <= x <= self.x1):
            return
        self.elements.append(
            f'<line x1="{self.px(x):.2f}" y1="{self.top:.2f}" '
            f'x2="{self.px(x):.2f}" y2="{self.top + self.height:.2f}" '
            f'stroke="{color}" stroke-width="{width}" stroke-dasharray="{dash}"/>'
        )

    def frame(self) -> list[str]:
        parts = [
            f'<rect x="{self.left:.2f}" y="{self.top:.2f}" width="{self.width:.2f}" '
            f'height="{self.height:.2f}" fill="none" stroke="#333333" stroke-width="1"/>'
        ]
        for i in range(5):
            xv = self.x0 + i * (self.x1 - self.x0) / 4
            xp = self.px(xv)
            parts.append(
                f'<line x1="{xp:.2f}" y1="{self.top + self.height:.2f}" '
                f'x2="{xp:.2f}" y2="{self.top + self.height + 4:.2f}" '
                f'stroke="#333333" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{xp:.2f}" y="{self.top + self.height + 16:.2f}" '
                f'font-size="10" text-anchor="middle">{xv:.4g}</text>'
            )
            yv = self.y0 + i * (self.y1 - self.y0) / 4
            yp = self.py(yv)
            parts.append(
                f'<line x1="{self.left - 4:.2f}" y1="{yp:.2f}" '
                f'x2="{self.left:.2f}" y2="{yp:.2f}" stroke="#333333" stroke-width="1"/>'
            )
            parts.append(
                f'<text x="{self.left - 7:.2f}" y="{yp + 3:.2f}" font-size="10" '
                f'text-anchor="end">{yv:.4g}</text>'
            )
        parts.append(
            f'<text x="{self.left + self.width / 2:.2f}" '
            f'y="{self.top + self.height + 32:.2f}" font-size="11" '
            f'text-anchor="middle">{_escape_xml(self.x_label)}</text>'
        )
        parts.append(
            f'<text x="{self.left - 40:.2f}" y="{self.top + self.height / 2:.2f}" '
            f'font-size="11" text-anchor="middle" transform="rotate(-90 '
            f'{self.left - 40:.2f} {self.top + self.height / 2:.2f})">'
            f"{_escape_xml(self.y_label)}</text>"
        )
        return parts

    def render(self) -> str:
        clip = (
            f'<clipPath id="{self.clip_id}"><rect x="{self.left:.2f}" '
            f'y="{self.top:.2f}" width="{self.width:.2f}" '
            f'height="{self.height:.2f}"/></clipPath>'
        )
        body = "\n".join(self.elements)
        frame = "\n".join(self.frame())
        return (
            f"<defs>{clip}</defs>\n"
            f'<g clip-path="url(#{self.clip_id})">\n{body}\n</g>\n{frame}'
        )


def _panel_slots(spec: PlotSpec, count: int):
    slot = spec.width / count
    top = 44
    height = spec.height - 100
    for i in range(count):
        yield slot * i + 56, top, slot - 76, height


def _make_panel(spec, slot, x_range, y_range, x_label, y_label, index):
    left, top, width, height = slot
    if spec.x_range is not None:
        x_range = _checked_range(spec.x_range, "x")
    if spec.y_range is not None:
        y_range = _checked_range(spec.y_range, "y")
    _checked_range(x_range, "x")
    _checked_range(y_range, "y")
    return _Panel(left, top, width, height, x_range, y_range, x_label, y_label, f"clip{index}")


def _diagram_panels(spec: PlotSpec, payload: DiagramPayload) -> list[_Panel]:
    samples = payload.samples
    kj = payload.params.kj
    ks = [s.k for s in samples]
    qs = [s.q for s in samples]
    # Velocity diverges as k -> 0; range over the moderate-density branch and
    # let the clip path absorb the free-flow spike.
    vs_ranged = [s.v for s in samples if s.k >= 0.02 * kj]
    slots = list(_panel_slots(spec, 3))
    x_k = _auto_range([0.0, kj])
    p1 = _make_panel(spec, slots[0], x_k, _auto_range([0.0, *qs]), "density k", "flow q", 0)
    p1.polyline([(s.k, s.q) for s in samples], _CURVE_COLOR)
    v_range = _auto_range([0.0, *vs_ranged])
    p2 = _make_panel(spec, slots[1], x_k, v_range, "density k", "velocity v", 1)
    p2.polyline([(s.k, s.v) for s in samples], _CURVE_COLOR)
    p3 = _make_panel(
        spec, slots[2], _auto_range([0.0, *qs]), v_range, "flow q", "velocity v", 2
    )
    p3.polyline([(s.q, s.v) for s in samples], _CURVE_COLOR)
    return [p1, p2, p3]


def _cobweb_panels(spec: PlotSpec, orbit: Orbit) -> list[_Panel]:
    p = orbit.params
    curve = diagram_samples(p, 256)
    path = cobweb_path(orbit) if len(orbit.states) >= 2 else []
    orbit_vs = [s.v for s in orbit.states]
    orbit_qs = [s.q for s in orbit.states]
    slots = list(_panel_slots(spec, 3))

    flow_values = [s.q for s in curve] + [y for _, y in path]
    x_k = _auto_range([0.0, p.kj])
    p1 = _make_panel(
        spec, slots[0], x_k, _auto_range([0.0, *flow_values]), "density k", "flow q", 0
    )
    p1.polyline([(s.k, s.q) for s in curve], _CURVE_COLOR)
    if spec.show_identity:
        p1.polyline([(0.0, 0.0), (p.kj, p.kj)], _GUIDE_COLOR, width=1.0, dash="5 4")
    if path:
        p1.polyline(path, _PATH_COLOR, width=1.1)
    p1.dots([(orbit.k0, orbit.k0)], _PATH_COLOR, radius=2.4)
    if spec.show_fixed_point and p.v0 > 0.0:
        k_star = fixed_point(p)
        p1.dots([(k_star, k_star)], "#000000", radius=2.6)

    v_top = max([p.v0, *orbit_vs, 1e-9])
    v_range = (0.0, 1.08 * v_top)
    p2 = _make_panel(spec, slots[1], x_k, v_range, "density k", "velocity v", 1)
    p2.polyline([(s.k, s.v) for s in curve], _CURVE_COLOR)
    p2.dots([(s.k, s.v) for s in orbit.states], _MARKER_COLOR)

    q_range = _auto_range([0.0, *[s.q for s in curve], *orbit_qs])
    p3 = _make_panel(spec, slots[2], q_range, v_range, "flow q", "velocity v", 2)
    p3.polyline([(s.q, s.v) for s in curve], _CURVE_COLOR)
    p3.dots([(s.q, s.v) for s in orbit.states], _MARKER_COLOR)
    return [p1, p2, p3]


def _bifurcation_panels(spec: PlotSpec, scan: BifurcationScan) -> list[_Panel]:
    if spec.y_field not in ("k", "q", "v"):
        raise SpecError(f"bifurcation y_field must be k, q or v, got {spec.y_field!r}")
    ordinate = attrgetter(spec.y_field)
    columns = [list(map(ordinate, states)) for states in scan.samples]
    slots = list(_panel_slots(spec, 1))
    x_range = _auto_range(list(scan.v0_grid), pad=0.02)
    y_range = _auto_range([y for ys in columns for y in ys])
    panel = _make_panel(
        spec, slots[0], x_range, y_range, "optimum velocity v0", spec.y_field, 0
    )
    if spec.show_threshold:
        panel.vline(2.0, _PATH_COLOR)
    for v0, ys in zip(scan.v0_grid, columns):
        panel.column(v0, ys, _CURVE_COLOR, radius=0.7)
    return [panel]


def _lyapunov_panels(spec: PlotSpec, curve: LyapunovCurve) -> list[_Panel]:
    finite = [l for l in curve.lambdas if l is not None]
    slots = list(_panel_slots(spec, 1))
    panel = _make_panel(
        spec,
        slots[0],
        _auto_range(list(curve.v0_grid), pad=0.02),
        _auto_range([0.0, *finite]),
        "optimum velocity v0",
        "Lyapunov exponent",
        0,
    )
    panel.hline(0.0, _GUIDE_COLOR)
    if spec.show_threshold:
        panel.vline(2.0, _PATH_COLOR)
    segment: list[tuple[float, float]] = []
    for v0, lam in zip(curve.v0_grid, curve.lambdas):
        if lam is None:
            panel.polyline(segment, _CURVE_COLOR, width=1.1)
            segment = []
        else:
            segment.append((v0, lam))
    panel.polyline(segment, _CURVE_COLOR, width=1.1)
    return [panel]


def _sensitivity_panels(spec: PlotSpec, result: SensitivityResult) -> list[_Panel]:
    m = len(result.separation)
    idx = list(range(m))
    ka = [result.orbit_a.states[i].k for i in range(m)]
    kb = [result.orbit_b.states[i].k for i in range(m)]
    slots = list(_panel_slots(spec, 2))
    x_range = _auto_range([0.0, max(m - 1, 1)], pad=0.02)
    p1 = _make_panel(
        spec, slots[0], x_range, _auto_range([*ka, *kb]), "iteration", "density k", 0
    )
    p1.polyline(list(zip(idx, ka)), _CURVE_COLOR, width=1.1)
    p1.polyline(list(zip(idx, kb)), _PATH_COLOR, width=1.1)
    p2 = _make_panel(
        spec,
        slots[1],
        x_range,
        _auto_range([0.0, *result.separation, result.threshold]),
        "iteration",
        "separation",
        1,
    )
    p2.hline(result.threshold, _GUIDE_COLOR)
    p2.polyline(list(zip(idx, result.separation)), _MARKER_COLOR, width=1.1)
    return [p1, p2]


_KIND_PAYLOADS = {
    KIND_DIAGRAMS: (DiagramPayload, _diagram_panels),
    KIND_COBWEB: (Orbit, _cobweb_panels),
    KIND_BIFURCATION: (BifurcationScan, _bifurcation_panels),
    KIND_LYAPUNOV: (LyapunovCurve, _lyapunov_panels),
    KIND_SENSITIVITY: (SensitivityResult, _sensitivity_panels),
}


def render_svg(spec: PlotSpec, payload) -> str:
    """Render the payload as a standalone SVG document string."""
    if spec.kind not in _KIND_PAYLOADS:
        raise SpecError(f"unknown plot kind {spec.kind!r}")
    expected, builder = _KIND_PAYLOADS[spec.kind]
    if not isinstance(payload, expected):
        raise SpecError(
            f"plot kind {spec.kind!r} needs a {expected.__name__} payload, "
            f"got {type(payload).__name__}"
        )
    panels = builder(spec, payload)
    settings = json.dumps(_settings_of(payload))
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{spec.width}" '
        f'height="{spec.height}" viewBox="0 0 {spec.width} {spec.height}" '
        f'font-family="Helvetica, Arial, sans-serif">',
        f"<desc>settings: {_escape_xml(settings)}</desc>",
        f'<rect x="0" y="0" width="{spec.width}" height="{spec.height}" fill="#ffffff"/>',
    ]
    if spec.title:
        parts.append(
            f'<text x="{spec.width / 2:.2f}" y="22" font-size="14" '
            f'text-anchor="middle">{_escape_xml(spec.title)}</text>'
        )
    parts.extend(panel.render() for panel in panels)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
