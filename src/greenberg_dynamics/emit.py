"""Serialization and plotting: CSV/JSON emitters and standalone SVG renderers.

Numbers in CSV files carry 17 significant digits so every double round-trips
exactly; JSON uses the shortest exact representation. SVG output is plain
text with no external dependencies, and identical payload + spec pairs
always produce byte-identical documents.

Every document is built whole in memory and written in one call. Its cost
is formatting numbers, and the large documents repeat most of theirs: a
bifurcation point that settles on a cycle repeats the cycle's states, and
each flow is the next density. So the bulk builders format each distinct
number once per document and look the text up after that (``_Texts``):
the scan's CSV fields, the JSON arrays of floats (``_json_text``) and the
ordinate pixels of the bifurcation dots. What remains is one %-format per
CSV row and per dot, with the v0 prefix of a scan point formatted once, and
json's C encoder for every other array of numbers.

Each payload type has one entry in ``_SCHEMAS``: its JSON kind, CSV header
and rows, settings, JSON data and SVG panels. ``write_csv``, ``write_json``
and ``render_svg`` dispatch through it and nothing else, so the payload type
alone selects the plot, as it selects the CSV and JSON layout.
"""

from __future__ import annotations

import json
import math
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from operator import attrgetter
from typing import Callable, Sequence

from .analysis import BifurcationScan, LyapunovCurve, fixed_point
from .dynamics import Orbit, SensitivityResult, cobweb_path
from .errors import DomainError, SpecError
from .model import TrafficParams, TrafficState, diagram_samples

SCHEMA_VERSION = "1"

# In CSV a detected period of 0 marks an aperiodic attractor; JSON uses null.
APERIODIC_CSV_MARKER = 0

_CURVE_COLOR = "#1f77b4"
_PATH_COLOR = "#d62728"
_MARKER_COLOR = "#2ca02c"
_GUIDE_COLOR = "#777777"
_FRAME_STYLE = 'stroke="#333333" stroke-width="1"'

# Every SVG document is this many pixels wide and high.
_WIDTH = 960
_HEIGHT = 360


@dataclass(frozen=True)
class DiagramPayload:
    """Fundamental-diagram samples together with the parameters that made them."""

    params: TrafficParams
    samples: tuple[TrafficState, ...]


@dataclass(frozen=True)
class PlotSpec:
    """The labels of a plot; the payload type selects which plot is drawn.

    ``title`` is drawn above the panels when not empty. ``y_field`` picks
    the bifurcation ordinate ("k", "q" or "v"); the other plots ignore it.
    """

    title: str = ""
    y_field: str = "k"


@dataclass(frozen=True)
class _Schema:
    """How one payload type is emitted; ``_SCHEMAS`` holds one per type."""

    kind: str  # the JSON document kind
    header: str  # the CSV header
    rows: Callable  # payload -> CSV data rows, each ending in a newline
    settings: Callable  # payload -> the input parameters echoed into every artifact
    data: Callable  # payload -> the JSON "data" object
    panels: Callable  # (spec, payload) -> the SVG panels


class _Texts(dict):
    """The text of each number in one document, formatted on its first use.

    Equal numbers share a text, so only finite non-zero ones are kept: 0.0
    and -0.0 are equal but print differently, and a NaN or an infinity, an
    error in JSON, is formatted afresh on every use rather than remembered.
    The CSV and SVG formats give equal numbers equal text otherwise; JSON
    looks up only lists of finite floats, because it tells 1 from 1.0.
    """

    def __init__(self, format: Callable[[float], str]):
        super().__init__()
        self.format = format

    def __missing__(self, x) -> str:
        text = self.format(x)
        if x != 0.0 and math.isfinite(x):
            self[x] = text
        return text


def _sink(destination):
    if hasattr(destination, "write"):
        return nullcontext(destination)
    return open(destination, "w", encoding="utf-8", newline="")


def _states_data(states) -> dict:
    return {
        "k": [s.k for s in states],
        "q": [s.q for s in states],
        "v": [s.v for s in states],
    }


def _grid_settings(sweep) -> dict:
    """A sweep's grid ends and size, then its settings in field order."""
    grid = sweep.v0_grid
    return {
        "v0_min": grid[0] if grid else None,
        "v0_max": grid[-1] if grid else None,
        "steps": len(grid),
        **asdict(sweep.settings),
    }


def _orbit_rows(orbit: Orbit) -> list[str]:
    last = len(orbit.states) - 1
    flag = "1" if orbit.escaped is not None else "0"
    return [
        "%d,%.17g,%.17g,%.17g,%s\n" % (i, s.k, s.q, s.v, flag if i == last else "")
        for i, s in enumerate(orbit.states)
    ]


def _orbit_settings(orbit: Orbit) -> dict:
    return {"v0": orbit.params.v0, "kj": orbit.params.kj, "k0": orbit.k0, "n": orbit.n}


def _orbit_data(orbit: Orbit) -> dict:
    return {**_states_data(orbit.states), "escaped": orbit.escaped}


def _diagram_rows(payload: DiagramPayload) -> list[str]:
    return ["%.17g,%.17g,%.17g\n" % (s.k, s.q, s.v) for s in payload.samples]


def _diagram_settings(payload: DiagramPayload) -> dict:
    return {"v0": payload.params.v0, "kj": payload.params.kj, "n": len(payload.samples)}


def _diagram_data(payload: DiagramPayload) -> dict:
    return _states_data(payload.samples)


def _scan_rows(scan: BifurcationScan) -> list[str]:
    text = _Texts("%.17g".__mod__)
    rows = []
    for v0, states, period in zip(scan.v0_grid, scan.samples, scan.detected_periods):
        # The v0 prefix and the period suffix are shared by every sample of a point.
        prefix = "%.17g," % v0
        suffix = ",%d\n" % (APERIODIC_CSV_MARKER if period is None else period)
        rows.extend(
            "%s%d,%s,%s,%s%s" % (prefix, j, text[s.k], text[s.q], text[s.v], suffix)
            for j, s in enumerate(states)
        )
    return rows


def _scan_data(scan: BifurcationScan) -> dict:
    return {
        "v0": list(scan.v0_grid),
        "k0": [scan.settings.k0] * len(scan.v0_grid),
        "detected_period": list(scan.detected_periods),
        "escaped": list(scan.escaped),
        "k": [[s.k for s in states] for states in scan.samples],
        "q": [[s.q for s in states] for states in scan.samples],
        "v": [[s.v for s in states] for states in scan.samples],
    }


def _curve_rows(curve: LyapunovCurve) -> list[str]:
    return [
        "%.17g,,%d,%d\n" % (v0, terms, skipped)
        if lam is None
        else "%.17g,%.17g,%d,%d\n" % (v0, lam, terms, skipped)
        for v0, lam, terms, skipped in zip(
            curve.v0_grid, curve.lambdas, curve.n_terms, curve.skipped_terms
        )
    ]


def _curve_data(curve: LyapunovCurve) -> dict:
    return {
        "v0": list(curve.v0_grid),
        "lambda": list(curve.lambdas),
        "n_terms": list(curve.n_terms),
        "skipped_terms": list(curve.skipped_terms),
    }


def _sensitivity_rows(result: SensitivityResult) -> list[str]:
    a, b = result.orbit_a.states, result.orbit_b.states
    return [
        "%d,%.17g,%.17g,%.17g\n" % (i, a[i].k, b[i].k, sep)
        for i, sep in enumerate(result.separation)
    ]


def _sensitivity_settings(result: SensitivityResult) -> dict:
    a, b = result.orbit_a, result.orbit_b
    return {
        "v0": a.params.v0,
        "kj": a.params.kj,
        "k0": a.k0,
        "delta": b.k0 - a.k0,
        "n": a.n,
        "threshold": result.threshold,
    }


def _sensitivity_data(result: SensitivityResult) -> dict:
    m = len(result.separation)
    return {
        "k_a": [s.k for s in result.orbit_a.states[:m]],
        "k_b": [s.k for s in result.orbit_b.states[:m]],
        "separation": list(result.separation),
        "first_divergence_index": result.first_divergence_index,
    }


def _schema_of(payload, what: str) -> _Schema:
    schema = next((_SCHEMAS[t] for t in type(payload).__mro__ if t in _SCHEMAS), None)
    if schema is None:
        raise SpecError(f"no {what} schema for payload type {type(payload).__name__}")
    return schema


def write_csv(payload, destination) -> int:
    """Write one CSV document for the payload; returns the data row count."""
    schema = _schema_of(payload, "CSV")
    rows = schema.rows(payload)
    with _sink(destination) as out:
        out.write(schema.header + "\n" + "".join(rows))
    return len(rows)


def envelope(kind: str, settings: dict, data: dict) -> dict:
    """The layout of every JSON document: schema version, kind, settings, data."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "settings": settings,
        "data": data,
    }


def _document(payload) -> dict:
    schema = _schema_of(payload, "JSON")
    return envelope(schema.kind, schema.settings(payload), schema.data(payload))


_JSON_SCALARS = {float, int, bool, type(None)}


def _json_text(obj) -> str:
    """The text of ``json.dumps(obj, indent=2, allow_nan=False)``.

    NaN and infinities raise ValueError, as in json.
    """
    parts: list[str] = []
    _json_parts(obj, 0, parts, _Texts(float.__repr__))
    return "".join(parts)


def _json_parts(obj, depth: int, parts: list[str], floats: _Texts) -> None:
    """Append the text of ``obj`` nested ``depth`` deep to ``parts``.

    json ignores its C encoder once ``indent`` is set. Here dicts (with str
    keys) and lists holding anything but numbers, bools and None are walked
    in Python, and the text is joined once by the caller, not copied at
    every level. The element types of a list are read once, in C. A list of
    finite floats joins their texts from ``floats``, the document's memo, so
    each distinct float is formatted once. Any other list of numbers, bools
    and None goes to the C encoder in one call, which rejects NaN and
    infinities; with no string inside, every ", " in its text is a
    separator and becomes the indented line break.
    """
    if not isinstance(obj, (dict, list, tuple)):
        parts.append(json.dumps(obj, allow_nan=False))
        return
    if not obj:
        parts.append("{}" if isinstance(obj, dict) else "[]")
        return
    inner = "\n" + "  " * (depth + 1)
    sep = inner
    if isinstance(obj, dict):
        parts.append("{")
        for key, value in obj.items():
            parts += (sep, json.dumps(key), ": ")
            _json_parts(value, depth + 1, parts, floats)
            sep = "," + inner
        parts.append("\n" + "  " * depth + "}")
        return
    parts.append("[")
    kinds = set(map(type, obj))
    if kinds == {float} and all(map(math.isfinite, obj)):
        parts += (inner, ("," + inner).join(map(floats.__getitem__, obj)))
    elif kinds <= _JSON_SCALARS:
        parts += (inner, json.dumps(obj, allow_nan=False)[1:-1].replace(", ", "," + inner))
    else:
        for x in obj:
            parts.append(sep)
            _json_parts(x, depth + 1, parts, floats)
            sep = "," + inner
    parts.append("\n" + "  " * depth + "]")


def write_json(payload, destination) -> int:
    """Write one JSON document for the payload; returns the byte count.

    A NaN or infinity, such as a flow that overflowed, raises DomainError.
    """
    document = _document(payload)
    try:
        text = _json_text(document) + "\n"
    except ValueError as exc:
        raise DomainError(f"{document['kind']} document holds a non-finite number") from exc
    with _sink(destination) as out:
        out.write(text)
    # json escapes every non-ASCII character, so characters are bytes.
    return len(text)


def _escape_xml(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _line(x1, y1, x2, y2, style: str) -> str:
    return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" {style}/>'


def _auto_range(values: Sequence[float], pad: float = 0.05) -> tuple[float, float]:
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return (0.0, 1.0)
    lo, hi = min(finite), max(finite)
    slack = max(0.5, abs(hi) * 0.1) if hi - lo < 1e-12 else (hi - lo) * pad
    return (lo - slack, hi + slack)


class _Panel:
    """One plotting area: data-to-pixel mapping plus element builders."""

    def __init__(self, left, top, width, height, x_lim, y_lim, x_label, y_label, clip_id):
        self.left, self.top = left, top
        self.width, self.height = width, height
        self.x0, self.x1 = x_lim
        self.y0, self.y1 = y_lim
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

    def column(self, x, cys, color, radius):
        """Dots sharing the abscissa x, one per formatted ordinate pixel in cys."""
        dot = '<circle cx="%.2f" cy="%%s" r="%s" fill="%s"/>' % (self.px(x), radius, color)
        self.elements.extend(map(dot.__mod__, cys))

    def hline(self, y, color):
        if self.y0 <= y <= self.y1:
            self._guide(self.left, self.py(y), self.left + self.width, self.py(y), color)

    def vline(self, x, color):
        if self.x0 <= x <= self.x1:
            self._guide(self.px(x), self.top, self.px(x), self.top + self.height, color)

    def _guide(self, x1, y1, x2, y2, color):
        style = f'stroke="{color}" stroke-width="1.0" stroke-dasharray="4 3"'
        self.elements.append(_line(x1, y1, x2, y2, style))

    def frame(self) -> list[str]:
        bottom = self.top + self.height
        parts = [
            f'<rect x="{self.left:.2f}" y="{self.top:.2f}" width="{self.width:.2f}" '
            f'height="{self.height:.2f}" fill="none" {_FRAME_STYLE}/>'
        ]
        for i in range(5):
            xv = self.x0 + i * (self.x1 - self.x0) / 4
            xp = self.px(xv)
            parts.append(_line(xp, bottom, xp, bottom + 4, _FRAME_STYLE))
            parts.append(
                f'<text x="{xp:.2f}" y="{bottom + 16:.2f}" '
                f'font-size="10" text-anchor="middle">{xv:.4g}</text>'
            )
            yv = self.y0 + i * (self.y1 - self.y0) / 4
            yp = self.py(yv)
            parts.append(_line(self.left - 4, yp, self.left, yp, _FRAME_STYLE))
            parts.append(
                f'<text x="{self.left - 7:.2f}" y="{yp + 3:.2f}" font-size="10" '
                f'text-anchor="end">{yv:.4g}</text>'
            )
        parts.append(
            f'<text x="{self.left + self.width / 2:.2f}" '
            f'y="{bottom + 32:.2f}" font-size="11" '
            f'text-anchor="middle">{_escape_xml(self.x_label)}</text>'
        )
        parts.append(
            f'<text x="{self.left - 40:.2f}" y="{self.top + self.height / 2:.2f}" '
            f'font-size="11" text-anchor="middle" transform="rotate(-90 '
            f'{self.left - 40:.2f} {self.top + self.height / 2:.2f})">'
            f"{_escape_xml(self.y_label)}</text>"
        )
        return parts

    def lines(self) -> list[str]:
        """The panel's lines of the SVG document: clip path, clipped elements, frame."""
        return [
            f'<defs><clipPath id="{self.clip_id}"><rect x="{self.left:.2f}" '
            f'y="{self.top:.2f}" width="{self.width:.2f}" '
            f'height="{self.height:.2f}"/></clipPath></defs>',
            f'<g clip-path="url(#{self.clip_id})">',
            *(self.elements or [""]),
            "</g>",
            *self.frame(),
        ]


def _layout(*axes) -> list[_Panel]:
    """Panels side by side, one per (x_lim, y_lim, x_label, y_label).

    An axis that overflowed, such as velocity at a huge v0, raises DomainError.
    """
    slot = _WIDTH / len(axes)
    panels = []
    for i, (x_lim, y_lim, x_label, y_label) in enumerate(axes):
        if not all(map(math.isfinite, (*x_lim, *y_lim))):
            raise DomainError(f"cannot draw {y_label} against {x_label}: an axis overflowed")
        left, width, height = slot * i + 56, slot - 76, _HEIGHT - 100
        panels.append(
            _Panel(left, 44, width, height, x_lim, y_lim, x_label, y_label, f"clip{i}")
        )
    return panels


def _diagram_panels(spec: PlotSpec, payload: DiagramPayload) -> list[_Panel]:
    samples = payload.samples
    kj = payload.params.kj
    x_k = _auto_range([0.0, kj])
    q_range = _auto_range([0.0, *[s.q for s in samples]])
    # Velocity diverges as k -> 0; range over the moderate-density branch and
    # let the clip path absorb the free-flow spike.
    v_range = _auto_range([0.0, *[s.v for s in samples if s.k >= 0.02 * kj]])
    p1, p2, p3 = _layout(
        (x_k, q_range, "density k", "flow q"),
        (x_k, v_range, "density k", "velocity v"),
        (q_range, v_range, "flow q", "velocity v"),
    )
    p1.polyline([(s.k, s.q) for s in samples], _CURVE_COLOR)
    p2.polyline([(s.k, s.v) for s in samples], _CURVE_COLOR)
    p3.polyline([(s.q, s.v) for s in samples], _CURVE_COLOR)
    return [p1, p2, p3]


def _cobweb_panels(spec: PlotSpec, orbit: Orbit) -> list[_Panel]:
    p = orbit.params
    curve = diagram_samples(p, 256)
    path = cobweb_path(orbit) if len(orbit.states) >= 2 else []
    curve_qs = [s.q for s in curve]
    x_k = _auto_range([0.0, p.kj])
    flow_range = _auto_range([0.0, *curve_qs, *[y for _, y in path]])
    q_range = _auto_range([0.0, *curve_qs, *[s.q for s in orbit.states]])
    v_range = (0.0, 1.08 * max([p.v0, *[s.v for s in orbit.states], 1e-9]))
    p1, p2, p3 = _layout(
        (x_k, flow_range, "density k", "flow q"),
        (x_k, v_range, "density k", "velocity v"),
        (q_range, v_range, "flow q", "velocity v"),
    )
    p1.polyline([(s.k, s.q) for s in curve], _CURVE_COLOR)
    p1.polyline([(0.0, 0.0), (p.kj, p.kj)], _GUIDE_COLOR, width=1.0, dash="5 4")
    if path:
        p1.polyline(path, _PATH_COLOR, width=1.1)
    p1.dots([(orbit.k0, orbit.k0)], _PATH_COLOR, radius=2.4)
    if p.v0 > 0.0:
        k_star = fixed_point(p)
        p1.dots([(k_star, k_star)], "#000000", radius=2.6)
    p2.polyline([(s.k, s.v) for s in curve], _CURVE_COLOR)
    p2.dots([(s.k, s.v) for s in orbit.states], _MARKER_COLOR)
    p3.polyline([(s.q, s.v) for s in curve], _CURVE_COLOR)
    p3.dots([(s.q, s.v) for s in orbit.states], _MARKER_COLOR)
    return [p1, p2, p3]


def _bifurcation_panels(spec: PlotSpec, scan: BifurcationScan) -> list[_Panel]:
    if spec.y_field not in ("k", "q", "v"):
        raise SpecError(f"bifurcation y_field must be k, q or v, got {spec.y_field!r}")
    ordinate = attrgetter(spec.y_field)
    columns = [list(map(ordinate, states)) for states in scan.samples]
    x_lim = _auto_range(list(scan.v0_grid), pad=0.02)
    y_lim = _auto_range([y for ys in columns for y in ys])
    [panel] = _layout((x_lim, y_lim, "optimum velocity v0", spec.y_field))
    panel.vline(2.0, _PATH_COLOR)
    cy = _Texts(lambda y: "%.2f" % panel.py(y))
    for v0, ys in zip(scan.v0_grid, columns):
        panel.column(v0, map(cy.__getitem__, ys), _CURVE_COLOR, radius=0.7)
    return [panel]


def _lyapunov_panels(spec: PlotSpec, curve: LyapunovCurve) -> list[_Panel]:
    finite = [l for l in curve.lambdas if l is not None]
    x_lim = _auto_range(list(curve.v0_grid), pad=0.02)
    y_lim = _auto_range([0.0, *finite])
    [panel] = _layout((x_lim, y_lim, "optimum velocity v0", "Lyapunov exponent"))
    panel.hline(0.0, _GUIDE_COLOR)
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
    x_lim = _auto_range([0.0, max(m - 1, 1)], pad=0.02)
    sep_range = _auto_range([0.0, *result.separation, result.threshold])
    p1, p2 = _layout(
        (x_lim, _auto_range([*ka, *kb]), "iteration", "density k"),
        (x_lim, sep_range, "iteration", "separation"),
    )
    p1.polyline(list(zip(idx, ka)), _CURVE_COLOR, width=1.1)
    p1.polyline(list(zip(idx, kb)), _PATH_COLOR, width=1.1)
    p2.hline(result.threshold, _GUIDE_COLOR)
    p2.polyline(list(zip(idx, result.separation)), _MARKER_COLOR, width=1.1)
    return [p1, p2]


_SCHEMAS = {
    Orbit: _Schema(
        "orbit", "i,k,q,v,escaped",
        _orbit_rows, _orbit_settings, _orbit_data, _cobweb_panels,
    ),
    DiagramPayload: _Schema(
        "diagram", "k,q,v",
        _diagram_rows, _diagram_settings, _diagram_data, _diagram_panels,
    ),
    BifurcationScan: _Schema(
        "bifurcation-scan", "v0,sample_index,k,q,v,detected_period",
        _scan_rows, _grid_settings, _scan_data, _bifurcation_panels,
    ),
    LyapunovCurve: _Schema(
        "lyapunov-curve", "v0,lambda,n_terms,skipped_terms",
        _curve_rows, _grid_settings, _curve_data, _lyapunov_panels,
    ),
    SensitivityResult: _Schema(
        "sensitivity", "i,k_a,k_b,separation",
        _sensitivity_rows, _sensitivity_settings, _sensitivity_data, _sensitivity_panels,
    ),
}


def render_svg(spec: PlotSpec, payload) -> str:
    """Render the payload as a standalone SVG document string; its type picks the plot."""
    schema = _schema_of(payload, "SVG")
    settings = json.dumps(schema.settings(payload))
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'font-family="Helvetica, Arial, sans-serif">',
        f"<desc>settings: {_escape_xml(settings)}</desc>",
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]
    if spec.title:
        lines.append(
            f'<text x="{_WIDTH / 2:.2f}" y="22" font-size="14" '
            f'text-anchor="middle">{_escape_xml(spec.title)}</text>'
        )
    for panel in schema.panels(spec, payload):
        lines += panel.lines()
    lines += ["</svg>", ""]
    # One join builds the whole document; the lines are references, not copies.
    return "\n".join(lines)
