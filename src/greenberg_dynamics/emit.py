"""Serialization and plotting: CSV/JSON emitters and standalone SVG renderers.

Numbers in CSV files carry 17 significant digits so every double round-trips
exactly; JSON uses the shortest exact representation. SVG output is plain
text with no external dependencies, and identical payload + spec pairs
always produce byte-identical documents.

Each format builds its document as text pieces, and ``_write`` writes every
document a piece at a time, so a scan's documents never sit whole in
memory: its CSV is its header, then a piece per grid point, its JSON a
piece per point's array of samples, and its bifurcation plot a piece per
column of dots. Smaller documents are one piece, one join and one write,
past a CSV's header, which is always a piece of its own. The cost of a
document is formatting numbers, and the large documents repeat most of
theirs: an orbit or a bifurcation point that settles on a cycle repeats the
cycle's states. ``model._states`` shares one TrafficState among the samples
that repeat a density, so the orbit and scan CSVs format one "k,q,v" text
per distinct state, and each bifurcation column one ``<circle>``, and look
it up for every repeat (``_state_texts``). The JSON arrays of floats format
each distinct float once per document (``_Texts``). What remains is one
%-format per CSV row, with the v0 and period fields of a scan point
formatted once, one per polyline point and per cobweb dot, each point list
mapped to pixels in one pass (``_Panel.pixels``), and json's C encoder for
every other array of numbers.

Each payload type has one entry in ``_SCHEMAS``: its JSON kind, CSV header
and rows, settings, JSON data and SVG panels. ``write_csv``, ``write_json``
and ``write_svg`` dispatch through it and nothing else, so the payload type
alone selects the plot, as it selects the CSV and JSON layout.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from itertools import chain, groupby
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterator, Sequence

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
    rows: Callable  # payload -> CSV data rows in pieces: lists of rows ending in a newline
    settings: Callable  # payload -> the input parameters echoed into every artifact
    data: Callable  # payload -> the JSON "data" object
    panels: Callable  # (spec, payload) -> the SVG panels


class _Texts(dict):
    """The JSON text of each finite float in one document, formatted on its first use.

    Equal floats share a text, except 0.0: it equals -0.0 but prints
    differently, so it is formatted afresh on every use. Only lists of
    finite floats are looked up, because JSON tells 1 from 1.0 and rejects
    NaN and infinities.
    """

    def __missing__(self, x: float) -> str:
        text = float.__repr__(x)
        if x:
            self[x] = text
        return text


def _state_texts(states: Sequence[TrafficState], texts: Callable) -> list[str]:
    """The text of each state; ``texts`` maps the distinct states to theirs, in order.

    A state is told apart by its id: ``model._states`` shares one
    TrafficState among the samples that repeat a density, and ``states``
    keeps every one alive, so no id is reused. Equal states that are
    distinct objects get their own texts, so 0.0 and -0.0 stay apart.
    """
    ids = list(map(id, states))
    distinct = dict(zip(ids, states))
    shared = dict(zip(distinct, texts(distinct.values())))
    return list(map(shared.__getitem__, ids))


_KQV = attrgetter("k", "q", "v")


def _kqv_texts(states: Sequence[TrafficState]) -> list[str]:
    """The "k,q,v" CSV fields of each state."""

    def fields(distinct):
        return map("%.17g,%.17g,%.17g".__mod__, map(_KQV, distinct))

    return _state_texts(states, fields)


def _write(pieces, destination) -> int:
    """Write each text piece to the destination; returns the UTF-8 byte count.

    A stream is written as is. A path's file gets "\\n" line ends on every
    platform, and is removed if building, writing or closing the document
    raises, interrupts included, so a failed document leaves no file.
    """
    if not hasattr(destination, "write"):
        out = open(destination, "w", encoding="utf-8", newline="")
        try:
            with out:
                return _write(pieces, out)
        except BaseException:
            Path(destination).unlink(missing_ok=True)
            raise
    size = 0
    for piece in pieces:
        destination.write(piece)
        size += len(piece) if piece.isascii() else len(piece.encode("utf-8"))
    return size


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


def _orbit_rows(orbit: Orbit) -> list[list[str]]:
    rows = list(map("%d,%s,\n".__mod__, enumerate(_kqv_texts(orbit.states))))
    if rows:
        # Only the last row carries the escape flag.
        rows[-1] = rows[-1][:-1] + ("1" if orbit.escaped is not None else "0") + "\n"
    return [rows]


def _orbit_settings(orbit: Orbit) -> dict:
    return {"v0": orbit.params.v0, "kj": orbit.params.kj, "k0": orbit.k0, "n": orbit.n}


def _orbit_data(orbit: Orbit) -> dict:
    return {**_states_data(orbit.states), "escaped": orbit.escaped}


def _diagram_rows(payload: DiagramPayload) -> list[list[str]]:
    return [["%.17g,%.17g,%.17g\n" % (s.k, s.q, s.v) for s in payload.samples]]


def _diagram_settings(payload: DiagramPayload) -> dict:
    return {"v0": payload.params.v0, "kj": payload.params.kj, "n": len(payload.samples)}


def _diagram_data(payload: DiagramPayload) -> dict:
    return _states_data(payload.samples)


def _scan_rows(scan: BifurcationScan) -> Iterator[list[str]]:
    """The rows of each grid point, one piece per point, built as it is written."""
    for v0, states, period in zip(scan.v0_grid, scan.samples, scan.detected_periods):
        # Every sample of a point shares its v0 and period fields.
        row = "%.17g,%%d,%%s,%d\n" % (v0, APERIODIC_CSV_MARKER if period is None else period)
        yield list(map(row.__mod__, enumerate(_kqv_texts(states))))


def _scan_data(scan: BifurcationScan) -> dict:
    return {
        "v0": scan.v0_grid,
        "k0": [scan.settings.k0] * len(scan.v0_grid),
        "detected_period": scan.detected_periods,
        "escaped": scan.escaped,
        "k": [[s.k for s in states] for states in scan.samples],
        "q": [[s.q for s in states] for states in scan.samples],
        "v": [[s.v for s in states] for states in scan.samples],
    }


def _curve_rows(curve: LyapunovCurve) -> list[list[str]]:
    return [[
        "%.17g,,%d,%d\n" % (v0, terms, skipped)
        if lam is None
        else "%.17g,%.17g,%d,%d\n" % (v0, lam, terms, skipped)
        for v0, lam, terms, skipped in zip(
            curve.v0_grid, curve.lambdas, curve.n_terms, curve.skipped_terms
        )
    ]]


def _curve_data(curve: LyapunovCurve) -> dict:
    return {
        "v0": curve.v0_grid,
        "lambda": curve.lambdas,
        "n_terms": curve.n_terms,
        "skipped_terms": curve.skipped_terms,
    }


def _sensitivity_rows(result: SensitivityResult) -> list[list[str]]:
    pairs = zip(result.orbit_a.states, result.orbit_b.states, result.separation)
    return [[
        "%d,%.17g,%.17g,%.17g\n" % (i, a.k, b.k, sep) for i, (a, b, sep) in enumerate(pairs)
    ]]


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
        "separation": result.separation,
        "first_divergence_index": result.first_divergence_index,
    }


def _schema_of(payload, what: str) -> _Schema:
    schema = next((_SCHEMAS[t] for t in type(payload).__mro__ if t in _SCHEMAS), None)
    if schema is None:
        raise SpecError(f"no {what} schema for payload type {type(payload).__name__}")
    return schema


def write_csv(payload, destination) -> int:
    """Write one CSV document for the payload; returns the byte count.

    The header is the first piece, then each piece of rows goes out in one
    write: a scan has one piece per grid point, the other payloads one piece.
    """
    schema = _schema_of(payload, "CSV")
    return _write(
        chain([schema.header + "\n"], map("".join, schema.rows(payload))), destination
    )


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


def _json_pieces(obj) -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2, allow_nan=False)`` and a newline, in pieces.

    NaN and infinities raise DomainError, a ValueError as in json, possibly
    after some pieces are yielded.
    """
    parts: list[str] = []
    yield from _json_parts(obj, 0, parts, _Texts())
    parts.append("\n")
    yield "".join(parts)


def _dumps(obj) -> str:
    """json's text of a scalar or a list of scalars; NaN and infinities raise DomainError."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise DomainError("NaN and infinities have no JSON text") from exc


def _json_parts(obj, depth: int, parts: list[str], floats: _Texts) -> Iterator[str]:
    """Append the text of ``obj`` nested ``depth`` deep to ``parts``, yielding pieces.

    json ignores its C encoder once ``indent`` is set. Here dicts (with str
    keys) and lists holding anything but numbers, bools and None are walked
    in Python, and the text is joined once per piece, not copied at every
    level. A list of such containers, like the sample arrays of a scan's
    grid points, yields the parts held so far as one piece after each
    element, so a document is a piece per element, and one piece if it has
    no such list. The element types of a list are read once, in C. A list
    of finite floats joins their texts from ``floats``, the document's memo,
    so each distinct float is formatted once. Any other list of numbers, bools and None goes
    to the C encoder in one call (``_dumps``), which rejects NaN and
    infinities; with no string inside, every ", " in its text is a
    separator and becomes the indented line break.
    """
    if not isinstance(obj, (dict, list, tuple)):
        parts.append(_dumps(obj))
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
            yield from _json_parts(value, depth + 1, parts, floats)
            sep = "," + inner
        parts.append("\n" + "  " * depth + "}")
        return
    parts.append("[")
    kinds = set(map(type, obj))
    if kinds == {float} and all(map(math.isfinite, obj)):
        parts += (inner, ("," + inner).join(map(floats.__getitem__, obj)))
    elif kinds <= _JSON_SCALARS:
        parts += (inner, _dumps(obj)[1:-1].replace(", ", "," + inner))
    else:
        for x in obj:
            parts.append(sep)
            yield from _json_parts(x, depth + 1, parts, floats)
            yield "".join(parts)
            parts.clear()
            sep = "," + inner
    parts.append("\n" + "  " * depth + "]")


def write_json(payload, destination) -> int:
    """Write one JSON document for the payload; returns the byte count.

    A NaN or infinity, such as a flow that overflowed, raises DomainError;
    the file at a path destination is then removed, while a stream keeps
    the text written before it.
    """
    document = _document(payload)
    try:
        return _write(_json_pieces(document), destination)
    except DomainError as exc:
        raise DomainError(f"{document['kind']} document holds a non-finite number") from exc


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
        # Each element is a line, or a callable that draws a piece of lines
        # when the document is written (``write_svg``).
        self.elements: list[str | Callable[[], list[str]]] = []

    def px(self, v: float) -> float:
        return self.left + (v - self.x0) / (self.x1 - self.x0) * self.width

    def py(self, v: float) -> float:
        return self.top + self.height - (v - self.y0) / (self.y1 - self.y0) * self.height

    def pixels(self, points) -> list[tuple[float, float]]:
        """The pixel of each (x, y) point, bit for bit what px and py give."""
        left, x0, dx, width = self.left, self.x0, self.x1 - self.x0, self.width
        bottom, y0, dy, height = self.top + self.height, self.y0, self.y1 - self.y0, self.height
        return [
            (left + (x - x0) / dx * width, bottom - (y - y0) / dy * height) for x, y in points
        ]

    def polyline(self, points, color, width=1.3, dash=None):
        if len(points) < 2:
            return
        coords = " ".join(map("%.2f,%.2f".__mod__, self.pixels(points)))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def dots(self, points, color, radius=2.0):
        dot = '<circle cx="%%.2f" cy="%%.2f" r="%s" fill="%s"/>' % (radius, color)
        self.elements += map(dot.__mod__, self.pixels(points))

    def column(self, x, states, ordinate, color, radius):
        """Dots at the abscissa x, one per state, formatted once per distinct state.

        The dots are one piece of the document, drawn when it is written.
        The piece keeps the pixel of x and the mapping of y, bit for bit
        what px and py give, but not the panel, which keeps the piece: that
        cycle would keep the scan alive until the garbage collector ran.
        """
        if not states:
            return
        bottom, y0, dy, height = self.top + self.height, self.y0, self.y1 - self.y0, self.height
        dot = '<circle cx="%.2f" cy="%%.2f" r="%s" fill="%s"/>' % (self.px(x), radius, color)

        def circles(distinct):
            return [dot % (bottom - (y - y0) / dy * height) for y in map(ordinate, distinct)]

        self.elements.append(lambda: _state_texts(states, circles))

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
    x_lim = _auto_range(list(scan.v0_grid), pad=0.02)
    y_lim = _auto_range(list(map(ordinate, chain.from_iterable(scan.samples))))
    [panel] = _layout((x_lim, y_lim, "optimum velocity v0", spec.y_field))
    panel.vline(2.0, _PATH_COLOR)
    for v0, states in zip(scan.v0_grid, scan.samples):
        panel.column(v0, states, ordinate, _CURVE_COLOR, radius=0.7)
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
    pairs = list(zip(result.orbit_a.states, result.orbit_b.states))
    ka = [a.k for a, _ in pairs]
    kb = [b.k for _, b in pairs]
    x_lim = _auto_range([0.0, max(len(pairs) - 1, 1)], pad=0.02)
    sep_range = _auto_range([0.0, *result.separation, result.threshold])
    p1, p2 = _layout(
        (x_lim, _auto_range([*ka, *kb]), "iteration", "density k"),
        (x_lim, sep_range, "iteration", "separation"),
    )
    p1.polyline(list(enumerate(ka)), _CURVE_COLOR, width=1.1)
    p1.polyline(list(enumerate(kb)), _PATH_COLOR, width=1.1)
    p2.hline(result.threshold, _GUIDE_COLOR)
    p2.polyline(list(enumerate(result.separation)), _MARKER_COLOR, width=1.1)
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


def write_svg(spec: PlotSpec, payload, destination) -> int:
    """Write the payload as a standalone SVG document; returns the byte count.

    The payload type picks the plot. Each callable among the lines draws
    its own piece as it is written, and each run of lines between them is
    one piece: a bifurcation plot goes out a column of dots at a time, any
    other plot in one join and one write.
    """
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
    lines.append("</svg>")
    pieces = (
        "\n".join([*piece, ""])
        for deferred, run in groupby(lines, callable)
        for piece in ((draw() for draw in run) if deferred else [run])
    )
    return _write(pieces, destination)


def render_svg(spec: PlotSpec, payload) -> str:
    """Render the payload as a standalone SVG document string; its type picks the plot."""
    out = io.StringIO()
    write_svg(spec, payload, out)
    return out.getvalue()
