"""Serialization and plotting: CSV/JSON emitters and standalone SVG renderers.

Numbers in CSV files carry 17 significant digits so every double round-trips
exactly; JSON uses the shortest exact representation. SVG output is plain
text with no external dependencies, and identical payload + spec pairs
always produce byte-identical documents.

Each format builds its document as text pieces, and ``_write`` writes every
document a piece at a time, so beyond the scan itself, a scan's documents
hold one grid point at a time: its CSV is its header, then a piece per grid
point, its JSON a piece per point's array of samples, each array built only
when it is written (``_Lazy``), and its bifurcation plot a piece per column
of dots, drawn by one generator over the scan (``_Panel.columns``). Smaller
documents are one piece, one join and one write, past a CSV's header, which
is always a piece of its own. The cost of a document is formatting numbers.
An orbit's or scan point's CSV fields, dots and JSON floats, a cobweb's
staircase and marker dots, and a sensitivity run's CSV fields are formatted
up to the end of the lap their result carries (``Orbit.lap``,
``BifurcationScan.laps``) and repeated; a list carries its lap as a
``_Values``. The staircase's lap is (2 * start + 1, 2 * length), and the
separation's is the joint lap of both orbits (``_separation_lap``). With no
lap, each sample is formatted. What remains is one %-format per CSV row,
with the v0 and period fields of a scan point formatted once, one per point
of every other polyline (the diagram curves and the traces against v0 or the
iteration), each point list mapped to pixels in one pass
(``_Panel.pixels``), and json's C encoder for every other array of numbers.

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
from itertools import chain, groupby, repeat
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .analysis import BifurcationScan, LyapunovCurve, fixed_point
from .dynamics import Orbit, SensitivityResult, cobweb_path
from .errors import DomainError, SpecError
from .model import TrafficParams, TrafficState, _repeat_lap, diagram_samples

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


class _Lazy:
    """A JSON array whose element for each item is built when the walker reaches it."""

    def __init__(self, items: Sequence, build: Callable):
        self.items, self.build = items, build

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator:
        return map(self.build, self.items)


class _Values(list):
    """A list with the lap its items repeat, (start, length) as in ``Orbit.lap``, or None.

    It is a JSON array of numbers or a panel's list of points.
    """

    __slots__ = ("lap",)

    def __init__(self, values: Iterable, lap: tuple[int, int] | None):
        list.__init__(self, values)
        self.lap = lap


def _kqv_texts(states: Sequence[TrafficState]) -> list[str]:
    """The "k,q,v" CSV fields of each state."""
    return list(map("%.17g,%.17g,%.17g".__mod__, map(attrgetter("k", "q", "v"), states)))


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


def _states_data(states, lap=None) -> dict:
    return {axis: _Values(map(attrgetter(axis), states), lap) for axis in "kqv"}


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
    fields = _repeat_lap(_kqv_texts, orbit.states, orbit.lap)
    rows = list(map("%d,%s,\n".__mod__, enumerate(fields)))
    if rows:
        # Only the last row carries the escape flag.
        rows[-1] = rows[-1][:-1] + ("1" if orbit.escaped is not None else "0") + "\n"
    return [rows]


def _orbit_settings(orbit: Orbit) -> dict:
    return {"v0": orbit.params.v0, "kj": orbit.params.kj, "k0": orbit.k0, "n": orbit.n}


def _orbit_data(orbit: Orbit) -> dict:
    return {**_states_data(orbit.states, orbit.lap), "escaped": orbit.escaped}


def _diagram_rows(payload: DiagramPayload) -> list[list[str]]:
    return [list(map("%s\n".__mod__, _kqv_texts(payload.samples)))]


def _diagram_settings(payload: DiagramPayload) -> dict:
    return {"v0": payload.params.v0, "kj": payload.params.kj, "n": len(payload.samples)}


def _diagram_data(payload: DiagramPayload) -> dict:
    return _states_data(payload.samples)


def _scan_rows(scan: BifurcationScan) -> Iterator[list[str]]:
    """The rows of each grid point, one piece per point, built as it is written."""
    points = zip(scan.v0_grid, scan.samples, scan.detected_periods, scan.laps or repeat(None))
    for v0, states, period, lap in points:
        # Every sample of a point shares its v0 and period fields.
        row = "%.17g,%%d,%%s,%d\n" % (v0, APERIODIC_CSV_MARKER if period is None else period)
        yield list(map(row.__mod__, enumerate(_repeat_lap(_kqv_texts, states, lap))))


def _scan_data(scan: BifurcationScan) -> dict:
    points = list(zip(scan.samples, scan.laps or repeat(None)))

    def arrays(get: Callable) -> _Lazy:
        return _Lazy(points, lambda point: _Values(map(get, point[0]), point[1]))

    return {
        "v0": scan.v0_grid,
        "k0": [scan.settings.k0] * len(scan.v0_grid),
        "detected_period": scan.detected_periods,
        "escaped": scan.escaped,
        **{axis: arrays(attrgetter(axis)) for axis in "kqv"},
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


def _separation_lap(result: SensitivityResult) -> tuple[int, int] | None:
    """The separation's lap, or None: past both starts it repeats every lcm of the lengths."""
    a, b = result.orbit_a.lap, result.orbit_b.lap
    return a and b and (max(a[0], b[0]), math.lcm(a[1], b[1]))


def _sensitivity_rows(result: SensitivityResult) -> list[list[str]]:
    a, b, k = result.orbit_a.states, result.orbit_b.states, attrgetter("k")
    triples = list(zip(map(k, a), map(k, b), result.separation))
    fmt = "%.17g,%.17g,%.17g".__mod__
    fields = _repeat_lap(lambda head: list(map(fmt, head)), triples, _separation_lap(result))
    return [list(map("%d,%s\n".__mod__, enumerate(fields)))]


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
    a, b, m = result.orbit_a, result.orbit_b, len(result.separation)
    return {
        "k_a": _Values([s.k for s in a.states[:m]], a.lap),
        "k_b": _Values([s.k for s in b.states[:m]], b.lap),
        "separation": _Values(result.separation, _separation_lap(result)),
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
    yield from _json_parts(obj, 0, parts)
    parts.append("\n")
    yield "".join(parts)


def _dumps(obj) -> str:
    """json's text of a scalar or a list of scalars; NaN and infinities raise DomainError."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise DomainError("NaN and infinities have no JSON text") from exc


def _json_parts(obj, depth: int, parts: list[str]) -> Iterator[str]:
    """Append the text of ``obj`` nested ``depth`` deep to ``parts``, yielding pieces.

    json ignores its C encoder once ``indent`` is set. Here dicts (with str
    keys) and lists holding anything but numbers, bools and None are walked
    in Python, and the text is joined once per piece, not copied at every
    level. A list of such containers, and a ``_Lazy`` array, like the sample
    arrays of a scan's grid points, yields the parts held so far as one
    piece after each element, so a document is a piece per element, and one
    piece if it has no such list. The element types of a list are read once,
    in C, up to the end of a ``_Values`` list's lap, past which texts
    repeat; a ``_Lazy`` array is not read ahead, so each element is built
    only when it is walked. A list of finite floats joins their texts. Any
    other list of numbers, bools and None goes to the C encoder in one call
    (``_dumps``), which rejects NaN and infinities; with no string inside,
    every ", " in its text is a separator and becomes the indented line
    break.
    """
    if not isinstance(obj, (dict, list, tuple, _Lazy)):
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
            yield from _json_parts(value, depth + 1, parts)
            sep = "," + inner
        parts.append("\n" + "  " * depth + "}")
        return
    parts.append("[")
    lap = getattr(obj, "lap", None)
    head = obj if lap is None else obj[:sum(lap)]
    kinds = {_Lazy} if isinstance(obj, _Lazy) else set(map(type, head))
    if kinds == {float} and all(map(math.isfinite, head)):
        texts = _repeat_lap(lambda xs: list(map(float.__repr__, xs)), obj, lap)
        parts += (inner, ("," + inner).join(texts))
    elif kinds <= _JSON_SCALARS:
        parts += (inner, _dumps(obj)[1:-1].replace(", ", "," + inner))
    else:
        for x in obj:
            parts.append(sep)
            yield from _json_parts(x, depth + 1, parts)
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
    finite = list(filter(math.isfinite, values))
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
        # Each element is a line, or a callable that draws pieces of lines
        # when the document is written (``write_svg``), drawn where ``pixels`` maps.
        self.elements: list[str | Callable[[], Iterator[Iterable[str]]]] = []

    def pixels(self, points) -> list[tuple[float, float]]:
        """The pixel of each (x, y) point: the panel's one mapping, inlined in ``columns``."""
        left, x0, dx, width = self.left, self.x0, self.x1 - self.x0, self.width
        bottom, y0, dy, height = self.top + self.height, self.y0, self.y1 - self.y0, self.height
        return [
            (left + (x - x0) / dx * width, bottom - (y - y0) / dy * height) for x, y in points
        ]

    def texts(self, fmt: str, points) -> Iterable[str]:
        """fmt % (x, y) of each point's pixel, built up to the end of a ``_Values`` lap."""
        lap = getattr(points, "lap", None)
        return _repeat_lap(lambda head: list(map(fmt.__mod__, self.pixels(head))), points, lap)

    def polyline(self, points, color, width=1.3, dash=None):
        if len(points) < 2:
            return
        coords = " ".join(self.texts("%.2f,%.2f", points))
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def dots(self, points, color, radius=2.0):
        dot = '<circle cx="%%.2f" cy="%%.2f" r="%s" fill="%s"/>' % (radius, color)
        self.elements += self.texts(dot, points)

    def columns(self, xs, samples, laps, ordinate, color, radius):
        """A column of dots at each abscissa, one per state, formatted up to the end of its lap.

        The columns are one drawing, which yields a piece of the document
        per non-empty column when the document is written. The drawing keeps
        the mapping of x and y, bit for bit what pixels gives, but not the
        panel, which keeps the drawing: that cycle would keep the scan alive
        until the garbage collector ran. With no state to draw, the panel is
        left empty.
        """
        if not any(samples):
            return
        left, x0, dx, width = self.left, self.x0, self.x1 - self.x0, self.width
        bottom, y0, dy, height = self.top + self.height, self.y0, self.y1 - self.y0, self.height
        dot = '<circle cx="%%.2f" cy="%%%%.2f" r="%s" fill="%s"/>' % (radius, color)

        def draw() -> Iterator[Iterable[str]]:
            for x, states, lap in zip(xs, samples, laps):
                if not states:
                    continue
                column = dot % (left + (x - x0) / dx * width)

                def circles(head):
                    ys = map(ordinate, head)
                    return [column % (bottom - (y - y0) / dy * height) for y in ys]

                yield _repeat_lap(circles, states, lap)

        self.elements.append(draw)

    def hline(self, y, color):
        if self.y0 <= y <= self.y1:
            [(_, yp)] = self.pixels([(self.x0, y)])
            self._guide(self.left, yp, self.left + self.width, yp, color)

    def vline(self, x, color):
        if self.x0 <= x <= self.x1:
            [(xp, _)] = self.pixels([(x, self.y0)])
            self._guide(xp, self.top, xp, self.top + self.height, color)

    def _guide(self, x1, y1, x2, y2, color):
        style = f'stroke="{color}" stroke-width="1.0" stroke-dasharray="4 3"'
        self.elements.append(_line(x1, y1, x2, y2, style))

    def frame(self) -> list[str]:
        bottom = self.top + self.height
        parts = [
            f'<rect x="{self.left:.2f}" y="{self.top:.2f}" width="{self.width:.2f}" '
            f'height="{self.height:.2f}" fill="none" {_FRAME_STYLE}/>'
        ]
        dx, dy = self.x1 - self.x0, self.y1 - self.y0
        ticks = [(self.x0 + i * dx / 4, self.y0 + i * dy / 4) for i in range(5)]
        for (xv, yv), (xp, yp) in zip(ticks, self.pixels(ticks)):
            parts.append(_line(xp, bottom, xp, bottom + 4, _FRAME_STYLE))
            parts.append(
                f'<text x="{xp:.2f}" y="{bottom + 16:.2f}" '
                f'font-size="10" text-anchor="middle">{xv:.4g}</text>'
            )
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


def _phase_panels(curve, kj, flow_range, q_range, v_range) -> list[_Panel]:
    """The k-q, k-v and q-v panels, k over [0, kj], each with the curve of states drawn.

    flow_range is the q axis of the k-q panel, q_range that of the q-v panel.
    """
    x_k = _auto_range([0.0, kj])
    panels = _layout(
        (x_k, flow_range, "density k", "flow q"),
        (x_k, v_range, "density k", "velocity v"),
        (q_range, v_range, "flow q", "velocity v"),
    )
    for panel, axes in zip(panels, ("kq", "kv", "qv")):
        panel.polyline(list(map(attrgetter(*axes), curve)), _CURVE_COLOR)
    return panels


def _diagram_panels(spec: PlotSpec, payload: DiagramPayload) -> list[_Panel]:
    samples = payload.samples
    kj = payload.params.kj
    q_range = _auto_range([0.0, *[s.q for s in samples]])
    # Velocity diverges as k -> 0; range over the moderate-density branch and
    # let the clip path absorb the free-flow spike.
    v_range = _auto_range([0.0, *[s.v for s in samples if s.k >= 0.02 * kj]])
    return _phase_panels(samples, kj, q_range, q_range, v_range)


def _cobweb_panels(spec: PlotSpec, orbit: Orbit) -> list[_Panel]:
    p = orbit.params
    curve = diagram_samples(p, 256)
    lap = orbit.lap
    # Vertices 2i + 1 and 2i + 2 of the staircase come from state i.
    path_lap = lap and (2 * lap[0] + 1, 2 * lap[1])
    path = _Values(cobweb_path(orbit) if len(orbit.states) >= 2 else [], path_lap)
    curve_qs = [s.q for s in curve]
    flow_range = _auto_range([0.0, *curve_qs, *[y for _, y in path]])
    q_range = _auto_range([0.0, *curve_qs, *[s.q for s in orbit.states]])
    v_range = (0.0, 1.08 * max([p.v0, *[s.v for s in orbit.states], 1e-9]))
    p1, p2, p3 = _phase_panels(curve, p.kj, flow_range, q_range, v_range)
    p1.polyline([(0.0, 0.0), (p.kj, p.kj)], _GUIDE_COLOR, width=1.0, dash="5 4")
    p1.polyline(path, _PATH_COLOR, width=1.1)
    p1.dots([(orbit.k0, orbit.k0)], _PATH_COLOR, radius=2.4)
    if p.v0 > 0.0:
        k_star = fixed_point(p)
        p1.dots([(k_star, k_star)], "#000000", radius=2.6)
    p2.dots(_Values([(s.k, s.v) for s in orbit.states], lap), _MARKER_COLOR)
    p3.dots(_Values([(s.q, s.v) for s in orbit.states], lap), _MARKER_COLOR)
    return [p1, p2, p3]


def _bifurcation_panels(spec: PlotSpec, scan: BifurcationScan) -> list[_Panel]:
    if spec.y_field not in ("k", "q", "v"):
        raise SpecError(f"bifurcation y_field must be k, q or v, got {spec.y_field!r}")
    ordinate = attrgetter(spec.y_field)

    def extremes():
        # the range needs only the least and the greatest finite ordinate
        for states in scan.samples:
            finite = list(filter(math.isfinite, map(ordinate, states)))
            if finite:
                yield min(finite)
                yield max(finite)

    x_lim = _auto_range(list(scan.v0_grid), pad=0.02)
    y_lim = _auto_range(list(extremes()))
    [panel] = _layout((x_lim, y_lim, "optimum velocity v0", spec.y_field))
    panel.vline(2.0, _PATH_COLOR)
    laps = scan.laps or repeat(None)
    panel.columns(scan.v0_grid, scan.samples, laps, ordinate, _CURVE_COLOR, radius=0.7)
    return [panel]


def _lyapunov_panels(spec: PlotSpec, curve: LyapunovCurve) -> list[_Panel]:
    finite = [l for l in curve.lambdas if l is not None]
    x_lim = _auto_range(list(curve.v0_grid), pad=0.02)
    y_lim = _auto_range([0.0, *finite])
    [panel] = _layout((x_lim, y_lim, "optimum velocity v0", "Lyapunov exponent"))
    panel.hline(0.0, _GUIDE_COLOR)
    panel.vline(2.0, _PATH_COLOR)
    # a missing point breaks the curve
    points = zip(curve.v0_grid, curve.lambdas)
    for present, run in groupby(points, lambda point: point[1] is not None):
        if present:
            panel.polyline(list(run), _CURVE_COLOR, width=1.1)
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
    its own pieces as it is written, and each run of lines between them is
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
        for piece in (chain.from_iterable(draw() for draw in run) if deferred else [run])
    )
    return _write(pieces, destination)


def render_svg(spec: PlotSpec, payload) -> str:
    """Render the payload as a standalone SVG document string; its type picks the plot."""
    out = io.StringIO()
    write_svg(spec, payload, out)
    return out.getvalue()
