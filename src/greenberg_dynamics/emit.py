"""Serialization and plotting: CSV/JSON emitters and standalone SVG renderers.

Numbers in CSV files carry 17 significant digits so every double round-trips
exactly; JSON uses the shortest exact representation. SVG output is plain
text with no external dependencies, and identical payload + spec pairs
always produce byte-identical documents.

Each format builds its document as text pieces, and ``_write`` writes every
document a piece at a time, so beyond the scan itself, a scan's documents
hold one grid point at a time: its CSV is its header, then a piece per grid
point, its JSON a piece per point's array of samples, each read from the
scan when it is written (``_Arrays``), and its bifurcation plot a piece per
column of dots, drawn by one generator over the scan (``_Panel.columns``).
Smaller documents are one piece, one join and one write, past a CSV's
header, which is always a piece of its own. The cost of a document is
formatting numbers. An orbit's or scan point's CSV fields, dots and JSON
floats, a cobweb's staircase and marker dots, and a sensitivity run's CSV
fields are formatted up to the end of the lap their result carries
(``Orbit.lap``, ``BifurcationScan.laps``), and a bifurcation plot takes its
range from each point's states up to there; a list carries its lap as a
``_Values``. An array's or a plot's texts are joined to the end of the lap
and the lap's text is repeated (``_join_lap``); a CSV repeats the lap's
fields, since its rows' indexes differ. The staircase's lap is
(2 * start + 1, 2 * length), and the separation's is the joint lap of both
orbits (``_separation_lap``). With no lap, each sample is formatted. What
remains is one %-format per CSV row of the other payloads, while a scan's
rows are joined from texts formatted once: each point's v0 and period, and
one table of sample indexes per scan; one %-format per point of every other
polyline (the diagram curves and the traces against v0 or the iteration),
each point list mapped to pixels in one pass (``_Panel.pixels``); and json's
C encoder for every other array of numbers. A NaN or infinity has no CSV or
JSON text: the writer raises DomainError naming the document's kind, and a
failed document leaves no regular file (``_discard``).

Each payload type has one entry in ``_SCHEMAS``: its JSON kind, CSV header
and rows, settings, JSON data and SVG panels. ``write_csv``, ``write_json``
and ``write_svg`` dispatch through it and nothing else, so the payload type
alone selects the plot, as it selects the CSV and JSON layout. Every JSON
document has one shape, the ``envelope``: json writes its settings, and its
data maps each name to a number, bool or None, to an array of them, or to an
``_Arrays``; anything else raises SpecError.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import asdict, dataclass
from itertools import chain, groupby
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
    rows: Callable  # payload -> CSV data rows in pieces: lists of texts of whole rows
    settings: Callable  # payload -> the input parameters echoed into every artifact
    data: Callable  # payload -> the JSON "data" object
    panels: Callable  # (spec, payload) -> the SVG panels


class _Arrays:
    """A JSON array of number arrays: per row of items, the value ``get`` reads from each.

    Each row's lap, (start, length) as in ``Orbit.lap``, or None, says how
    its values repeat, so only the items up to the end of the lap are read.
    A row's array is built when it is written (``_json_pieces``).
    """

    def __init__(self, rows: Sequence[Sequence], laps: Iterable, get: Callable):
        self.rows, self.laps, self.get = rows, laps, get


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


def _join_lap(sep: str, texts: Sequence[str], n: int, lap: tuple[int, int] | None) -> str:
    """sep.join of n texts that repeat ``lap``, given the texts up to the end of the lap.

    ``lap`` is (start, length) or None, as in ``Orbit.lap``; with None,
    ``texts`` holds all n. The lap's texts are joined once and the joined
    text repeated.
    """
    if lap is None or n <= sum(lap):
        return sep.join(texts)
    start, length = lap
    laps, rest = divmod(n - start, length)
    cycle = sep.join(texts[start:])
    laps_text = (cycle + sep) * (laps - 1) + cycle
    return sep.join([*texts[:start], laps_text, *texts[start:start + rest]])


def _discard(path) -> None:
    """Remove the regular file at the path or its symlink's end; a FIFO, device or link stays."""
    path = Path(path).resolve()
    if path.is_file():
        path.unlink(missing_ok=True)


def _write(pieces, destination) -> int:
    """Write each text piece to the destination; returns the UTF-8 byte count.

    A stream is written as is. A path's file gets "\\n" line ends on every
    platform. If building, writing or closing the document raises,
    interrupts included, the file is discarded (``_discard``), so a failed
    document leaves no regular file; a stream keeps what was written to it.
    """
    if not hasattr(destination, "write"):
        out = open(destination, "w", encoding="utf-8", newline="")
        try:
            with out:
                return _write(pieces, out)
        except BaseException:
            _discard(destination)
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
    """The texts of each grid point's rows, one piece per point, built as it is written.

    A point's rows share its v0 and period texts, and every point shares
    one table of "i," index texts, so a point's rows are one join of
    texts: its v0, then per row an index, the "k,q,v" fields, which repeat
    its lap, and the period and the next row's v0.
    """
    indexes = list(map("%d,".__mod__, range(max(map(len, scan.samples), default=0))))
    points = zip(scan.v0_grid, scan.samples, scan.detected_periods, scan.laps)
    for v0, states, period, lap in points:
        if not states:
            yield []
            continue
        prefix = "%.17g," % v0
        suffix = ",%d\n" % (APERIODIC_CSV_MARKER if period is None else period)
        texts = [suffix + prefix] * (3 * len(states) + 1)
        texts[0] = prefix
        texts[1::3] = indexes[:len(states)]
        texts[2::3] = _repeat_lap(_kqv_texts, states, lap)
        texts[-1] = suffix
        yield texts


def _scan_data(scan: BifurcationScan) -> dict:
    return {
        "v0": scan.v0_grid,
        "k0": [scan.settings.k0] * len(scan.v0_grid),
        "detected_period": scan.detected_periods,
        "escaped": scan.escaped,
        **{axis: _Arrays(scan.samples, scan.laps, attrgetter(axis)) for axis in "kqv"},
    }


def _curve_rows(curve: LyapunovCurve) -> list[list[str]]:
    rows = zip(curve.v0_grid, curve.lambdas, curve.n_terms, curve.skipped_terms)
    return [[
        "%.17g,,%d,%d\n" % (v0, terms, skipped)
        if lam is None
        else "%.17g,%.17g,%d,%d\n" % (v0, lam, terms, skipped)
        for v0, lam, terms, skipped in rows
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
    A NaN or infinity, such as a flow that overflowed, raises DomainError
    once the file is open, as in ``write_json``; the file at a path
    destination is then discarded, while a stream keeps the text written
    before it.
    """
    schema = _schema_of(payload, "CSV")

    def finite(rows: list[str]) -> str:
        piece = "".join(rows)
        if "n" in piece:  # a %g or %d field holds an "n" only in "nan" or "inf"
            raise DomainError(f"{schema.kind} document holds a non-finite number")
        return piece

    return _write(chain([schema.header + "\n"], map(finite, schema.rows(payload))), destination)


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


def _json_pieces(document: dict) -> Iterator[str]:
    """The text of ``json.dumps(document, indent=2, allow_nan=False)`` and a newline, in pieces.

    ``document`` is an ``envelope``; json writes all of it but its data.
    Each data member is a number, bool or None, an array of them
    (``_array_text``), or an ``_Arrays``, read and written a row and a piece
    at a time; anything else raises SpecError. NaN and infinities raise
    DomainError, a ValueError as in json, possibly after some pieces are
    yielded.
    """
    # json's text of the document with no data ends in its "{}\n}".
    parts = [_dumps({**document, "data": {}}, indent=2)[:-4], "{"]
    data, sep = document["data"], "\n    "
    for name, value in data.items():
        parts += (sep, json.dumps(name), ": ")
        sep = ",\n    "
        if isinstance(value, _Arrays):
            row_sep, get = "[\n      ", value.get
            for row, lap in zip(value.rows, value.laps):
                head = row[:sum(lap)] if lap else row
                text = _array_text(list(map(get, head)), len(row), lap, 3)
                yield "".join([*parts, row_sep, text])
                parts, row_sep = [], ",\n      "
            parts.append("\n    ]" if value.rows else "[]")
        elif isinstance(value, (list, tuple)):
            lap = value.lap if isinstance(value, _Values) else None
            parts.append(_array_text(value[:sum(lap)] if lap else value, len(value), lap, 2))
        elif type(value) in _JSON_SCALARS:
            parts.append(_dumps(value))
        else:
            raise SpecError(f"JSON data member {name!r} is a {type(value).__name__}")
    parts.append("\n  }\n}\n" if data else "}\n}\n")
    yield "".join(parts)


def _dumps(obj, indent: int | None = None) -> str:
    """json's text of ``obj``; NaN and infinities raise DomainError."""
    try:
        return json.dumps(obj, indent=indent, allow_nan=False)
    except ValueError as exc:
        raise DomainError("NaN and infinities have no JSON text") from exc


def _array_text(values: Sequence, n: int, lap, depth: int) -> str:
    """The text, ``depth`` deep, of n numbers, bools and Nones that repeat ``lap``.

    ``values`` holds them up to the end of the lap, or all n with no lap;
    their texts are joined by ``_join_lap``. Floats are formatted each, and
    since a float's text holds an "n" only in "nan" or "inf", one search of
    the joined text rejects NaN and infinities. Any other list goes to the
    C encoder in one call (``_dumps``), which rejects them too, and every
    ", " of its text separates two values; any other item raises SpecError.
    """
    if not n:
        return "[]"
    sep = ",\n" + "  " * (depth + 1)
    try:
        texts = list(map(float.__repr__, values))
    except TypeError:
        if not set(map(type, values)) <= _JSON_SCALARS:
            raise SpecError("a JSON data array holds numbers, bools and None") from None
        body = _join_lap(sep, _dumps(values)[1:-1].split(", "), n, lap)
    else:
        body = _join_lap(sep, texts, n, lap)
        if "n" in body:
            raise DomainError("NaN and infinities have no JSON text")
    return "".join(("[", sep[1:], body, "\n", "  " * depth, "]"))


def write_json(payload, destination) -> int:
    """Write one JSON document for the payload; returns the byte count.

    A NaN or infinity, such as a flow that overflowed, raises DomainError;
    the file at a path destination is then discarded, while a stream keeps
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
    # a range narrow for its magnitude is padded by a tenth of it, or 0.5 if that is 0
    wide = hi - lo > 1e-12 * max(abs(lo), abs(hi))
    slack = (hi - lo) * pad if wide else abs(hi) * 0.1 or 0.5
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
        # Each element is a text of lines, or a callable that draws pieces of
        # text, each ending in a line break, when the document is written
        # (``write_svg``), drawn where ``pixels`` maps.
        self.elements: list[str | Callable[[], Iterator[str]]] = []

    def pixels(self, points) -> list[tuple[float, float]]:
        """The pixel of each (x, y) point: the panel's one mapping, inlined in ``columns``."""
        left, x0, dx, width = self.left, self.x0, self.x1 - self.x0, self.width
        bottom, y0, dy, height = self.top + self.height, self.y0, self.y1 - self.y0, self.height
        return [
            (left + (x - x0) / dx * width, bottom - (y - y0) / dy * height) for x, y in points
        ]

    def text(self, fmt: str, sep: str, points) -> str:
        """sep.join of fmt % (x, y) of each point's pixel, formatted to a ``_Values`` lap's end."""
        lap = points.lap if isinstance(points, _Values) else None
        head = points[:sum(lap)] if lap else points
        return _join_lap(sep, list(map(fmt.__mod__, self.pixels(head))), len(points), lap)

    def polyline(self, points, color, width=1.3, dash=None):
        if len(points) < 2:
            return
        coords = self.text("%.2f,%.2f", " ", points)
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        self.elements.append(
            f'<polyline points="{coords}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>'
        )

    def dots(self, points, color, radius=2.0):
        if points:
            dot = '<circle cx="%%.2f" cy="%%.2f" r="%s" fill="%s"/>' % (radius, color)
            self.elements.append(self.text(dot, "\n", points))

    def columns(self, xs, samples, laps, ordinate, color, radius):
        """A column of dots at each abscissa, one per state, formatted up to the end of its lap.

        The columns are one drawing, which yields a piece of the document
        per non-empty column when the document is written, its lap's lines
        joined once and repeated (``_join_lap``). The drawing keeps
        the mapping of x and y, bit for bit what pixels gives, but not the
        panel, which keeps the drawing: that cycle would keep the scan alive
        until the garbage collector ran. With no state to draw, the panel is
        left empty.
        """
        if not any(samples):
            return
        left, x0, dx, width = self.left, self.x0, self.x1 - self.x0, self.width
        bottom, y0, dy, height = self.top + self.height, self.y0, self.y1 - self.y0, self.height
        dot = '<circle cx="%%.2f" cy="%%%%.2f" r="%s" fill="%s"/>\n' % (radius, color)

        def draw() -> Iterator[str]:
            for x, states, lap in zip(xs, samples, laps):
                if not states:
                    continue
                column = dot % (left + (x - x0) / dx * width)
                ys = map(ordinate, states[:sum(lap)] if lap else states)
                circles = [column % (bottom - (y - y0) / dy * height) for y in ys]
                yield _join_lap("", circles, len(states), lap)

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
        # the range needs only the least and the greatest finite ordinate,
        # which a point's first lap already holds
        for states, lap in zip(scan.samples, scan.laps):
            head = states[:sum(lap)] if lap else states
            finite = list(filter(math.isfinite, map(ordinate, head)))
            if finite:
                yield min(finite)
                yield max(finite)

    x_lim = _auto_range(list(scan.v0_grid), pad=0.02)
    y_lim = _auto_range(list(extremes()))
    [panel] = _layout((x_lim, y_lim, "optimum velocity v0", spec.y_field))
    panel.vline(2.0, _PATH_COLOR)
    panel.columns(scan.v0_grid, scan.samples, scan.laps, ordinate, _CURVE_COLOR, radius=0.7)
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
    pieces = chain.from_iterable(
        chain.from_iterable(draw() for draw in run) if deferred else ["\n".join([*run, ""])]
        for deferred, run in groupby(lines, callable)
    )
    return _write(pieces, destination)


def render_svg(spec: PlotSpec, payload) -> str:
    """Render the payload as a standalone SVG document string; its type picks the plot."""
    out = io.StringIO()
    write_svg(spec, payload, out)
    return out.getvalue()
