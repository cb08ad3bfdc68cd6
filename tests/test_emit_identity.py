"""Byte identity of the bulk, streaming emitters against the plain per-value builders.

The emitters build each CSV row with one %-format, or join a scan's from
texts formatted once per point and once per scan, build each SVG dot with
one %-format, encode JSON arrays of numbers with json's C encoder, format
JSON floats directly, build a scan's JSON arrays and plot columns one grid
point at a time, format the CSV fields, the bifurcation dots and the JSON
floats of an orbit or scan point that carries a lap up to the end of its
first lap and repeat them, and read a bifurcation plot's range from there,
as they format a cobweb's staircase and marker dots and a sensitivity run's
CSV fields, and map a whole point list to pixels in one pass. The references
below are the straightforward builders they replaced: ``json.dumps(indent=2)``,
with each lazily built array as a list, one f-string with ``format(x, ".17g")``
per CSV row, one f-string per bifurcation dot from a flat (v0, y) point list,
and one f-string per polyline point and per dot, each with the panel's pixel
mapping written out; for cobwebs and sensitivity runs, the same payload with
every lap set to None. Every document must agree byte for byte.

The emitters write a scan's documents a piece at a time. The file each
writer streams must equal the text it writes to a ``StringIO`` and, for
SVG, the string of ``render_svg``, with the same return value; a document
that fails part-way must leave no file.
"""

import dataclasses
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from greenberg_dynamics import emit
from greenberg_dynamics.analysis import (
    BifurcationScan,
    ScanSettings,
    bifurcation_scan,
    lyapunov_curve,
)
from greenberg_dynamics.dynamics import Orbit, iterate, sensitivity_experiment
from greenberg_dynamics.emit import (
    DiagramPayload,
    PlotSpec,
    render_svg,
    write_csv,
    write_json,
    write_svg,
)
from greenberg_dynamics.errors import DomainError, SpecError
from greenberg_dynamics.model import TrafficParams, TrafficState, _repeat_lap, diagram_samples

INV_E = math.exp(-1.0)


# --- reference builders ----------------------------------------------------


def ref_fmt17(x):
    return format(x, ".17g")


def ref_orbit_rows(orbit):
    rows = []
    last = len(orbit.states) - 1
    for i, s in enumerate(orbit.states):
        flag = ""
        if i == last:
            flag = "1" if orbit.escaped is not None else "0"
        rows.append(f"{i},{ref_fmt17(s.k)},{ref_fmt17(s.q)},{ref_fmt17(s.v)},{flag}")
    return "i,k,q,v,escaped", rows


def ref_diagram_rows(payload):
    rows = [f"{ref_fmt17(s.k)},{ref_fmt17(s.q)},{ref_fmt17(s.v)}" for s in payload.samples]
    return "k,q,v", rows


def ref_scan_rows(scan):
    rows = []
    for v0, states, period in zip(scan.v0_grid, scan.samples, scan.detected_periods):
        period_field = emit.APERIODIC_CSV_MARKER if period is None else period
        for j, s in enumerate(states):
            rows.append(
                f"{ref_fmt17(v0)},{j},{ref_fmt17(s.k)},{ref_fmt17(s.q)},{ref_fmt17(s.v)},"
                f"{period_field}"
            )
    return "v0,sample_index,k,q,v,detected_period", rows


def ref_curve_rows(curve):
    rows = []
    for v0, lam, terms, skipped in zip(
        curve.v0_grid, curve.lambdas, curve.n_terms, curve.skipped_terms
    ):
        lam_field = "" if lam is None else ref_fmt17(lam)
        rows.append(f"{ref_fmt17(v0)},{lam_field},{terms},{skipped}")
    return "v0,lambda,n_terms,skipped_terms", rows


def ref_sensitivity_rows(result):
    rows = []
    for i, sep in enumerate(result.separation):
        ka = result.orbit_a.states[i].k
        kb = result.orbit_b.states[i].k
        rows.append(f"{i},{ref_fmt17(ka)},{ref_fmt17(kb)},{ref_fmt17(sep)}")
    return "i,k_a,k_b,separation", rows


def ref_scan_json(scan):
    """The scan's JSON text, built from its fields: every sample of every point."""
    grid = scan.v0_grid
    document = {
        "schema_version": "1",
        "kind": "bifurcation-scan",
        "settings": {
            "v0_min": grid[0] if grid else None,
            "v0_max": grid[-1] if grid else None,
            "steps": len(grid),
            **dataclasses.asdict(scan.settings),
        },
        "data": {
            "v0": list(grid),
            "k0": [scan.settings.k0] * len(grid),
            "detected_period": list(scan.detected_periods),
            "escaped": list(scan.escaped),
            **{
                axis: [[getattr(s, axis) for s in states] for states in scan.samples]
                for axis in "kqv"
            },
        },
    }
    return json.dumps(document, indent=2, allow_nan=False) + "\n"


def ref_csv(rows_of, payload):
    """The CSV text, or DomainError if a field is a NaN or an infinity."""
    header, rows = rows_of(payload)
    if {"nan", "inf", "-inf"}.intersection(",".join(rows).split(",")):
        return DomainError
    out = io.StringIO()
    out.write(header + "\n")
    for row in rows:
        out.write(row + "\n")
    return out.getvalue()


def ref_px(panel, v):
    return panel.left + (v - panel.x0) / (panel.x1 - panel.x0) * panel.width


def ref_py(panel, v):
    return panel.top + panel.height - (v - panel.y0) / (panel.y1 - panel.y0) * panel.height


def ref_dot(panel, x, y, color, radius):
    return (
        f'<circle cx="{ref_px(panel, x):.2f}" cy="{ref_py(panel, y):.2f}" '
        f'r="{radius}" fill="{color}"/>'
    )


def ref_polyline(panel, points, color, width, dash):
    if len(points) < 2:
        return []
    coords = " ".join(f"{ref_px(panel, x):.2f},{ref_py(panel, y):.2f}" for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return [
        f'<polyline points="{coords}" fill="none" stroke="{color}" '
        f'stroke-width="{width}"{dash_attr}/>'
    ]


def ref_bifurcation_panels(spec, scan):
    points = []
    for v0, states in zip(scan.v0_grid, scan.samples):
        for s in states:
            points.append((v0, getattr(s, spec.y_field)))
    x_lim = emit._auto_range(list(scan.v0_grid), pad=0.02)
    y_lim = emit._auto_range([y for _, y in points])
    [panel] = emit._layout((x_lim, y_lim, "optimum velocity v0", spec.y_field))
    panel.vline(2.0, emit._PATH_COLOR)
    for x, y in points:
        panel.elements.append(ref_dot(panel, x, y, emit._CURVE_COLOR, 0.7))
    return [panel]


def ref_render_bifurcation(spec, scan):
    """render_svg with the reference panel builder in place of the bulk one."""
    schema = emit._SCHEMAS[emit.BifurcationScan]
    reference = dataclasses.replace(schema, panels=ref_bifurcation_panels)
    table = {emit.BifurcationScan: reference}
    with mock.patch.dict(emit._SCHEMAS, table):
        return render_svg(spec, scan)


def csv_text(payload):
    """write_csv's text of the payload, or DomainError if it raises that."""
    out = io.StringIO()
    try:
        write_csv(payload, out)
    except DomainError:
        return DomainError
    return out.getvalue()


def scan_json_text(scan):
    """write_json's text of the scan, or DomainError if it raises that."""
    out = io.StringIO()
    try:
        write_json(scan, out)
    except DomainError:
        return DomainError
    return out.getvalue()


def json_text(doc):
    """The streamed JSON text of an envelope document, without its final newline."""
    out = io.StringIO()
    size = emit._write(emit._json_pieces(doc), out)
    text = out.getvalue()
    assert size == len(text.encode("utf-8")) and text.endswith("\n")
    return text[:-1]


# --- JSON ------------------------------------------------------------------

edge_floats = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1.7976931348623157e308]
)
finite_floats = st.floats(allow_nan=False, allow_infinity=False) | edge_floats
texts = st.text(max_size=8) | st.sampled_from(["a, b", ", ", "[1, 2]", "é, ü", "  \x00"])
numbers = st.none() | st.booleans() | st.integers() | finite_floats
# Floats that recur, 0.0 and -0.0 among them, which are equal but print
# differently; a _Values list formats its lap's floats once and repeats them.
unrepeated_floats = st.lists(finite_floats, unique=True, max_size=8)
repeated_floats = st.lists(
    finite_floats | st.sampled_from([0.0, -0.0]), min_size=1, max_size=4
).map(lambda floats: floats + floats[::-1])


@st.composite
def lapped_lists(draw, items=finite_floats | st.sampled_from([0.0, -0.0, 1, True])):
    """(values, lap): items whose from start + length on repeat their lap, or None."""
    head = draw(st.lists(items, min_size=1, max_size=6))
    start = draw(st.integers(0, len(head) - 1))
    values = head + (head[start:] * 5)[: draw(st.integers(0, 12))]
    return values, draw(st.sampled_from([(start, len(head) - start), None]))


def lapped_values():
    """A _Values list, with its lap or none."""
    return lapped_lists().map(lambda case: emit._Values(*case))


@given(
    lapped_lists(st.text(max_size=3)),
    st.integers(0, 30),
    st.sampled_from(["", ",", ",\n    ", "\n"]),
)
@example((["a", "b", "c"], (1, 2)), 2, ",")  # a window that ends inside the first lap
def test_join_lap_joins_what_the_item_repeat_gives(case, size, sep):
    values, lap = case
    values = values[:size]  # a window that may end before the lap does
    head = values[:sum(lap)] if lap else values
    assert emit._join_lap(sep, head, len(values), lap) == sep.join(_repeat_lap(list, values, lap))


def arrays(rows):
    """Lapped rows as one JSON array built a row at a time, as a scan's sample arrays are."""
    return emit._Arrays([values for values, _ in rows], [lap for _, lap in rows], lambda x: x)


# rows of numbers, as a scan's, of one type or mixed, and rows with no value
array_rows = st.lists(
    lapped_lists() | lapped_lists(numbers) | st.just(([], None)), max_size=4
).map(arrays)

# what a data member may be: a number, bool or None, an array of them, or an _Arrays
members = (
    numbers
    | unrepeated_floats
    | repeated_floats
    | st.lists(numbers, max_size=6)
    | st.lists(numbers, max_size=6).map(tuple)
    | lapped_values()
    | array_rows
)


def envelopes(data=st.dictionaries(texts, members, max_size=6)):
    """An envelope: a kind, settings of any JSON scalars, and data of members."""
    return st.builds(emit.envelope, texts, st.dictionaries(texts, numbers | texts), data)


def enveloped(data):
    return emit.envelope("test", {"n": len(data)}, data)


def every_row(obj):
    """An _Arrays as a list of lists, each holding every value of its row."""
    return [list(map(obj.get, row)) for row in obj.rows]


def dumps(doc):
    """The reference text: json's, with each _Arrays materialized as a list of lists."""
    return json.dumps(doc, indent=2, allow_nan=False, default=every_row)


@pytest.mark.thorough
@given(envelopes())
# equal floats that print differently
@example(enveloped({"a": [0.0, -0.0, 0.0, 1.5, -0.0, 1.5]}))
# equal numbers of three types
@example(enveloped({"a": [1.0, 1.0], "b": [1, True, 1.0], "c": arrays([([1.0, 1], None)])}))
# floats that recur across arrays
@example(enveloped({"a": [0.25, 0.25], "b": [0.5, 0.25], "c": arrays([([0.5, -0.0, 0.0], None)])}))
# a lap with a -0.0
@example(enveloped({"a": emit._Values([0.5, -0.0, 0.25, -0.0, 0.25, -0.0], (1, 2))}))
@example(enveloped({"a": arrays([])}))  # an _Arrays with no row
# a lapped row, an empty one and one of mixed types
@example(
    enveloped(
        {"a": arrays([([0.5, 0.25, 0.5, 0.25, 0.5], (0, 2)), ([], None), ([1, True, 1.5], None)])}
    )
)
@example(enveloped({}))  # no data
def test_json_text_matches_indented_dumps(doc):
    assert json_text(doc) == dumps(doc)


@given(
    envelopes(),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(
        [
            lambda doc, bad: {**doc, "settings": {**doc["settings"], "x": bad}},
            lambda doc, bad: {**doc, "data": {**doc["data"], "x": bad}},
            lambda doc, bad: {**doc, "data": {**doc["data"], "x": [1.0, bad, 2.0]}},
            lambda doc, bad: {**doc, "data": {**doc["data"], "x": (1, bad, None)}},
            lambda doc, bad: {**doc, "data": {"x": arrays([([0.5], None), ([bad], None)])}},
        ]
    ),
)
def test_json_text_rejects_non_finite_floats(doc, bad, place):
    wrapped = place(doc, bad)
    with pytest.raises(ValueError):
        dumps(wrapped)
    with pytest.raises(ValueError):
        json_text(wrapped)


@pytest.mark.parametrize(
    "member",
    [
        "text",
        {"a": 1},
        [0.5, "text"],
        [[0.5]],
        (0.5, {"a": 1}),
        arrays([([0.5], None), (["text"], None)]),
        arrays([([[0.5]], None)]),
    ],
    ids=["string", "dict", "string-item", "list-item", "dict-item", "string-row", "list-row"],
)
def test_json_data_beyond_the_envelope_raises_spec_error(member):
    with pytest.raises(SpecError):
        json_text(enveloped({"k": [0.5], "x": member}))


def test_json_byte_count_is_the_encoded_length():
    doc_with_non_ascii = emit.envelope("é", {"é, ü": "\u2028"}, {"é, ü": [1.5, None]})
    text = json_text(doc_with_non_ascii)
    assert len(text.encode("utf-8")) == len(text)


# --- scans: CSV and the three bifurcation ordinates ------------------------


@st.composite
def scans(draw):
    """Small real scans, two kinds of them with escaped points.

    "kj": the grid ends at v0 = e and every point starts from the map
    maximum 1/e. At v0 = e that orbit reaches kj and then 0 at step 2, so
    the point escapes with no samples; below e the map never leaves
    (0, v0/e], so no other point escapes. "underflow": v0 near 1e-3 from k0
    near 1e-300, where each step multiplies k by v0 * ln(1/k) < 1 until k is
    subnormal and 1/k overflows to inf, so the next step leaves (0, 1],
    late enough for some points to escape with partial samples. "cycles":
    v0 in [0.9, 2.48] with 150 to 400 steps, where most orbits close an
    exact float cycle before the kept window, so the tails repeat states.
    """
    kind = draw(st.sampled_from(["plain", "kj", "underflow", "cycles"]))
    n_total = draw(st.integers(150, 400) if kind == "cycles" else st.integers(3, 120))
    n_keep = draw(st.integers(2, n_total - 1))
    steps = draw(st.integers(1, 6))
    if kind == "underflow":
        v0_max = draw(st.floats(0.001, 0.0013))
        v0_lo, k0 = 0.0005, draw(st.floats(1e-305, 1e-295))
    elif kind == "cycles":
        v0_max = draw(st.floats(0.9, 2.48, exclude_min=True))
        v0_lo, k0 = 0.9, draw(st.floats(0.01, 0.99))
    else:
        v0_max = math.e if kind == "kj" else draw(st.floats(0.1, math.e))
        v0_lo, k0 = 0.05, draw(st.floats(0.01, 0.99))
    start = INV_E if kind == "kj" else k0
    v0_min = v0_max if steps == 1 else draw(st.floats(v0_lo, v0_max, exclude_max=True))
    return bifurcation_scan(v0_min, v0_max, steps, k0=start, n_total=n_total, n_keep=n_keep)


@settings(max_examples=60, deadline=None)
@given(scans())
def test_scan_csv_matches_reference(scan):
    assert csv_text(scan) == ref_csv(ref_scan_rows, scan)


def unlapped(scan):
    """The scan as built by hand: no point has a lap, so each sample is emitted on its own."""
    return dataclasses.replace(scan, laps=(None,) * len(scan.v0_grid))


@settings(max_examples=60, deadline=None)
@given(scans())
def test_scan_json_matches_reference_with_and_without_laps(scan):
    try:
        expected = ref_scan_json(scan)
    except ValueError:  # a NaN or infinity, such as a flow that overflowed
        expected = DomainError
    assert scan_json_text(scan) == scan_json_text(unlapped(scan)) == expected


@settings(max_examples=60, deadline=None)
@given(scans(), st.sampled_from("kqv"))
# every column is empty: the clip group still holds its empty line
@example(bifurcation_scan(math.e, math.e, 1, k0=INV_E, n_total=3, n_keep=2), "k")
def test_bifurcation_svg_matches_reference(scan, y_field):
    spec = PlotSpec(y_field=y_field)
    assert render_svg(spec, scan) == ref_render_bifurcation(spec, scan)


def test_scans_with_escapes_and_periods_match_reference():
    # pinned examples of what the properties above draw: points escaped with
    # no samples and with partial samples, points with a detected period, and
    # each kind of lap a point's rows and plot range are built from
    escaped = bifurcation_scan(2.25, math.e, 3, k0=INV_E, n_total=3, n_keep=2)
    assert escaped.escaped == (False, False, True) and len(escaped.samples[-1]) == 0
    partial = bifurcation_scan(0.0005, 0.0012, 3, k0=1e-300, n_total=60, n_keep=40)
    assert partial.escaped == (True, True, False)
    assert [len(s) for s in partial.samples] == [0, 17, 40]
    # the last sample of the middle point overflowed: JSON rejects it as
    # before, and CSV, which wrote "inf", now does too
    assert math.isinf(partial.samples[1][-1].q)
    for write in (write_json, write_csv):
        with pytest.raises(DomainError, match="^bifurcation-scan document holds a non-finite"):
            write(partial, io.StringIO())
    periodic = bifurcation_scan(2.25, 2.3, 2, n_total=200, n_keep=20)
    assert periodic.detected_periods == (2, 2)
    # a tail of whole laps, and a tail whose lap starts inside the window
    assert periodic.laps == ((0, 2), (0, 2))
    inside = bifurcation_scan(2.5356805346025695, 2.5356805346025695, 1, k0=0.1518156773639057)
    assert inside.laps == ((52, 6),)
    # hand-built scans with no laps: each sample is formatted and ranged on its own
    for scan in (escaped, partial, periodic, inside, unlapped(periodic), unlapped(inside)):
        assert csv_text(scan) == ref_csv(ref_scan_rows, scan)
        assert scan_json_text(scan) == scan_json_text(unlapped(scan))
        if scan is not partial:
            assert scan_json_text(scan) == ref_scan_json(scan)
        for y_field in "kqv":
            spec = PlotSpec(y_field=y_field)
            assert render_svg(spec, scan) == ref_render_bifurcation(spec, scan)


def empty_scan():
    settings = ScanSettings(k0=0.25, n_total=300, n_keep=60, tolerance=1e-6)
    return BifurcationScan(
        v0_grid=(), samples=(), detected_periods=(), escaped=(), settings=settings, laps=()
    )


def signed_zero_scan():
    """A hand-built scan whose equal values print differently: 0.0 and -0.0, 1 and 1.0."""
    states = (
        TrafficState(k=0.5, q=0.0, v=-0.0),
        TrafficState(k=0.5, q=-0.0, v=0.0),
        TrafficState(k=1, q=1.0, v=True),
        TrafficState(k=1.0, q=1, v=1.0),
    )
    settings = ScanSettings(k0=0.5, n_total=10, n_keep=4, tolerance=1e-6)
    return BifurcationScan(
        v0_grid=(1.0, 2.0),
        samples=(states, states[::-1]),
        detected_periods=(None, 2),
        escaped=(False, False),
        settings=settings,
        laps=(None, None),
    )


def test_signed_zeros_and_mixed_types_match_reference():
    scan = signed_zero_scan()
    assert csv_text(scan) == ref_csv(ref_scan_rows, scan)
    for y_field in "kqv":
        spec = PlotSpec(y_field=y_field)
        assert render_svg(spec, scan) == ref_render_bifurcation(spec, scan)


# --- the other row builders and the cobweb dots ----------------------------


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.001, math.e),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 40),
)
def test_orbit_csv_and_cobweb_match_reference(v0, k0, n):
    orbit = iterate(k0, TrafficParams(v0=v0), n)
    assert csv_text(orbit) == ref_csv(ref_orbit_rows, orbit)
    panel = emit._Panel(56.0, 44, 300.0, 260, (0.0, 1.0), (0.0, 3.0), "k", "v", "c")
    points = [(s.k, s.v) for s in orbit.states]
    panel.dots(points, emit._MARKER_COLOR)
    # the dots are one element, a line each
    expected = [ref_dot(panel, x, y, emit._MARKER_COLOR, 2.0) for x, y in points]
    assert panel.elements == ["\n".join(expected)]


@pytest.mark.parametrize("escaped", [None, 7])
def test_orbit_with_shared_and_equal_states_matches_reference(escaped):
    # a state recurs as the same object (as model._states shares it) and as
    # equal but distinct objects, one of which prints differently (-0.0)
    a = TrafficState(k=0.5, q=0.25, v=-0.0)
    b = TrafficState(k=0.25, q=0.5, v=0.0)
    b_copy = TrafficState(k=0.25, q=0.5, v=0.0)
    a_twin = TrafficState(k=0.5, q=0.25, v=0.0)
    assert a_twin == a and b_copy == b
    states = (a, b, a, b_copy, a_twin, b, a)
    orbit = Orbit(params=TrafficParams(v0=2.0), k0=0.5, n=6, states=states, escaped=escaped)
    assert csv_text(orbit) == ref_csv(ref_orbit_rows, orbit)
    assert csv_text(orbit).splitlines()[5] == "4,0.5,0.25,0,"


def test_escaped_orbit_csv_matches_reference():
    orbit = iterate(INV_E, TrafficParams(v0=math.e), 10)
    assert orbit.escaped is not None
    assert csv_text(orbit) == ref_csv(ref_orbit_rows, orbit)


def test_curve_sensitivity_and_diagram_csv_match_reference():
    curve = lyapunov_curve(0.5, 1.5, 5, n=1000, n_transient=50)
    assert None in curve.lambdas
    assert csv_text(curve) == ref_csv(ref_curve_rows, curve)
    chaotic = sensitivity_experiment(0.1, 1e-3, TrafficParams(v0=2.585), n=60)
    # laps (133, 8) and (136, 12): the rows repeat every 24 from 136
    lapped = sensitivity_experiment(0.8882023327985163, 1e-3, TrafficParams(v0=2.449604133332898))
    assert emit._separation_lap(chaotic) is None
    assert emit._separation_lap(lapped) == (136, 24)
    for result in (chaotic, lapped):
        assert csv_text(result) == ref_csv(ref_sensitivity_rows, result)
    p = TrafficParams(v0=2.25)
    diagram = DiagramPayload(params=p, samples=tuple(diagram_samples(p, 80)))
    assert csv_text(diagram) == ref_csv(ref_diagram_rows, diagram)


def without_laps(payload):
    """The orbit or sensitivity result with every lap set to None, so each sample is formatted."""
    if isinstance(payload, Orbit):
        return dataclasses.replace(payload, lap=None)
    a, b = without_laps(payload.orbit_a), without_laps(payload.orbit_b)
    return dataclasses.replace(payload, orbit_a=a, orbit_b=b)


@pytest.mark.thorough
@settings(deadline=None)
@given(
    st.floats(0.2, math.e),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 400),
)
@example(2.25, 0.35, 300)  # lap (35, 2)
@example(2.48, 0.23, 300)  # lap (131, 16)
@example(2.48, 0.23, 147)  # the first n that closes that lap
@example(math.e, INV_E, 300)  # escaped at step 2, with no lap
@example(2.449604133332898, 0.8882023327985163, 300)  # laps (133, 8), (136, 12): joint (136, 24)
def test_cobweb_and_sensitivity_with_laps_match_unlapped(v0, k0, n):
    spec = PlotSpec(title="cobweb")

    def svg(payload):
        # split at spaces, which joins back to the text, so a mismatch reports
        # its first differing token rather than diffing a long polyline line
        try:
            return render_svg(spec, payload).split(" ")
        except DomainError:  # from a subnormal k0, kj / k and the velocity axis overflow
            return DomainError

    p = TrafficParams(v0=v0)
    orbit = iterate(k0, p, n)
    assert svg(orbit) == svg(without_laps(orbit))
    # the second initial density stays inside (0, 1)
    result = sensitivity_experiment(k0, 1e-3 if k0 + 1e-3 < 1.0 else -1e-3, p, n=n)
    assert csv_text(result) == csv_text(without_laps(result))
    assert svg(result) == svg(without_laps(result))


def test_every_payload_json_matches_indented_dumps():
    p = TrafficParams(v0=2.25)
    for payload in [
        bifurcation_scan(2.2, 2.3, 3, n_total=60, n_keep=8),
        iterate(0.1, TrafficParams(v0=1.25), 20),
        iterate(0.35, p, 300),  # lap (35, 2)
        lyapunov_curve(0.5, 1.5, 5, n=1000, n_transient=50),
        sensitivity_experiment(0.1, 1e-3, p, n=30),
        # laps (133, 8) and (136, 12): the separation repeats every 24 from 136
        sensitivity_experiment(0.8882023327985163, 1e-3, TrafficParams(v0=2.449604133332898)),
        DiagramPayload(p, tuple(diagram_samples(p, 20))),
        bifurcation_scan(0.9, 2.48, 6, n_total=300, n_keep=60),
        signed_zero_scan(),
    ]:
        out = io.StringIO()
        count = write_json(payload, out)
        if isinstance(payload, BifurcationScan):
            expected = ref_scan_json(payload)
        else:
            expected = dumps(emit._document(payload)) + "\n"
        assert out.getvalue() == expected
        assert count == len(expected.encode("utf-8"))


# --- streaming: the file equals the in-memory text -------------------------


def assert_streams_match(payload, spec):
    """Each writer puts in a file the bytes it writes to memory, and returns the same.

    A writer that raises DomainError in memory raises it for the file too
    and leaves no file behind.
    """
    writers = {
        "doc.csv": write_csv,
        "doc.json": write_json,
        "doc.svg": lambda payload, out: write_svg(spec, payload, out),
    }
    with tempfile.TemporaryDirectory() as directory:
        for name, write in writers.items():
            path = Path(directory) / name
            memory = io.StringIO()
            try:
                result = write(payload, memory)
            except DomainError:
                with pytest.raises(DomainError):
                    write(payload, path)
                assert not path.exists(), name
                continue
            assert write(payload, path) == result, name
            assert path.read_bytes() == memory.getvalue().encode("utf-8"), name
            assert result == path.stat().st_size, name
            if name == "doc.svg":
                assert memory.getvalue() == render_svg(spec, payload)


@pytest.mark.thorough
@settings(deadline=None)
@given(scans(), st.sampled_from("kqv"), st.sampled_from(["", "scan", "é < ü & 1"]))
def test_streamed_scan_files_match_in_memory_text(scan, y_field, title):
    assert_streams_match(scan, PlotSpec(title=title, y_field=y_field))


def test_every_payload_streams_the_text_it_renders():
    p = TrafficParams(v0=2.25)
    escaped = bifurcation_scan(2.25, math.e, 3, k0=INV_E, n_total=3, n_keep=2)
    partial = bifurcation_scan(0.0005, 0.0012, 3, k0=1e-300, n_total=60, n_keep=40)
    overflowed = iterate(1e307, TrafficParams(v0=2.5, kj=1e308), 5)
    assert escaped.escaped[-1] and math.isinf(partial.samples[1][-1].q)
    assert math.isinf(overflowed.states[-1].q)
    for payload in [
        iterate(0.1, TrafficParams(v0=1.25), 20),
        iterate(INV_E, TrafficParams(v0=math.e), 10),
        overflowed,
        DiagramPayload(p, tuple(diagram_samples(p, 20))),
        lyapunov_curve(0.5, 1.5, 5, n=1000, n_transient=50),
        sensitivity_experiment(0.1, 1e-3, TrafficParams(v0=2.585), n=30),
        escaped,
        partial,
        empty_scan(),
        signed_zero_scan(),
    ]:
        for spec in (PlotSpec(), PlotSpec(title="é < ü", y_field="q")):
            assert_streams_match(payload, spec)


# --- the bulk pixel mapping of polylines and dots --------------------------

pixel_numbers = (
    st.floats()
    | st.integers(-10**6, 10**6)
    | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -1e308])
)
panel_sizes = st.integers(0, 1000) | st.floats(0.0, 1000.0)


def outcome(draw):
    """The elements a drawing appends, or ZeroDivisionError for a zero-width limit."""
    try:
        return draw()
    except ZeroDivisionError:
        return ZeroDivisionError


def ref_guide(x1, y1, x2, y2, color):
    return (
        f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" '
        f'stroke="{color}" stroke-width="1.0" stroke-dasharray="4 3"/>'
    )


@pytest.mark.thorough
@given(
    st.tuples(panel_sizes, panel_sizes, panel_sizes, panel_sizes),
    st.tuples(pixel_numbers, pixel_numbers, pixel_numbers, pixel_numbers),
    st.lists(st.tuples(pixel_numbers, pixel_numbers), max_size=8),
    st.sampled_from([(1.3, None), (1.1, "5 4")]),
    st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
def test_bulk_polyline_and_dots_match_per_point_mapping(box, limits, points, stroke, where):
    left, top, width, height = box
    x0, x1, y0, y1 = limits
    panel = emit._Panel(left, top, width, height, (x0, x1), (y0, y1), "x", "y", "c")
    # Guides at a value between the limits, as far as rounding and the
    # limits allow; a value outside them draws no guide. hline maps its y
    # with x at x0, so a zero-width x limit raises there, as it does in the
    # frame of every drawn panel; such a limit always admits the vline,
    # whose reference raises too.
    gx, gy = x0 + where[0] * (x1 - x0), y0 + where[1] * (y1 - y0)

    def bulk():
        panel.elements = []
        panel.polyline(points, "#123456", *stroke)
        panel.dots(points, "#654321", radius=2.4)
        panel.hline(gy, "#777777")
        panel.vline(gx, "#d62728")
        return panel.elements

    def reference():
        line = ref_polyline(panel, points, "#123456", *stroke)
        dots = [ref_dot(panel, x, y, "#654321", 2.4) for x, y in points]
        elements = line + (["\n".join(dots)] if dots else [])
        if y0 <= gy <= y1:
            yp = ref_py(panel, gy)
            elements.append(ref_guide(left, yp, left + width, yp, "#777777"))
        if x0 <= gx <= x1:
            xp = ref_px(panel, gx)
            elements.append(ref_guide(xp, top, xp, top + height, "#d62728"))
        return elements

    assert outcome(bulk) == outcome(reference)


def test_empty_point_lists_draw_nothing():
    panel = emit._Panel(56.0, 44, 300.0, 260, (0.0, 1.0), (0.0, 3.0), "k", "v", "c")
    panel.dots([], emit._MARKER_COLOR)
    panel.polyline([], emit._CURVE_COLOR)
    panel.polyline([(0.5, 1.5)], emit._CURVE_COLOR)
    assert panel.elements == []
    assert panel.pixels([]) == []
