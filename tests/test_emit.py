"""Tests for CSV/JSON serialization and SVG rendering."""

import csv
import functools
import gc
import hashlib
import io
import json
import math
import os
import stat
import threading
import tracemalloc
import weakref
import xml.etree.ElementTree as ET

import pytest

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
from greenberg_dynamics.model import TrafficParams, diagram_samples

INV_E = math.exp(-1.0)


@pytest.fixture(scope="module")
def orbit():
    return iterate(0.1, TrafficParams(v0=1.25), 50)


@pytest.fixture(scope="module")
def escaped_orbit():
    return iterate(INV_E, TrafficParams(v0=math.e), 10)


@pytest.fixture(scope="module")
def scan():
    return bifurcation_scan(2.2, 2.3, 4, n_total=200, n_keep=10)


@pytest.fixture(scope="module")
def curve():
    # grid includes the superstable point v0 = 1.0, which emits as missing
    return lyapunov_curve(0.5, 1.5, 5, n=1000, n_transient=200)


@pytest.fixture(scope="module")
def sensitivity():
    return sensitivity_experiment(0.1, 1e-3, TrafficParams(v0=2.585), n=60)


@pytest.fixture(scope="module")
def diagram():
    p = TrafficParams(v0=2.25)
    return DiagramPayload(params=p, samples=tuple(diagram_samples(p, 80)))


class TestWriteCsv:
    def test_orbit_row_count_includes_index_zero(self, orbit, tmp_path):
        path = tmp_path / "orbit.csv"
        assert write_csv(orbit, path) == path.stat().st_size
        lines = path.read_text().splitlines()
        assert lines[0] == "i,k,q,v,escaped"
        assert len(lines) == 1 + 51

    def test_orbit_round_trips_exactly(self, orbit, tmp_path):
        path = tmp_path / "orbit.csv"
        write_csv(orbit, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, state in zip(rows, orbit.states):
            assert float(row["k"]) == state.k
            assert float(row["q"]) == state.q
            assert float(row["v"]) == state.v

    def test_orbit_terminal_flag(self, orbit, escaped_orbit, tmp_path):
        write_csv(orbit, tmp_path / "full.csv")
        write_csv(escaped_orbit, tmp_path / "escaped.csv")
        full = (tmp_path / "full.csv").read_text().splitlines()
        cut = (tmp_path / "escaped.csv").read_text().splitlines()
        assert full[-1].endswith(",0")
        assert all(line.endswith(",") for line in full[1:-1])
        assert cut[-1].endswith(",1")
        assert len(cut) == 1 + len(escaped_orbit.states)

    def test_emitted_rows_satisfy_the_identity(self, orbit, tmp_path):
        path = tmp_path / "orbit.csv"
        write_csv(orbit, path)
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                k, q, v = (float(row[c]) for c in "kqv")
                assert abs(q - v * k) < 1e-12

    def test_scan_rows_are_grid_times_keep(self, scan, tmp_path):
        path = tmp_path / "scan.csv"
        assert write_csv(scan, path) == path.stat().st_size
        lines = path.read_text().splitlines()
        assert lines[0] == "v0,sample_index,k,q,v,detected_period"
        assert len(lines) - 1 == sum(len(s) for s in scan.samples) == 4 * 10

    def test_aperiodic_marker_is_zero(self, tmp_path):
        chaotic = bifurcation_scan(2.585, 2.585, 1, k0=0.1, n_total=2000, n_keep=200)
        path = tmp_path / "chaos.csv"
        write_csv(chaotic, path)
        rows = path.read_text().splitlines()[1:]
        assert all(row.endswith(",0") for row in rows)

    def test_empty_scan_writes_header_only(self, tmp_path):
        empty = BifurcationScan(
            v0_grid=(),
            samples=(),
            detected_periods=(),
            escaped=(),
            settings=ScanSettings(0.25, 300, 60, 1e-6),
            laps=(),
        )
        path = tmp_path / "empty.csv"
        assert write_csv(empty, path) == path.stat().st_size
        assert path.read_text() == "v0,sample_index,k,q,v,detected_period\n"

    def test_curve_blank_lambda_for_missing_points(self, curve, tmp_path):
        path = tmp_path / "curve.csv"
        write_csv(curve, path)
        rows = path.read_text().splitlines()[1:]
        missing = [r for r in rows if r.split(",")[1] == ""]
        assert len(missing) == 1
        assert missing[0].startswith("1,")

    def test_sensitivity_columns(self, sensitivity, tmp_path):
        path = tmp_path / "sens.csv"
        assert write_csv(sensitivity, path) == path.stat().st_size
        lines = path.read_text().splitlines()
        assert lines[0] == "i,k_a,k_b,separation"
        assert len(lines) - 1 == len(sensitivity.separation)

    def test_diagram_columns(self, diagram, tmp_path):
        path = tmp_path / "diagram.csv"
        assert write_csv(diagram, path) == path.stat().st_size
        lines = path.read_text().splitlines()
        assert lines[0] == "k,q,v"
        assert len(lines) == 1 + 80

    def test_accepts_file_objects(self, orbit):
        sink = io.StringIO()
        write_csv(orbit, sink)
        assert sink.getvalue().startswith("i,k,q,v,escaped\n")

    def test_rejects_unknown_payloads(self, tmp_path):
        with pytest.raises(SpecError):
            write_csv({"not": "a payload"}, tmp_path / "nope.csv")


class TestWriteJson:
    def test_orbit_round_trips_bit_exactly(self, orbit, tmp_path):
        path = tmp_path / "orbit.json"
        write_json(orbit, path)
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == "1"
        assert doc["settings"] == {"v0": 1.25, "kj": 1.0, "k0": 0.1, "n": 50}
        assert doc["data"]["k"] == [s.k for s in orbit.states]
        assert doc["data"]["q"] == [s.q for s in orbit.states]
        assert doc["data"]["escaped"] is None

    def test_escaped_orbit_records_the_index(self, escaped_orbit, tmp_path):
        path = tmp_path / "escaped.json"
        write_json(escaped_orbit, path)
        assert json.loads(path.read_text())["data"]["escaped"] == 2

    def test_scan_document_shape(self, scan, tmp_path):
        path = tmp_path / "scan.json"
        write_json(scan, path)
        doc = json.loads(path.read_text())
        assert doc["kind"] == "bifurcation-scan"
        assert doc["settings"]["steps"] == 4
        assert len(doc["data"]["detected_period"]) == 4
        assert doc["data"]["v0"] == list(scan.v0_grid)
        assert doc["data"]["k"][0] == [s.k for s in scan.samples[0]]

    def test_curve_missing_points_are_null(self, curve, tmp_path):
        path = tmp_path / "curve.json"
        write_json(curve, path)
        doc = json.loads(path.read_text())
        assert doc["data"]["lambda"][2] is None
        assert doc["settings"]["n"] == 1000

    def test_sensitivity_divergence_index(self, sensitivity, tmp_path):
        path = tmp_path / "sens.json"
        write_json(sensitivity, path)
        doc = json.loads(path.read_text())
        assert doc["data"]["first_divergence_index"] == (
            sensitivity.first_divergence_index
        )
        assert doc["settings"]["delta"] == pytest.approx(1e-3)

    def test_no_divergence_is_an_explicit_null(self, tmp_path):
        result = sensitivity_experiment(0.1, 1e-3, TrafficParams(v0=1.25), n=40)
        sink = io.StringIO()
        write_json(result, sink)
        doc = json.loads(sink.getvalue())
        assert doc["data"]["first_divergence_index"] is None

    def test_returns_the_byte_count(self, diagram, tmp_path):
        path = tmp_path / "diagram.json"
        count = write_json(diagram, path)
        assert count == os.path.getsize(path)

    @pytest.mark.parametrize(
        "overflowed",
        [
            iterate(1e307, TrafficParams(v0=2.5, kj=1e308), 5),
            # q overflows in the second point, after the k arrays are written
            bifurcation_scan(0.0005, 0.0012, 3, k0=1e-300, n_total=60, n_keep=40),
        ],
        ids=["orbit", "scan"],
    )
    def test_a_non_finite_number_leaves_no_file(self, overflowed, tmp_path):
        with pytest.raises(DomainError):
            write_json(overflowed, tmp_path / "overflowed.json")
        assert list(tmp_path.iterdir()) == []

    def test_a_closed_stream_is_not_a_domain_error(self, orbit):
        closed = io.StringIO()
        closed.close()
        with pytest.raises(ValueError, match="closed file") as raised:
            write_json(orbit, closed)
        assert not isinstance(raised.value, DomainError)

    def test_key_order_is_deterministic(self, scan):
        a, b = io.StringIO(), io.StringIO()
        write_json(scan, a)
        write_json(scan, b)
        assert a.getvalue() == b.getvalue()

    def test_rejects_unknown_payloads(self):
        with pytest.raises(SpecError):
            write_json(object(), io.StringIO())


class TestRenderSvg:
    def kind_payload_pairs(self, orbit, scan, curve, sensitivity, diagram):
        return [
            (PlotSpec(title="diagrams"), diagram),
            (PlotSpec(title="cobweb"), orbit),
            (PlotSpec(title="bifurcation"), scan),
            (PlotSpec(title="lyapunov"), curve),
            (PlotSpec(title="sensitivity"), sensitivity),
        ]

    def test_all_kinds_render_well_formed_svg(
        self, orbit, scan, curve, sensitivity, diagram
    ):
        for spec, payload in self.kind_payload_pairs(
            orbit, scan, curve, sensitivity, diagram
        ):
            doc = render_svg(spec, payload)
            root = ET.fromstring(doc)
            assert root.tag.endswith("svg")

    def test_rendering_is_deterministic(
        self, orbit, scan, curve, sensitivity, diagram
    ):
        for spec, payload in self.kind_payload_pairs(
            orbit, scan, curve, sensitivity, diagram
        ):
            assert render_svg(spec, payload) == render_svg(spec, payload)

    def test_fixed_point_orbit_renders_degenerate_cobweb(self):
        k_star = math.exp(-2.0 / 3.0)
        orbit = iterate(k_star, TrafficParams(v0=1.5), 10)
        doc = render_svg(PlotSpec(), orbit)
        ET.fromstring(doc)

    def test_bifurcation_panel_has_one_dot_per_sample(self, scan):
        doc = render_svg(PlotSpec(), scan)
        dots = doc.count("<circle")
        assert dots == sum(len(s) for s in scan.samples)

    def test_bifurcation_velocity_ordinate(self, scan):
        doc = render_svg(PlotSpec(y_field="v"), scan)
        ET.fromstring(doc)

    def test_lyapunov_panel_includes_the_zero_guide(self, curve):
        doc = render_svg(PlotSpec(), curve)
        assert 'stroke-dasharray="4 3"' in doc

    @pytest.mark.parametrize(
        "payload, digest",
        [
            # one lambda is None, so the curve is drawn in two pieces
            (
                lyapunov_curve(0.5, 1.5, 5, n=1000, n_transient=200),
                "5bbef36b615f0e49c850a474776ab302506e2b3f0bb80a3ae65ad0e4d06a8837",
            ),
            # a single state: the cobweb has no staircase to draw
            (
                iterate(INV_E, TrafficParams(v0=3.0), 5),
                "f8d3ef9b88b2420ef74fd5aad70a503faa910892596f14e110a529e4f74fb391",
            ),
        ],
        ids=["lyapunov-gap", "one-state-cobweb"],
    )
    def test_plots_outside_repro_keep_their_bytes(self, payload, digest):
        # repro draws neither plot, so its sha256 table does not hold these bytes
        doc = render_svg(PlotSpec(), payload)
        assert hashlib.sha256(doc.encode()).hexdigest() == digest

    def test_a_cobweb_at_a_tiny_jam_density_is_the_same_drawing(self):
        # k, q and the jam density scale by an exact power of two; the flow
        # axis spans about 1e-19 there, which is no reason to collapse it
        def geometry(kj):
            doc = render_svg(PlotSpec(), iterate(0.23 * kj, TrafficParams(v0=2.48, kj=kj), 300))
            # the tick labels and <desc> print the scaled values
            return [line for line in doc.splitlines() if not line.startswith(("<text", "<desc"))]

        assert geometry(2.0**-60) == geometry(1.0)

    def test_title_is_escaped(self, diagram):
        doc = render_svg(PlotSpec(title="flow < 1 & q"), diagram)
        assert "flow &lt; 1 &amp; q" in doc
        ET.fromstring(doc)

    def test_settings_are_embedded(self, orbit):
        doc = render_svg(PlotSpec(), orbit)
        assert '<desc>settings: {"v0": 1.25, "kj": 1.0, "k0": 0.1, "n": 50}</desc>' in doc

    def test_rejects_unknown_payloads(self):
        with pytest.raises(SpecError):
            render_svg(PlotSpec(), object())

    def test_bad_y_field_is_rejected(self, scan):
        with pytest.raises(SpecError):
            render_svg(PlotSpec(y_field="speed"), scan)


class _TaggedOrbit(Orbit):
    """An Orbit subclass: every emitter finds the Orbit schema through the MRO."""


def test_orbit_subclass_emits_the_orbit_bytes(orbit):
    tagged = _TaggedOrbit(orbit.params, orbit.k0, orbit.n, orbit.states, orbit.escaped)
    for emitter in (write_csv, write_json):
        plain, sub = io.StringIO(), io.StringIO()
        emitter(orbit, plain)
        emitter(tagged, sub)
        assert sub.getvalue() == plain.getvalue()
    spec = PlotSpec(title="cobweb")
    assert render_svg(spec, tagged) == render_svg(spec, orbit)


class TestWrite:
    """``emit._write`` writes every document, and is its one cleanup path."""

    @staticmethod
    def interrupted():
        yield "é<\n"
        raise KeyboardInterrupt

    def test_an_interrupt_propagates_and_leaves_no_file(self, tmp_path):
        with pytest.raises(KeyboardInterrupt):
            emit._write(self.interrupted(), tmp_path / "doc.txt")
        assert list(tmp_path.iterdir()) == []

    def test_a_stream_keeps_the_pieces_written_before_an_interrupt(self):
        out = io.StringIO()
        with pytest.raises(KeyboardInterrupt):
            emit._write(self.interrupted(), out)
        assert out.getvalue() == "é<\n"

    @pytest.mark.parametrize(
        "write, error, sent",
        [
            (lambda out: emit._write(TestWrite.interrupted(), out), KeyboardInterrupt, "é<\n"),
            # the orbit's flow overflows: the JSON fails once its file is open
            (
                lambda out: write_json(iterate(0.25, TrafficParams(v0=2.585, kj=1e308), 5), out),
                DomainError,
                "",
            ),
        ],
        ids=["interrupted", "overflowed"],
    )
    def test_a_failed_document_leaves_a_fifo_in_place(self, write, error, sent, tmp_path):
        fifo = tmp_path / "doc"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        with pytest.raises(error):
            write(fifo)
        reader.join(timeout=10)
        assert not reader.is_alive() and received == [sent]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_a_failed_document_leaves_a_symlink_in_place(self, tmp_path):
        target = tmp_path / "target.txt"
        target.write_text("kept")
        link = tmp_path / "link.txt"
        link.symlink_to(target)
        with pytest.raises(KeyboardInterrupt):
            emit._write(self.interrupted(), link)
        # the link stays; its target, which held the partial document, goes
        assert link.is_symlink() and not target.exists()

    def test_returns_the_utf8_byte_count(self, tmp_path):
        path = tmp_path / "doc.txt"
        assert emit._write(["é<\n", "ab"], path) == 6 == os.path.getsize(path)
        assert emit._write(["é<\n"], io.StringIO()) == 4


class TestStreamingMemory:
    """Writing a document holds a piece of it at a time, never the whole.

    Each bound is 1.5 times the tracemalloc peak, in MiB, of writing that
    document of the default 1000-point scan to a file on CPython 3.11:
    0.027 (CSV), 0.207 (JSON) and 0.040 (each SVG); 3.10, 3.12 and 3.13 read
    within 16 % of these. Building each document whole before writing it
    peaked at 16.6, 11.7 and 6.5 MiB. The JSON arrays are built one grid
    point at a time, as each plot's columns are drawn, and no text is kept
    from one array to the next; a memo of the floats of every array whose
    last float recurs peaked at 0.41.
    """

    @pytest.fixture(scope="class")
    def default_scan(self):
        return bifurcation_scan(0.05, 2.7, 1000)

    @pytest.mark.parametrize(
        "name, write, bound",
        [
            ("scan.csv", write_csv, 0.041),
            ("scan.json", write_json, 0.31),
            ("scan_k.svg", functools.partial(write_svg, PlotSpec(y_field="k")), 0.060),
            ("scan_v.svg", functools.partial(write_svg, PlotSpec(y_field="v")), 0.060),
        ],
        ids=["csv", "json", "svg_k", "svg_v"],
    )
    def test_peak_while_writing_stays_below_the_bound(
        self, default_scan, tmp_path, name, write, bound
    ):
        path = tmp_path / name
        write(default_scan, path)  # first-call set-up happens outside the trace
        tracemalloc.start()
        try:
            write(default_scan, path)
            peak = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_a_written_plot_keeps_no_cycle_that_holds_the_samples(self):
        # with a cycle, a scan's samples would live until the collector ran,
        # and the samples of repeated runs in one process would pile up
        scan = bifurcation_scan(2.2, 2.3, 4, n_total=200, n_keep=10)
        alive = weakref.ref(scan.samples[0][0])
        gc.disable()
        try:
            write_svg(PlotSpec(), scan, io.StringIO())
            del scan
            assert alive() is None
        finally:
            gc.enable()
