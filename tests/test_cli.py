"""End-to-end tests for the command-line interface."""

import csv
import errno
import hashlib
import importlib
import json
import os
import runpy
import stat
import threading
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from greenberg_dynamics import cli, emit
from greenberg_dynamics.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REPRO_SHA256 = PERFBENCH / "repro_sha256.json"

# Exit codes are asserted literally: 0 success, 2 argv that does not parse,
# 3 a value the library rejects, 4 I/O.


def run_cli(*argv):
    return main(list(argv))


class TestOrbitCommand:
    def test_reproduces_the_free_flow_run(self, tmp_path, capsys):
        code = run_cli(
            "orbit", "--v0", "0.25", "--k0", "0.25", "--n", "300",
            "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final state" in out
        with open(tmp_path / "orbit.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 301
        assert abs(float(rows[-1]["k"]) - 0.0183) < 1e-3
        assert abs(float(rows[-1]["v"]) - 1.0) < 1e-3
        assert (tmp_path / "orbit.json").exists()

    def test_csv_only_format(self, tmp_path):
        assert run_cli(
            "orbit", "--v0", "1.25", "--format", "csv", "--out", str(tmp_path)
        ) == 0
        assert (tmp_path / "orbit.csv").exists()
        assert not (tmp_path / "orbit.json").exists()

    def test_escape_warns_but_succeeds(self, tmp_path, capsys):
        code = run_cli(
            "orbit", "--v0", "2.75", "--k0", "0.36788", "--out", str(tmp_path)
        )
        assert code == 0
        assert "warning" in capsys.readouterr().err
        last = (tmp_path / "orbit.csv").read_text().splitlines()[-1]
        assert last.endswith(",1")

    def test_domain_error_exit_code(self, tmp_path, capsys):
        code = run_cli("orbit", "--v0", "1.0", "--k0", "1.5", "--out", str(tmp_path))
        assert code == 3
        assert "error" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("occupied")
        code = run_cli("orbit", "--v0", "1.0", "--out", str(blocker))
        assert code == 4


class TestUsageErrors:
    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("orbit")
        assert exc.value.code == 2

    # A number parses; its range is the library's to check, so it exits 3.
    def test_nonpositive_count(self, capsys):
        assert run_cli("orbit", "--v0", "1.0", "--n", "0") == 3
        assert capsys.readouterr().err == "error: need at least one iteration, got 0\n"

    def test_nonpositive_jam_density(self, capsys):
        assert run_cli("orbit", "--v0", "1", "--kj", "-1") == 3
        assert capsys.readouterr().err == "error: kj must be finite and positive, got -1.0\n"

    def test_unsupported_format(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("orbit", "--v0", "1.0", "--format", "svg")
        assert exc.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("serve")
        assert exc.value.code == 2


class TestClassifyCommand:
    def test_text_report(self, capsys):
        assert run_cli("classify", "--v0", "2.25") == 0
        out = capsys.readouterr().out
        assert "hyperbolic-source" in out
        assert "-1.25" in out

    def test_json_report(self, capsys):
        assert run_cli("classify", "--v0", "1.25", "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["multiplier"] == -0.25
        assert doc["data"]["classification"] == "hyperbolic-sink"

    def test_underflowing_fixed_point_exits_3(self, capsys):
        assert run_cli("classify", "--v0", "0.001") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "underflows" in captured.err

    def test_tiny_representable_fixed_point_is_reported(self, capsys):
        assert run_cli("classify", "--v0", "0.0015", "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["data"]["k_star"] > 0.0
        assert doc["data"]["classification"] == "hyperbolic-sink"


class TestCobwebCommand:
    def test_writes_a_triptych(self, tmp_path):
        assert run_cli(
            "cobweb", "--v0", "2.25", "--k0", "0.35", "--out", str(tmp_path)
        ) == 0
        ET.parse(tmp_path / "cobweb.svg")

    def test_has_no_format_flag(self, tmp_path):
        # svg is its only format, so there is nothing to choose
        with pytest.raises(SystemExit) as exc:
            run_cli("cobweb", "--v0", "2.25", "--format", "svg", "--out", str(tmp_path))
        assert exc.value.code == 2


class TestDiagramCommand:
    def test_writes_all_formats(self, tmp_path):
        assert run_cli("diagram", "--v0", "2.25", "--out", str(tmp_path)) == 0
        for name in ("diagram.csv", "diagram.json", "diagram.svg"):
            assert (tmp_path / name).exists()

    def test_default_files_keep_their_bytes(self, tmp_path):
        # repro never draws the diagram, so its sha256 table does not hold
        # these bytes
        assert run_cli("diagram", "--out", str(tmp_path)) == 0
        written = {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()
        }
        assert written == {
            "diagram.csv": "f9580585e6f87566e55a31c038de8b293f7b67cbe8d9979e19d5f1f4a7316dad",
            "diagram.json": "522e77506873f65acb37182e3569567ddcc698249412e4e44f3f2fe9ce1417b9",
            "diagram.svg": "b26466d1e19abb3ee85c288827b9a1549b86afdf41f35e71efd2a2d57169dbf2",
        }

    def test_tiny_jam_density_exits_3(self, tmp_path, capsys):
        code = run_cli("diagram", "--v0", "1", "--kj", "1e-320", "--out", str(tmp_path))
        assert code == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert list(tmp_path.iterdir()) == []


class TestOverflowExits3:
    """A flow or velocity that overflows to inf is a domain error, not a traceback."""

    @pytest.mark.parametrize(
        "argv, kind",
        [
            (("diagram", "--v0", "1e308"), "diagram"),
            (("orbit", "--v0", "2.5", "--kj", "1e308", "--k0", "1e307"), "orbit"),
        ],
    )
    def test_json_of_an_overflowed_run(self, argv, kind, tmp_path, capsys):
        assert run_cli(*argv, "--out", str(tmp_path)) == 3
        out, err = capsys.readouterr()
        assert err.splitlines()[-1] == f"error: {kind} document holds a non-finite number"
        # the CSV fails first, as the JSON would: no file is left or reported
        assert "wrote" not in out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, kind",
        [
            # rows such as 0.0001,9.2103403719761842e+304,inf were written
            (("diagram", "--v0", "1e308"), "diagram"),
            # kj / k overflows at the first state: 0,0.25,inf,inf,1 was written
            (("orbit", "--v0", "2.585", "--kj", "1e308"), "orbit"),
        ],
    )
    def test_csv_of_an_overflowed_run(self, argv, kind, tmp_path, capsys):
        assert run_cli(*argv, "--format", "csv", "--out", str(tmp_path)) == 3
        out, err = capsys.readouterr()
        assert err.splitlines()[-1] == f"error: {kind} document holds a non-finite number"
        assert "wrote" not in out
        assert list(tmp_path.iterdir()) == []

    def test_flow_at_the_jam_density_stays_zero_when_v0_kj_overflows(self, tmp_path):
        # k0 = kj/e steps to kj exactly; v0 * kj overflows there, but the flow is 0
        code = run_cli(
            "orbit", "--v0", "2.718281828459045", "--kj", "1e308",
            "--k0", "3.6787944117144236e307", "--n", "5", "--out", str(tmp_path),
        )
        assert code == 0
        rows = (tmp_path / "orbit.csv").read_text().splitlines()
        assert rows[2] == "1,1e+308,0,0,1"
        data = json.loads((tmp_path / "orbit.json").read_text())["data"]
        assert (data["q"], data["escaped"]) == ([1e308, 0.0], 2)

    def test_svg_of_an_overflowed_diagram(self, tmp_path, capsys):
        code = run_cli("diagram", "--v0", "1e308", "--format", "svg", "--out", str(tmp_path))
        assert code == 3
        assert capsys.readouterr().err.startswith("error: cannot draw")
        assert not (tmp_path / "diagram.svg").exists()


class TestAFailedRunLeaves:
    """A failed command discards the regular files it wrote, and nothing else."""

    # the flow overflows: the JSON fails once its file is open
    OVERFLOWED = ("orbit", "--v0", "2.585", "--kj", "1e308", "--k0", "1e307", "--format", "json")

    def test_a_symlink_at_the_failed_document(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("kept")
        link = tmp_path / "out" / "orbit.json"
        link.parent.mkdir()
        link.symlink_to(target)
        assert run_cli(*self.OVERFLOWED, "--out", str(link.parent)) == 3
        # the link stays; its target, which held the partial document, goes
        assert link.is_symlink() and not target.exists()

    def test_a_fifo_at_the_failed_document(self, tmp_path):
        fifo = tmp_path / "orbit.json"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert run_cli(*self.OVERFLOWED, "--out", str(tmp_path)) == 3
        reader.join(timeout=10)
        assert not reader.is_alive() and received == [""]
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_a_file_the_run_never_opened(self, tmp_path):
        # the plot's axis overflows before its file is opened
        earlier = tmp_path / "diagram.svg"
        earlier.write_text("an earlier run's plot")
        code = run_cli("diagram", "--v0", "1e308", "--format", "svg", "--out", str(tmp_path))
        assert code == 3
        assert earlier.read_text() == "an earlier run's plot"

    def test_a_failed_second_document_discards_the_first(self, tmp_path, monkeypatch, capsys):
        # the disk fills up at the JSON's first write, after the CSV is complete
        def open_full_for_json(file, *args, **kwargs):
            out = open(file, *args, **kwargs)
            if str(file).endswith(".json"):
                def write(text):
                    raise OSError(errno.ENOSPC, "No space left on device")

                out.write = write
            return out

        monkeypatch.setattr(emit, "open", open_full_for_json, raising=False)
        assert run_cli("orbit", "--v0", "2.6", "--out", str(tmp_path)) == 4
        out, err = capsys.readouterr()
        assert err.startswith("i/o error: ") and "wrote" not in out
        assert list(tmp_path.iterdir()) == []


class TestBifurcationCommand:
    def test_one_kept_sample_exits_3(self, tmp_path, capsys):
        # one sample has no pair to search a period in, so no label would be true
        code = run_cli(
            "bifurcation", "--v0-min", "1.0", "--v0-max", "1.5", "--steps", "3",
            "--keep", "1", "--out", str(tmp_path),
        )
        assert code == 3
        assert capsys.readouterr().err == (
            "error: need 2 <= n_keep < n_total: a period needs two kept samples, "
            "got keep=1 total=300\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_writes_csv_json_and_both_svg_panels(self, tmp_path):
        code = run_cli(
            "bifurcation", "--v0-min", "2.2", "--v0-max", "2.3", "--steps", "4",
            "--n", "200", "--keep", "10", "--out", str(tmp_path),
        )
        assert code == 0
        for name in (
            "bifurcation.csv",
            "bifurcation.json",
            "bifurcation_k.svg",
            "bifurcation_v.svg",
        ):
            assert (tmp_path / name).exists()

    def test_escaped_points_warn_and_leave_no_rows(self, tmp_path, capsys):
        # both orbits underflow to 0 before the kept window
        code = run_cli(
            "bifurcation", "--v0-min", "0.0005", "--v0-max", "0.0006", "--steps", "2",
            "--n", "2000", "--keep", "60", "--out", str(tmp_path),
        )
        assert code == 0
        assert capsys.readouterr().err == "warning: 2 grid points escaped (0, 1]\n"
        header = "v0,sample_index,k,q,v,detected_period\n"
        assert (tmp_path / "bifurcation.csv").read_text() == header

    def test_range_errors_exit_3(self, tmp_path, capsys):
        code = run_cli(
            "bifurcation", "--v0-min", "2.0", "--v0-max", "2.9",
            "--out", str(tmp_path),
        )
        assert code == 3

    def test_a_write_that_fails_part_way_exits_4_and_leaves_no_file(
        self, tmp_path, monkeypatch, capsys
    ):
        # the disk fills up once the header and the first grid point's rows are written
        written = []

        def open_until_full(*args, **kwargs):
            out = open(*args, **kwargs)

            def write(text):
                if len(written) == 2:
                    raise OSError(errno.ENOSPC, "No space left on device")
                written.append(text)
                return type(out).write(out, text)

            out.write = write
            return out

        monkeypatch.setattr(emit, "open", open_until_full, raising=False)
        code = run_cli(
            "bifurcation", "--v0-min", "2.2", "--v0-max", "2.3", "--steps", "4",
            "--n", "200", "--keep", "10", "--out", str(tmp_path),
        )
        assert code == 4
        out, err = capsys.readouterr()
        assert err.startswith("i/o error: ") and "wrote" not in out
        # the header and the 10 rows of the first grid point went out
        header, rows = written
        assert header == "v0,sample_index,k,q,v,detected_period\n"
        assert rows.startswith("2.2000000000000002,") and rows.count("\n") == 10
        assert list(tmp_path.iterdir()) == []


class TestLyapunovCommand:
    def test_writes_curve_artifacts(self, tmp_path):
        code = run_cli(
            "lyapunov", "--v0-min", "1.2", "--v0-max", "1.4", "--steps", "3",
            "--n", "1000", "--transient", "100", "--out", str(tmp_path),
        )
        assert code == 0
        for name in ("lyapunov.csv", "lyapunov.json", "lyapunov.svg"):
            assert (tmp_path / name).exists()
        doc = json.loads((tmp_path / "lyapunov.json").read_text())
        assert all(lam < 0 for lam in doc["data"]["lambda"])

    def test_accepts_a_zero_transient(self, tmp_path):
        code = run_cli(
            "lyapunov", "--v0-min", "1.2", "--v0-max", "1.4", "--steps", "3",
            "--n", "1000", "--transient", "0", "--format", "json", "--out", str(tmp_path),
        )
        assert code == 0
        doc = json.loads((tmp_path / "lyapunov.json").read_text())
        assert doc["settings"]["n_transient"] == 0

    def test_escaped_points_warn_and_leave_empty_estimates(self, tmp_path, capsys):
        code = run_cli(
            "lyapunov", "--v0-min", "0.0005", "--v0-max", "0.0006", "--steps", "2",
            "--n", "1000", "--transient", "10", "--out", str(tmp_path),
        )
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: 2 grid points have no finite estimate (escaped or superstable orbit)\n"
        )
        rows = (tmp_path / "lyapunov.csv").read_text().splitlines()[1:]
        assert rows == ["0.00050000000000000001,,0,0", "0.00059999999999999995,,0,0"]

    def test_rejects_a_negative_transient(self, tmp_path, capsys):
        assert run_cli("lyapunov", "--transient", "-1", "--out", str(tmp_path)) == 3
        assert capsys.readouterr().err == (
            "error: transient length must be non-negative, got -1\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestSensitivityCommand:
    def test_reports_divergence(self, tmp_path, capsys):
        code = run_cli("sensitivity", "--v0", "2.585", "--out", str(tmp_path))
        assert code == 0
        assert "separation exceeded" in capsys.readouterr().out
        for name in ("sensitivity.csv", "sensitivity.json", "sensitivity.svg"):
            assert (tmp_path / name).exists()

    def test_reports_absence_of_divergence(self, tmp_path, capsys):
        code = run_cli(
            "sensitivity", "--v0", "1.25", "--tolerance", "0.01",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "no divergence" in capsys.readouterr().out


# Small runs of every subcommand that takes a range-checked number. The
# parser checks only that a number is one (exit 2 if not); the library
# function that uses it checks its range (exit 3, one error line, no file).
RANGE_RUNS = {
    "diagram": "diagram --n 50",
    "orbit": "orbit --v0 2.585 --n 50",
    "cobweb": "cobweb --v0 2.585 --n 50",
    "classify": "classify --v0 1",
    "sensitivity": "sensitivity --v0 2.585 --n 50",
    "sensitivity-csv": "sensitivity --v0 2.585 --n 50 --format csv",
    "bifurcation": "bifurcation --v0-min 2.2 --v0-max 2.3 --steps 2 --n 50 --keep 10",
    "bifurcation-csv": (
        "bifurcation --v0-min 2.2 --v0-max 2.3 --steps 2 --n 50 --keep 10 --format csv"
    ),
    "lyapunov": "lyapunov --v0-min 1.2 --v0-max 1.4 --steps 2 --n 1000 --transient 10",
}
# (run, flag, its type, a valid value, the edge values that are in range).
# -inf is left out: argparse reads it as an option.
RANGE_FLAGS = [
    *((run, "--kj", float, "2", ()) for run in ("diagram", "orbit", "cobweb", "sensitivity")),
    ("classify", "--kj", float, "2", ("1e-320",)),
    *((run, "--n", int, "50", ()) for run in ("diagram", "orbit", "cobweb", "sensitivity")),
    ("bifurcation", "--n", int, "40", ()),
    ("lyapunov", "--n", int, "1200", ()),
    *((run, "--v0-min", float, "1.3", ("1e-320",)) for run in ("bifurcation", "lyapunov")),
    *((run, "--v0-max", float, "2.7", ()) for run in ("bifurcation", "lyapunov")),
    *((run, "--steps", int, "3", ()) for run in ("bifurcation", "lyapunov")),
    ("bifurcation", "--keep", int, "20", ()),
    ("lyapunov", "--transient", int, "5", ("0",)),
    *(
        (run, "--tolerance", float, "1e-3", ("1e-320",))
        for run in ("bifurcation", "bifurcation-csv", "sensitivity", "sensitivity-csv")
    ),
]
EDGE_VALUES = ("0", "-1", "nan", "inf", "1e-320", "abc")


def range_cases():
    for run, flag, flag_type, valid, in_range in RANGE_FLAGS:
        for value in (*EDGE_VALUES, valid):
            try:
                flag_type(value)
            except ValueError:
                expected = 2
            else:
                expected = 0 if value == valid or value in in_range else 3
            yield pytest.param(run, flag, value, expected, id=f"{run} {flag} {value}")


def exit_code(*argv):
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("run, flag, value, expected", range_cases())
def test_the_library_decides_every_range(run, flag, value, expected, tmp_path, capsys):
    argv = [*RANGE_RUNS[run].split(), flag, value]
    if run != "classify":
        argv += ["--out", str(tmp_path)]
    assert exit_code(*argv) == expected
    if expected == 3:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, echoed",
    [
        (
            ["bifurcation", "--v0-min", "2.2", "--v0-max", "2.3", "--steps", "3",
             "--n", "50", "--keep", "10", "--tolerance", "1e-3"],
            {"n_total": 50, "n_keep": 10, "tolerance": 1e-3},
        ),
        (
            ["lyapunov", "--v0-min", "1.2", "--v0-max", "1.4", "--steps", "3",
             "--n", "1000", "--transient", "7"],
            {"n": 1000, "n_transient": 7},
        ),
        (
            ["sensitivity", "--v0", "2.585", "--n", "40", "--tolerance", "0.02"],
            {"n": 40, "threshold": 0.02},
        ),
    ],
)
def test_flags_reach_the_library_under_its_parameter_names(argv, echoed, tmp_path):
    # --n, --keep, --transient and --tolerance store under the library's names
    assert run_cli(*argv, "--format", "json", "--out", str(tmp_path)) == 0
    settings = json.loads((tmp_path / f"{argv[0]}.json").read_text())["settings"]
    assert {name: settings[name] for name in echoed} == echoed


@pytest.fixture(scope="class")
def repro_out(tmp_path_factory):
    """One `repro --out out` run from a fresh directory, as the sha256 table was made."""
    root = tmp_path_factory.mktemp("repro")
    cwd = os.getcwd()
    os.chdir(root)
    try:
        assert run_cli("repro", "--out", "out") == 0
    finally:
        os.chdir(cwd)
    return root / "out"


class TestReproCommand:
    def test_writes_every_experiment_and_the_manifest(self, repro_out):
        manifest = json.loads((repro_out / "manifest.json").read_text())
        names = [e["name"] for e in manifest["experiments"]]
        assert names == [
            "free_flow_sink",
            "congested_sink",
            "damped_cycle",
            "two_cycle",
            "four_cycle",
            "eight_cycle",
            "chaotic_a",
            "chaotic_b",
            "sensitivity",
            "bifurcation_scan",
            "lyapunov_curve",
        ]
        for experiment in manifest["experiments"]:
            for path in experiment["files"]:
                assert (repro_out / path.split("/")[-1]).exists()

    def test_artifacts_match_the_recorded_sha256(self, repro_out):
        # perfbench/repro_sha256.json is the benchmark's record of every
        # artifact byte; read only, never rewritten here
        recorded = json.loads(REPRO_SHA256.read_text())
        written = {p.name: p for p in repro_out.iterdir()}
        assert sorted(written) == sorted(recorded)
        changed = [
            name
            for name, digest in recorded.items()
            if hashlib.sha256(written[name].read_bytes()).hexdigest() != digest
        ]
        assert changed == []

    def test_subcommands_rebuild_chaotic_b_and_sensitivity(
        self, repro_out, tmp_path, monkeypatch
    ):
        calls = {}

        def recorded(name, fn):
            def wrapper(*args, **kwargs):
                calls.setdefault(name, []).append((args, kwargs))
                return fn(*args, **kwargs)

            return wrapper

        for name in ("iterate", "sensitivity_experiment"):
            monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
        out = str(tmp_path)
        assert run_cli("orbit", "--v0", "2.585", "--k0", "0.101", "--out", out) == 0
        assert run_cli("cobweb", "--v0", "2.585", "--k0", "0.101", "--out", out) == 0
        assert run_cli("sensitivity", "--v0", "2.585", "--k0", "0.1", "--out", out) == 0
        for mine, theirs in [
            ("orbit.csv", "chaotic_b_orbit.csv"),
            ("orbit.json", "chaotic_b_orbit.json"),
            ("cobweb.svg", "chaotic_b_cobweb.svg"),
            ("sensitivity.csv", "sensitivity.csv"),
            ("sensitivity.json", "sensitivity.json"),
            ("sensitivity.svg", "sensitivity.svg"),
        ]:
            assert (tmp_path / mine).read_bytes() == (repro_out / theirs).read_bytes(), mine
        manifest = json.loads((repro_out / "manifest.json").read_text())
        settings = {e["name"]: e["settings"] for e in manifest["experiments"]}
        # the manifest records what the library was called with, not the artifact echo
        assert len(calls["iterate"]) == 2
        for (k0, p, n), kwargs in calls["iterate"]:
            assert kwargs == {}
            assert settings["chaotic_b"] == {"v0": p.v0, "kj": p.kj, "k0": k0, "n": n}
        [((k0, delta, p), kwargs)] = calls["sensitivity_experiment"]
        assert settings["sensitivity"] == {
            "v0": p.v0, "kj": p.kj, "k0": k0, "delta": delta, **kwargs
        }
        assert set(kwargs) == {"n", "threshold"}


class TestSharedParser:
    """Every call in a process parses with one parser; no call leaks into the next."""

    ORBIT = ("orbit", "--v0", "2.585", "--k0", "0.101")

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_a_format_does_not_carry_over(self, tmp_path):
        assert run_cli(*self.ORBIT, "--format", "csv", "--out", str(tmp_path / "a")) == 0
        assert run_cli(*self.ORBIT, "--out", str(tmp_path / "b")) == 0
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == ["orbit.csv", "orbit.json"]

    def test_the_repro_prefix_does_not_carry_over(self, repro_out, tmp_path):
        # repro_out has run `repro`, which names its orbit files after the experiment
        assert run_cli(*self.ORBIT, "--out", str(tmp_path / "c")) == 0
        assert sorted(p.name for p in (tmp_path / "c").iterdir()) == ["orbit.csv", "orbit.json"]
        written = tmp_path / "c" / "orbit.csv"
        assert written.read_bytes() == (repro_out / "chaotic_b_orbit.csv").read_bytes()

    def test_a_usage_error_leaves_the_next_call_unchanged(self, tmp_path, capsys):
        assert run_cli(*self.ORBIT, "--out", str(tmp_path / "before")) == 0
        with pytest.raises(SystemExit) as exc:
            run_cli("orbit")
        assert exc.value.code == 2
        assert "--v0" in capsys.readouterr().err
        assert run_cli(*self.ORBIT, "--out", str(tmp_path / "after")) == 0
        for name in ("orbit.csv", "orbit.json"):
            after = (tmp_path / "after" / name).read_bytes()
            assert after == (tmp_path / "before" / name).read_bytes(), name


def test_every_traced_site_resolves():
    # perfbench/tracing.py wraps these (module, attribute) bindings by name,
    # and the benchmark's worker builds its Tracer from them on every run; the
    # file is read here, never written
    tracing = runpy.run_path(str(PERFBENCH / "tracing.py"))
    sites = tracing["SITES"]
    assert sites
    modules = {name: importlib.import_module(f"greenberg_dynamics.{name}") for name, *_ in sites}
    bound = {}
    for module, attr, _, _ in sites:
        bound[module, attr] = getattr(modules[module], attr, None)
        assert callable(bound[module, attr]), f"{module}.{attr}"
    tracer = tracing["Tracer"](modules)
    tracer.install("guard")
    tracer.uninstall()
    assert {site: getattr(modules[site[0]], site[1]) for site in bound} == bound
