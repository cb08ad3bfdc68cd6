"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import json
import os
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from greenberg_dynamics.cli import main

REPRO_SHA256 = Path(__file__).resolve().parents[1] / "perfbench" / "repro_sha256.json"

# Exit codes are asserted literally: 0 success, 2 usage, 3 domain, 4 I/O.


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

    def test_nonpositive_count(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("orbit", "--v0", "1.0", "--n", "0")
        assert exc.value.code == 2

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


class TestDiagramCommand:
    def test_writes_all_formats(self, tmp_path):
        assert run_cli("diagram", "--v0", "2.25", "--out", str(tmp_path)) == 0
        for name in ("diagram.csv", "diagram.json", "diagram.svg"):
            assert (tmp_path / name).exists()


class TestBifurcationCommand:
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

    def test_range_errors_exit_3(self, tmp_path, capsys):
        code = run_cli(
            "bifurcation", "--v0-min", "2.0", "--v0-max", "2.9",
            "--out", str(tmp_path),
        )
        assert code == 3


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
