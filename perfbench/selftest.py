"""Self-test of the benchmark at tiny sizes: python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is printed with its unit,
traced and untraced; that the artifacts recorded in repro_sha256.json pass
the full oracle, so that a byte-identical repro may skip it; that corrupting
one byte of one artifact is counted in fail_rate and, on repro, in
artifacts_changed; and that the seed fixes the argv exactly and changes
values but never sizes. Takes about a minute, most of it the full-size repro
runs (repro has fixed inputs).
"""

from __future__ import annotations

import itertools
import json
import random
import shutil
import subprocess
import sys

import oracle
import run
import workloads

SIZE_FLAGS = ("--steps", "--n", "--keep", "--transient")


def _first(workload: str, seed: int, count: int = 5) -> list:
    return list(itertools.islice(workloads.reps(workload, seed), count))


def check_seeds() -> None:
    for name in workloads.WORKLOADS:
        assert _first(name, 7) == _first(name, 7), f"{name}: same seed, different argv"
        a, b = _first(name, 7), _first(name, 8)
        for rep_a, rep_b in zip(a, b):
            assert len(rep_a) == len(rep_b)
            for argv_a, argv_b in zip(rep_a, rep_b):
                # argv is a subcommand followed by flag/value pairs.
                assert argv_a[0] == argv_b[0] and argv_a[1::2] == argv_b[1::2], f"{name}: flags"
                for size in SIZE_FLAGS:
                    assert workloads.flag(argv_a, size) == workloads.flag(argv_b, size), size
        assert name == "repro" or a != b, f"{name}: a new seed changed no value"


def check_reference_artifacts() -> None:
    work = run.ROOT / run.WORK_DIR / "selftest-repro"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    subprocess.run(
        [sys.executable, "-m", "greenberg_dynamics.cli", "repro", "--out", workloads.OUT],
        cwd=work, env=run.child_env(), check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    out = work / workloads.OUT
    assert oracle.artifacts_changed(out) == 0, "repro differs from repro_sha256.json"
    problems = oracle.Problems()
    oracle.check_repro(out, random.Random(0), problems)
    assert not problems, problems
    shutil.rmtree(work)


def _corrupting(check, filename: str):
    """Wrap oracle.check so the first CSV named ``filename`` gets one digit changed."""
    done = []

    def wrapped(argv, op_dir, stdout, stderr, rng):
        path = op_dir / workloads.OUT / filename
        if not done and path.exists():
            data = bytearray(path.read_bytes())
            # The first decimal of the density in the first data row ("0,0.d...").
            i = data.index(b",", data.index(b"\n")) + 3
            data[i] = ord("1") if data[i] != ord("1") else ord("2")
            path.write_bytes(bytes(data))
            done.append(path)
        return check(argv, op_dir, stdout, stderr, rng)

    return wrapped


def check_run(workload: str, trace: bool, declared: dict, corrupt: str | None = None) -> dict:
    lines: list[str] = []
    original = oracle.check
    if corrupt:
        oracle.check = _corrupting(original, corrupt)
    try:
        result = run.measure(workload, 7, 0.2, trace, workloads.TINY, log=lines.append)
    finally:
        oracle.check = original
    want = declared["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in want], f"{workload}: metric names"
    for metric in want:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"], f"{metric['name']}: unit"
        assert any(
            line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
            for line in lines
        ), f"{metric['name']} not printed with its unit"
    assert any(line.split()[:1] == ["fail_rate"] for line in lines), "fail_rate not printed"
    if workload == "repro" and not trace:
        assert any(line.split()[:1] == ["artifacts_changed"] for line in lines)
    return result


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_seeds()
    check_reference_artifacts()
    for name in ("lyapunov", "bifurcation", "orbits"):
        for trace in (False, True):
            result = check_run(name, trace, declared)
            assert result["failed"] == 0, f"{name}: unexpected failures"
    result = check_run("orbits", False, declared, corrupt="orbit.csv")
    assert result["failed"] == 1 and result["info"]["fail_rate"] == 1 / result["attempted"]
    result = check_run("repro", False, declared, corrupt="two_cycle_orbit.csv")
    assert result["failed"] == 1 and result["info"]["artifacts_changed"] == 1, result
    result = check_run("repro", True, declared)
    assert result["failed"] == 0 and result["metrics"]["repro.artifacts_changed"]["value"] == 0
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
