"""Output checks for the benchmark, independent of the package under test.

Nothing here imports ``greenberg_dynamics``. The map is re-derived as a plain
loop, ``k = v0 * k * math.log(kj / k)``, in the same operation order as
``model.flow_of_density``, so retained densities are compared bit for bit.
Lyapunov exponents are compared to 1e-9 relative, so a change of summation
order (``math.fsum``) is not a failure. Defaults that the CLI applies when a
flag is absent are restated here as the CLI documents them.

``check`` returns a list of problems (empty when the invocation's output is
correct) and, for ``repro``, the number of artifacts whose sha256 differs
from the table recorded in ``repro_sha256.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import xml.etree.ElementTree as ET
from pathlib import Path

from workloads import flag

KJ = 1.0
SINGULARITY_FLOOR = 1e-300
LAMBDA_REL_TOL = 1e-9
PERIOD_TOLERANCE = 1e-6
MAX_PERIOD = 64
SENSITIVITY_DELTA = 1e-3
SENSITIVITY_THRESHOLD = 0.1
# Sampled grid points re-derived by the oracle per sweep artifact. CSV/JSON
# agreement and the grid itself are checked at every point.
SCAN_SAMPLE = 100
LYAPUNOV_SAMPLE = 12
# Above this size an SVG gets structural checks instead of a full XML parse,
# which costs about 0.14 s per bifurcation plot.
SVG_PARSE_LIMIT = 1_000_000

SHA_TABLE = Path(__file__).with_name("repro_sha256.json")

# The reference experiments of `greenberg-dyn repro`, as the README states them.
REPRO_ORBITS = (
    ("free_flow_sink", 0.25, 0.25),
    ("congested_sink", 1.25, 0.1),
    ("damped_cycle", 1.75, 0.1),
    ("two_cycle", 2.25, 0.35),
    ("four_cycle", 2.405, 0.275),
    ("eight_cycle", 2.48, 0.23),
    ("chaotic_a", 2.585, 0.1),
    ("chaotic_b", 2.585, 0.101),
)
REPRO_N = 300
REPRO_SCAN = (0.05, 2.7, 1000, 0.25, 300, 60)
REPRO_LYAPUNOV = (0.05, 2.7, 200, 0.25, 10_000, 1_000)


class Problems(list):
    """Messages of the checks that failed."""

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.append(message)
        return ok


def flow(k: float, v0: float) -> float:
    if k == 0.0 or k == KJ:
        return 0.0
    return v0 * k * math.log(KJ / k)


def velocity(k: float, v0: float) -> float:
    return v0 * math.log(KJ / k)


def orbit(k0: float, v0: float, n: int) -> tuple[list[float], bool]:
    """In-domain densities k0..kn and whether an iterate left (0, kj]."""
    ks = [k0]
    k = k0
    for _ in range(n):
        k = flow(k, v0)
        if not (0.0 < k <= KJ):
            return ks, True
        ks.append(k)
    return ks, False


def attractor_tail(k0: float, v0: float, n_total: int, n_keep: int) -> tuple[list[float], bool]:
    k = k0
    tail = []
    for i in range(n_total):
        k = flow(k, v0)
        if not (0.0 < k <= KJ):
            return tail, True
        if i >= n_total - n_keep:
            tail.append(k)
    return tail, False


def period(tail: list[float], tolerance: float, max_period: int) -> int | None:
    n = len(tail)
    for p in range(1, max_period + 1):
        if all(abs(tail[i + p] - tail[i]) < tolerance for i in range(n - p)):
            return p
    return None


def lyapunov(k0: float, v0: float, n: int, n_transient: int) -> tuple[float | None, int, int]:
    """(estimate or None, terms used, terms skipped); (None, 0, 0) on escape."""
    k = k0
    for _ in range(n_transient):
        k = flow(k, v0)
        if not (0.0 < k <= KJ):
            return None, 0, 0
    acc = 0.0
    skipped = 0
    for j in range(n):
        slope = v0 * (math.log(KJ / k) - 1.0)
        if abs(slope) < SINGULARITY_FLOOR:
            skipped += 1
        else:
            acc += math.log(abs(slope))
        if j < n - 1:
            k = flow(k, v0)
            if not (0.0 < k <= KJ):
                return None, 0, 0
    used = n - skipped
    if used == 0:
        return None, 0, skipped
    return acc / used, used, skipped


def _csv(path: Path, header: str, problems: Problems) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    problems.expect(bool(lines) and lines[0] == header, f"{path.name}: header is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _json(path: Path, kind: str, settings: dict, problems: Problems) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    problems.expect(doc.get("kind") == kind, f"{path.name}: kind is not {kind!r}")
    problems.expect(
        doc.get("settings") == settings,
        f"{path.name}: settings {doc.get('settings')} do not echo {settings}",
    )
    return doc["data"]


def _floats(rows: list[list[str]], column: int) -> list[float]:
    return [float(r[column]) for r in rows]


def _svg(path: Path, settings: dict, problems: Problems, circles: int | None = None) -> None:
    text = path.read_text(encoding="utf-8")
    if len(text) <= SVG_PARSE_LIMIT:
        try:
            ET.fromstring(text)
        except ET.ParseError as exc:
            problems.append(f"{path.name}: not well-formed XML ({exc})")
            return
    problems.expect(
        text.startswith("<?xml") and text.endswith("</svg>\n"), f"{path.name}: truncated SVG"
    )
    start = text.find("<desc>settings: ")
    end = text.find("</desc>", start)
    if problems.expect(start >= 0 and end > start, f"{path.name}: no settings"):
        raw = text[start + len("<desc>settings: "):end]
        raw = raw.replace("&lt;", "<").replace("&gt;", ">").replace("&amp;", "&")
        problems.expect(json.loads(raw) == settings, f"{path.name}: settings do not echo inputs")
    if circles is not None:
        found = text.count("<circle ")
        problems.expect(found == circles, f"{path.name}: {found} markers, expected {circles}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


def _check_grid(v0s: list[float], v0_min: float, v0_max: float, steps: int, problems: Problems) -> bool:
    """Grid values within 1e-12 of the linear grid, exact at v0_min; False if not."""
    if not problems.expect(len(v0s) == steps, f"grid has {len(v0s)} points, expected {steps}"):
        return False
    width = v0_max - v0_min
    expected = [v0_min + i * width / (steps - 1) for i in range(steps)] if steps > 1 else [v0_min]
    return all([
        problems.expect(v0s[0] == v0_min, "grid does not start at v0_min"),
        problems.expect(all(map(_close, v0s, expected)), "grid departs from the linear grid"),
        problems.expect(all(a < b for a, b in zip(v0s, v0s[1:])), "grid is not increasing"),
    ])


def check_orbit(out: Path, stem: str, v0: float, k0: float, n: int, problems: Problems) -> None:
    ks, escaped = orbit(k0, v0, n)
    settings = {"v0": v0, "kj": KJ, "k0": k0, "n": n}
    rows = _csv(out / f"{stem}.csv", "i,k,q,v,escaped", problems)
    if not problems.expect(len(rows) == len(ks), f"{stem}.csv: {len(rows)} rows, expected {len(ks)}"):
        return
    csv_k = _floats(rows, 1)
    problems.expect(csv_k == ks, f"{stem}.csv: densities differ from the oracle")
    problems.expect(_floats(rows, 2) == [flow(k, v0) for k in ks], f"{stem}.csv: flows differ")
    problems.expect(_floats(rows, 3) == [velocity(k, v0) for k in ks], f"{stem}.csv: velocities differ")
    problems.expect([r[0] for r in rows] == [str(i) for i in range(len(ks))], f"{stem}.csv: bad index")
    flags = [r[4] for r in rows]
    problems.expect(
        flags == [""] * (len(ks) - 1) + ["1" if escaped else "0"], f"{stem}.csv: bad escape flag"
    )
    data = _json(out / f"{stem}.json", "orbit", settings, problems)
    problems.expect(data["k"] == csv_k, f"{stem}.json: densities differ from CSV")
    problems.expect(data["q"] == _floats(rows, 2), f"{stem}.json: flows differ from CSV")
    problems.expect(data["v"] == _floats(rows, 3), f"{stem}.json: velocities differ from CSV")
    problems.expect(data["escaped"] == (len(ks) if escaped else None), f"{stem}.json: bad escape")


def check_cobweb(path: Path, v0: float, k0: float, n: int, problems: Problems) -> None:
    ks, _ = orbit(k0, v0, n)
    # One marker per state on each velocity panel, plus k0 and the fixed point.
    _svg(path, {"v0": v0, "kj": KJ, "k0": k0, "n": n}, problems, circles=2 * len(ks) + 2)


def check_sensitivity(
    out: Path, v0: float, k0: float, delta: float, n: int, threshold: float, problems: Problems
) -> None:
    a, _ = orbit(k0, v0, n)
    b, _ = orbit(k0 + delta, v0, n)
    m = min(len(a), len(b))
    sep = [abs(a[i] - b[i]) for i in range(m)]
    rows = _csv(out / "sensitivity.csv", "i,k_a,k_b,separation", problems)
    if not problems.expect(len(rows) == m, f"sensitivity.csv: {len(rows)} rows, expected {m}"):
        return
    problems.expect(_floats(rows, 1) == a[:m], "sensitivity.csv: orbit a differs from the oracle")
    problems.expect(_floats(rows, 2) == b[:m], "sensitivity.csv: orbit b differs from the oracle")
    problems.expect(_floats(rows, 3) == sep, "sensitivity.csv: separation differs")
    doc = json.loads((out / "sensitivity.json").read_text(encoding="utf-8"))
    settings = doc["settings"]
    # The package echoes delta as (k0 + delta) - k0, which may differ by rounding.
    echoed = settings.get("delta")
    problems.expect(echoed in (delta, (k0 + delta) - k0), f"sensitivity.json: delta echo {echoed}")
    expected = {"v0": v0, "kj": KJ, "k0": k0, "delta": echoed, "n": n, "threshold": threshold}
    problems.expect(settings == expected, f"sensitivity.json: settings {settings} do not echo inputs")
    data = doc["data"]
    problems.expect(data["k_a"] == a[:m] and data["k_b"] == b[:m], "sensitivity.json: orbits differ")
    problems.expect(data["separation"] == sep, "sensitivity.json: separation differs")
    first = next((i for i, s in enumerate(sep) if s > threshold), None)
    problems.expect(data["first_divergence_index"] == first, "sensitivity.json: bad divergence index")
    _svg(out / "sensitivity.svg", expected, problems)


def check_classify(stdout: str, v0: float, problems: Problems) -> None:
    doc = json.loads(stdout)
    problems.expect(doc.get("settings") == {"v0": v0, "kj": KJ}, "classify: settings do not echo inputs")
    data = doc["data"]
    problems.expect(data["k_star"] == KJ * math.exp(-1.0 / v0), "classify: k_star is not exp(-1/v0)")
    problems.expect(data["multiplier"] == 1.0 - v0, "classify: multiplier is not 1 - v0")
    label = "hyperbolic-sink" if v0 < 2.0 else "center" if v0 == 2.0 else "hyperbolic-source"
    problems.expect(data["classification"] == label, f"classify: label is not {label}")
    problems.expect(data["exponentially_stable"] == (v0 < 1.0), "classify: bad stability flag")


def check_scan(
    out: Path, v0_min: float, v0_max: float, steps: int, k0: float, n_total: int, n_keep: int,
    rng: random.Random, problems: Problems,
) -> None:
    doc = json.loads((out / "bifurcation.json").read_text(encoding="utf-8"))
    problems.expect(doc.get("kind") == "bifurcation-scan", "bifurcation.json: bad kind")
    data, settings = doc["data"], doc["settings"]
    v0s = data["v0"]
    if not _check_grid(v0s, v0_min, v0_max, steps, problems):
        return
    expected = {
        "v0_min": v0_min, "v0_max": v0s[-1], "steps": steps, "k0": k0, "n_total": n_total,
        "n_keep": n_keep, "tolerance": PERIOD_TOLERANCE, "max_period": MAX_PERIOD,
    }
    problems.expect(_close(settings.get("v0_max", 0.0), v0_max), "bifurcation.json: v0_max echo")
    problems.expect(settings == expected, f"bifurcation.json: settings {settings} do not echo inputs")
    problems.expect(data["k0"] == [k0] * steps, "bifurcation.json: k0 column does not echo k0")

    rows = _csv(out / "bifurcation.csv", "v0,sample_index,k,q,v,detected_period", problems)
    json_rows = [
        (v0, j, k, q, v, 0 if p is None else p)
        for v0, ks, qs, vs, p in zip(v0s, data["k"], data["q"], data["v"], data["detected_period"])
        for j, (k, q, v) in enumerate(zip(ks, qs, vs))
    ]
    csv_rows = [
        (float(r[0]), int(r[1]), float(r[2]), float(r[3]), float(r[4]), int(r[5])) for r in rows
    ]
    problems.expect(csv_rows == json_rows, "bifurcation.csv and .json carry different numbers")

    for i in sorted(rng.sample(range(steps), min(SCAN_SAMPLE, steps))):
        v0 = v0s[i]
        tail, escaped = attractor_tail(k0, v0, n_total, n_keep)
        problems.expect(data["escaped"][i] == escaped, f"bifurcation: escape flag at v0={v0}")
        if not problems.expect(data["k"][i] == tail, f"bifurcation: densities differ at v0={v0}"):
            continue
        problems.expect(data["q"][i] == [flow(k, v0) for k in tail], f"bifurcation: flows at v0={v0}")
        problems.expect(data["v"][i] == [velocity(k, v0) for k in tail], f"bifurcation: v at v0={v0}")
        cap = min(MAX_PERIOD, len(tail) // 2)
        want = period(tail, PERIOD_TOLERANCE, cap) if cap >= 1 else None
        problems.expect(data["detected_period"][i] == want, f"bifurcation: period at v0={v0}")

    samples = sum(len(ks) for ks in data["k"])
    for field in ("k", "v"):
        _svg(out / f"bifurcation_{field}.svg", expected, problems, circles=samples)


def check_lyapunov(
    out: Path, v0_min: float, v0_max: float, steps: int, k0: float, n: int, n_transient: int,
    rng: random.Random, problems: Problems,
) -> None:
    doc = json.loads((out / "lyapunov.json").read_text(encoding="utf-8"))
    problems.expect(doc.get("kind") == "lyapunov-curve", "lyapunov.json: bad kind")
    data, settings = doc["data"], doc["settings"]
    v0s = data["v0"]
    if not _check_grid(v0s, v0_min, v0_max, steps, problems):
        return
    expected = {
        "v0_min": v0_min, "v0_max": v0s[-1], "steps": steps, "k0": k0, "n": n,
        "n_transient": n_transient,
    }
    problems.expect(settings == expected, f"lyapunov.json: settings {settings} do not echo inputs")
    rows = _csv(out / "lyapunov.csv", "v0,lambda,n_terms,skipped_terms", problems)
    csv_rows = [(float(r[0]), None if r[1] == "" else float(r[1]), int(r[2]), int(r[3])) for r in rows]
    json_rows = list(zip(v0s, data["lambda"], data["n_terms"], data["skipped_terms"]))
    problems.expect(csv_rows == json_rows, "lyapunov.csv and .json carry different numbers")
    for i in sorted(rng.sample(range(steps), min(LYAPUNOV_SAMPLE, steps))):
        v0 = v0s[i]
        lam, used, skipped = lyapunov(k0, v0, n, n_transient)
        got = data["lambda"][i]
        same = got is None if lam is None else (
            got is not None and abs(got - lam) <= LAMBDA_REL_TOL * abs(lam) + 1e-15
        )
        problems.expect(same, f"lyapunov: lambda {got} at v0={v0}, oracle {lam}")
        problems.expect(
            (data["n_terms"][i], data["skipped_terms"][i]) == (used, skipped),
            f"lyapunov: term counts at v0={v0}",
        )
    _svg(out / "lyapunov.svg", expected, problems)


def artifacts_changed(out: Path) -> int:
    """Artifacts whose sha256 differs from the recorded table (missing or extra count too)."""
    table = json.loads(SHA_TABLE.read_text(encoding="utf-8"))
    present = {p.name for p in out.iterdir()}
    changed = 0
    for name in present | set(table):
        path = out / name
        digest = hashlib.sha256(path.read_bytes()).hexdigest() if name in present else None
        changed += digest != table.get(name)
    return changed


def check_repro(out: Path, rng: random.Random, problems: Problems) -> None:
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    listed = [Path(f) for e in manifest["experiments"] for f in e["files"]]
    problems.expect(
        all(p.parent == out.relative_to(out.parent) for p in listed),
        "manifest lists files outside the output directory",
    )
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    problems.expect(
        sorted(p.name for p in listed) == sorted(written),
        f"manifest does not list every file written: {sorted(written ^ {p.name for p in listed})}",
    )
    settings = {e["name"]: e["settings"] for e in manifest["experiments"]}
    for name, v0, k0 in REPRO_ORBITS:
        problems.expect(
            settings.get(name) == {"v0": v0, "kj": KJ, "k0": k0, "n": REPRO_N},
            f"manifest: settings of {name}",
        )
        check_orbit(out, f"{name}_orbit", v0, k0, REPRO_N, problems)
        check_cobweb(out / f"{name}_cobweb.svg", v0, k0, REPRO_N, problems)
    check_sensitivity(
        out, 2.585, 0.1, SENSITIVITY_DELTA, REPRO_N, SENSITIVITY_THRESHOLD, problems
    )
    check_scan(out, *REPRO_SCAN, rng, problems)
    check_lyapunov(out, *REPRO_LYAPUNOV, rng, problems)


def check(argv: list[str], op_dir: Path, stdout: str, stderr: str, rng: random.Random) -> tuple[list[str], int]:
    """Check one invocation's outputs; returns (problems, artifacts changed)."""
    problems = Problems()
    problems.expect(stderr == "", f"unexpected stderr: {stderr.strip()[:200]}")
    out = op_dir / flag(argv, "--out") if "--out" in argv else op_dir
    changed = 0
    cmd = argv[0]
    try:
        if cmd == "repro":
            # Bytes identical to the recorded set, which passes check_repro (see
            # selftest.py), are correct; any change gets the full check.
            changed = artifacts_changed(out)
            if changed:
                check_repro(out, rng, problems)
            return problems, changed
        v0 = float(flag(argv, "--v0") or "nan")
        k0 = float(flag(argv, "--k0") or "nan")
        n = int(flag(argv, "--n") or 0)
        if cmd == "orbit":
            check_orbit(out, "orbit", v0, k0, n, problems)
        elif cmd == "cobweb":
            check_cobweb(out / "cobweb.svg", v0, k0, n, problems)
        elif cmd == "sensitivity":
            check_sensitivity(out, v0, k0, SENSITIVITY_DELTA, n, SENSITIVITY_THRESHOLD, problems)
        elif cmd == "classify":
            check_classify(stdout, v0, problems)
        elif cmd == "bifurcation":
            check_scan(
                out, float(flag(argv, "--v0-min")), float(flag(argv, "--v0-max")),
                int(flag(argv, "--steps")), k0, n, int(flag(argv, "--keep")), rng, problems,
            )
        elif cmd == "lyapunov":
            check_lyapunov(
                out, float(flag(argv, "--v0-min")), float(flag(argv, "--v0-max")),
                int(flag(argv, "--steps")), k0, n, int(flag(argv, "--transient")), rng, problems,
            )
        else:
            problems.append(f"no check for subcommand {cmd!r}")
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"{cmd}: unreadable output ({type(exc).__name__}: {exc})")
    return problems, changed
