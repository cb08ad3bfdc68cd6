"""Acceptance gate: one check per criterion, each at its stated tolerance.

Every test prints a single "[criterion NN] name: PASS/FAIL" line (visible
with ``pytest -s``) before asserting. The decay-certificate criterion (13)
holds the certificate the toolkit issues against the orbits it is issued
for.
"""

import csv
import io
import json
import math

import pytest

from greenberg_dynamics.analysis import (
    bifurcation_scan,
    classify_fixed_point,
    exponential_stability_check,
    lyapunov_curve,
    lyapunov_exponent,
)
from greenberg_dynamics.dynamics import iterate, sensitivity_experiment
from greenberg_dynamics.emit import (
    DiagramPayload,
    PlotSpec,
    render_svg,
    write_csv,
    write_json,
)
from greenberg_dynamics.model import TrafficParams, diagram_samples, flow_of_density


def _verdict(num: int, name: str, ok: bool) -> None:
    print(f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def _close_sets(got, want, tol) -> bool:
    got, want = sorted(got), sorted(want)
    return len(got) == len(want) and all(
        abs(a - b) < tol for a, b in zip(got, want)
    )


def test_criterion_01_free_flow_sink():
    orbit = iterate(0.25, TrafficParams(v0=0.25), 300)
    final = orbit.states[-1]
    ok = abs(final.k - math.exp(-4.0)) < 1e-3 and abs(final.v - 1.0) < 1e-3
    _verdict(1, "stable sink, empty-road regime", ok)


def test_criterion_02_congested_sink():
    orbit = iterate(0.1, TrafficParams(v0=1.25), 300)
    final = orbit.states[-1]
    ok = abs(final.k - 0.4493) < 1e-3 and abs(final.v - 1.0) < 1e-3
    _verdict(2, "stable sink, congested regime", ok)


def test_criterion_03_damped_oscillation():
    k_star = math.exp(-1.0 / 1.75)
    orbit = iterate(0.1, TrafficParams(v0=1.75), 300)
    deviations = [k - k_star for k in orbit.densities]
    converged = abs(deviations[-1]) < 1e-9

    # once inside the linear regime the multiplier -0.75 flips the sign
    # of the deviation on every step until it hits the noise floor
    start = next(i for i, d in enumerate(deviations) if abs(d) < 0.05)
    alternating = True
    for a, b in zip(deviations[start:], deviations[start + 1 :]):
        if abs(b) < 1e-9:
            break
        alternating = alternating and (a * b < 0.0)

    scan = bifurcation_scan(1.75, 1.75, 1, k0=0.1, n_total=300, n_keep=60)
    ok = converged and alternating and scan.detected_periods == (1,)
    _verdict(3, "damped oscillation onto the sink", ok)


def test_criterion_04_two_cycle():
    scan = bifurcation_scan(2.25, 2.25, 1, k0=0.35, n_total=2000, n_keep=200)
    states = scan.samples[0]
    ok = (
        scan.detected_periods == (2,)
        and _close_sets([s.k for s in states[-2:]], [0.3533, 0.8271], 1e-3)
        and _close_sets([s.v for s in states[-2:]], [2.3409, 0.4272], 1e-3)
    )
    _verdict(4, "2-cycle densities and velocities", ok)


def test_criterion_05_four_cycle():
    scan = bifurcation_scan(2.405, 2.405, 1, k0=0.275, n_total=2000, n_keep=200)
    states = scan.samples[0]
    ok = (
        scan.detected_periods == (4,)
        and _close_sets(
            [s.k for s in states[-4:]], [0.8496, 0.3330, 0.8806, 0.2692], 1e-3
        )
        and _close_sets(
            [s.v for s in states[-4:]], [3.1560, 0.3919, 2.6446, 0.3057], 1e-3
        )
    )
    _verdict(5, "4-cycle densities and velocities", ok)


def test_criterion_06_eight_cycle():
    scan = bifurcation_scan(2.48, 2.48, 1, k0=0.23, n_total=20000, n_keep=200)
    states = scan.samples[0]
    listed = [0.8094, 0.4244, 0.9021, 0.2305, 0.8389, 0.3654, 0.9123, 0.2076]
    ok = scan.detected_periods == (8,) and _close_sets(
        [s.k for s in states[-8:]], listed, 2e-3
    )
    _verdict(6, "8-cycle densities", ok)


def test_criterion_07_period_doubling_threshold():
    below = bifurcation_scan(1.99, 1.99, 1, n_total=200_000, n_keep=200)
    above = bifurcation_scan(2.01, 2.01, 1, n_total=200_000, n_keep=200)
    report = classify_fixed_point(TrafficParams(v0=2.0))
    ok = (
        below.detected_periods == (1,)
        and above.detected_periods == (2,)
        and report.multiplier == -1.0
    )
    _verdict(7, "period doubling between 1.99 and 2.01", ok)


def test_criterion_08_four_cycle_window():
    scan = bifurcation_scan(2.400, 2.435, 10, n_total=50_000, n_keep=200)
    ok = scan.detected_periods == (4,) * 10
    _verdict(8, "period 4 across the window grid", ok)


def test_criterion_09_sensitivity_to_initial_conditions():
    chaotic = sensitivity_experiment(
        0.1, 1e-3, TrafficParams(v0=2.585), n=300, threshold=0.1
    )
    stable = sensitivity_experiment(
        0.1, 1e-3, TrafficParams(v0=1.25), n=300, threshold=0.1
    )
    ok = (
        chaotic.first_divergence_index is not None
        and chaotic.first_divergence_index <= 300
        and stable.separation[300] < 1e-6
    )
    _verdict(9, "chaotic divergence vs stable contraction", ok)


def test_criterion_10_lyapunov_signs():
    lam_sink = lyapunov_exponent(TrafficParams(v0=1.25), 0.1, n=10_000)
    lam_edge = lyapunov_exponent(TrafficParams(v0=2.0), 0.25, n=10_000)
    lam_chaos = lyapunov_exponent(TrafficParams(v0=2.585), 0.1, n=10_000)

    curve = lyapunov_curve(0.1, 2.65, 200, k0=0.25, n=10_000, n_transient=1_000)
    stable_side = [
        lam for v0, lam in zip(curve.v0_grid, curve.lambdas) if v0 <= 2.4
    ]
    chaotic_side = [
        lam for v0, lam in zip(curve.v0_grid, curve.lambdas) if v0 >= 2.55
    ]
    positive = sum(1 for lam in chaotic_side if lam is not None and lam > 0.0)

    ok = (
        lam_sink < -1.0
        and abs(lam_sink - math.log(0.25)) < 0.05
        and abs(lam_edge) < 0.02
        and lam_chaos > 0.05
        and all(lam is not None and lam < 0.0 for lam in stable_side)
        and chaotic_side
        and positive >= 0.8 * len(chaotic_side)
    )
    _verdict(10, "Lyapunov exponent signs", ok)


def test_criterion_11_fixed_point_oracle_equivalence():
    ok = True
    for i in range(50):
        v0 = 0.1 + i * (1.9 - 0.1) / 49
        p = TrafficParams(v0=v0)
        k = 0.3
        for _ in range(2000):
            k = flow_of_density(k, p)
        ok = ok and abs(k - math.exp(-1.0 / v0)) < 1e-9
    _verdict(11, "brute-force limit matches exp(-1/v0)", ok)


def test_criterion_12_derivative_matches_finite_differences():
    from greenberg_dynamics.dynamics import map_derivative

    h = 1e-7
    ok = True
    for v0 in (0.5, 2.25):
        p = TrafficParams(v0=v0)
        for i in range(1000):
            k = 0.01 + i * (0.99 - 0.01) / 999
            fd = (flow_of_density(k + h, p) - flow_of_density(k - h, p)) / (2 * h)
            exact = map_derivative(k, p)
            ok = ok and abs(fd - exact) / max(abs(exact), 1e-12) < 1e-6
    _verdict(12, "map derivative vs central differences", ok)


def test_criterion_13_decay_certificate():
    """Checks the issued certificate |k_i - k*| <= M * beta^i * |k0 - k*| for v0 < 1.

    Every orbit here settles on the positive fixed point k* = exp(-1/v0), so
    the certificate bounds the deviation from k*, not the density itself
    (the bound k_i <= k0 * v0^i once claimed here fails at step 1 for
    v0 = 0.25, k0 = 0.1). It must hold on the computed orbit up to the float
    floor, and beta must not exceed the multiplier 1 - v0 or the slowest
    one-step contraction the orbit shows, so a vacuous beta near 1 fails.
    """
    ok = True
    for v0 in (0.25, 0.5, 0.9):
        p = TrafficParams(v0=v0)
        k_star = math.exp(-1.0 / v0)
        # The float orbit stalls once the exact step v0 * |k_i - k*| is below
        # half an ulp, so its floor near k* scales as ulp(k*) / v0. Measured:
        # at most 1 ulp on these orbits, at most 8 ulps / v0 over 140k random
        # orbits with v0 in [0.01, 0.99] and kj in {1, 0.3, 7}.
        slack = 32 * math.ulp(k_star) / v0
        # Ratios of deviations above 2^20 ulps of k* are within 1e-5 of the
        # exact one-step factor; nearer k* that factor is within 1e-7 of 1 - v0.
        floor = 2**20 * math.ulp(k_star)
        for k0 in (0.1, 0.5, 0.9):
            cert = exponential_stability_check(p, k0)
            if not (cert.stable and cert.beta < 1.0):
                ok = False
                continue
            e = [abs(k - k_star) for k in iterate(k0, p, 100).densities]
            ok = ok and all(
                e_i <= cert.m * cert.beta**i * e[0] + slack for i, e_i in enumerate(e)
            )
            observed = [b / a for a, b in zip(e, e[1:]) if b > floor]
            ok = ok and cert.beta <= max([1.0 - v0] + observed) + 1e-5
    _verdict(13, "exponential decay certificate bound", ok)


def test_criterion_14_serialization():
    orbit = iterate(0.1, TrafficParams(v0=1.25), 50)
    scan = bifurcation_scan(2.2, 2.3, 4, n_total=200, n_keep=10)
    curve = lyapunov_curve(0.5, 1.5, 5, n=1000, n_transient=200)
    sens = sensitivity_experiment(0.1, 1e-3, TrafficParams(v0=2.585), n=60)
    p = TrafficParams(v0=2.25)
    diagram = DiagramPayload(params=p, samples=tuple(diagram_samples(p, 80)))

    ok = True

    # CSV round-trip, bit-exact, and the q = v * k identity on state rows
    for payload, float_columns, state_row in (
        (orbit, ("k", "q", "v"), True),
        (scan, ("v0", "k", "q", "v"), True),
        (curve, ("v0", "lambda"), False),
        (sens, ("k_a", "k_b", "separation"), False),
        (diagram, ("k", "q", "v"), True),
    ):
        sink = io.StringIO()
        write_csv(payload, sink)
        text = sink.getvalue()
        sink2 = io.StringIO()
        write_csv(payload, sink2)
        ok = ok and text == sink2.getvalue()
        for row in csv.DictReader(io.StringIO(text)):
            for column in float_columns:
                if row[column] != "":
                    value = float(row[column])
                    ok = ok and format(value, ".17g") == row[column]
            if state_row:
                k, q, v = float(row["k"]), float(row["q"]), float(row["v"])
                ok = ok and abs(q - v * k) < 1e-12

    # JSON round-trip reproduces every density bit-exactly
    sink = io.StringIO()
    write_json(orbit, sink)
    doc = json.loads(sink.getvalue())
    ok = ok and doc["data"]["k"] == list(orbit.densities)
    sink = io.StringIO()
    write_json(curve, sink)
    doc = json.loads(sink.getvalue())
    ok = ok and doc["data"]["lambda"] == list(curve.lambdas)

    # identical runs produce byte-identical SVG documents
    for payload in (diagram, orbit, scan, curve, sens):
        ok = ok and render_svg(PlotSpec(), payload) == render_svg(PlotSpec(), payload)

    _verdict(14, "serialization round-trips and determinism", ok)
