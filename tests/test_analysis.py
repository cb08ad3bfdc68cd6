"""Tests for fixed-point analysis, period detection, sweeps and Lyapunov estimates."""

import math
import random
from decimal import Decimal, localcontext

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from greenberg_dynamics.analysis import (
    CENTER,
    DEGENERATE,
    SINK,
    SOURCE,
    _parameter_grid,
    _period,
    bifurcation_scan,
    classify_fixed_point,
    detect_period,
    exponential_stability_check,
    fixed_point,
    lyapunov_curve,
    lyapunov_exponent,
)
from greenberg_dynamics.dynamics import map_derivative
from greenberg_dynamics.errors import ArgumentError, DomainError, EscapeError
from greenberg_dynamics.model import TrafficParams, flow_of_density

INV_E = math.exp(-1.0)


def brute_force_limit(v0: float, k0: float = 0.3, steps: int = 3000) -> float:
    """Independent oracle: follow the raw recurrence to its limit."""
    p = TrafficParams(v0=v0)
    k = k0
    for _ in range(steps):
        k = flow_of_density(k, p)
    return k


class TestFixedPoint:
    def test_free_flow_value(self):
        assert fixed_point(TrafficParams(v0=0.25)) == pytest.approx(
            0.01831563888873418, abs=1e-15
        )

    def test_congested_value(self):
        assert fixed_point(TrafficParams(v0=1.25)) == pytest.approx(
            0.44932896411722156, abs=1e-15
        )

    def test_unit_parameter(self):
        assert fixed_point(TrafficParams(v0=1.0)) == INV_E

    def test_rejects_zero_v0(self):
        with pytest.raises(DomainError):
            fixed_point(TrafficParams(v0=0.0))

    def test_residual_below_1e14_across_parameter_range(self):
        rng = random.Random(20260808)
        p_values = [rng.uniform(0.05, math.e) for _ in range(1000)]
        for v0 in p_values:
            p = TrafficParams(v0=v0)
            k_star = fixed_point(p)
            assert abs(flow_of_density(k_star, p) - k_star) < 1e-14

    def test_scales_with_jam_density(self):
        p = TrafficParams(v0=1.0, kj=2.0)
        k_star = fixed_point(p)
        assert k_star == pytest.approx(2.0 * INV_E, abs=1e-15)
        assert abs(flow_of_density(k_star, p) - k_star) < 1e-14

    def test_multiplier_identity(self):
        for v0 in (0.1, 0.5, 1.0, 1.9, 2.0, 2.4, math.e):
            p = TrafficParams(v0=v0)
            assert map_derivative(fixed_point(p), p) == pytest.approx(
                1.0 - v0, abs=1e-12
            )

    def test_sink_limit_matches_closed_form(self):
        for v0 in (0.15, 0.4, 0.9, 1.3, 1.6, 1.85):
            assert abs(brute_force_limit(v0) - math.exp(-1.0 / v0)) < 1e-9

    def test_velocity_is_one_at_any_attracting_fixed_point(self):
        from greenberg_dynamics.model import velocity_of_density

        for v0 in (0.2, 0.7, 1.2, 1.9):
            p = TrafficParams(v0=v0)
            assert abs(velocity_of_density(fixed_point(p), p) - 1.0) < 1e-9


class TestClassifyFixedPoint:
    def test_congested_sink(self):
        report = classify_fixed_point(TrafficParams(v0=1.25))
        assert report.multiplier == -0.25
        assert report.classification == SINK
        assert report.exponentially_stable is False

    def test_source_beyond_the_threshold(self):
        report = classify_fixed_point(TrafficParams(v0=2.25))
        assert report.multiplier == -1.25
        assert report.classification == SOURCE

    def test_center_at_the_threshold(self):
        report = classify_fixed_point(TrafficParams(v0=2.0))
        assert report.multiplier == -1.0
        assert report.classification == CENTER

    def test_degenerate_at_zero(self):
        report = classify_fixed_point(TrafficParams(v0=0.0))
        assert report.classification == DEGENERATE
        assert report.k_star == 0.0
        assert report.exponentially_stable is True

    def test_slow_road_is_exponentially_stable_sink(self):
        report = classify_fixed_point(TrafficParams(v0=0.5))
        assert report.classification == SINK
        assert report.exponentially_stable is True

    def test_underflowing_fixed_point_is_not_classified(self):
        # exp(-1/v0) underflows to 0 below v0 ~ 1/745; 0 is no fixed point
        # with multiplier 1 - v0, so there is nothing true to report
        assert fixed_point(TrafficParams(v0=1e-3)) == 0.0
        with pytest.raises(DomainError, match="underflows"):
            classify_fixed_point(TrafficParams(v0=1e-3))

    def test_smallest_representable_fixed_point_is_classified(self):
        report = classify_fixed_point(TrafficParams(v0=0.0015))
        assert report.k_star > 0.0
        assert report.k_star == fixed_point(TrafficParams(v0=0.0015))
        assert report.classification == SINK


class TestPeriodDoublingThreshold:
    def test_period_transitions_around_the_threshold(self):
        below = bifurcation_scan(1.95, 1.95, 1, n_total=2000, n_keep=200)
        above = bifurcation_scan(2.05, 2.05, 1, n_total=2000, n_keep=200)
        assert below.detected_periods == (1,)
        assert above.detected_periods == (2,)


class TestDetectPeriod:
    def test_constant_samples(self):
        assert detect_period([0.4] * 40, 1e-6, 8) == 1

    def test_alternating_samples(self):
        samples = [0.3, 0.8] * 20
        assert detect_period(samples, 1e-6, 8) == 2

    def test_prefers_the_smallest_period(self):
        # a 2-periodic signal also repeats with period 4
        samples = [0.3, 0.8] * 20
        assert detect_period(samples, 1e-6, 16) == 2

    def test_aperiodic_samples(self):
        scan = bifurcation_scan(2.585, 2.585, 1, k0=0.1, n_total=2000, n_keep=200)
        assert scan.detected_periods == (None,)

    def test_rejects_short_samples(self):
        with pytest.raises(ArgumentError):
            detect_period([0.1, 0.2, 0.3], 1e-6, 8)

    def test_rejects_bad_tolerance_and_period(self):
        for tolerance in (0.0, math.inf):
            with pytest.raises(ArgumentError, match="^tolerance must be a positive finite number"):
                detect_period([0.1] * 20, tolerance, 4)
        with pytest.raises(ArgumentError):
            detect_period([0.1] * 20, 1e-6, 0)


# Multiples of the tolerance: two lap samples lie apart by less than, about
# or more than the tolerance, the boundary of each comparison.
gap_steps = st.sampled_from([0.0, 0.5, 1.0 - 1e-9, 1.0, 1.0 + 1e-9, 1.5, 2.0])


@st.composite
def whole_lap_tails(draw):
    """(tail, tolerance, cap, L): n samples that repeat a lap of L from the first, 1 <= L <= n."""
    n = draw(st.integers(2, 130))
    length = draw(st.integers(1, n))
    tolerance = draw(st.sampled_from([1e-6, 1e-3, 0.05]) | st.floats(1e-9, 0.1))
    base = draw(st.floats(0.001, 0.8))
    steps = draw(st.lists(gap_steps, min_size=length, max_size=length))
    lap = [base + tolerance * step for step in steps]
    return (lap * (n // length + 1))[:n], tolerance, draw(st.integers(1, n // 2)), length


# bifurcation_scan compares one lap of pairs per lag on a tail of whole laps
@pytest.mark.thorough
@given(whole_lap_tails())
@example(([0.3, 0.8] * 30, 1e-6, 30, 2))  # the 2-cycle of the default scan
@example(([0.5, 0.5 + 1e-6, 0.5 + 2e-6] * 20, 1e-6, 30, 3))  # gaps at the tolerance
@example(([0.25, 0.5, 0.25, 0.75] * 5, 0.3, 10, 4))  # period 2 within the tolerance of a lap of 4
def test_a_whole_lap_tail_needs_one_lap_of_pairs(case):
    tail, tolerance, cap, length = case
    assert _period(tail, tolerance, cap, length) == detect_period(tail, tolerance, cap)


def naive_period(samples, tolerance, cap, pairs):
    """The rule of ``_period`` as a plain loop over every lag and every pair."""
    for p in range(1, cap + 1):
        if all(
            abs(samples[i + p] - samples[i]) < tolerance
            for i in range(min(pairs, len(samples) - p))
        ):
            return p
    return None


@st.composite
def period_cases(draw):
    """(samples, tolerance, cap, pairs) over a pool where pairs lie apart by less than,
    exactly or more than the tolerance 0.25, or hold a NaN."""
    samples = draw(
        st.lists(st.sampled_from([0.5, 0.625, 0.75, 1.0, math.nan]), min_size=2, max_size=40)
    )
    cap = draw(st.integers(1, len(samples) // 2))
    return samples, 0.25, cap, draw(st.integers(1, len(samples)))


@given(period_cases())
@example(([0.5, 0.5, 0.5, 0.625, 1.0, 0.5], 0.25, 3, 6))  # first pairs pass, later ones fail
@example(([0.5, 0.75, 0.5, 0.75], 0.25, 2, 4))  # a pair exactly at the tolerance fails
@example(([0.5, 0.75] * 3, 0.25, 3, 1))  # only the pairs of the first sample count
@example(([math.nan, 0.5, math.nan, 0.5], 0.25, 2, 4))  # a NaN pair fails every lag
@example(([0.5, 0.5, 0.5, math.nan, 0.5, 0.5], 0.25, 3, 6))  # ... also after passing pairs
def test_period_search_matches_a_naive_loop_over_all_pairs(case):
    assert _period(*case) == naive_period(*case)


v0_ends = st.floats(0.001, math.e) | st.sampled_from([0.05, 2.7, math.e])


@pytest.mark.thorough
@given(v0_ends, v0_ends, st.integers(2, 3000))
@example(0.05, math.e, 28)  # the unclamped last point is e plus an ulp
@example(0.05, 2.7, 8)  # ... and here 2.7 plus an ulp
def test_parameter_grid_rises_from_v0_min_and_never_exceeds_v0_max(a, b, steps):
    v0_min, v0_max = sorted((a, b))
    # points more than two ulps apart cannot round onto each other
    assume((v0_max - v0_min) / (steps - 1) > 2 * math.ulp(v0_max))
    grid = _parameter_grid(v0_min, v0_max, steps)
    assert len(grid) == steps and grid[0] == v0_min and grid[-1] <= v0_max
    assert all(x < y for x, y in zip(grid, grid[1:]))


class TestBifurcationScan:
    def test_single_point_stable_branch(self):
        scan = bifurcation_scan(1.25, 1.25, 1)
        assert scan.detected_periods == (1,)
        assert all(
            abs(s.k - 0.44932896411722156) < 1e-6 for s in scan.samples[0]
        )

    def test_two_cycle_branches(self):
        scan = bifurcation_scan(2.25, 2.25, 1, k0=0.35, n_total=2000, n_keep=200)
        assert scan.detected_periods == (2,)
        low, high = sorted(s.k for s in scan.samples[0][-2:])
        assert low == pytest.approx(0.3533197607617423, abs=1e-9)
        assert high == pytest.approx(0.82707175492835, abs=1e-9)

    def test_four_cycle_window(self):
        scan = bifurcation_scan(2.400, 2.440, 5, n_total=20000, n_keep=200)
        assert scan.detected_periods == (4, 4, 4, 4, 4)

    def test_cycle_closure(self):
        scan = bifurcation_scan(2.405, 2.405, 1, k0=0.275, n_total=2000, n_keep=200)
        (period,) = scan.detected_periods
        assert period == 4
        p = TrafficParams(v0=2.405)
        for s in scan.samples[0][-period:]:
            k = s.k
            for _ in range(period):
                k = flow_of_density(k, p)
            assert abs(k - s.k) < 10 * scan.settings.tolerance

    def test_cycle_closing_inside_the_window_is_labelled_by_the_window(self):
        # The float orbit repeats a density exactly at step 299, inside the kept
        # window (steps 241 to 300), but its start has not settled within the
        # tolerance: the label comes from the window, not from the float cycle.
        v0, k0 = 2.5356805346025695, 0.1518156773639057
        assert bifurcation_scan(v0, v0, 1, k0=k0).detected_periods == (None,)
        p = TrafficParams(v0=v0)
        ks = [k0]
        for _ in range(300):
            ks.append(flow_of_density(ks[-1], p))
        repeats = [(i, j) for j in range(301) for i in range(j) if ks[i] == ks[j]]
        assert repeats[0] == (293, 299)
        assert all(j - i == 6 for i, j in repeats)

    def test_grid_is_ascending_with_samples_per_point(self):
        scan = bifurcation_scan(0.5, 1.5, 6, n_total=120, n_keep=20)
        assert list(scan.v0_grid) == sorted(scan.v0_grid)
        assert len(scan.v0_grid) == 6
        assert all(len(states) == 20 for states in scan.samples)
        assert scan.escaped == (False,) * 6

    def test_escape_recorded_not_raised(self):
        # v0 = e sends the optimum density exactly to kj and then to 0
        scan = bifurcation_scan(math.e, math.e, 1, k0=INV_E, n_total=10, n_keep=4)
        assert scan.escaped == (True,)
        assert scan.detected_periods == (None,)
        assert scan.samples[0] == ()

    def test_escaped_points_carry_no_period(self):
        # the middle orbit underflows to 0 after 17 of its 40 kept samples,
        # which would all pass as period 1 within the absolute tolerance
        scan = bifurcation_scan(0.0005, 0.0012, 3, k0=1e-300, n_total=60, n_keep=40)
        assert scan.escaped == (True, True, False)
        assert [len(states) for states in scan.samples] == [0, 17, 40]
        assert scan.detected_periods == (None, None, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(v0_min=0.0, v0_max=1.0, steps=3),
            dict(v0_min=1.0, v0_max=0.5, steps=3),
            dict(v0_min=0.5, v0_max=2.75, steps=3),
            dict(v0_min=0.5, v0_max=1.0, steps=0),
            dict(v0_min=0.5, v0_max=1.0, steps=1),
            dict(v0_min=0.5, v0_max=0.5, steps=4),
        ],
    )
    def test_rejects_bad_grids(self, kwargs):
        with pytest.raises(ArgumentError):
            bifurcation_scan(**kwargs)

    def test_rejects_bad_keep(self):
        with pytest.raises(ArgumentError):
            bifurcation_scan(1.0, 1.5, 3, n_total=100, n_keep=100)

    def test_rejects_a_single_kept_sample(self):
        # a lone sample has no pair, so "aperiodic" would be a label never searched for
        message = (
            "^need 2 <= n_keep < n_total: a period needs two kept samples, got keep=1 total=10$"
        )
        with pytest.raises(ArgumentError, match=message):
            bifurcation_scan(1.0, 1.5, 3, n_total=10, n_keep=1)

    def test_a_lap_inside_the_window_keeps_every_pair(self):
        # the tail's lap starts at its sample 52: its first 52 samples are
        # no laps, so the period search compares all n_keep pairs per lag
        scan = bifurcation_scan(
            2.5356805346025695, 2.5356805346025695, 1, k0=0.1518156773639057
        )
        assert scan.laps == ((52, 6),)
        assert scan.detected_periods == (None,)
        # from 1e-12 above the unstable fixed point, the orbit is still about
        # 1e-8 from it when the window opens and reaches its 2-cycle inside
        # the window: the first lap of pairs alone would read period 1
        scan = bifurcation_scan(2.2, 2.2, 1, k0=0.6347364189412819, n_keep=250)
        assert scan.laps == ((123, 2),)
        assert scan.detected_periods == (None,)
        assert _period([s.k for s in scan.samples[0]], 1e-6, 64, 2) == 1

    @pytest.mark.parametrize("n_keep", [1, 4])
    @pytest.mark.parametrize("tolerance", [-5.0, math.nan, math.inf])
    def test_rejects_a_bad_tolerance_before_the_sweep(self, n_keep, tolerance):
        # n_keep = 1 is rejected too, and a scan of escaped points would
        # never search a period: the tolerance is checked first. An infinite
        # tolerance would label every point, chaotic ones too, period 1.
        message = rf"^tolerance must be a positive finite number, got {tolerance}$"
        with pytest.raises(ArgumentError, match=message):
            bifurcation_scan(2.0, 2.0, 1, n_total=10, n_keep=n_keep, tolerance=tolerance)

    @pytest.mark.parametrize("k0", [0.0, 1.0, math.nan])
    def test_rejects_an_initial_density_outside_the_domain(self, k0):
        with pytest.raises(DomainError, match=r"^scan initial density must lie in \(0, 1\.0\)"):
            bifurcation_scan(1.0, 1.5, 3, k0=k0)


# The period-3 window, from ROADMAP item 6's continuation: the saddle-node
# (v0, k) where the 3-cycle is born with multiplier +1, the superstable v0
# where kj/e lies on it, and the v0 where it flips to 6.
PERIOD_3_SADDLE_NODE = (2.672164558011477, 0.37742020758069134)
PERIOD_3_SUPERSTABLE = 2.673069710493294
PERIOD_3_FLIP = 2.675581089170799


def third_iterate(v0, k):
    """f^3(k) and its slope (f^3)'(k) for kj = 1, in the current decimal context."""
    slope = Decimal(1)
    for _ in range(3):
        log = (1 / k).ln()
        slope *= v0 * (log - 1)
        k = v0 * k * log
    return k, slope


def test_the_period_three_branch_points_solve_their_equations():
    # each printed parameter is read as the decimal it prints; at 50 digits
    # the residuals measured -9.9e-16, 1 + 2.6e-15, 2.8e-15 and -1 - 1.9e-14
    within = Decimal("1e-12")
    with localcontext() as context:
        context.prec = 50
        v0, k = (Decimal(repr(x)) for x in PERIOD_3_SADDLE_NODE)
        image, slope = third_iterate(v0, k)
        assert abs(image - k) < within and abs(slope - 1) < within
        peak = Decimal(-1).exp()
        image, _ = third_iterate(Decimal(repr(PERIOD_3_SUPERSTABLE)), peak)
        assert abs(image - peak) < within
        # Newton on f^3(k) = k from kj/e finds the 3-cycle point at the flip
        v0, k = Decimal(repr(PERIOD_3_FLIP)), peak
        for _ in range(20):
            image, slope = third_iterate(v0, k)
            k -= (image - k) / (slope - 1)
        image, slope = third_iterate(v0, k)
        assert abs(image - k) < Decimal("1e-45")
        assert abs(k - Decimal("0.35894773000406")) < within
        assert abs(slope + 1) < within


@pytest.mark.parametrize(
    "v0, period",
    [
        (2.6721, None),
        (2.6723, 3),
        (2.673, 3),
        (2.674, 3),
        (2.6755, 3),
        (2.6757, 6),
        (2.676, 6),
    ],
)
def test_scan_labels_across_the_period_three_window(v0, period):
    # the label is 3 exactly between the saddle-node and the flip
    assert (PERIOD_3_SADDLE_NODE[0] < v0 < PERIOD_3_FLIP) == (period == 3)
    scan = bifurcation_scan(v0, v0, 1, n_total=4000, n_keep=256)
    assert scan.detected_periods == (period,)


class TestLyapunovExponent:
    def test_sink_collapses_to_the_log_multiplier(self):
        lam = lyapunov_exponent(TrafficParams(v0=1.25), 0.1, n=2000, n_transient=500)
        assert abs(lam - math.log(0.25)) < 1e-2

    def test_sink_estimate_matches_closed_form(self):
        # on a sink every averaged term is ln|f'(k*)| = ln|1 - v0|
        for i in range(75):
            v0 = 0.1 + i * (1.95 - 0.1) / 74
            if abs(v0 - 1.0) < 0.05:
                continue
            exact = math.log(abs(1.0 - v0))
            for k0 in (0.01, 0.25, 0.99):
                lam = lyapunov_exponent(TrafficParams(v0=v0), k0)
                assert lam == pytest.approx(exact, rel=1e-9), (v0, k0)

    def test_superstable_parameter_diverges(self):
        # at v0 = 1 the fixed point sits exactly on the map maximum
        lam = lyapunov_exponent(TrafficParams(v0=1.0), 0.25, n=1000, n_transient=500)
        assert math.isinf(lam) and lam < 0

    def test_escape_raises(self):
        with pytest.raises(EscapeError):
            lyapunov_exponent(TrafficParams(v0=3.5), 0.3, n=1000, n_transient=100)

    def test_rejects_small_term_counts(self):
        with pytest.raises(ArgumentError):
            lyapunov_exponent(TrafficParams(v0=1.25), 0.1, n=999)

    def test_rejects_bad_initial_density(self):
        with pytest.raises(DomainError):
            lyapunov_exponent(TrafficParams(v0=1.25), 0.0, n=1000)

    def test_near_threshold_estimates_stay_close_to_zero(self):
        for v0 in (1.995, 2.0, 2.005):
            lam = lyapunov_exponent(TrafficParams(v0=v0), 0.25)
            assert -0.02 <= lam < 0.02

    def test_negative_on_attracting_cycles(self):
        # detected periodic attractors must come with a negative exponent
        for v0, k0 in ((2.25, 0.35), (2.405, 0.275)):
            scan = bifurcation_scan(v0, v0, 1, k0=k0, n_total=2000, n_keep=200)
            assert scan.detected_periods[0] is not None
            assert lyapunov_exponent(TrafficParams(v0=v0), k0) < 0.0


class TestLyapunovCurve:
    def test_signs_and_missing_points(self):
        curve = lyapunov_curve(0.5, 1.5, 5, n=1000, n_transient=300)
        assert curve.v0_grid == pytest.approx((0.5, 0.75, 1.0, 1.25, 1.5))
        # the superstable grid point carries no finite estimate
        assert curve.lambdas[2] is None
        assert curve.skipped_terms[2] == 1000
        for i in (0, 1, 3, 4):
            assert curve.lambdas[i] is not None and curve.lambdas[i] < 0.0

    def test_term_accounting(self):
        curve = lyapunov_curve(0.5, 1.5, 5, n=1000, n_transient=300)
        for used, skipped in zip(curve.n_terms, curve.skipped_terms):
            assert used == 1000 - skipped

    def test_deterministic(self):
        first = lyapunov_curve(0.6, 1.4, 4, n=1000, n_transient=200)
        second = lyapunov_curve(0.6, 1.4, 4, n=1000, n_transient=200)
        assert first.lambdas == second.lambdas
        assert first.v0_grid == second.v0_grid

    def test_rejects_grid_beyond_the_invariance_bound(self):
        with pytest.raises(ArgumentError):
            lyapunov_curve(2.0, 3.0, 5, n=1000)

    def test_rejects_a_negative_transient(self):
        # the CLI's type check rejects --transient -1 before this one runs
        with pytest.raises(ArgumentError, match="non-negative, got -1"):
            lyapunov_curve(1.0, 1.2, 3, n_transient=-1)


class TestExponentialStabilityCheck:
    def test_certificate_below_one(self):
        cert = exponential_stability_check(TrafficParams(v0=0.5), 0.5)
        assert cert.stable is True
        assert cert.m == 1.0
        assert cert.beta == 0.5
        # the rate is the multiplier 1 - v0, not v0
        assert exponential_stability_check(TrafficParams(v0=0.25), 0.5).beta == 0.75

    def test_no_certificate_from_one_upward(self):
        for v0 in (1.0, 1.25, 2.5):
            cert = exponential_stability_check(TrafficParams(v0=v0), 0.5)
            assert cert.stable is False
            assert cert.m is None and cert.beta is None

    def test_boundary_cases(self):
        # v0 = 0 sends every density to the degenerate fixed point 0 at once
        cert = exponential_stability_check(TrafficParams(v0=0.0), 0.5)
        assert (cert.stable, cert.m, cert.beta) == (True, 1.0, 0.0)
        # f(kj) = 0 leaves (0, kj] at step 1
        assert exponential_stability_check(TrafficParams(v0=0.5), 1.0).stable is False
        # exp(-1/v0) underflows to 0 below v0 ~ 1/745
        assert exponential_stability_check(TrafficParams(v0=1e-3), 0.5).stable is False

    def test_rejects_initial_density_outside_the_domain(self):
        for k0 in (0.0, -0.1, 1.5):
            with pytest.raises(DomainError):
                exponential_stability_check(TrafficParams(v0=0.5), k0)

    def test_certificate_from_the_fixed_point_is_the_multiplier(self):
        # from k0 = k* the deviation factor is 1 - v0; a k1 rounded just
        # below k* may raise beta by an ulp (2.2e-16 at most over 20 000 v0)
        rng = random.Random(20261019)
        for v0 in [rng.uniform(0.002, 0.999) for _ in range(1000)]:
            p = TrafficParams(v0=v0)
            cert = exponential_stability_check(p, fixed_point(p))
            assert cert.stable is True, v0
            assert 1.0 - v0 <= cert.beta <= 1.0 - v0 + 2.3e-16, v0

    def test_v0_certificate_breaks_at_step_one(self):
        # (M, beta) = (1, v0), the certificate once reported for v0 < 1, is
        # false both for the density and for its deviation from k*
        v0, k0 = 0.25, 0.1
        k_star = math.exp(-1.0 / v0)
        k1 = flow_of_density(k0, TrafficParams(v0=v0))
        assert k1 > k0 * v0
        assert abs(k1 - k_star) > v0 * abs(k0 - k_star)
        assert exponential_stability_check(TrafficParams(v0=v0), k0).beta > v0

    def test_slow_road_drains_monotonically(self):
        from greenberg_dynamics.dynamics import iterate

        orbit = iterate(0.25, TrafficParams(v0=0.25), 100)
        ks = orbit.densities
        assert all(b <= a for a, b in zip(ks, ks[1:]))
        assert abs(ks[-1] - math.exp(-4.0)) < 1e-9
