"""Tests for orbit generation, the map derivative and sensitivity runs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenberg_dynamics.dynamics import (
    cobweb_path,
    iterate,
    map_derivative,
    sensitivity_experiment,
)
from greenberg_dynamics.errors import ArgumentError, DomainError, EscapeWarning
from greenberg_dynamics.model import (
    TrafficParams,
    flow_of_density,
    velocity_of_density,
)

INV_E = math.exp(-1.0)


class TestIterate:
    def test_free_flow_sink(self):
        orbit = iterate(0.25, TrafficParams(v0=0.25), 300)
        final = orbit.states[-1]
        assert abs(final.k - math.exp(-4.0)) < 1e-3
        assert abs(final.v - 1.0) < 1e-3

    def test_congested_sink(self):
        orbit = iterate(0.1, TrafficParams(v0=1.25), 300)
        final = orbit.states[-1]
        assert abs(final.k - 0.4493) < 1e-3
        assert abs(final.v - 1.0) < 1e-3

    def test_fixed_point_orbit_is_constant(self):
        k_star = math.exp(-2.0 / 3.0)  # 0.513417119032592 for v0 = 1.5
        orbit = iterate(k_star, TrafficParams(v0=1.5), 10)
        assert len(orbit.states) == 11
        for s in orbit.states:
            assert s.k == pytest.approx(k_star, abs=1e-12)

    def test_recurrence_uses_the_flow_function(self):
        p = TrafficParams(v0=2.25)
        orbit = iterate(0.35, p, 40)
        for a, b in zip(orbit.states, orbit.states[1:]):
            assert b.k == flow_of_density(a.k, p)

    def test_states_carry_model_values(self):
        p = TrafficParams(v0=1.75)
        orbit = iterate(0.1, p, 25)
        for s in orbit.states:
            assert s.q == flow_of_density(s.k, p)
            assert s.v == velocity_of_density(s.k, p)

    def test_deterministic(self):
        a = iterate(0.1, TrafficParams(v0=2.585), 300)
        b = iterate(0.1, TrafficParams(v0=2.585), 300)
        assert a.densities == b.densities

    def test_escape_through_exact_jam_density(self):
        # at v0 = e the optimum density maps exactly onto kj, which then
        # maps to the absorbing zero
        with pytest.warns(EscapeWarning):
            orbit = iterate(INV_E, TrafficParams(v0=math.e), 10)
        assert orbit.escaped == 2
        assert len(orbit.states) == 2
        assert orbit.states[-1].k == 1.0

    def test_escape_by_overshoot(self):
        with pytest.warns(EscapeWarning):
            orbit = iterate(INV_E, TrafficParams(v0=2.75), 10)
        assert orbit.escaped == 1
        assert len(orbit.states) == 1

    @pytest.mark.parametrize("k0", [0.0, 1.0, 1.3, -0.4])
    def test_rejects_bad_initial_density(self, k0):
        with pytest.raises(DomainError):
            iterate(k0, TrafficParams(v0=1.0), 10)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ArgumentError):
            iterate(0.5, TrafficParams(v0=1.0), 0)

    @settings(max_examples=60, deadline=None)
    @given(v0=st.floats(0.01, 2.71), k0=st.floats(0.001, 0.999))
    def test_forward_invariance_below_v0_e(self, v0, k0):
        orbit = iterate(k0, TrafficParams(v0=v0), 150)
        assert orbit.escaped is None
        assert all(0.0 < s.k <= 1.0 for s in orbit.states)

    @given(v0=st.floats(0.01, 3.0), k=st.floats(INV_E, 1.0))
    def test_contraction_above_optimum_density(self, v0, k):
        # ln(1/k) <= 1 on [1/e, 1], so one step shrinks the density by v0
        assert flow_of_density(k, TrafficParams(v0=v0)) <= v0 * k * (1.0 + 1e-12)

    def test_two_cycle_velocities(self):
        orbit = iterate(0.35, TrafficParams(v0=2.25), 300)
        tail = sorted(s.v for s in orbit.states[-2:])
        assert tail[0] == pytest.approx(0.4272, abs=1e-4)
        assert tail[1] == pytest.approx(2.3409, abs=1e-4)


class TestMapDerivative:
    def test_at_the_fixed_point(self):
        k_star = math.exp(-1.0 / 2.25)
        assert map_derivative(k_star, TrafficParams(v0=2.25)) == pytest.approx(
            -1.25, abs=1e-12
        )

    def test_zero_at_the_map_maximum(self):
        assert map_derivative(INV_E, TrafficParams(v0=1.8)) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_midpoint_value(self):
        # ln 2 - 1, evaluated directly
        assert map_derivative(0.5, TrafficParams(v0=1.0)) == pytest.approx(
            -0.3068528194400547, abs=1e-15
        )

    @pytest.mark.parametrize("v0", [0.25, 1.0, 2.25])
    def test_matches_central_finite_differences(self, v0):
        p = TrafficParams(v0=v0)
        h = 1e-7
        for i in range(1000):
            k = 0.01 + i * (0.99 - 0.01) / 999
            fd = (flow_of_density(k + h, p) - flow_of_density(k - h, p)) / (2 * h)
            exact = map_derivative(k, p)
            assert abs(fd - exact) / max(abs(exact), 1e-12) < 1e-6

    @pytest.mark.parametrize("k", [0.0, 1.2])
    def test_rejects_out_of_domain(self, k):
        with pytest.raises(DomainError):
            map_derivative(k, TrafficParams(v0=1.0))


class TestCobwebPath:
    def test_vertex_count(self):
        orbit = iterate(0.25, TrafficParams(v0=0.25), 12)
        path = cobweb_path(orbit)
        assert len(path) == 2 * (len(orbit.states) - 1) + 1

    def test_starts_on_the_identity_line(self):
        orbit = iterate(0.25, TrafficParams(v0=0.25), 5)
        assert cobweb_path(orbit)[0] == (0.25, 0.25)

    def test_second_vertex_is_the_first_iterate(self):
        orbit = iterate(0.25, TrafficParams(v0=0.25), 5)
        x, y = cobweb_path(orbit)[1]
        assert x == 0.25
        assert y == pytest.approx(0.08664339756999316, abs=1e-15)

    def test_degenerate_at_a_fixed_point(self):
        k_star = math.exp(-2.0 / 3.0)
        orbit = iterate(k_star, TrafficParams(v0=1.5), 10)
        for x, y in cobweb_path(orbit):
            assert x == pytest.approx(k_star, abs=1e-12)
            assert y == pytest.approx(k_star, abs=1e-12)

    def test_rejects_single_state_orbit(self):
        with pytest.warns(EscapeWarning):
            orbit = iterate(INV_E, TrafficParams(v0=2.75), 10)
        with pytest.raises(ArgumentError):
            cobweb_path(orbit)


class TestSensitivityExperiment:
    def test_zero_offset_gives_zero_separation(self):
        result = sensitivity_experiment(0.3, 0.0, TrafficParams(v0=2.585), n=100)
        assert all(s == 0.0 for s in result.separation)
        assert result.first_divergence_index is None

    def test_initial_separation_is_exact(self):
        result = sensitivity_experiment(0.1, 1e-3, TrafficParams(v0=1.25), n=50)
        assert result.separation[0] == abs(result.orbit_b.k0 - result.orbit_a.k0)

    def test_chaotic_orbits_diverge(self):
        result = sensitivity_experiment(
            0.1, 1e-3, TrafficParams(v0=2.585), n=300, threshold=0.1
        )
        assert result.first_divergence_index is not None
        assert result.first_divergence_index <= 300

    def test_stable_orbits_do_not_diverge(self):
        result = sensitivity_experiment(
            0.1, 1e-3, TrafficParams(v0=1.25), n=300, threshold=0.01
        )
        assert result.first_divergence_index is None
        assert result.separation[-1] < 1e-9

    def test_separation_length_matches_shorter_orbit(self):
        result = sensitivity_experiment(0.2, 1e-3, TrafficParams(v0=1.5), n=40)
        assert len(result.separation) == min(
            len(result.orbit_a.states), len(result.orbit_b.states)
        )

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ArgumentError):
            sensitivity_experiment(0.1, 1e-3, TrafficParams(v0=1.0), n=10, threshold=0.0)

    def test_rejects_offset_leaving_the_domain(self):
        with pytest.raises(DomainError):
            sensitivity_experiment(0.9995, 1e-3, TrafficParams(v0=1.0), n=10)


class TestFlowVelocityRatio:
    def test_ratio_recovers_the_current_density(self):
        # Q_q(k) / Q_v(k) collapses to k itself; kept as a consistency identity
        p = TrafficParams(v0=1.9)
        for k in (0.05, 0.2, INV_E, 0.5, 0.9):
            ratio = flow_of_density(k, p) / velocity_of_density(k, p)
            assert abs(ratio - k) < 1e-12
