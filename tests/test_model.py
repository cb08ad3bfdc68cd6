"""Tests for the continuous fundamental-diagram relations."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from greenberg_dynamics.errors import ArgumentError, DomainError
from greenberg_dynamics.model import (
    TrafficParams,
    _states,
    diagram_samples,
    flow_of_density,
    optimum_point,
    state_of_density,
    velocity_of_density,
)

INV_E = math.exp(-1.0)


class TestTrafficParams:
    def test_defaults_to_normalized_jam_density(self):
        assert TrafficParams(v0=1.0).kj == 1.0

    @pytest.mark.parametrize("v0", [-0.1, math.nan, math.inf])
    def test_rejects_bad_v0(self, v0):
        with pytest.raises(DomainError):
            TrafficParams(v0=v0)

    @pytest.mark.parametrize("kj", [0.0, -1.0, math.nan])
    def test_rejects_bad_kj(self, kj):
        with pytest.raises(DomainError):
            TrafficParams(v0=1.0, kj=kj)


class TestVelocityOfDensity:
    def test_zero_at_jam_density(self):
        assert velocity_of_density(1.0, TrafficParams(v0=2.25)) == 0.0

    def test_equals_v0_at_optimum_density(self):
        assert velocity_of_density(INV_E, TrafficParams(v0=1.0)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_free_flow_branch_value(self):
        # 0.25 * ln(1 / 0.0183), evaluated directly
        got = velocity_of_density(0.0183, TrafficParams(v0=0.25))
        assert got == pytest.approx(1.0002135547836903, abs=1e-12)

    @pytest.mark.parametrize("k", [0.0, -0.5, 1.0000001])
    def test_rejects_out_of_domain(self, k):
        with pytest.raises(DomainError):
            velocity_of_density(k, TrafficParams(v0=1.0))

    def test_strictly_decreasing(self):
        p = TrafficParams(v0=1.7)
        ks = np.linspace(1e-4, 1.0, 500)
        vs = [velocity_of_density(k, p) for k in ks]
        assert all(b < a for a, b in zip(vs, vs[1:]))

    @given(
        k=st.floats(1e-9, 1.0),
        v0=st.one_of(st.just(0.0), st.floats(1e-6, 8.0)),
    )
    def test_doubling_v0_doubles_velocity(self, k, v0):
        # exact for normal floats: scaling by 2 commutes with rounding
        base = velocity_of_density(k, TrafficParams(v0=v0))
        assert velocity_of_density(k, TrafficParams(v0=2.0 * v0)) == 2.0 * base


class TestFlowOfDensity:
    def test_zero_at_jam_density(self):
        assert flow_of_density(1.0, TrafficParams(v0=2.25)) == 0.0

    def test_zero_at_empty_road(self):
        assert flow_of_density(0.0, TrafficParams(v0=2.25)) == 0.0

    def test_maximum_value_at_optimum_density(self):
        # v0 * k * ln(1/k) peaks at k = 1/e with value v0/e
        assert flow_of_density(INV_E, TrafficParams(v0=1.0)) == pytest.approx(
            INV_E, abs=1e-12
        )

    def test_first_iterate_of_free_flow_run(self):
        # 0.25 * 0.25 * ln(4), evaluated directly
        got = flow_of_density(0.25, TrafficParams(v0=0.25))
        assert got == pytest.approx(0.08664339756999316, abs=1e-15)

    @pytest.mark.parametrize("k", [-1e-9, 1.0000001])
    def test_rejects_out_of_domain(self, k):
        with pytest.raises(DomainError):
            flow_of_density(k, TrafficParams(v0=1.0))

    def test_positive_strictly_inside(self):
        p = TrafficParams(v0=0.4)
        for k in np.linspace(1e-6, 1.0 - 1e-6, 400):
            assert flow_of_density(float(k), p) > 0.0

    def test_maximum_matches_closed_form_by_grid_search(self):
        # brute-force oracle: one million grid points
        p = TrafficParams(v0=2.25)
        ks = np.linspace(1e-9, 1.0, 1_000_000)
        qs = p.v0 * ks * np.log(1.0 / ks)
        assert abs(qs.max() - p.v0 / math.e) < 1e-6
        assert abs(ks[qs.argmax()] - INV_E) < 1e-5

    @given(
        k=st.floats(1e-9, 1.0),
        v0=st.one_of(st.just(0.0), st.floats(1e-6, 8.0)),
    )
    def test_doubling_v0_doubles_flow(self, k, v0):
        base = flow_of_density(k, TrafficParams(v0=v0))
        assert flow_of_density(k, TrafficParams(v0=2.0 * v0)) == 2.0 * base

    @given(k=st.floats(1e-9, 1.0), v0=st.floats(0.0, 8.0))
    def test_flow_is_density_times_velocity(self, k, v0):
        p = TrafficParams(v0=v0)
        q = flow_of_density(k, p)
        assert abs(q - k * velocity_of_density(k, p)) < 1e-12


class TestOptimumPoint:
    def test_normalized_unit_parameters(self):
        s = optimum_point(TrafficParams(v0=1.0))
        assert s.k == pytest.approx(INV_E, abs=1e-15)
        assert s.q == pytest.approx(INV_E, abs=1e-15)
        assert s.v == 1.0

    def test_flow_reaches_one_at_v0_e(self):
        # e * (1/e): the largest v0 keeping the normalized flow at or below 1
        assert optimum_point(TrafficParams(v0=math.e)).q == pytest.approx(1.0, abs=1e-12)

    def test_zero_velocity_scale(self):
        s = optimum_point(TrafficParams(v0=0.0))
        assert (s.k, s.q, s.v) == (pytest.approx(INV_E), 0.0, 0.0)

    def test_state_identity(self):
        s = optimum_point(TrafficParams(v0=2.5))
        assert abs(s.q - s.v * s.k) < 1e-12


class TestDiagramSamples:
    def test_two_samples_are_the_endpoints(self):
        states = diagram_samples(TrafficParams(v0=1.0), 2)
        assert len(states) == 2
        assert states[0].k == pytest.approx(1e-4)
        assert states[1].k == 1.0
        assert states[1].q == 0.0

    def test_identity_holds_on_every_sample(self):
        states = diagram_samples(TrafficParams(v0=2.25), 100)
        assert len(states) == 100
        for s in states:
            assert abs(s.q - s.v * s.k) < 1e-12

    def test_densities_strictly_increasing(self):
        states = diagram_samples(TrafficParams(v0=0.7), 123)
        ks = [s.k for s in states]
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert ks[-1] == 1.0

    def test_grid_resolves_the_flow_maximum(self):
        states = diagram_samples(TrafficParams(v0=0.5), 100)
        assert abs(max(s.q for s in states) - 0.5 / math.e) < 1e-3

    def test_scales_with_jam_density(self):
        states = diagram_samples(TrafficParams(v0=1.0, kj=2.0), 50)
        assert states[-1].k == 2.0
        assert states[0].k == pytest.approx(2e-4)

    @pytest.mark.parametrize("n", [1, 0, -3])
    def test_rejects_small_counts(self, n):
        with pytest.raises(ArgumentError):
            diagram_samples(TrafficParams(v0=1.0), n)

    # 1e-4 * kj underflows to 0 below about 2.47e-320; just above it, the
    # subnormal grid still repeats densities at 400 points
    @pytest.mark.parametrize("kj", [1e-320, 5e-324, 2.5e-320, 1e-319])
    def test_rejects_a_jam_density_too_small_for_the_grid(self, kj):
        with pytest.raises(DomainError):
            diagram_samples(TrafficParams(v0=1.0, kj=kj), 400)

    @pytest.mark.parametrize("kj", [1e-318, 1e-300])
    def test_tiny_jam_density_keeps_a_strictly_increasing_grid(self, kj):
        ks = [s.k for s in diagram_samples(TrafficParams(v0=1.0, kj=kj), 400)]
        assert all(b > a for a, b in zip(ks, ks[1:]))
        assert ks[-1] == kj

    # v0 = 1e308 overflows the flow to inf below kj, and v0 * kj at kj
    @pytest.mark.parametrize(
        "v0, kj, n", [(0.0, 1.0, 2), (1.0, 1.0, 400), (2.7, 0.3, 57), (1e308, 7.0, 5)]
    )
    def test_every_sample_is_its_state_of_density_bit_for_bit(self, v0, kj, n):
        p = TrafficParams(v0=v0, kj=kj)
        samples = diagram_samples(p, n)
        assert len(samples) == n
        for s in samples:
            expected = state_of_density(s.k, p)
            assert [x.hex() for x in (s.k, s.q, s.v)] == [
                x.hex() for x in (expected.k, expected.q, expected.v)
            ]


class TestStateOfDensity:
    def test_components_come_from_the_model_functions(self):
        p = TrafficParams(v0=1.3)
        s = state_of_density(0.42, p)
        assert s.q == flow_of_density(0.42, p)
        assert s.v == velocity_of_density(0.42, p)


@given(
    st.floats(min_value=0.0, max_value=1e308),
    st.sampled_from((1.0, 0.3, 7.0, 1e308)),
    st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), max_size=12),
)
def test_batch_states_are_state_of_density_bit_for_bit(v0, kj, fractions):
    p = TrafficParams(v0=v0, kj=kj)
    densities = [f * kj for f in fractions if f * kj > 0.0] + [kj]
    densities += densities[::2]  # recurring densities share one state
    states = _states(densities, p)
    expected = [state_of_density(k, p) for k in densities]
    assert [(s.k.hex(), s.q.hex(), s.v.hex()) for s in states] == [
        (e.k.hex(), e.q.hex(), e.v.hex()) for e in expected
    ]
    assert len({id(s) for s in states}) == len(set(densities))
