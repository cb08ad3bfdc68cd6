"""The per-orbit decay certificate bounds real orbits and is sharp.

For 0 < v0 < 1, ``exponential_stability_check(p, k0)`` claims
|k_i - k*| <= M * beta**i * |k0 - k*| with beta < 1. The property runs the
orbit and holds the claim against every state, up to the float floor near
k*, and checks that beta is no larger than the multiplier 1 - v0 or the
slowest one-step contraction the orbit shows.
"""

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from greenberg_dynamics.analysis import exponential_stability_check
from greenberg_dynamics.dynamics import iterate
from greenberg_dynamics.model import TrafficParams

# Below v0 ~ 1/745 the fixed point exp(-1/v0) underflows to 0.
v0s = st.floats(min_value=0.01, max_value=0.99)
fractions = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
kjs = st.sampled_from((1.0, 0.3, 7.0))


@pytest.mark.thorough
@given(v0s, kjs, fractions)
def test_certificate_bounds_the_orbit_and_is_sharp(v0, kj, fraction):
    k0 = fraction * kj
    assume(0.0 < k0 < kj)
    p = TrafficParams(v0=v0, kj=kj)
    k_star = kj * math.exp(-1.0 / v0)
    cert = exponential_stability_check(p, k0)
    if not cert.stable:
        # only an orbit that leaves (0, kj] at once, or one starting so close
        # to 0 that beta rounds to 1, goes without a certificate
        k1 = v0 * k0 * math.log(kj / k0)
        assert not (0.0 < k1 <= kj) or min(k0, k1) < k_star * 2**-50
        return
    assert cert.m == 1.0 and 0.0 <= cert.beta < 1.0

    orbit = iterate(k0, p, 200)
    assert orbit.escaped is None
    e = [abs(k - k_star) for k in orbit.densities]
    # float floor and ratio tolerance as in acceptance criterion 13
    slack = 32 * math.ulp(k_star) / v0
    for i, e_i in enumerate(e):
        assert e_i <= cert.m * cert.beta**i * e[0] + slack

    floor = 2**20 * math.ulp(k_star)
    observed = [b / a for a, b in zip(e, e[1:]) if b > floor]
    assert cert.beta <= max([1.0 - v0] + observed) + 1e-5
