"""The velocity coordinates as an independent oracle for the density map.

Because k(i+1) = k(i) * v(i), the velocity v = v0 * ln(kj / k) obeys its own
map g(v) = v - v0 * ln(v), in which kj drops out. The two maps are conjugate
through v = v0 * ln(kj / k), so in exact arithmetic periods and the
Lyapunov exponent are the same in both coordinate systems and for every kj.
The plain loop over g below shares no code with the package. On the eight
reference runs of `repro`, the package's density orbits must give the same
period, and on the periodic runs the same velocities and exponent up to
rounding. Chaotic float orbits part, so there the exponents need only share
their sign and agree to 0.02.
"""

import math

import pytest

from greenberg_dynamics.analysis import detect_period, lyapunov_exponent
from greenberg_dynamics.dynamics import iterate
from greenberg_dynamics.model import TrafficParams

# The reference orbits of `repro` (v0, k0 at kj = 1) and the paper's period.
PAPER_RUNS = [
    (0.25, 0.25, 1),
    (1.25, 0.1, 1),
    (1.75, 0.1, 1),
    (2.25, 0.35, 2),
    (2.405, 0.275, 4),
    (2.48, 0.23, 8),
    (2.585, 0.1, None),
    (2.585, 0.101, None),
]
KJS = (0.3, 1.0, 7.0)
STEPS = 2000
TAIL = 128
TERMS = 10_000
TRANSIENT = 1_000


def velocity_orbit(v0, v, n):
    vs = [v]
    for _ in range(n):
        v = v - v0 * math.log(v)
        vs.append(v)
    return vs


def velocity_lyapunov(v0, v, n, n_transient):
    for _ in range(n_transient):
        v = v - v0 * math.log(v)
    total = 0.0
    for _ in range(n):
        total += math.log(abs(1.0 - v0 / v))
        v = v - v0 * math.log(v)
    return total / n


@pytest.mark.parametrize("kj", KJS)
@pytest.mark.parametrize("v0, k0, period", PAPER_RUNS)
def test_periods_agree_between_coordinates(v0, k0, period, kj):
    p = TrafficParams(v0=v0, kj=kj)
    orbit = iterate(k0 * kj, p, STEPS)
    assert orbit.escaped is None
    vs = velocity_orbit(v0, v0 * math.log(kj / (k0 * kj)), STEPS)
    tail_k = [s.v for s in orbit.states[-TAIL:]]
    tail_v = vs[-TAIL:]
    assert detect_period(tail_v) == detect_period(tail_k) == period
    if period is not None:
        assert max(abs(a - b) for a, b in zip(tail_v, tail_k)) < 1e-13


@pytest.mark.parametrize("kj", KJS)
@pytest.mark.parametrize("v0, k0, period", PAPER_RUNS)
def test_lyapunov_exponents_agree_between_coordinates(v0, k0, period, kj):
    lam_k = lyapunov_exponent(TrafficParams(v0=v0, kj=kj), k0 * kj, TERMS, TRANSIENT)
    lam_v = velocity_lyapunov(v0, v0 * math.log(kj / (k0 * kj)), TERMS, TRANSIENT)
    if period is None:
        assert lam_v > 0.0 and lam_k > 0.0
        assert abs(lam_v - lam_k) < 0.02
    else:
        assert lam_v < 0.0 and lam_k < 0.0
        assert abs(lam_v - lam_k) < 1e-12
