"""Which digits of the repro orbits are true, against a 120-digit reference.

Each orbit experiment of ``repro`` is iterated again with ``decimal`` at
120 digits from the same float v0 and k0, and every float state is held
against it. A periodic orbit contracts its rounding errors, so it stays
within a few ulps of the reference at every step. A chaotic orbit
amplifies its first rounding error of about 2**-53 by exp(lam) per step,
so it departs by more than eps near step ln(eps / 2**-53) / lam.

A chaotic float orbit is still close to some true orbit: solved backward
at 60 digits from its last point, each step on the branch of the map that
holds the float point, a true orbit shadows all of it. Backward solving
does not fit a periodic orbit, whose inverse map expands along its stable
cycle; its 120-digit forward reference is its shadow.
"""

import math
from decimal import Decimal, localcontext

import pytest

from greenberg_dynamics.analysis import lyapunov_exponent
from greenberg_dynamics.cli import REPRO_EXPERIMENTS
from greenberg_dynamics.dynamics import iterate
from greenberg_dynamics.model import TrafficParams


def flag_values(flags):
    words = flags.split()
    return dict(zip(words[::2], map(float, words[1::2])))


ORBITS = {
    name: flag_values(flags) for name, commands, flags in REPRO_EXPERIMENTS if "orbit" in commands
}
CHAOTIC = ("chaotic_a", "chaotic_b")
PERIODIC = tuple(name for name in ORBITS if name not in CHAOTIC)


def orbit_and_errors(name):
    """The float orbit of 300 steps and each state's distance from the reference."""
    flags = ORBITS[name]
    p, k0 = TrafficParams(v0=flags["--v0"]), flags["--k0"]
    orbit = iterate(k0, p, 300)
    with localcontext() as context:
        context.prec = 120
        v0, kj, k = Decimal(p.v0), Decimal(p.kj), Decimal(k0)
        errors = []
        for state in orbit.states:
            errors.append(abs(Decimal(state.k) - k))
            k = v0 * k * (kj / k).ln()
    return p, k0, orbit, errors


def test_the_repro_orbits_are_eight():
    assert len(ORBITS) == 8 and set(CHAOTIC) < set(ORBITS)


# Measured: 1.28, 1.72, 2.29, 5.98, 18.2 and 45.3 ulps, free_flow_sink to
# eight_cycle.
@pytest.mark.parametrize("name", PERIODIC)
def test_periodic_orbit_stays_within_ulps_of_the_reference(name):
    _, _, orbit, errors = orbit_and_errors(name)
    assert orbit.escaped is None and len(errors) == 301
    assert all(e <= 100 * Decimal(math.ulp(s.k)) for e, s in zip(errors, orbit.states))


# Measured departures by 1e-12, 1e-6 and 1e-2: steps 32, 69 and 93 for
# chaotic_a and 35, 72 and 100 for chaotic_b, against 26.4, 66.5 and 93.2
# predicted from lam = 0.3446 and 0.3448; the ratios lie in [1.00, 1.33].
@pytest.mark.parametrize("name", CHAOTIC)
def test_chaotic_orbit_departs_near_the_lyapunov_horizon(name):
    p, k0, orbit, errors = orbit_and_errors(name)
    lam = lyapunov_exponent(p, k0, n=100_000)
    for eps in (1e-12, 1e-6, 1e-2):
        step = next(i for i, e in enumerate(errors) if e > Decimal(eps))
        assert 0.5 <= step / (math.log(eps / 2**-53) / lam) <= 2.0


def backward_shadow(orbit):
    """The true orbit ending at the last float point, each preimage on its float point's branch.

    Each preimage is solved by Newton's method at 60 digits from its float
    point, on the same side of the map maximum kj/e. Returns the shadow and
    kj/e.
    """
    with localcontext() as context:
        context.prec = 60
        v0, kj = Decimal(orbit.params.v0), Decimal(orbit.params.kj)
        peak = kj / Decimal(1).exp()
        floats = [Decimal(s.k) for s in orbit.states]
        shadow = [floats[-1]]
        for guess in reversed(floats[:-1]):
            x = guess
            for _ in range(20):
                ratio = (kj / x).ln()
                step = (v0 * x * ratio - shadow[-1]) / (v0 * (ratio - 1))
                x -= step
                if abs(step) < Decimal("1e-58"):
                    break
            assert (x < peak) == (guess < peak)
            shadow.append(x)
        shadow.reverse()
    return shadow, peak


# Measured: the shadow lies within 4.70e-14 (chaotic_a) and 2.07e-15
# (chaotic_b) of the float orbit, and starts 7.4e-17 and 2.9e-17 from k0.
# The float orbit comes closest to kj/e, where the branches meet and the
# preimage is most sensitive, at 3.4e-4 and 3.5e-3.
@pytest.mark.parametrize("name, closest", [("chaotic_a", 3.4e-4), ("chaotic_b", 3.5e-3)])
def test_chaotic_orbit_is_shadowed_by_a_true_orbit(name, closest):
    p, _, orbit, _ = orbit_and_errors(name)
    shadow, peak = backward_shadow(orbit)
    floats = [Decimal(s.k) for s in orbit.states]
    assert max(abs(x - f) for x, f in zip(shadow, floats)) <= Decimal("1e-12")
    with localcontext() as context:
        context.prec = 60
        v0, kj = Decimal(p.v0), Decimal(p.kj)
        residuals = [abs(v0 * x * (kj / x).ln() - y) for x, y in zip(shadow, shadow[1:])]
    assert max(residuals) < Decimal("1e-56")
    assert math.isclose(min(abs(f - peak) for f in floats), closest, rel_tol=0.05)
