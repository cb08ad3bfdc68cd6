"""Which digits of the repro orbits are true, against a 120-digit reference.

Each orbit experiment of ``repro`` is iterated again with ``decimal`` at
120 digits from the same float v0 and k0, and every float state is held
against it. A periodic orbit contracts its rounding errors, so it stays
within a few ulps of the reference at every step. A chaotic orbit
amplifies its first rounding error of about 2**-53 by exp(lam) per step,
so it departs by more than eps near step ln(eps / 2**-53) / lam.
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
