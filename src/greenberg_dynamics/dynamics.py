"""Discrete iteration of the flow-density map and orbit-level experiments.

The advance rule identifies the next density with the current flow:
k(i+1) = v0 * k(i) * ln(kj / k(i)). Orbits are immutable once built. The
package has two map loops. ``_trajectory`` here takes one logarithm
ln(kj / k) per step and keeps every density and ratio: orbits, sensitivity
runs and the bifurcation scan's attractor tails derive the flow
v0 * k * ln(kj / k) and the velocity v0 * ln(kj / k) from them.
``analysis._lyapunov_terms`` streams instead: it keeps no point and folds
the slope v0 * (ln(kj / k) - 1) into a running sum as it steps, because the
Lyapunov sweep reads each of its 11 000 points per grid value only once.
Once its float orbit repeats a density exactly, it replays the cycle's
terms instead of stepping on, so stable orbits cost far fewer logarithms.
"""

from __future__ import annotations

import math
import warnings

from dataclasses import dataclass

from .errors import ArgumentError, DomainError, EscapeWarning
from .model import TrafficParams, TrafficState

DEFAULT_ITERATIONS = 300
DEFAULT_SENSITIVITY_DELTA = 1e-3
DEFAULT_SENSITIVITY_THRESHOLD = 0.1


@dataclass(frozen=True)
class Orbit:
    """A density orbit with its derived flow and velocity values.

    ``states`` holds only in-domain states (length n+1 when nothing escapes).
    When an iterate leaves (0, kj], ``escaped`` is the index that iterate
    would have had and the orbit is truncated just before it.
    """

    params: TrafficParams
    k0: float
    n: int
    states: tuple[TrafficState, ...]
    escaped: int | None = None

    @property
    def densities(self) -> tuple[float, ...]:
        return tuple(s.k for s in self.states)


@dataclass(frozen=True)
class SensitivityResult:
    """Two nearby orbits and their pointwise density separation."""

    orbit_a: Orbit
    orbit_b: Orbit
    threshold: float
    separation: tuple[float, ...]
    first_divergence_index: int | None


def _trajectory(
    k: float, p: TrafficParams, n: int
) -> tuple[list[float], list[float], float | None]:
    """Up to n map steps from density k in (0, kj], the domain checked once here.

    Returns the in-domain densities k_0, k_1, ..., the ratio ln(kj / k_i) of
    each (the same length), and the first successor that left (0, kj], or
    None when all n steps stayed inside. On escape the densities stop just
    before the escaped iterate, whose index is their length.
    """
    if not (0.0 < k <= p.kj):
        raise DomainError(f"density must lie in (0, {p.kj}], got {k}")
    v0, kj, log = p.v0, p.kj, math.log
    densities = [k]
    ratios: list[float] = []
    for _ in range(n):
        ratio = log(kj / k)
        ratios.append(ratio)
        k = v0 * k * ratio
        if not (0.0 < k <= kj):
            return densities, ratios, k
        densities.append(k)
    ratios.append(log(kj / k))
    return densities, ratios, None


def _states(
    densities: list[float], ratios: list[float], p: TrafficParams
) -> tuple[TrafficState, ...]:
    """Diagram states from densities and their ratios ln(kj / k)."""
    v0 = p.v0
    return tuple(
        TrafficState(k=k, q=v0 * k * ratio, v=v0 * ratio)
        for k, ratio in zip(densities, ratios)
    )


def iterate(k0: float, p: TrafficParams, n: int = DEFAULT_ITERATIONS) -> Orbit:
    """Generate the orbit of length n+1 from k0, truncating on escape.

    Deterministic: identical inputs produce bit-identical orbits. An escape
    is recorded on the orbit and reported as an EscapeWarning, not an error.
    """
    if not (0.0 < k0 < p.kj):
        raise DomainError(f"initial density must lie in (0, {p.kj}), got {k0}")
    if n < 1:
        raise ArgumentError(f"need at least one iteration, got {n}")
    densities, ratios, escaped_k = _trajectory(k0, p, n)
    escaped: int | None = None
    if escaped_k is not None:
        escaped = len(densities)
        warnings.warn(
            f"orbit left (0, {p.kj}] at iterate {escaped} (density {escaped_k})",
            EscapeWarning,
            stacklevel=2,
        )
    states = _states(densities, ratios, p)
    return Orbit(params=p, k0=k0, n=n, states=states, escaped=escaped)


def map_derivative(k: float, p: TrafficParams) -> float:
    """Slope of the flow-density map: v0 * (ln(kj / k) - 1)."""
    if not (0.0 < k <= p.kj):
        raise DomainError(f"density must lie in (0, {p.kj}], got {k}")
    return p.v0 * (math.log(p.kj / k) - 1.0)


def cobweb_path(orbit: Orbit) -> list[tuple[float, float]]:
    """Staircase vertices (k,k) -> (k,q) -> (q,q) -> ... for the flow-density panel.

    The vertex count is 2 * (len(states) - 1) + 1; for a stationary orbit all
    vertices coincide at the fixed point on the q = k line.
    """
    if len(orbit.states) < 2:
        raise ArgumentError("cobweb path needs an orbit with at least two states")
    first = orbit.states[0]
    path = [(first.k, first.k)]
    for state in orbit.states[:-1]:
        path.append((state.k, state.q))
        path.append((state.q, state.q))
    return path


def sensitivity_experiment(
    k0: float,
    delta: float,
    p: TrafficParams,
    n: int = DEFAULT_ITERATIONS,
    threshold: float = DEFAULT_SENSITIVITY_THRESHOLD,
) -> SensitivityResult:
    """Run orbits from k0 and k0 + delta and track their pointwise separation.

    ``first_divergence_index`` is the smallest index whose separation exceeds
    ``threshold``, or None if the orbits never part that far. The separation
    sequence has the length of the shorter orbit.
    """
    if not (threshold > 0.0):
        raise ArgumentError(f"threshold must be positive, got {threshold}")
    orbit_a = iterate(k0, p, n)
    orbit_b = iterate(k0 + delta, p, n)
    m = min(len(orbit_a.states), len(orbit_b.states))
    separation = tuple(
        abs(orbit_a.states[i].k - orbit_b.states[i].k) for i in range(m)
    )
    first_divergence_index = next(
        (i for i, s in enumerate(separation) if s > threshold), None
    )
    return SensitivityResult(
        orbit_a=orbit_a,
        orbit_b=orbit_b,
        threshold=threshold,
        separation=separation,
        first_divergence_index=first_divergence_index,
    )
