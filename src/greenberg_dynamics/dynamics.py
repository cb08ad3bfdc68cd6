"""Discrete iteration of the flow-density map and orbit-level experiments.

The advance rule identifies the next density with the current flow:
k(i+1) = v0 * k(i) * ln(kj / k(i)). Orbits are immutable once built. Every
map step of the package is taken here, by one of three loops:

- ``_trajectory`` takes one logarithm ln(kj / k) per step and returns every
  density. Orbits, sensitivity runs and the bifurcation scan's attractor
  tails take their states from ``model._states``, and the Lyapunov cycle
  replay takes the slope ``map_derivative`` of each density of one lap.
- The transient loop of ``_lyapunov_terms`` only steps.
- Its averaging loop keeps no point: it takes ln(kj / k) once for both the
  term ln|f'| and the step, because the Lyapunov sweep reads each of its
  11 000 points per grid value only once.

``_trajectory`` keeps each density once, in the dict that looks it up, in
orbit order, and its docstring states when a float cycle closes and what
follows. The Lyapunov loops keep no density and compare each with one
saved on the schedule of ``_cycle_block``: once one repeats, the transient
skips whole cycles, and the averaging loop hands the rest of its sum to
``_replay_cycle``, which takes the terms of one lap of ``_trajectory`` and
adds whole laps by exact strides, bit for bit the term-by-term sum. The
lap is part of the result of ``_trajectory`` and ``Orbit``, and
``model._states`` and the emitters build and format one lap and repeat it.
"""

from __future__ import annotations

import math
import operator

from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, cycle, islice

from .errors import ArgumentError, DomainError, EscapeError
from .model import TrafficParams, TrafficState, _states

DEFAULT_ITERATIONS = 300
DEFAULT_SENSITIVITY_DELTA = 1e-3
DEFAULT_SENSITIVITY_THRESHOLD = 0.1

# Terms with |f'| below this floor would send ln|f'| to -inf; the orbit can
# land on the map maximum kj/e where f' = 0, so they are skipped and counted.
SINGULARITY_FLOOR = 1e-300

# The Lyapunov loops, which keep no densities, save the density at step 0,
# 1, 2, 4, ... up to this many and then every this many steps; a cycle is
# found once a save falls on it and its length fits before the next save.
_CYCLE_BLOCK = 256


@dataclass(frozen=True)
class Orbit:
    """A density orbit with its derived flow and velocity values.

    ``states`` holds only in-domain states (length n+1 when nothing escapes).
    When an iterate leaves (0, kj], ``escaped`` is the index that iterate
    would have had and the orbit is truncated just before it. ``lap`` is the
    (start, length) or None that ``_trajectory`` returns.
    """

    params: TrafficParams
    k0: float
    n: int
    states: tuple[TrafficState, ...]
    escaped: int | None = None
    lap: tuple[int, int] | None = None

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


def _cycle_block(index: int) -> int:
    """Steps from the density saved at ``index`` to the next save."""
    return min(max(index, 1), _CYCLE_BLOCK)


def _trajectory(k: float, p: TrafficParams, n: int) -> tuple[list[float], tuple[int, int] | None]:
    """Up to n map steps from density k in (0, kj], the domain checked once here.

    Returns the in-domain densities k_0, k_1, ... and the lap or None. An
    escape is a list shorter than n + 1: it stops just before the first
    iterate that left (0, kj], whose index is its length. The first density
    equal to an earlier k_start closes the lap (start, length): the rest
    repeats the cycle between them, each float the one stepping would give,
    because the step is a pure function of k, and it cannot escape, because
    every point of the cycle was already checked. Every density before it is
    distinct, so start and length are each the least with
    k_i == k_(i - length) for i >= start + length, and the keys of ``seen``
    hold them in orbit order. The lap is None exactly when no kept density
    repeats, which includes every escape.
    """
    if not (0.0 < k <= p.kj):
        raise DomainError(f"density must lie in (0, {p.kj}], got {k}")
    v0, kj, log = p.v0, p.kj, math.log
    seen = {k: 0}
    for index in range(1, n + 1):
        k = v0 * k * log(kj / k)
        if not (0.0 < k <= kj):
            break
        start = seen.setdefault(k, index)
        if start < index:
            densities = list(seen)
            densities += islice(cycle(densities[start:]), n + 1 - index)
            return densities, (start, index - start)
    return list(seen), None


def _lyapunov_terms(
    p: TrafficParams, k0: float, n: int, n_transient: int
) -> tuple[float, int, int]:
    """Average ln|f'| over the n orbit points that follow n_transient steps from k0.

    Returns (estimate, terms used, terms skipped). Raises EscapeError if one
    of the n_transient + n - 1 steps the average needs leaves (0, kj]: each
    point is checked before its term, so the successor of the last averaged
    point is computed but never checked. When every term is singular (a
    superstable orbit pinned to the map maximum) the estimate is -inf, the
    true limit value. A replayed cycle adds the same terms in the same order
    as stepping would, so the result is bit-identical. Stable orbits reach
    such a cycle within a few thousand steps; chaotic ones keep stepping.
    """
    if not (0.0 < k0 < p.kj):
        raise DomainError(f"initial density must lie in (0, {p.kj}), got {k0}")
    v0, kj, log, floor = p.v0, p.kj, math.log, SINGULARITY_FLOOR
    k = k0
    index = 0
    while index < n_transient:
        saved = k
        block = min(_cycle_block(index), n_transient - index)
        for step in range(1, block + 1):
            k = v0 * k * log(kj / k)
            if not (0.0 < k <= kj):
                raise EscapeError(
                    f"orbit left (0, {kj}] during transient step {index + step} at v0={v0}"
                )
            if k == saved:
                index += (n_transient - index) // step * step
                break
        else:
            index += block
    acc = 0.0
    skipped = 0
    terms = 0
    while terms < n:
        saved = k
        block = min(_cycle_block(terms), n - terms)
        # Counting steps within the block keeps the loop on CPython's cached
        # small ints; counting terms would allocate an int per term past 256.
        for step in range(1, block + 1):
            if not (0.0 < k <= kj):
                raise EscapeError(
                    f"orbit left (0, {kj}] after {terms + step - 1} averaged terms at v0={v0}"
                )
            ratio = log(kj / k)
            slope_size = abs(v0 * (ratio - 1.0))
            if slope_size < floor:
                skipped += 1
            else:
                acc += log(slope_size)
            k = v0 * k * ratio
            if k == saved:
                acc, replay_skipped = _replay_cycle(p, k, step, n - terms - step, acc)
                skipped += replay_skipped
                block = n - terms  # the replay added every remaining term
                break
        terms += block
    used = n - skipped
    if used == 0:
        return -math.inf, 0, skipped
    return acc / used, used, skipped


def _replay_cycle(
    p: TrafficParams, k: float, period: int, rest: int, acc: float
) -> tuple[float, int]:
    """Add the terms of the next rest points of the period-cycle through k to acc.

    Takes the map_derivative of the densities of one lap of _trajectory and
    computes the period terms once. _cycle_sum adds them to acc with the bits
    of adding them one at a time, in orbit order, as the averaging loop
    would, but adds whole laps by exact strides; sum() does not add them,
    because from Python 3.12 it compensates float sums and changes the bits.
    Returns the new acc and the number of singular terms among the rest.
    """
    sizes = [abs(map_derivative(point, p)) for point in _trajectory(k, p, period - 1)[0]]
    logs = [math.log(size) for size in sizes if size >= SINGULARITY_FLOOR]
    cycles, part = divmod(rest, period)
    adds = cycles * len(logs) + sum(size >= SINGULARITY_FLOOR for size in sizes[:part])
    return _cycle_sum(acc, logs, adds), rest - adds


def _cycle_sum(acc: float, logs: list[float], adds: int) -> float:
    """reduce(operator.add, islice(cycle(logs), adds), acc), bit for bit, in strides.

    The terms are finite: every cycle point lies in the domain and has a
    slope of at least SINGULARITY_FLOOR. Each attempt adds one lap term by
    term with accumulate, which rounds each add as reduce does. Suppose every
    partial sum of that lap, acc included, lies strictly inside one binade
    (2**(e-1), 2**e) of one sign, whose floats are the multiples of its ulp
    u, and no term l is a rounding tie at u (abs(fmod(l, u)) != u / 2).
    Rounding is monotone and the binade's edges are floats, so for any
    multiple s of u, if s + l rounds to a float strictly inside the binade,
    s + l lies there too and rounds to s + round_u(l), l rounded to the
    nearest multiple of u, whatever s is. So every later lap whose partials
    stay strictly inside adds the same d = end - acc, exact by Sterbenz's
    lemma, and its partials are this lap's plus d. The largest k laps that
    keep the lap's extreme partials plus k * d strictly inside are jumped at
    once: k * d and end + k * d are multiples of u below 2**e, so both are
    exact, and so are the room to the edge that d heads for and the floor
    division that gives k. When the rule fails (a sign change, a binade
    crossing within the lap, or a tie, which includes a subnormal u whose
    half rounds to 0), laps are added term by term in batches that double
    until a lap fits a binade again, so no more terms are added one at a
    time than reduce adds. The partial last lap is added term by term.
    """
    laps, part = divmod(adds, len(logs)) if logs else (0, 0)
    batch = 1
    while laps:
        sums = list(accumulate(logs, operator.add, initial=acc))
        start, acc = acc, sums[-1]
        laps -= 1
        inner, outer = sorted((min(sums), max(sums)), key=abs)
        (mantissa, exponent), (_, outer_exponent) = math.frexp(inner), math.frexp(outer)
        ulp = math.ulp(inner)
        if (
            abs(mantissa) > 0.5
            and exponent == outer_exponent
            and math.isfinite(outer)
            and (inner > 0.0) == (outer > 0.0)
            and all(abs(math.fmod(term, ulp)) != ulp / 2 for term in logs)
        ):
            drift = acc - start
            edge = math.ldexp(0.5, exponent)
            if (drift > 0.0) == (outer > 0.0):
                room = edge - (abs(outer) - edge)
            else:
                room = abs(inner) - edge
            jump = min(laps, int((room - ulp) // abs(drift))) if drift else laps
            acc += jump * drift
            laps -= jump
            batch = 1
        else:
            batch_laps = min(batch, laps)
            acc = reduce(operator.add, islice(cycle(logs), batch_laps * len(logs)), acc)
            laps -= batch_laps
            batch *= 2
    return reduce(operator.add, logs[:part], acc)


def iterate(k0: float, p: TrafficParams, n: int = DEFAULT_ITERATIONS) -> Orbit:
    """Generate the orbit of length n+1 from k0, truncating on escape.

    Deterministic: identical inputs produce bit-identical orbits. An escape
    is data, recorded in ``Orbit.escaped``; it raises and warns nothing.
    """
    if not (0.0 < k0 < p.kj):
        raise DomainError(f"initial density must lie in (0, {p.kj}), got {k0}")
    if n < 1:
        raise ArgumentError(f"need at least one iteration, got {n}")
    densities, lap = _trajectory(k0, p, n)
    escaped = len(densities) if len(densities) <= n else None
    return Orbit(params=p, k0=k0, n=n, states=_states(densities, p, lap), escaped=escaped, lap=lap)


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
    separation = tuple(abs(a.k - b.k) for a, b in zip(orbit_a.states, orbit_b.states))
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
