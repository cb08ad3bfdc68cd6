"""Normalized Greenberg fundamental diagrams.

Continuous relations between density k, flow q and velocity v for the
logarithmic velocity-density law v = v0 * ln(kj / k), with the jam density
kj normalized to 1 by default. All functions here are pure and stateless.
Orbits, scan tails and diagram profiles all take their states from
``_states`` here, which equals state_of_density bit for bit. With the lap
of the kernel's result, it builds states up to the end of the first lap and
repeats them.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, cycle, islice
from typing import Callable, Iterable, Sequence

from .errors import ArgumentError, DomainError

# Sampling grid for diagram profiles: geometric spacing below SPLIT * kj
# resolves the free-flow branch, where velocity grows like ln(1/k) and a
# uniform grid would under-sample; uniform spacing covers the rest.
_GRID_MIN_FRACTION = 1e-4
_GRID_SPLIT_FRACTION = 0.1


@dataclass(frozen=True)
class TrafficParams:
    """Model parameters: optimum velocity v0 (>= 0) and jam density kj (> 0)."""

    v0: float
    kj: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.v0) and self.v0 >= 0.0):
            raise DomainError(f"v0 must be finite and non-negative, got {self.v0}")
        if not (math.isfinite(self.kj) and self.kj > 0.0):
            raise DomainError(f"kj must be finite and positive, got {self.kj}")


@dataclass(frozen=True)
class TrafficState:
    """One (density, flow, velocity) point on the fundamental diagrams."""

    k: float
    q: float
    v: float


def velocity_of_density(k: float, p: TrafficParams) -> float:
    """Velocity at density k: v0 * ln(kj / k). Exactly zero at k = kj."""
    if not (0.0 < k <= p.kj):
        raise DomainError(
            f"density must lie in (0, {p.kj}] for a finite velocity, got {k}"
        )
    return p.v0 * math.log(p.kj / k)


def flow_of_density(k: float, p: TrafficParams) -> float:
    """Flow at density k: v0 * k * ln(kj / k), extended by continuity to 0 at k = 0."""
    if not (0.0 <= k <= p.kj):
        raise DomainError(f"density must lie in [0, {p.kj}], got {k}")
    if k == 0.0 or k == p.kj:
        return 0.0
    return p.v0 * k * math.log(p.kj / k)


def state_of_density(k: float, p: TrafficParams) -> TrafficState:
    """The full diagram state at an in-domain density."""
    return TrafficState(k=k, q=flow_of_density(k, p), v=velocity_of_density(k, p))


def _repeat_lap(build: Callable, items: Sequence, lap: tuple[int, int] | None) -> Iterable:
    """build(items), a list of one result per item, built up to the end of the first lap only.

    ``lap`` is (start, length): from start + length on, each item equals the
    one a lap before it, and so does its result. None builds every item.
    """
    if lap is None:
        return build(items)
    start, length = lap
    head = build(items[:start + length])
    return chain(head, islice(cycle(head[start:]), len(items) - len(head)))


def _states(densities: Sequence[float], p: TrafficParams, lap=None) -> tuple[TrafficState, ...]:
    """state_of_density of each density in (0, kj], bit for bit, unchecked.

    A state is a pure function of k for one p, so each density up to the
    end of the first lap, or each density with no lap, takes one logarithm
    ln(kj / k) and gets a state, repeated at every later lap. The flow at kj
    is 0.0, as flow_of_density defines it, even where v0 * kj overflows.
    """
    v0, kj = p.v0, p.kj

    def build(ks: Sequence[float]) -> list[TrafficState]:
        # Positional fields: a keyword call costs about a quarter more per state.
        return [
            TrafficState(k, v0 * k * ratio if k != kj else 0.0, v0 * ratio)
            for k, ratio in zip(ks, map(math.log, map(kj.__truediv__, ks)))
        ]

    return tuple(_repeat_lap(build, densities, lap))


def optimum_point(p: TrafficParams) -> TrafficState:
    """The maximum-flow state: density kj/e, flow v0*kj/e, velocity v0."""
    k_opt = p.kj / math.e
    return TrafficState(k=k_opt, q=p.v0 * k_opt, v=p.v0)


def diagram_samples(p: TrafficParams, n: int) -> list[TrafficState]:
    """n diagram states at strictly increasing densities spanning (0, kj].

    The first third of the points is geometrically spaced on
    [1e-4 * kj, 0.1 * kj), the rest uniformly on [0.1 * kj, kj]. A kj so
    small that the grid's floats collapse raises DomainError.
    """
    if n < 2:
        raise ArgumentError(f"need at least 2 samples, got {n}")
    k_min = _GRID_MIN_FRACTION * p.kj
    split = _GRID_SPLIT_FRACTION * p.kj
    if k_min == 0.0:
        raise DomainError(f"kj={p.kj} is too small for a diagram grid")
    n_geo = max(1, n // 3)
    n_uni = n - n_geo
    ratio = split / k_min
    densities = [k_min * ratio ** (i / n_geo) for i in range(n_geo)]
    if n_uni == 1:
        densities.append(p.kj)
    else:
        step = (p.kj - split) / (n_uni - 1)
        densities.extend(split + j * step for j in range(n_uni))
        densities[-1] = p.kj
    if not all(map(operator.lt, densities, densities[1:])):
        raise DomainError(f"kj={p.kj} is too small for {n} increasing diagram densities")
    return list(_states(densities, p))
