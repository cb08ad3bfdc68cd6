"""Normalized Greenberg fundamental diagrams.

Continuous relations between density k, flow q and velocity v for the
logarithmic velocity-density law v = v0 * ln(kj / k), with the jam density
kj normalized to 1 by default. All functions here are pure and stateless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """One (density, flow, velocity) point on the fundamental diagrams.

    ``escaped`` marks a successor produced by the iteration that left the
    interval (0, kj]; such states carry no finite flow/velocity pair and
    never appear in emitted data.
    """

    k: float
    q: float
    v: float
    escaped: bool = False


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


def optimum_point(p: TrafficParams) -> TrafficState:
    """The maximum-flow state: density kj/e, flow v0*kj/e, velocity v0."""
    k_opt = p.kj / math.e
    return TrafficState(k=k_opt, q=p.v0 * k_opt, v=p.v0)


def diagram_samples(p: TrafficParams, n: int) -> list[TrafficState]:
    """n diagram states at strictly increasing densities spanning (0, kj].

    The first third of the points is geometrically spaced on
    [1e-4 * kj, 0.1 * kj), the rest uniformly on [0.1 * kj, kj].
    """
    if n < 2:
        raise ArgumentError(f"need at least 2 samples, got {n}")
    k_min = _GRID_MIN_FRACTION * p.kj
    split = _GRID_SPLIT_FRACTION * p.kj
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
    return [state_of_density(k, p) for k in densities]
