"""Fixed points, stability, period detection, bifurcation scans and Lyapunov estimates.

Analytic results assume the normalized configuration kj = 1 unless noted.
Sweeps are restricted to v0 <= e: above that the map maximum v0/e exceeds
the jam density and orbits leave (0, kj]; escapes inside the allowed range
are recorded per grid point instead of raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .dynamics import _lyapunov_terms, _trajectory
from .errors import ArgumentError, DomainError, EscapeError
from .model import TrafficParams, TrafficState, _states

SINK = "hyperbolic-sink"
SOURCE = "hyperbolic-source"
CENTER = "center"
DEGENERATE = "degenerate"

DEFAULT_SCAN_K0 = 0.25
DEFAULT_SCAN_TOTAL = 300
DEFAULT_SCAN_KEEP = 60
DEFAULT_PERIOD_TOLERANCE = 1e-6
DEFAULT_MAX_PERIOD = 64
DEFAULT_LYAPUNOV_TERMS = 10_000
DEFAULT_LYAPUNOV_TRANSIENT = 1_000


@dataclass(frozen=True)
class FixedPointReport:
    """Analytic fixed point of the map with its multiplier and classification."""

    k_star: float
    multiplier: float
    classification: str
    exponentially_stable: bool


@dataclass(frozen=True)
class StabilityCertificate:
    """A per-orbit decay bound |k_i - k*| <= m * beta**i * |k0 - k*|, if one is issued.

    ``stable`` is True when the bound is issued with beta < 1; k* is the
    fixed point that classify_fixed_point reports (0 for v0 = 0). Without a
    certificate ``m`` and ``beta`` are None.
    """

    stable: bool
    m: float | None = None
    beta: float | None = None


@dataclass(frozen=True)
class ScanSettings:
    """Per-sweep configuration echoed into every emitted artifact."""

    k0: float
    n_total: int
    n_keep: int
    tolerance: float
    max_period: int = field(default=DEFAULT_MAX_PERIOD, init=False)


@dataclass(frozen=True)
class BifurcationScan:
    """Attractor samples, detected periods and laps (``Orbit.lap``) over a v0 grid.

    A lap counts from its point's first kept sample. A scan built by hand
    may leave ``laps`` empty; each sample is then emitted on its own.
    """

    v0_grid: tuple[float, ...]
    samples: tuple[tuple[TrafficState, ...], ...]
    detected_periods: tuple[int | None, ...]
    escaped: tuple[bool, ...]
    settings: ScanSettings
    laps: tuple[tuple[int, int] | None, ...] = ()


@dataclass(frozen=True)
class LyapunovSettings:
    k0: float
    n: int
    n_transient: int


@dataclass(frozen=True)
class LyapunovCurve:
    """Per-v0 Lyapunov estimates; points with no finite estimate carry None."""

    v0_grid: tuple[float, ...]
    lambdas: tuple[float | None, ...]
    n_terms: tuple[int, ...]
    skipped_terms: tuple[int, ...]
    settings: LyapunovSettings


def fixed_point(p: TrafficParams) -> float:
    """The fixed point kj * exp(-1 / v0) of the flow-density map, for v0 > 0.

    It is positive in exact arithmetic, but the float result underflows to
    0.0 once 1 / v0 exceeds about 745 (v0 below about 1/745 for kj = 1).
    """
    if not (p.v0 > 0.0):
        raise DomainError(
            f"no positive fixed point for v0 = {p.v0}; the map collapses to 0"
        )
    return p.kj * math.exp(-1.0 / p.v0)


def classify_fixed_point(p: TrafficParams) -> FixedPointReport:
    """Classify the fixed point from its multiplier 1 - v0.

    Sink for v0 in (0, 2), source for v0 > 2, center at the period-doubling
    boundary v0 = 2. v0 = 0 collapses the map to zero and is reported as
    degenerate rather than classified by the multiplier test. The
    exponential-stability flag is v0 < 1, the range in which
    exponential_stability_check issues a decay certificate for orbits from
    (0, kj). A v0 > 0 whose fixed point underflows to 0.0 raises
    DomainError: 0 is no fixed point with multiplier 1 - v0.
    """
    multiplier = 1.0 - p.v0
    if p.v0 == 0.0:
        k_star = 0.0
        classification = DEGENERATE
    else:
        k_star = fixed_point(p)
        if k_star == 0.0:
            raise DomainError(
                f"fixed point kj * exp(-1 / v0) underflows to 0 for v0 = {p.v0}; "
                "it cannot be classified"
            )
        if p.v0 == 2.0:
            classification = CENTER
        elif p.v0 < 2.0:
            classification = SINK
        else:
            classification = SOURCE
    return FixedPointReport(
        k_star=k_star,
        multiplier=multiplier,
        classification=classification,
        exponentially_stable=p.v0 < 1.0,
    )


def _deviation_factor(k: float, k_star: float, v0: float) -> float:
    """(f(k) - k*) / (k - k*): the factor one map step scales a deviation from k* by.

    From f(k) = k - v0 * k * ln(k / k*) it equals 1 - v0 * y * ln(y) / (y - 1)
    with y = k / k*, evaluated here without the cancellation that the plain
    quotient suffers near k*. Its value at k* is the multiplier 1 - v0.
    """
    if k == k_star:
        return 1.0 - v0
    if 0.5 <= k / k_star <= 2.0:
        x = (k - k_star) / k_star
        return 1.0 - v0 * (1.0 + x) * math.log1p(x) / x
    return 1.0 - v0 * k * (math.log(k) - math.log(k_star)) / (k - k_star)


def exponential_stability_check(p: TrafficParams, k0: float) -> StabilityCertificate:
    """Decay certificate |k_i - k*| <= beta**i * |k0 - k*| (M = 1) for the orbit from k0.

    Issued for 0 < v0 < 1, where k* = kj * exp(-1/v0) lies below the map
    maximum kj/e, with beta = max(1 - v0, |r(k0)|, r(m)): r is the factor
    _deviation_factor, m = min(k0, k1), and r(m) enters only when m < k*.
    Why it holds: f is concave, so its slope falls with k and r(k) is the
    slope of the chord from k to k*. Every k1 = f(k0) lies below kj/e,
    where f increases, so from step 1 on the orbit moves monotonically
    towards k*: from above it stays in (k*, kj/e) and each step scales the
    deviation by r in (0, 1 - v0); from below it rises and each step scales
    it by r(k_i) <= r(m) < 1. Step 0 scales it by |r(k0)| < 1.

    No single (M, beta) with beta < 1 covers every k0: orbits that start
    near 0 or near kj linger near 0 for arbitrarily many steps, so beta
    depends on k0. It is the exact map's bound; a floating-point orbit meets
    it up to its rounding floor near k*, a few ulps of k* divided by v0.

    v0 = 0 gets (M, beta) = (1, 0) about the degenerate fixed point 0. No
    certificate is issued for v0 >= 1, for an orbit that leaves (0, kj] at
    step 1 (k0 = kj does), when beta rounds to 1 (k0 or k1 within about
    1e-16 * k* of 0), or when exp(-1/v0) underflows (v0 below about 1/745).
    """
    densities, _ = _trajectory(k0, p, 1)
    if p.v0 == 0.0:
        return StabilityCertificate(stable=True, m=1.0, beta=0.0)
    if p.v0 >= 1.0 or len(densities) < 2:
        return StabilityCertificate(stable=False)
    k_star = fixed_point(p)
    if k_star == 0.0:
        return StabilityCertificate(stable=False)
    beta = max(1.0 - p.v0, abs(_deviation_factor(k0, k_star, p.v0)))
    m = min(densities)
    if m < k_star:
        beta = max(beta, _deviation_factor(m, k_star, p.v0))
    if beta < 1.0:
        return StabilityCertificate(stable=True, m=1.0, beta=beta)
    return StabilityCertificate(stable=False)


def detect_period(
    samples: Sequence[float],
    tolerance: float = DEFAULT_PERIOD_TOLERANCE,
    max_period: int = DEFAULT_MAX_PERIOD,
) -> int | None:
    """Smallest period p <= max_period with |x[i+p] - x[i]| < tolerance for all i.

    Returns None when no period fits (aperiodic). Ties resolve to the
    smallest period by construction.
    """
    if not (tolerance > 0.0):
        raise ArgumentError(f"tolerance must be positive, got {tolerance}")
    if max_period < 1:
        raise ArgumentError(f"max_period must be at least 1, got {max_period}")
    if len(samples) < 2 * max_period:
        raise ArgumentError(
            f"need at least {2 * max_period} samples for max_period {max_period}, "
            f"got {len(samples)}"
        )
    for p in range(1, max_period + 1):
        if all(abs(b - a) < tolerance for a, b in zip(samples, samples[p:])):
            return p
    return None


def _parameter_grid(v0_min: float, v0_max: float, steps: int) -> list[float]:
    if not (0.0 < v0_min <= v0_max):
        raise ArgumentError(f"need 0 < v0_min <= v0_max, got [{v0_min}, {v0_max}]")
    if v0_max > math.e:
        raise ArgumentError(
            f"v0_max must not exceed e ~ {math.e:.6f}: beyond it the map maximum "
            f"v0*kj/e leaves (0, kj], got {v0_max}"
        )
    if steps < 1:
        raise ArgumentError(f"steps must be at least 1, got {steps}")
    if steps == 1:
        if v0_min != v0_max:
            raise ArgumentError("a single-point grid needs v0_min == v0_max")
        return [v0_min]
    if v0_min == v0_max:
        raise ArgumentError("a multi-point grid needs v0_min < v0_max")
    width = v0_max - v0_min
    grid = [v0_min + i * width / (steps - 1) for i in range(steps)]
    # Rounding can carry the last point an ulp past v0_max, and so past e.
    grid[-1] = min(grid[-1], v0_max)
    return grid


def bifurcation_scan(
    v0_min: float,
    v0_max: float,
    steps: int,
    k0: float = DEFAULT_SCAN_K0,
    n_total: int = DEFAULT_SCAN_TOTAL,
    n_keep: int = DEFAULT_SCAN_KEEP,
    tolerance: float = DEFAULT_PERIOD_TOLERANCE,
) -> BifurcationScan:
    """Sweep v0 over an ascending grid, sampling each attractor and its period.

    Every grid point iterates n_total steps from ``k0`` (kj = 1) and keeps
    the last n_keep densities. The period search is capped at
    min(DEFAULT_MAX_PERIOD, n_keep // 2), so the retained window always
    satisfies the detector's length requirement. An escaped grid point is
    recorded, not raised: it keeps its partial samples and carries no
    period. The tolerance is checked even where no period is searched.
    """
    if not (tolerance > 0.0):
        raise ArgumentError(f"tolerance must be positive, got {tolerance}")
    if n_keep < 1 or n_keep >= n_total:
        raise ArgumentError(f"need 1 <= n_keep < n_total, got keep={n_keep} total={n_total}")
    grid = _parameter_grid(v0_min, v0_max, steps)
    if not (0.0 < k0 < 1.0):
        raise DomainError(f"scan initial density must lie in (0, 1.0), got {k0}")
    first = n_total - n_keep + 1
    cap = min(DEFAULT_MAX_PERIOD, n_keep // 2)

    def scan_point(v0: float):
        p = TrafficParams(v0=v0)
        densities, lap = _trajectory(k0, p, n_total)
        tail = densities[first:]
        escaped = len(densities) <= n_total
        period = detect_period(tail, tolerance, cap) if not escaped and cap >= 1 else None
        lap = lap and (max(lap[0] - first, 0), lap[1])
        return _states(tail, p, lap), period, escaped, lap

    samples, periods, escaped, laps = zip(*map(scan_point, grid))
    return BifurcationScan(
        v0_grid=tuple(grid),
        samples=samples,
        detected_periods=periods,
        escaped=escaped,
        laps=laps,
        settings=ScanSettings(
            k0=k0,
            n_total=n_total,
            n_keep=n_keep,
            tolerance=tolerance,
        ),
    )


def _check_lyapunov_lengths(n: int, n_transient: int) -> None:
    if n < 1000:
        raise ArgumentError(f"need at least 1000 averaged terms, got {n}")
    if n_transient < 0:
        raise ArgumentError(f"transient length must be non-negative, got {n_transient}")


def lyapunov_exponent(
    p: TrafficParams,
    k0: float,
    n: int = DEFAULT_LYAPUNOV_TERMS,
    n_transient: int = DEFAULT_LYAPUNOV_TRANSIENT,
) -> float:
    """Orbit-averaged ln|f'|: negative on sinks and cycles, positive on chaos.

    Terms with |f'| below dynamics.SINGULARITY_FLOOR are skipped; -inf is
    returned only when every term is (v0 = 1 from k0 = kj/e). A float cycle
    through kj/e averages its other terms: at v0 = 2.2184574899167 from
    k0 = 0.25 that gives about +0.57, not -inf (a strict xfail in
    tests/test_kernel.py).
    """
    _check_lyapunov_lengths(n, n_transient)
    estimate, _, _ = _lyapunov_terms(p, k0, n, n_transient)
    return estimate


def lyapunov_curve(
    v0_min: float,
    v0_max: float,
    steps: int,
    k0: float = DEFAULT_SCAN_K0,
    n: int = DEFAULT_LYAPUNOV_TERMS,
    n_transient: int = DEFAULT_LYAPUNOV_TRANSIENT,
) -> LyapunovCurve:
    """Lyapunov estimates over an ascending v0 grid; escapes become missing points."""
    _check_lyapunov_lengths(n, n_transient)
    grid = _parameter_grid(v0_min, v0_max, steps)

    def curve_point(v0: float) -> tuple[float | None, int, int]:
        try:
            estimate, used, skipped = _lyapunov_terms(TrafficParams(v0=v0), k0, n, n_transient)
        except EscapeError:
            return None, 0, 0
        if not math.isfinite(estimate):
            return None, used, skipped
        return estimate, used, skipped

    lambdas, n_terms, skipped_terms = zip(*map(curve_point, grid))
    return LyapunovCurve(
        v0_grid=tuple(grid),
        lambdas=lambdas,
        n_terms=n_terms,
        skipped_terms=skipped_terms,
        settings=LyapunovSettings(k0=k0, n=n, n_transient=n_transient),
    )
