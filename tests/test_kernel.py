"""Bit-identity of the map loops of ``dynamics`` against a plain reference loop.

``iterate`` and the attractor tails of ``bifurcation_scan`` run on
``_trajectory``, which takes a single ln(kj / k) per step until the float
orbit repeats a density exactly and then repeats the cycle's densities
instead of stepping, and returns the cycle's lap; ``model._states`` builds
their states, one ln(kj / k) per density up to the end of the first lap,
and repeats the lap's states after it.
``_lyapunov_terms`` steps in its own transient and averaging loops and
hands the rest of a cycle's sum to ``_replay_cycle``, which takes the
slopes of one lap of ``_trajectory``'s densities and adds whole laps of
their terms by exact strides (``_cycle_sum``). The reference below is the
straightforward loop over the model formulas (flow, velocity and slope
each computing their own logarithm, no replay); every float must agree bit
for bit, which ``float.hex`` makes explicit, and every escape must be
reported at the same step. The strides are held to the term-by-term sum
the same way, and an orbit for a power-of-two kj to kj times the orbit for
kj = 1.
"""

import math
import operator
import random
from functools import reduce
from itertools import accumulate, cycle, islice

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from greenberg_dynamics import dynamics
from greenberg_dynamics.analysis import (
    bifurcation_scan,
    detect_period,
    lyapunov_curve,
    lyapunov_exponent,
)
from greenberg_dynamics.dynamics import SINGULARITY_FLOOR, _lyapunov_terms, _trajectory, iterate
from greenberg_dynamics.errors import EscapeError
from greenberg_dynamics.model import TrafficParams


def ref_flow(k, p):
    if k == 0.0 or k == p.kj:
        return 0.0
    return p.v0 * k * math.log(p.kj / k)


def ref_velocity(k, p):
    return p.v0 * math.log(p.kj / k)


def ref_slope(k, p):
    return p.v0 * (math.log(p.kj / k) - 1.0)


def ref_orbit(k0, p, n):
    """In-domain densities of up to n steps, the escape index and escaped density."""
    ks = [k0]
    for i in range(n):
        k = ref_flow(ks[-1], p)
        if not (0.0 < k <= p.kj):
            return ks, i + 1, k
        ks.append(k)
    return ks, None, None


def ref_lyapunov(k0, p, n, n_transient):
    """(estimate, used, skipped), or the EscapeError message."""
    k = k0
    for i in range(n_transient):
        k = ref_flow(k, p)
        if not (0.0 < k <= p.kj):
            return f"orbit left (0, {p.kj}] during transient step {i + 1} at v0={p.v0}"
    acc = 0.0
    skipped = 0
    for j in range(n):
        slope = ref_slope(k, p)
        if abs(slope) < SINGULARITY_FLOOR:
            skipped += 1
        else:
            acc += math.log(abs(slope))
        if j < n - 1:
            k = ref_flow(k, p)
            if not (0.0 < k <= p.kj):
                return f"orbit left (0, {p.kj}] after {j + 1} averaged terms at v0={p.v0}"
    used = n - skipped
    if used == 0:
        return -math.inf, 0, skipped
    return acc / used, used, skipped


def hexes(xs):
    return [x.hex() for x in xs]


# v0 up to e keeps orbits in (0, kj]; beyond e they can overshoot kj. Tiny v0
# and tiny k0 drive successors to the absorbing boundary 0.
v0s = st.floats(min_value=0.0, max_value=4.0, exclude_min=True)
fractions = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)
kjs = st.sampled_from((1.0, 0.3, 7.0))


def params_and_k0(v0, kj, fraction):
    k0 = fraction * kj
    assume(0.0 < k0 < kj)
    return TrafficParams(v0=v0, kj=kj), k0


def count_logs(monkeypatch):
    """Count math.log calls; the list collects each argument."""
    calls = []
    log = math.log

    def counting_log(x):
        calls.append(x)
        return log(x)

    monkeypatch.setattr(math, "log", counting_log)
    return calls


# At v0 = 0.5 the orbit from this k0 lands at step 1 on a float fixed point.
STEP_ONE_FIXED_K0 = 0.666059855098374

# (v0, k0, n, logarithms): _trajectory takes one ln(kj / k) per step until a
# density equals one it already holds, and repeats the cycle from there. The
# 2-cycle from 0.35 first repeats at step 37, and the 16-point float cycle
# of the 8-cycle at v0 = 2.48 at step 147, whether n is 200 or 300. Chaos
# takes one logarithm per step, n in all.
TRAJECTORY_PINS = [
    (0.5, STEP_ONE_FIXED_K0, 300, 2),
    (2.25, 0.35, 37, 37),  # the cycle closes exactly at step n
    (2.25, 0.35, 300, 37),
    (2.48, 0.23, 200, 147),
    (2.48, 0.23, 300, 147),
    (2.585, 0.1, 300, 300),
]
# The lap of each pinned orbit, by v0: it starts a lap before the step where
# the cycle first repeats. Chaos closes none.
PINNED_LAPS = {0.5: (1, 1), 2.25: (35, 2), 2.48: (131, 16), 2.585: None}


@pytest.mark.parametrize("v0, k0, n, logs", TRAJECTORY_PINS)
def test_trajectory_steps_until_a_cycle_closes(monkeypatch, v0, k0, n, logs):
    calls = count_logs(monkeypatch)
    densities, lap = _trajectory(k0, TrafficParams(v0=v0), n)
    monkeypatch.undo()
    assert len(calls) == logs
    assert len(densities) == n + 1
    assert lap == PINNED_LAPS[v0]


@pytest.mark.thorough
@given(v0s, kjs, fractions, st.integers(1, 300))
@example(0.5, 1.0, STEP_ONE_FIXED_K0, 300)  # a fixed point reached at step 1
@example(2.25, 1.0, 0.35, 37)  # a cycle that closes exactly at step n
@example(2.25, 1.0, 0.35, 300)  # the 2-cycle
@example(2.48, 1.0, 0.23, 300)  # a 16-point float cycle of the 8-cycle
@example(2.585, 1.0, 0.1, 300)  # chaotic: never repeats
def test_iterate_matches_reference(v0, kj, fraction, n):
    p, k0 = params_and_k0(v0, kj, fraction)
    ks, escape_index, _ = ref_orbit(k0, p, n)
    orbit = iterate(k0, p, n)
    assert hexes(s.k for s in orbit.states) == hexes(ks)
    assert hexes(s.q for s in orbit.states) == hexes(ref_flow(k, p) for k in ks)
    assert hexes(s.v for s in orbit.states) == hexes(ref_velocity(k, p) for k in ks)
    # one state per density up to the end of the first lap, reused after it
    _, lap = _trajectory(k0, p, n)
    assert orbit.lap == lap
    assert len({id(s) for s in orbit.states}) == (len(ks) if lap is None else sum(lap))
    assert orbit.escaped == escape_index


# The scan runs at kj = 1 and on v0 <= e only; tails with other kj take the
# same _trajectory as iterate and are covered above.
@pytest.mark.thorough
@given(v0s, fractions, st.integers(3, 400), st.integers(2, 399))
@example(0.5, STEP_ONE_FIXED_K0, 300, 60)  # a fixed point reached at step 1
@example(2.25, 0.35, 37, 30)  # a cycle that closes exactly at step n_total
@example(2.25, 0.35, 300, 60)  # the 2-cycle
@example(2.48, 0.23, 300, 60)  # a 16-point float cycle of the 8-cycle
@example(2.585, 0.1, 300, 60)  # chaotic: never repeats
@example(0.00085, 1e-300, 60, 40)  # underflows to 0 after 17 of the 40 kept samples
def test_attractor_tail_matches_reference(v0, fraction, n_total, n_keep):
    p, k0 = params_and_k0(v0, 1.0, fraction)
    assume(v0 <= math.e and n_keep < n_total)
    ks, escape_index, _ = ref_orbit(k0, p, n_total)
    expected = ks[n_total - n_keep + 1:]
    scan = bifurcation_scan(v0, v0, 1, k0=k0, n_total=n_total, n_keep=n_keep)
    [states] = scan.samples
    assert hexes(s.k for s in states) == hexes(expected)
    assert scan.escaped == (escape_index is not None,)
    assert hexes(s.q for s in states) == hexes(ref_flow(k, p) for k in expected)
    assert hexes(s.v for s in states) == hexes(ref_velocity(k, p) for k in expected)
    [lap] = scan.laps
    built = len(states) if lap is None else min(sum(lap), len(states))
    assert len({id(s) for s in states}) == built
    # an escaped tail carries no period
    cap = min(64, n_keep // 2)
    period = detect_period(expected, 1e-6, cap) if escape_index is None else None
    assert scan.detected_periods == (period,)


def fits(densities, start, length):
    """Whether each density from start + length on equals the one a lap before it."""
    return all(densities[i] == densities[i - length] for i in range(start + length, len(densities)))


def reuses_lap(states, lap):
    """Whether each state past the first lap is the state object a lap before it."""
    start, length = lap
    return all(states[i] is states[i - length] for i in range(start + length, len(states)))


# The property draws the scan's (n_total, n_keep) as (n, n_keep) where they
# are a scan's, at kj = 1 and v0 <= e.
@pytest.mark.thorough
@given(v0s, kjs, fractions, st.integers(1, 400), st.integers(2, 399))
@example(2.48, 1.0, 0.23, 300, 60)  # a 16-point float cycle of the 8-cycle
@example(2.48, 1.0, 0.23, 200, 60)  # the same cycle, first repeated at step 147
@example(2.4114112283463918, 1.0, 0.4190380832535111, 300, 60)  # lap (8, 4) of the tail
@example(2.5356805346025695, 1.0, 0.1518156773639057, 300, 60)  # lap (52, 6) of the tail
@example(2.25, 1.0, 0.35, 37, 30)  # a cycle that closes exactly at step n
@example(2.585, 1.0, 0.1, 300, 60)  # chaotic: no lap
def test_trajectory_lap_is_exact_and_least(v0, kj, fraction, n, n_keep):
    # the first repeat closes the lap: every density before it is distinct,
    # so no shorter length and no earlier start fits
    p, k0 = params_and_k0(v0, kj, fraction)
    densities, lap = _trajectory(k0, p, n)
    orbit = iterate(k0, p, n)
    assert orbit.lap == lap
    if lap is None:
        assert len(set(densities)) == len(densities)
    else:
        start, length = lap
        assert len(densities) == n + 1 and start + length <= n
        assert len(set(densities[:start + length])) == start + length
        assert fits(densities, start, length)
        assert reuses_lap(orbit.states, lap)
    if kj == 1.0 and v0 <= math.e and n_keep < n:
        scan = bifurcation_scan(v0, v0, 1, k0=k0, n_total=n, n_keep=n_keep)
        first = n - n_keep + 1
        [tail], [tail_lap] = scan.samples, scan.laps
        assert tail_lap == (None if lap is None else (max(start - first, 0), length))
        assert tail_lap is None or reuses_lap(tail, tail_lap)


def test_default_scan_carries_a_lap_for_every_point_that_repeats():
    # 818 of the 1000 default points repeat a density within their 300 steps
    scan = bifurcation_scan(0.05, 2.7, 1000)
    repeats = []
    for v0 in scan.v0_grid:
        ks = ref_orbit(scan.settings.k0, TrafficParams(v0=v0), scan.settings.n_total)[0]
        repeats.append(len(set(ks)) < len(ks))
    assert sum(repeats) == 818
    assert [lap is not None for lap in scan.laps] == repeats


def lap_period(lap_ks, cap, tolerance):
    """The least divisor d <= cap of the lap's length that moves no density of
    the lap, cyclically, by the tolerance or more; None if there is none."""
    length = len(lap_ks)
    for d in range(1, min(cap, length) + 1):
        later = lap_ks[d:] + lap_ks[:d]
        if length % d == 0 and all(abs(b - a) < tolerance for a, b in zip(lap_ks, later)):
            return d
    return None


# A tail that is whole laps from its first sample could take its period from
# its lap alone; the label detect_period gives its window must be that one.
@pytest.mark.thorough
@given(
    st.floats(0.05, math.e, exclude_max=True),
    st.floats(1e-3, 0.999, exclude_max=True),
    st.sampled_from([300, 500, 2000]),
    st.sampled_from([20, 60, 100, 200]),
)
@example(2.25, 0.35, 300, 60)  # the 2-cycle
@example(2.48, 0.23, 300, 60)  # a 16-point float cycle of the 8-cycle
@example(2.5356805346025695, 0.1518156773639057, 300, 60)  # excluded: lap (52, 6) of the tail
def test_a_tail_of_whole_laps_is_labelled_by_its_lap(v0, k0, n_total, n_keep):
    scan = bifurcation_scan(v0, v0, 1, k0=k0, n_total=n_total, n_keep=n_keep)
    [tail_lap] = scan.laps
    assume(tail_lap is not None and tail_lap[0] == 0)
    densities, (start, length) = _trajectory(k0, TrafficParams(v0=v0), n_total)
    cap = min(64, n_keep // 2)
    expected = lap_period(densities[start:start + length], cap, scan.settings.tolerance)
    assert scan.detected_periods == (expected,)


def test_two_cycle_scan_tail_holds_two_states():
    [tail] = bifurcation_scan(2.25, 2.25, 1, k0=0.35).samples
    assert len(tail) == 60
    assert len({id(s) for s in tail}) == 2


def lyapunov_outcome(p, k0):
    try:
        return lyapunov_exponent(p, k0, n=1000, n_transient=100).hex()
    except EscapeError:
        return EscapeError  # the message names kj


# With kj = 2**m, kj / k is the same float for k = kj * k', and every product
# that carries k is kj times the one that carries k', until a density falls
# to where scaling it reaches subnormals.
@pytest.mark.thorough
@given(
    st.floats(min_value=0.0, max_value=math.e, exclude_min=True),
    fractions,
    st.integers(-30, 30),
    st.integers(1, 300),
)
@example(2.25, 0.35, 30, 300)  # the 2-cycle
@example(2.585, 0.1, -30, 300)  # chaotic
@example(math.e, math.exp(-1.0), 5, 300)  # lands on kj at step 1 and escapes to 0
def test_orbits_scale_exactly_with_a_power_of_two_kj(v0, fraction, m, n):
    kj = 2.0**m
    base, scaled = TrafficParams(v0=v0), TrafficParams(v0=v0, kj=kj)
    # 1100 steps cover the orbit and the exponent's transient and terms; an
    # escape to 0 from below kj is an underflow
    densities, _ = _trajectory(fraction, base, 1100)
    to_zero = len(densities) <= 1100 and ref_flow(densities[-1], base) == 0.0
    assume(min(densities) >= 1e-280 and (not to_zero or densities[-1] == 1.0))
    orbit, scaled_orbit = iterate(fraction, base, n), iterate(fraction * kj, scaled, n)
    assert hexes(s.k for s in scaled_orbit.states) == hexes(kj * s.k for s in orbit.states)
    assert hexes(s.q for s in scaled_orbit.states) == hexes(kj * s.q for s in orbit.states)
    assert hexes(s.v for s in scaled_orbit.states) == hexes(s.v for s in orbit.states)
    assert scaled_orbit.escaped == orbit.escaped
    assert lyapunov_outcome(scaled, fraction * kj) == lyapunov_outcome(base, fraction)


# A v0 whose float orbit from 0.25 ends on a 2-cycle through a point where
# ln(kj / k) is exactly 1, so one term of each lap is singular (the
# superstable 2-cycle v0^2 * (1 - ln v0) = 1 rounded to a float).
MIXED_V0 = 2.2184574899167

# (v0, k0, float cycle length) for cycles found while averaging from k0 with
# no transient. They are the repro's 2-, 4- and 8-cycle orbits; a float
# cycle can be a multiple of the attractor period, because laps may differ
# in the last bit before one repeats exactly.
AVERAGING_CYCLES = [(2.25, 0.35, 2), (2.405, 0.275, 8), (2.48, 0.23, 16), (MIXED_V0, 0.25, 2)]


@given(v0s, kjs, fractions, st.integers(1, 2000), st.integers(0, 500))
@example(0.5, 1.0, 0.25, 2000, 500)  # cycle found during the transient
@example(0.5, 1.0, 0.25, 1, 500)  # cycle found on the only term: nothing left to replay
@example(2.25, 1.0, 0.35, 2000, 0)  # cycles found while averaging
@example(2.405, 1.0, 0.275, 2000, 0)
@example(2.48, 1.0, 0.23, 2000, 0)
@example(2.48, 1.0, 0.23, 1999, 7)
@example(2.585, 1.0, 0.1, 2000, 500)  # chaotic: never cycles
@example(MIXED_V0, 1.0, 0.25, 1999, 0)  # singular and regular terms in one cycle
@example(MIXED_V0, 1.0, 0.25, 2000, 1)
def test_lyapunov_terms_match_reference(v0, kj, fraction, n, n_transient):
    p, k0 = params_and_k0(v0, kj, fraction)
    expected = ref_lyapunov(k0, p, n, n_transient)
    if isinstance(expected, str):
        with pytest.raises(EscapeError) as raised:
            _lyapunov_terms(p, k0, n, n_transient)
        assert str(raised.value) == expected
        return
    estimate, used, skipped = _lyapunov_terms(p, k0, n, n_transient)
    assert estimate.hex() == expected[0].hex()
    assert (used, skipped) == expected[1:]
    assert used + skipped == n


# At v0 = 2.75 the orbit from each k0 first leaves (0, 1] at this step.
ESCAPE_STEP = {0.024: 8, 0.314: 1}


@pytest.mark.parametrize(
    "k0, n, n_transient, outcome",
    [
        (0.024, 3, 5, None),  # the escape would follow the last averaged point
        (0.024, 4, 5, "after 3 averaged terms"),
        (0.024, 2, 7, "after 1 averaged terms"),
        (0.024, 2, 8, "during transient step 8"),
        (0.314, 1, 0, None),  # one term from k0 alone, though step 1 escapes
    ],
)
def test_lyapunov_terms_at_the_escape_boundaries(k0, n, n_transient, outcome):
    p = TrafficParams(v0=2.75)
    assert ref_orbit(k0, p, 20)[1] == ESCAPE_STEP[k0]
    expected = ref_lyapunov(k0, p, n, n_transient)
    if outcome is not None:
        assert expected == f"orbit left (0, 1.0] {outcome} at v0=2.75"
        with pytest.raises(EscapeError) as raised:
            _lyapunov_terms(p, k0, n, n_transient)
        assert str(raised.value) == expected
        return
    estimate, used, skipped = _lyapunov_terms(p, k0, n, n_transient)
    assert (estimate.hex(), used, skipped) == (expected[0].hex(), *expected[1:])


@given(st.integers(1, 2000), st.integers(0, 500))
def test_superstable_orbit_skips_every_term(n, n_transient):
    # from the map maximum kj/e at v0 = 1 the orbit never moves and f' = 0
    p = TrafficParams(v0=1.0)
    assert _lyapunov_terms(p, math.exp(-1.0), n, n_transient) == (-math.inf, 0, n)
    assert ref_lyapunov(math.exp(-1.0), p, n, n_transient) == (-math.inf, 0, n)


def record_replays(monkeypatch):
    """Wrap _replay_cycle; the list collects (period, rest) of each replay."""
    replays = []
    replay = dynamics._replay_cycle

    def recording(p, k, period, rest, acc):
        replays.append((period, rest))
        return replay(p, k, period, rest, acc)

    monkeypatch.setattr(dynamics, "_replay_cycle", recording)
    return replays


@pytest.mark.parametrize("v0, k0, period", AVERAGING_CYCLES)
def test_pinned_examples_replay_a_cycle_while_averaging(monkeypatch, v0, k0, period):
    replays = record_replays(monkeypatch)
    _lyapunov_terms(TrafficParams(v0=v0), k0, 2000, 0)
    [(found, rest)] = replays
    assert found == period and 0 < rest < 2000


def test_chaotic_orbit_never_replays(monkeypatch):
    replays = record_replays(monkeypatch)
    _lyapunov_terms(TrafficParams(v0=2.585), 0.1, 10_000, 1_000)
    assert replays == []


def test_mixed_cycle_skips_its_singular_term_on_every_lap():
    p = TrafficParams(v0=MIXED_V0)
    expected = ref_lyapunov(0.25, p, 10_000, 1_000)
    assert 4_000 < expected[2] < 6_000  # about half the terms are singular
    estimate, used, skipped = _lyapunov_terms(p, 0.25, 10_000, 1_000)
    assert (estimate.hex(), used, skipped) == (expected[0].hex(), *expected[1:])


def term_by_term(acc, logs, adds):
    return reduce(operator.add, islice(cycle(logs), adds), acc)


# Dyadic terms are multiples of a power of two, so some are rounding ties at
# the ulp of the sum they are added to.
dyadics = st.builds(math.ldexp, st.integers(-(2**12), 2**12), st.integers(-60, 0))
finite = st.floats(allow_nan=False, allow_infinity=False)


@pytest.mark.thorough
@given(
    st.one_of(st.floats(-1e4, 1e4), dyadics, finite),
    st.lists(st.one_of(st.floats(-10.0, 10.0), dyadics, finite), min_size=1, max_size=6),
    st.integers(0, 3000),
)
@example(1 + 2**-52, [3 * 2**-53], 1000)  # a tie: each add rounds to even
@example(-0.5, [-0.001], 10_000)  # binade crossings
@example(0.3, [-0.2, 0.1, -0.05], 9_999)  # a sign change
@example(3.0, [0.5, -0.5], 10_000)  # zero drift
@example(-12.25, [math.log(0.5)], 10_000)  # the sink's replay
@example(0.0, [0.4, -1.3, 0.2], 10**7)  # ten million terms from 0
@settings(deadline=None)  # the reference adds 10**7 terms one at a time
def test_cycle_sum_matches_term_by_term_sum(acc, logs, adds):
    assert dynamics._cycle_sum(acc, logs, adds).hex() == term_by_term(acc, logs, adds).hex()


def count_terms_added_one_at_a_time(monkeypatch):
    """Wrap the reduce and accumulate of dynamics; the list collects each term count."""
    counts = []

    def counting_reduce(function, terms, initial):
        terms = list(terms)
        counts.append(len(terms))
        return reduce(function, terms, initial)

    def counting_accumulate(terms, function, initial):
        counts.append(len(terms))
        return accumulate(terms, function, initial=initial)

    monkeypatch.setattr(dynamics, "reduce", counting_reduce)
    monkeypatch.setattr(dynamics, "accumulate", counting_accumulate)
    return counts


@pytest.mark.parametrize("n", [10_000, 10**6])
def test_sink_replay_adds_few_terms_one_at_a_time(monkeypatch, n):
    # term by term, the replay would add about n terms; the strides add 36 and 57
    counts = count_terms_added_one_at_a_time(monkeypatch)
    estimate, used, skipped = _lyapunov_terms(TrafficParams(v0=0.5), 0.25, n, 1_000)
    assert (used, skipped) == (n, 0)
    assert 0 < sum(counts) < 100
    assert estimate == pytest.approx(math.log(0.5), abs=1e-9)


def test_sink_replays_instead_of_stepping(monkeypatch):
    # stepping all 10 000 + 1 000 points would take 22 000 logarithms
    calls = count_logs(monkeypatch)
    estimate = _lyapunov_terms(TrafficParams(v0=0.5), 0.25, 10_000, 1_000)[0]
    monkeypatch.undo()
    assert len(calls) < 1_000
    assert estimate == pytest.approx(math.log(0.5), abs=1e-9)


def test_lyapunov_curve_matches_reference_point_by_point(monkeypatch):
    # a seeded grid like the benchmark's: it crosses the slowly converging
    # sinks just below v0 = 2 and the chaotic band above 2.55
    rng = random.Random(2017)
    v0_min, k0 = rng.uniform(0.05, 0.10), rng.uniform(0.15, 0.35)
    replays = record_replays(monkeypatch)
    curve = lyapunov_curve(v0_min, 2.7, 40, k0=k0)
    assert any(1.95 < v0 < 2.02 for v0 in curve.v0_grid)
    assert 0 < len(replays) < 40
    for v0, estimate, used, skipped in zip(
        curve.v0_grid, curve.lambdas, curve.n_terms, curve.skipped_terms
    ):
        expected = ref_lyapunov(k0, TrafficParams(v0=v0), 10_000, 1_000)
        assert not isinstance(expected, str) and math.isfinite(expected[0])
        assert (estimate.hex(), used, skipped) == (expected[0].hex(), *expected[1:])


@pytest.mark.xfail(
    strict=True,
    reason="skipping singular terms drops their -inf; the survivors of a superstable "
    "cycle average to a positive exponent",
)
def test_superstable_cycle_has_no_positive_exponent():
    # one point of each lap of the MIXED_V0 cycle has f' = 0: the true exponent is -inf
    estimate, used, skipped = _lyapunov_terms(TrafficParams(v0=MIXED_V0), 0.25, 10_000, 1_000)
    assert (used, skipped) == (5_000, 5_000)
    assert estimate <= 0.0


# Feigenbaum 1978 (J. Stat. Phys. 19:25): the superstable parameters of the
# period-doubling cascade approach its end, near v0 = 2.4905, with gaps that
# shrink by delta = 4.6692... each doubling.
FEIGENBAUM_DELTA = 4.669201609102990
CASCADE_END = 2.4906


def superstable_v0(j, previous):
    """The first v0 above previous whose orbit from kj/e returns to it after 2**j steps.

    Steps up from previous + 1e-7 toward CASCADE_END until the return's miss
    changes sign, bisects to adjacent floats and keeps the one that misses less.
    """
    peak = math.exp(-1.0)

    def miss(v0):
        return iterate(peak, TrafficParams(v0=v0), 2**j).states[-1].k - peak

    lo = hi = previous + 1e-7
    above = miss(lo) > 0.0
    while (miss(hi) > 0.0) == above:
        lo, hi = hi, hi + (CASCADE_END - hi) / 8
    while lo < (mid := (lo + hi) / 2) < hi:
        if (miss(mid) > 0.0) == above:
            lo = mid
        else:
            hi = mid
    return min(lo, hi, key=lambda v0: abs(miss(v0)))


def test_superstable_cascade_converges_to_feigenbaums_delta():
    roots = [1.0]  # the superstable fixed point kj/e
    for j in range(1, 6):
        roots.append(superstable_v0(j, roots[-1]))
    # the superstable 2-cycle is the parameter of the strict xfail above
    assert roots[1] == MIXED_V0
    assert roots[2:] == pytest.approx(
        [2.434307754288339, 2.4784822178586756, 2.487911037018846, 2.489928401215189],
        rel=1e-15,
    )
    gaps = [b - a for a, b in zip(roots, roots[1:])]
    deltas = [a / b for a, b in zip(gaps, gaps[1:])]
    assert deltas == pytest.approx([5.6449, 4.8863, 4.6850, 4.6738], abs=1e-4)
    assert all(a > b > FEIGENBAUM_DELTA for a, b in zip(deltas, deltas[1:]))
    for j, v0 in enumerate(roots[1:], start=1):
        scan = bifurcation_scan(v0, v0, 1, n_total=4000, n_keep=256)
        assert scan.detected_periods == (2**j,)
