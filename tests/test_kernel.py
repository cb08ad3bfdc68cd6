"""Bit-identity of the two map loops against a plain reference loop.

``iterate`` and ``_attractor_tail`` run on ``dynamics._trajectory``, and
``_lyapunov_terms`` on its own streaming loop; each takes a single
ln(kj / k) per step. The reference below is the straightforward loop over
the model formulas (flow, velocity and slope each computing their own
logarithm); every float must agree bit for bit, which ``float.hex`` makes
explicit, and every escape must be reported at the same step.
"""

import math
import warnings

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from greenberg_dynamics.analysis import (
    SINGULARITY_FLOOR,
    _attractor_tail,
    _lyapunov_terms,
)
from greenberg_dynamics.dynamics import _states, iterate, step
from greenberg_dynamics.errors import EscapeError, EscapeWarning
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


@given(v0s, kjs, fractions, st.integers(1, 300))
def test_iterate_matches_reference(v0, kj, fraction, n):
    p, k0 = params_and_k0(v0, kj, fraction)
    ks, escape_index, escaped_k = ref_orbit(k0, p, n)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        orbit = iterate(k0, p, n)
    assert hexes(s.k for s in orbit.states) == hexes(ks)
    assert hexes(s.q for s in orbit.states) == hexes(ref_flow(k, p) for k in ks)
    assert hexes(s.v for s in orbit.states) == hexes(ref_velocity(k, p) for k in ks)
    assert orbit.escaped == escape_index
    if escape_index is None:
        assert not caught
    else:
        [warning] = caught
        assert warning.category is EscapeWarning
        assert f"at iterate {escape_index} (density {escaped_k})" in str(warning.message)
        assert step(ks[-1], p).k.hex() == escaped_k.hex()


@given(v0s, kjs, fractions, st.integers(2, 400), st.data())
def test_attractor_tail_matches_reference(v0, kj, fraction, n_total, data):
    p, k0 = params_and_k0(v0, kj, fraction)
    n_keep = data.draw(st.integers(1, n_total - 1))
    ks, escape_index, _ = ref_orbit(k0, p, n_total)
    expected = ks[n_total - n_keep + 1:]
    tail, ratios, escaped = _attractor_tail(p, k0, n_total, n_keep)
    assert hexes(tail) == hexes(expected)
    assert escaped == (escape_index is not None)
    states = _states(tail, ratios, p)
    assert hexes(s.q for s in states) == hexes(ref_flow(k, p) for k in expected)
    assert hexes(s.v for s in states) == hexes(ref_velocity(k, p) for k in expected)


@given(v0s, kjs, fractions, st.integers(1, 2000), st.integers(0, 500))
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
