import cmath
import math
from collections import Counter

import numpy as np
import pytest

from kleinlog import elliptic
from kleinlog._vec import fsum
from kleinlog.elliptic import ConvergenceRegimeError, EllipticParams, elliptic_d2
from kleinlog.polylog import PolylogResult, _bloch_wigner_bounded, bloch_wigner


def brute_bilateral(q: complex, x: complex, tol: float = 1e-13) -> float:
    """Direct sum of D(q^k x) over k in [-K, K], K grown until the dominating
    tail 2 r (1 + |log r|) / (1 - |q|) on both ends is below tol."""
    aq, ax = abs(q), abs(x)

    def side_bound(r):
        return 2 * r * (1 + abs(math.log(r))) / (1 - aq)

    K = 8
    while K < 4000:
        r_pos = aq ** (K + 1) * ax  # |q^k x| for k = K+1
        r_neg = aq ** (K + 1) / ax  # |1 / (q^-k x)| for k = -(K+1)
        if side_bound(r_pos) < tol and side_bound(r_neg) < tol:
            break
        K *= 2
    terms = [bloch_wigner(q ** k * x) for k in range(-K, K + 1)]
    return math.fsum(terms)


def sample_pairs(rng, n, q_hi=0.8):
    out = []
    while len(out) < n:
        aq = rng.uniform(0.05, q_hi)
        q = aq * cmath.exp(2j * math.pi * rng.random())
        # x in the fundamental annulus |q| < |x| <= 1, off the q-orbit of 1
        ax = rng.uniform(aq + 0.02, 1.0)
        x = ax * cmath.exp(2j * math.pi * rng.random())
        out.append((q, x))
    return out


def test_matches_brute_oracle():
    rng = np.random.default_rng(101)
    for q, x in sample_pairs(rng, 40):
        got = elliptic_d2(q, x, 1e-12)
        ref = brute_bilateral(q, x)
        assert abs(got.value - ref) < 1e-10, (q, x)
        assert abs(got.value - ref) <= got.error_bound + 1e-12


def test_invariance_under_q_shift():
    rng = np.random.default_rng(103)
    tol = 1e-10
    for q, x in sample_pairs(rng, 100):
        a = elliptic_d2(q, x, tol).value
        b = elliptic_d2(q, q * x, tol).value
        assert abs(a - b) <= 2 * tol, (q, x)


def test_conjugation_antisymmetry():
    rng = np.random.default_rng(107)
    for q, x in sample_pairs(rng, 30):
        a = elliptic_d2(q, x, 1e-11).value
        b = elliptic_d2(q.conjugate(), x.conjugate(), 1e-11).value
        assert abs(a + b) < 5e-11


def test_real_q_real_x_vanishes():
    # conjugation symmetry forces the average to vanish for real data
    for q in (0.3, 0.6, -0.5):
        for x in (0.8, -0.9, 0.5):
            assert abs(elliptic_d2(q, x, 1e-11).value) < 5e-11


def test_rejects_bad_regimes():
    with pytest.raises(ConvergenceRegimeError):
        elliptic_d2(1.0 + 0j, 0.5j)
    with pytest.raises(ConvergenceRegimeError):
        elliptic_d2(1.2, 0.5j)
    with pytest.raises(ConvergenceRegimeError):
        elliptic_d2(0.0, 0.5j)
    with pytest.raises(ValueError):
        elliptic_d2(0.5, 0.0)


def test_params_validation():
    p = EllipticParams(0.5 + 0j, 0.7j, 1e-10)
    assert p.q == 0.5 + 0j
    with pytest.raises(ValueError):
        EllipticParams(0.5 + 0j, 0.7j, -1.0)


def test_lattice_point_is_finite():
    # x on the orbit of 1 is fine: D(1) = 0, no singularity
    q = 0.4 + 0.1j
    v = elliptic_d2(q, 1.0 + 0j, 1e-11).value
    w = elliptic_d2(q, q, 1e-11).value
    assert abs(v - w) < 5e-11
    assert math.isfinite(v)


def summed_tail_bound(aq: float, ax: float, terms: int) -> float:
    """The tail bound at `terms` with its explicit envelope values summed
    afresh by fsum, as _tail_bounds yields it at that step."""
    biglog = -math.log(aq)

    def one_side(a):
        k0 = terms + 1
        if a > 0.5:
            k0 = max(k0, math.ceil(math.log(2.0 * a) / biglog))
        explicit = fsum([elliptic._d_envelope(a * aq ** k)
                         for k in range(terms + 1, k0)])
        r0 = aq ** k0
        geo0 = r0 / (1.0 - aq)
        geo1 = r0 * (k0 - (k0 - 1) * aq) / (1.0 - aq) ** 2
        return explicit + 2.0 * a * ((1.0 + abs(math.log(a))) * geo0 + biglog * geo1)

    return one_side(ax) + one_side(1.0 / ax)


@pytest.mark.parametrize("aq, ax", [(0.5, 0.5), (0.5, 0.7), (0.9, 1e30),
                                    (0.7, 1e-200), (0.95, 1.0), (0.999, 3.0)])
def test_tail_bounds_are_the_summed_envelopes_bit_for_bit(aq, ax):
    """The running exact sum of the explicit envelope values gives the
    fsum of the values left at every step, across the step where the last
    explicit value goes (about 660 steps at ax = 1e30, 1,800 at aq = 0.999),
    and the bound never grows."""
    last = max(math.ceil(math.log(2.0 * a) / -math.log(aq)) for a in (ax, 1.0 / ax))
    checked = set(range(0, last + 4, 13)) | set(range(max(0, last - 3), last + 4))
    bounds = elliptic._tail_bounds(aq, ax)
    prev = math.inf
    for terms in range(last + 4):
        got = next(bounds)
        assert got <= prev
        prev = got
        if terms in checked:
            assert got.hex() == summed_tail_bound(aq, ax, terms).hex(), terms


def test_far_x_takes_each_envelope_value_twice(monkeypatch):
    """At q = 0.9 and x = 1e300 the average takes 6,878 pairs, and the
    explicit part of the tail bound is summed once and then taken apart: two
    envelope values per explicit term, where summing it afresh each step
    took about 21 million."""
    calls = [0]
    envelope = elliptic._d_envelope

    def counting(r):
        calls[0] += 1
        return envelope(r)

    monkeypatch.setattr(elliptic, "_d_envelope", counting)
    res = elliptic_d2(0.9, 1e300)
    pairs = (res.terms_used - 1) // 2
    assert pairs == 6878
    assert calls[0] <= 2 * pairs


def unguarded_d2(q, x, tol, max_pairs):
    """elliptic_d2's loop alone, which refuses once max_pairs pairs leave
    the tail bound above 0.5 tol.  Run it with _MAX_PAIRS past every k1,
    so that _tail_bounds refuses nothing before the loop."""
    params = EllipticParams(q, x, tol)
    q, x = params.q, params.x
    v0, eval_err = _bloch_wigner_bounded(x, 1e-14)
    values, w_plus, w_minus = [v0], x, x
    pairs, bounds = 0, elliptic._tail_bounds(abs(q), abs(x), tol)
    while (tail := next(bounds)) > 0.5 * tol:
        if pairs >= max_pairs:
            raise ConvergenceRegimeError(
                f"tail bound {tail} did not reach tol {tol} within "
                f"{max_pairs} pairs")
        pairs += 1
        w_plus, w_minus = w_plus * q, w_minus / q
        if not (math.isfinite(w_minus.real) and math.isfinite(w_minus.imag)):
            w_minus = 0j
        vp, ep = _bloch_wigner_bounded(w_plus, 1e-14)
        vm, em = _bloch_wigner_bounded(w_minus, 1e-14)
        values += (vp, vm)
        eval_err += ep + em
    return PolylogResult(fsum(values), tail + eval_err, 2 * pairs + 1)


def outcome(f, *args):
    try:
        return f(*args)
    except ConvergenceRegimeError as e:
        return str(e)


def test_hopeless_inputs_refused_exactly_where_the_loop_refuses(monkeypatch):
    """With _MAX_PAIRS = 200, the refusal before any work fires only where
    the loop would refuse after 200 pairs, and every other input gets the
    loop's own result, bit for bit."""
    kinds = Counter()
    for aq in (0.5, 0.9, 0.97, 0.99):
        q = aq * cmath.exp(0.3j)
        # |x| = aq^-(k - 1/2) / 2 puts k1 at k: below the guard's edge, and
        # at it (k1 - 1 = _MAX_PAIRS, and one more)
        edge = [0.5 * aq ** (0.5 - k) for k in (170, 201, 202)]
        for x in (0.3 + 0.2j, 40.0, 1e10, 1e-10j, 3e13, 1e30, *edge):
            for tol in (1e-12, 1e-6, 1.0, 2.0, 2.5, 1e4):
                monkeypatch.setattr(elliptic, "_MAX_PAIRS", 200)
                got = outcome(elliptic_d2, q, x, tol)
                monkeypatch.setattr(elliptic, "_MAX_PAIRS", 10**9)
                ref = outcome(unguarded_d2, q, x, tol, 200)
                if isinstance(ref, str):
                    assert isinstance(got, str), (q, x, tol)
                    kinds["early" if got != ref else "loop"] += 1
                    if got != ref:
                        assert "fall to modulus 1/2 only at |k| = " in got
                else:
                    assert got == ref, (q, x, tol)
                    kinds["value"] += 1
    # the grid holds all three outcomes
    assert min(kinds["early"], kinds["loop"], kinds["value"]) >= 5, kinds
