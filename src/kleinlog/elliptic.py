"""The q-averaged single-valued dilogarithm sum_k D(q^k x) on the Tate curve."""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._vec import _EXP_BIAS, _units, fsum
from .moebius import as_sphere_point
from .polylog import D_GLOBAL_BOUND, PolylogResult, SingularArgumentError, _bloch_wigner_bounded

_Q_MARGIN = 1e-12
_MAX_PAIRS = 500_000


class ConvergenceRegimeError(ValueError):
    """|q| outside the open unit annulus where the average converges."""


@dataclass(frozen=True)
class EllipticParams:
    """Validated parameters for the elliptic average."""

    q: complex
    x: complex
    tol: float = 1e-10

    def __post_init__(self):
        q = complex(self.q)
        aq = abs(q)
        if not (0.0 < aq < 1.0 - _Q_MARGIN):
            raise ConvergenceRegimeError(
                f"|q| must lie in (0, 1 - {_Q_MARGIN}), got |q| = {aq}"
            )
        x = as_sphere_point(self.x)
        if x.is_infinity or x.value == 0:
            raise SingularArgumentError("x must be finite and nonzero")
        ax = math.hypot(x.value.real, x.value.imag)  # abs() raises on overflow
        if not math.isfinite(2.0 * max(ax, 1.0 / ax)):
            raise SingularArgumentError(
                f"2|x| and 2/|x| must be finite, got x = {x.value!r}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "x", x.value)
        if not (self.tol > 0.0):
            raise ValueError(f"tolerance must be positive, got {self.tol!r}")


def _d_envelope(r: float) -> float:
    # proven pointwise bound for |D| on the circle |w| = r
    if r <= 0.0:
        return 0.0
    if r <= 0.5:
        return 2.0 * r * (1.0 - math.log(r))
    if r >= 2.0:
        return 2.0 / r * (1.0 + math.log(r))
    return D_GLOBAL_BOUND


def _tail_bounds(aq: float, ax: float, tol: float = math.inf):
    """Yield, for terms = 0, 1, 2, ..., an upper bound for the mass of all
    |k| > terms summands of the average at |q| = aq and |x| = ax, as
    EllipticParams checks them.  The bound does not increase, so refuse at
    once when its value at terms = _MAX_PAIRS exceeds 0.5 tol.

    It combines explicit envelope values in the transition annulus with a
    closed geometric form beyond it.  The explicit values of the k > terms
    left are one exact integer sum, which each step takes a value from,
    rounded once: their fsum, bit for bit, in constant work a step.
    """
    biglog = -math.log(aq)
    # |w_k| = a * aq^k is <= 1/2 from k1 on
    sides = [(a, math.ceil(math.log(2.0 * a) / biglog) if a > 0.5 else 0)
             for a in (ax, 1.0 / ax)]

    def one_side(a: float, k1: int, explicit: int, terms: int) -> float:
        # bounds sum_{k > terms} |D(w_k)| with |w_k| = a * aq^k
        k0 = max(terms + 1, k1)
        # for k >= k0 the modulus is <= 1/2 and |D(w)| <= 2|w|(1 + |log|w||)
        r0 = aq ** k0
        geo0 = r0 / (1.0 - aq)
        geo1 = r0 * (k0 - (k0 - 1) * aq) / (1.0 - aq) ** 2
        return explicit / (1 << (_EXP_BIAS + 53)) + 2.0 * a * (
            (1.0 + abs(math.log(a))) * geo0 + biglog * geo1)

    for a, k1 in sides:
        # while terms < k1 - 1 the bound holds k1 - 1's explicit value
        if k1 - 1 > _MAX_PAIRS and _d_envelope(a * aq ** (k1 - 1)) > 0.5 * tol:
            raise ConvergenceRegimeError(
                f"tail bound cannot reach tol {tol} within {_MAX_PAIRS} pairs: "
                f"the terms fall to modulus 1/2 only at |k| = {k1}")
    last = sum(one_side(a, k1, sum(_units(_d_envelope(a * aq ** k))
                                   for k in range(_MAX_PAIRS + 1, k1)), _MAX_PAIRS)
               for a, k1 in sides)
    if last > 0.5 * tol:
        raise ConvergenceRegimeError(
            f"tail bound {last} did not reach tol {tol} within {_MAX_PAIRS} pairs")
    # the explicit values of k = terms + 1 .. k1 - 1, in _vec._units
    left = [sum(_units(_d_envelope(a * aq ** k)) for k in range(1, k1))
            for a, k1 in sides]

    terms = 0
    while True:
        yield one_side(*sides[0], left[0], terms) + one_side(*sides[1], left[1], terms)
        terms += 1
        for j, (a, k1) in enumerate(sides):
            if terms < k1:
                left[j] -= _units(_d_envelope(a * aq ** terms))


def elliptic_d2(q, x, tol: float = 1e-10) -> PolylogResult:
    """sum_{k in Z} D(q^k x), summed symmetrically until the tail bound meets tol.

    The reported error_bound covers both the truncated tail and per-term
    evaluation error.
    """
    params = EllipticParams(q, x, tol)
    q, x, tol = params.q, params.x, params.tol

    v0, eval_err = _bloch_wigner_bounded(x, 1e-14)
    values = [v0]
    w_plus = w_minus = x
    pairs, bounds = 0, _tail_bounds(abs(q), abs(x), tol)
    while (tail := next(bounds)) > 0.5 * tol:
        pairs += 1
        w_plus = w_plus * q
        w_minus = w_minus / q
        if not (math.isfinite(w_minus.real) and math.isfinite(w_minus.imag)):
            # |q^-k x| overflowed; its D value is far below any sensible tol
            w_minus = 0j
        vp, ep = _bloch_wigner_bounded(w_plus, 1e-14)
        vm, em = _bloch_wigner_bounded(w_minus, 1e-14)
        values += (vp, vm)
        eval_err += ep + em
    value = fsum(values)
    return PolylogResult(value, tail + eval_err, 2 * pairs + 1)
