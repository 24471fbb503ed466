"""Classical polylogarithms and single-valued variants with tracked truncation error.

Li_n uses three argument regions: a direct power series for |z| <= 1/2, the
inversion formula through a Bernoulli polynomial for |z| >= 2, and the
log-argument expansion in the remaining band.  Every region carries a proven
geometric tail bound, so the reported error_bound is honest rather than a
heuristic.

bloch_wigner_many, the vector D, reduces by D's symmetries to |w| <= 1,
Re w <= 1/2, Im w >= 0, where |L| = |log(1 - w)| <= pi/3, and sums the
Bernoulli series of Li_2 in L to D_SERIES_K = 10 terms: a proven tail of at
most D_SERIES_TAIL = 7.2e-19.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._vec import fsum, fsum_c
from .moebius import as_sphere_point

EPS = 2.220446049250313e-16
TWO_PI = 2.0 * math.pi

# global sup of |D| on the sphere; the true maximum is D(exp(i*pi/3)) ~ 1.01494
D_GLOBAL_BOUND = 1.015


class SingularArgumentError(ValueError):
    """Polylogarithm evaluated at a singular or excluded argument."""


class PolylogOverflowError(OverflowError):
    """A constant of the requested order leaves the floating-point range."""


@dataclass(frozen=True)
class PolylogResult:
    """A value together with an a-priori bound on its truncation error."""

    value: complex
    error_bound: float
    terms_used: int


@lru_cache(maxsize=None)
def _bernoulli_fraction(m: int) -> Fraction:
    # recurrence sum_{j<=m} C(m+1, j) B_j = 0, convention B_1 = -1/2
    if m == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * _bernoulli_fraction(j)
    return -acc / (m + 1)


def bernoulli_number(m: int) -> float:
    """The Bernoulli number B_m (B_1 = -1/2)."""
    if m < 0:
        raise ValueError("Bernoulli index must be >= 0")
    if m > 2 and m % 2 == 1:
        return 0.0
    return float(_bernoulli_fraction(m))


@lru_cache(maxsize=None)
def zeta_int(k: int) -> float:
    """Riemann zeta at an integer argument != 1."""
    if k == 1:
        raise ValueError("zeta has a pole at 1")
    if k <= 0:
        n = -k
        return (-1.0) ** n * bernoulli_number(n + 1) / (n + 1)
    if k >= 64:
        return 1.0 + 2.0 ** (-k) + 3.0 ** (-k)
    # Euler-Maclaurin with cutoff N; correction terms decay like (k/ (2 pi N))^{2r}
    n_cut = 24
    acc = sum(j ** (-float(k)) for j in range(1, n_cut))
    acc += n_cut ** (1.0 - k) / (k - 1.0)
    acc += 0.5 * n_cut ** (-float(k))
    factor = k * n_cut ** (-float(k) - 1.0)
    for r in range(1, 13):
        acc += bernoulli_number(2 * r) / math.factorial(2 * r) * factor
        factor *= (k + 2 * r - 1) * (k + 2 * r) / (n_cut * n_cut)
    return acc


def _harmonic(n: int) -> float:
    return sum(1.0 / j for j in range(1, n + 1))


def _clean_neg(z: complex) -> complex:
    # -z with negative-zero components collapsed, so principal logs on the
    # real axis stay on the continuity-from-below branch
    w = -z
    return complex(w.real + 0.0, w.imag + 0.0)


def _li_series(n: int, z: complex, tol: float) -> PolylogResult:
    # direct sum, valid for |z| <= 1/2: tail after K terms is
    # <= |z|^{K+1} / ((K+1)^n (1 - |z|))
    az = abs(z)
    terms = []
    zk = 1 + 0j
    k = 0
    while True:
        k += 1
        zk *= z
        terms.append(zk / k ** n)
        tail = az ** (k + 1) / ((k + 1) ** n * (1.0 - az))
        if tail <= 0.5 * tol or k >= 10_000:
            break
    value = fsum_c(terms)
    rounding = 4.0 * EPS * fsum([abs(t) for t in terms])
    return PolylogResult(value, tail + rounding, k)


def _bernoulli_poly(n: int, u: complex) -> complex:
    # B_n(u) by Horner in u
    acc = 0j
    for k in range(n, -1, -1):
        acc = acc * u + math.comb(n, k) * bernoulli_number(n - k)
    return acc


def _li_inversion(n: int, z: complex, tol: float) -> PolylogResult:
    # Li_n(z) = (-1)^{n-1} Li_n(1/z) - (2 pi i)^n / n! * B_n(1/2 + log(-z)/(2 pi i))
    inner = _li_series(n, 1.0 / z, 0.5 * tol)
    u = 0.5 + cmath.log(_clean_neg(z)) / (2j * math.pi)
    corr = -((2j * math.pi) ** n) / math.factorial(n) * _bernoulli_poly(n, u)
    value = (-1.0) ** (n - 1) * inner.value + corr
    err = inner.error_bound + 8.0 * EPS * (abs(corr) + abs(value))
    return PolylogResult(value, err, inner.terms_used + n + 1)


def _li_log_band(n: int, z: complex, tol: float) -> PolylogResult:
    # expansion in mu = log z, valid for |mu| < 2 pi:
    # Li_n(e^mu) = mu^{n-1}/(n-1)! (H_{n-1} - log(-mu)) + sum_{k != n-1} zeta(n-k) mu^k / k!
    mu = cmath.log(z)
    amu = abs(mu)
    rho = amu / TWO_PI
    prefac = 0.549 * amu ** (n - 1) / (1.0 - rho * rho)
    terms = []
    k = 0
    mupow = 1 + 0j
    fact = 1.0
    used = 0
    while True:
        if k == n - 1:
            terms.append(mupow / fact * (_harmonic(n - 1) - cmath.log(_clean_neg(mu))))
            used += 1
        else:
            zv = zeta_int(n - k)
            if zv != 0.0:
                terms.append(zv * mupow / fact * (1 + 0j))
                used += 1
        k += 1
        mupow *= mu
        fact *= k
        if k > n:
            # remaining terms sit at k = n-1+2j; bound their sum geometrically
            j0 = (k - n + 2) // 2
            tail = prefac * rho ** (2 * j0)
            if tail <= 0.5 * tol or k >= 600:
                break
    value = fsum_c(terms)
    rounding = 4.0 * EPS * fsum([abs(t) for t in terms])
    return PolylogResult(value, tail + rounding, used)


def li(n: int, z, tol: float = 1e-12) -> PolylogResult:
    """Li_n(z) on the principal branch (continuous from below across (1, inf))."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"polylogarithm order must be an integer >= 1, got {n!r}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    p = as_sphere_point(z)
    if p.is_infinity:
        raise SingularArgumentError("Li_n is not defined at infinity")
    zz = p.value
    if zz == 0:
        return PolylogResult(0j, 0.0, 0)
    if n == 1:
        if zz == 1:
            raise SingularArgumentError("Li_1 has a pole at z = 1")
        value = -cmath.log(_clean_neg(zz - 1.0))
        return PolylogResult(value, 4.0 * EPS * (1.0 + abs(value)), 1)
    try:
        az = abs(zz)
        if az <= 0.5:
            return _li_series(n, zz, tol)
        if az >= 2.0:
            return _li_inversion(n, zz, tol)
        if zz == 1:
            return PolylogResult(complex(zeta_int(n)), 4.0 * EPS, 1)
        return _li_log_band(n, zz, tol)
    except OverflowError:
        raise PolylogOverflowError(f"Li_{n} overflows the float range at "
                                   f"z = {zz!r}") from None


def _bloch_wigner_bounded(z: complex, tol: float) -> tuple[float, float]:
    """D(z) and an error bound at a finite z: 0 on the real axis, and
    -D(conj z) below it."""
    if z.imag == 0.0:
        return 0.0, 0.0
    if z.imag < 0.0:
        value, err = _bloch_wigner_bounded(z.conjugate(), tol)
        return -value, err
    res = li(2, z, tol)
    logabs = math.log(abs(z))
    corr = cmath.phase(_clean_neg(z - 1.0)) * logabs
    value = res.value.imag + corr
    err = res.error_bound + 4.0 * EPS * (abs(res.value.imag) + abs(corr))
    return value, err


def bloch_wigner(z, tol: float = 1e-14) -> float:
    """The single-valued dilogarithm Im(Li_2(z)) + arg(1-z) log|z|.

    Vanishes identically on the real axis and at 0, 1, infinity; antisymmetric
    under conjugation by construction.
    """
    p = as_sphere_point(z)
    return 0.0 if p.is_infinity else _bloch_wigner_bounded(p.value, tol)[0]


# vectorized evaluation -------------------------------------------------------

# Li_2(w) = L - L^2/4 + sum_{k>=1} B_2k/(2k+1)! L^(2k+1) with L = -log(1 - w),
# summed to k = D_SERIES_K.  As |B_2k| = 2 (2k)! zeta(2k)/(2 pi)^2k, at
# |L| <= pi/3 the terms after K sum to at most 2 zeta(2K+2)/(2K+3) (pi/3)
# 36^-(K+1) * 36/35, below 2^-60 from K = 10 on.
D_SERIES_K = 10
D_SERIES_TAIL = 7.2e-19
_D_COEFFS = np.array([float(_bernoulli_fraction(2 * k) / math.factorial(2 * k + 1))
                      for k in range(D_SERIES_K, 0, -1)])


def bloch_wigner_many(z: np.ndarray) -> np.ndarray:
    """Vectorized bloch_wigner over an array of finite complex arguments.

    D(conj z) = -D(z) folds z to the upper half-plane; D(1/conj w) = D(w)
    takes |w| > 1 to w/|w|^2 (divided by |w| twice, so nothing overflows);
    D(1 - conj w) = D(w) takes Re w > 1/2 to 1 - conj w (exact by Sterbenz).
    There |w| <= 1, Re w <= 1/2, so L = -log(1 - w) has |L| <= pi/3, and
    D(w) = Im Li_2(w) - Im L log|w| = Im L (1 - Re L/2 - log|w|) + Im(L t P(t))
    with t = L^2 and P the series above, whose tail is below D_SERIES_TAIL.
    Against 40-digit mpmath it errs by at most 6e-16 absolute: within that
    of the scalar bloch_wigner, not bit for bit.  It is +0.0 on the real
    axis, where Im L = +0 and its factor is at least 0.65.
    """
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    n = flat.size
    if n and not np.all(np.isfinite(flat)):
        raise ValueError("bloch_wigner_many requires finite arguments")
    x, y = xy = np.stack([flat.real, np.abs(flat.imag)])
    # |z|, kept off 0 and inf for its log
    r = np.clip(np.abs(flat), 5e-324, np.finfo(float).max)
    inv = r > 1.0
    np.divide(xy, r, out=xy, where=inv)
    np.divide(xy, r, out=xy, where=inv)
    la = np.log(r, out=r)
    np.negative(la, out=la, where=inv)                   # log|w|
    u = 1.0 - x
    lb = np.log(np.maximum(u * u + y * y, 5e-324)) * 0.5  # log|1 - w|
    # w -> 1 - conj w swaps log|w| and log|1 - w|; 1 - w becomes conj w
    refl = x > 0.5
    np.copyto(u, x, where=refl)
    theta = np.arctan2(y, u, out=y)                      # Im L
    logw = np.where(refl, lb, la)
    np.copyto(lb, la, where=refl)                        # log|1 - w| = -Re L
    L = np.empty(n, dtype=complex)
    np.negative(lb, out=L.real)
    np.copyto(L.imag, theta)
    t = L * L
    acc = t * _D_COEFFS[0]
    # each product goes to the other buffer: numpy rounds a complex product
    # written over a one-element operand without FMA, a longer one with it
    spare = np.empty(n, dtype=complex)
    for c in _D_COEFFS[1:]:
        acc += c
        acc, spare = np.multiply(acc, t, out=spare), acc
    acc = np.multiply(acc, L, out=spare)                 # L t P(t)
    out = (lb * 0.5 + 1.0 - logw) * theta + acc.imag
    np.negative(out, out=out, where=flat.imag < 0.0)
    return out.reshape(z.shape)


# Ramakrishnan ladder ---------------------------------------------------------

ODD_DENOMINATORS = ("2*m!", "(2m)!")


def ramakrishnan_L(m: int, z, tol: float = 1e-10) -> PolylogResult:
    """L_m(z) = sum_{j=1}^m (-log|z|)^{m-j}/(m-j)! Li_j(z) for z not in {0, 1}."""
    if not isinstance(m, int) or isinstance(m, bool) or m < 1:
        raise ValueError(f"ladder order must be an integer >= 1, got {m!r}")
    if not (tol > 0.0):
        raise ValueError(f"tolerance must be positive, got {tol!r}")
    p = as_sphere_point(z)
    if p.is_infinity:
        raise SingularArgumentError("L_m is not defined at infinity")
    zz = p.value
    if zz == 0 or zz == 1:
        raise SingularArgumentError(f"L_m is not defined at z = {zz}")
    neg_log = -math.log(abs(zz))
    parts = []
    err = 0.0
    used = 0
    # tol is split over the m orders; where the share of a subnormal tol
    # rounds to 0, which li refuses, each order gets tol itself
    share = tol / m or tol
    for j in range(1, m + 1):
        res = li(j, zz, share)
        coef = neg_log ** (m - j) / math.factorial(m - j)
        parts.append(coef * res.value)
        err += abs(coef) * res.error_bound
        used += res.terms_used
    value = fsum_c(parts)
    err += 4.0 * EPS * fsum([abs(t) for t in parts])
    return PolylogResult(value, err, used)


def ramakrishnan_D(m: int, z, tol: float = 1e-10, odd_denominator: str = "2*m!") -> PolylogResult:
    """Single-valued D_m: Im L_m for even m, Re L_m plus a log-power term for odd m.

    The odd-m correction is (log|z|)^m divided by 2*m! by default; pass
    odd_denominator="(2m)!" for the alternative normalization.
    """
    if odd_denominator not in ODD_DENOMINATORS:
        raise ValueError(f"odd_denominator must be one of {ODD_DENOMINATORS}")
    try:
        res = ramakrishnan_L(m, z, tol)
        if m % 2 == 0:
            return PolylogResult(res.value.imag, res.error_bound, res.terms_used)
        logabs = math.log(abs(complex(as_sphere_point(z))))
        if odd_denominator == "2*m!":
            denom = 2.0 * math.factorial(m)
        else:
            denom = float(math.factorial(2 * m))
        corr = logabs ** m / denom
    except OverflowError:
        raise PolylogOverflowError(f"D_{m} overflows the float range at "
                                   f"z = {as_sphere_point(z).value!r}") from None
    value = res.value.real + corr
    err = res.error_bound + 4.0 * EPS * (abs(value) + abs(corr))
    return PolylogResult(value, err, res.terms_used)
