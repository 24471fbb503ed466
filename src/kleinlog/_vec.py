"""Vectorized sphere arithmetic over arrays of points, and the exact sum.

Points are (complex ndarray, bool inf-mask) pairs; the formulas go through
bounded homogeneous coordinates, so nothing overflows near infinity.  act
serves only quasi_invariance_residual, and stretch it and the shell sums;
the word walk applies its maps in place in SchottkyGroup._grow.  The
scalar methods of moebius stay the bit references: numpy and CPython round
the same formulas differently (complex division, hypot), so a scalar call
is not a one-element vector call.
"""

from __future__ import annotations

import math

import numpy as np

FSUM_BLOCK = 1 << 14
# below this length math.fsum over a list is faster than the exact sum
FSUM_SHORT = 512
# ExactSum counts in units of 2**-(_EXP_BIAS + 53): a double of frexp
# exponent e >= -1073 is an integer times 2**(e - 53)
_EXP_BIAS = 1073


def fsum(x) -> float:
    """Correctly rounded sum of a 1-d real array or sequence: exactly
    math.fsum(x), bit for bit.

    The result depends only on the multiset of values, never on their order
    or on blocking.
    """
    if len(x) < FSUM_SHORT:
        return math.fsum(x.tolist() if isinstance(x, np.ndarray) else x)
    return _fsum_binned(np.asarray(x, dtype=float))


def fsum_c(z) -> complex:
    """fsum of the real and imaginary parts of a 1-d array or sequence."""
    z = np.asarray(z)
    if not np.iscomplexobj(z):
        return complex(fsum(z), 0.0)
    return complex(fsum(z.real), fsum(z.imag))


def _fsum_binned(a: np.ndarray) -> float:
    """fsum of an array by ExactSum, or by math.fsum where add says the two
    may differ."""
    acc = ExactSum()
    return acc.value() if acc.add(a) else math.fsum(a)


def _units(v: float) -> int:
    """v exactly, in units of 2**-(_EXP_BIAS + 53)."""
    m, e = math.frexp(v)
    return int(m * 2.0**53) << (e + _EXP_BIAS)


class ExactSum:
    """The exact sum of every float added in, rounded once by
    value(): math.fsum over their union, bit for bit, except that where
    math.fsum would overflow part-way the exact sum is still rounded."""

    def __init__(self):
        self.total = 0      # finite terms, in units of 2**-(_EXP_BIAS + 53)
        self.special = []   # the distinct nan and infinities of each array

    def add(self, a: np.ndarray) -> bool:
        """Add a 1-d float array.  False where math.fsum of the array alone
        may differ from its exact sum: it holds nan or an infinity, or its
        partial sums may reach 2**1023."""
        # Error-free extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput.
        # 31, 2008) on blocks x of n <= 2**(M - 1): where |x| < 2**(k - M),
        # q = (x + 2**k) - 2**k is a multiple of 2**(k - 53) with
        # |q| <= 2**(k - M), so q sums exactly in any order numpy takes, and
        # r = x - q is exact, with |r| <= 2**(k - 53).  Only + - abs and max
        # are used, and they round alike at every SIMD level.  Where 2**k
        # would overflow, the block's elements are added one by one.
        M = FSUM_BLOCK.bit_length()
        emax = 0
        scratch = np.empty((2, min(a.size, FSUM_BLOCK)))
        for start in range(0, a.size, FSUM_BLOCK):
            x = a[start:start + FSUM_BLOCK]
            q, r = scratch[:, :x.size]
            top = np.maximum.reduce(np.abs(x, out=q))
            if not math.isfinite(top):
                self.special += np.unique(a[~np.isfinite(a)]).tolist()
                return False
            e = math.frexp(top)[1]
            emax = max(emax, e)
            if e > 1023 - M:
                self.total += sum(map(_units, x.tolist()))
                continue
            while top:
                sigma = 2.0 ** max(math.frexp(top)[1] + M, -1022)
                np.subtract(np.add(x, sigma, out=q), sigma, out=q)
                x = np.subtract(x, q, out=r)
                self.total += _units(np.add.reduce(q))
                top = np.maximum.reduce(np.abs(x, out=q))
        return emax + a.size.bit_length() <= 1023

    def value(self) -> float:
        if self.special:
            # nan and infinities decide, with math.fsum's results and errors
            return math.fsum(self.special)
        # CPython rounds int / int correctly, as math.fsum rounds
        return self.total / (1 << (_EXP_BIAS + 53))


def hom_many(points: np.ndarray, inf_mask: np.ndarray):
    """Bounded homogeneous representatives (Z, W) with max(|Z|,|W|) <= 1."""
    pts = np.asarray(points, dtype=complex)
    Z = np.ones_like(pts)
    W = np.zeros_like(pts)
    fin = ~np.asarray(inf_mask, dtype=bool)
    big = fin & (np.abs(pts) > 1.0)
    sml = fin & ~big
    Z[sml] = pts[sml]
    W[sml] = 1.0
    W[big] = 1.0 / pts[big]
    return Z, W


def act(a, b, c, d, Z, W):
    """Matrices [[a, b], [c, d]] applied to homogeneous points (Z, W), all
    broadcasting.  Returns (points, inf_mask, num, den): the images as
    (complex, mask) pairs (see project), and their homogeneous coordinates
    num/den."""
    num = a * Z + b * W
    den = c * Z + d * W
    return (*project(num, den), num, den)


def project(num, den, points=None, inf_mask=None):
    """Homogeneous points num/den as (points, inf_mask) pairs, written to
    the arrays `points` and `inf_mask` if they are given."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        points = np.divide(num, den, out=points)
    # a zero denominator or an overflowing quotient gives a non-finite one
    inf_mask = np.logical_not(np.isfinite(points, out=inf_mask), out=inf_mask)
    if inf_mask.any():
        points[inf_mask] = 0.0
    return points, inf_mask


def stretch(Z, W, num, den):
    """Spherical derivative of a det-1 map at (Z, W), given its image
    (num, den) from act: (|Z|^2 + |W|^2) / (|num|^2 + |den|^2), 0 where
    the denominator overflows."""
    with np.errstate(over="ignore"):
        return (abs(Z) ** 2 + abs(W) ** 2) / (
            num.real**2 + num.imag**2 + den.real**2 + den.imag**2)


def sphere_embed(Z, W):
    """|Z|^2 + |W|^2 and the unit-sphere image, shape (3, n), of homogeneous
    points; (1, 0), infinity, goes to (0, 0, 1)."""
    nsq = Z.real**2 + Z.imag**2 + W.real**2 + W.imag**2
    zw = Z * np.conj(W)
    return nsq, np.stack([2.0 * zw.real / nsq, 2.0 * zw.imag / nsq,
                          (Z.real**2 + Z.imag**2 - W.real**2 - W.imag**2) / nsq])


def sphere_coords_many(points, inf_mask) -> np.ndarray:
    """Unit-sphere embedding (n1, n2, n3) as rows of a (3, n) array."""
    return sphere_embed(*hom_many(points, inf_mask))[1]


def from_sphere_many(n1, n2, n3):
    """Stereographic projection of unit-sphere points to (points, inf_mask)."""
    denom = 1.0 - n3
    inf_mask = denom <= 1e-15
    pts = (n1 + 1j * n2) / np.where(inf_mask, 1.0, denom)
    return np.where(inf_mask, 0.0, pts), inf_mask


def uniform_sphere_points(rng: np.random.Generator, n: int):
    """n uniform points on the sphere from two uniform variates each
    (area-preserving cylinder map), stereographed to the plane."""
    u = rng.uniform(-1.0, 1.0, size=n)  # cos(polar angle)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    return from_sphere_many(s * np.cos(ang), s * np.sin(ang), u)

