"""Vectorized sphere arithmetic over arrays of points, the exact sum, and
the one thread pool.

Points are (complex ndarray, bool inf-mask) pairs; the formulas go through
bounded homogeneous coordinates, or forms staged like moebius.chordal, so
nothing overflows near infinity.  act and stretch are the Moebius kernels
that every vector path shares.  The scalar methods of moebius stay the bit
references: numpy and CPython round the same formulas differently (complex
division, hypot), so a scalar call is not a one-element vector call.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .moebius import (
    CHORDAL_AFFINE_MAX,
    INF,
    MoebiusMap,
    SpherePoint,
    as_sphere_point,
    chordal,
)

FSUM_BLOCK = 1 << 14
# below this length math.fsum over a list is faster than the binned sum
FSUM_SHORT = 2048
# frexp exponents of finite doubles run from -1073 to 1024
_EXP_BIAS = 1073
_NBINS = _EXP_BIAS + 1025


def fsum(x) -> float:
    """Correctly rounded sum of a 1-d real array or sequence: exactly
    math.fsum(x), bit for bit.

    The result depends only on the multiset of values, never on their order,
    on blocking or on threads.
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
    # Every finite double is m * 2**(e - 53) with a signed 53-bit integer m
    # and its frexp exponent e.  Per exponent, np.bincount sums the high 27
    # and low 26 bits of m over blocks of FSUM_BLOCK elements; each partial
    # sum is an integer below 2**27 * FSUM_BLOCK <= 2**53, so the float sums
    # are exact, and int64 accumulates the blocks without loss.  The bins
    # are combined as one Python int and rounded once by int / 2**k, which
    # CPython rounds correctly, as math.fsum does.
    hi_acc = np.zeros(_NBINS, dtype=np.int64)
    lo_acc = np.zeros(_NBINS, dtype=np.int64)
    emax = 0
    for start in range(0, a.size, FSUM_BLOCK):
        blk = a[start:start + FSUM_BLOCK]
        if not np.isfinite(blk).all():
            # nan, inf and their exceptions exactly as math.fsum gives them
            return _fsum_python(a)
        m, e = np.frexp(blk)
        m *= 2.0**53
        hi = np.floor(m * 2.0**-26)
        m -= hi * 2.0**26
        emax = max(emax, int(e.max()))
        e += _EXP_BIAS
        hi_acc += np.bincount(e, weights=hi, minlength=_NBINS).astype(np.int64)
        lo_acc += np.bincount(e, weights=m, minlength=_NBINS).astype(np.int64)
    if emax + a.size.bit_length() > 1023:
        # sum |x| may reach 2**1023: math.fsum can overflow in an
        # intermediate step, and then raises where the exact sum is finite
        return _fsum_python(a)
    nz = np.flatnonzero(hi_acc | lo_acc)
    if nz.size == 0:
        return 0.0
    b0 = int(nz[0])
    total = 0
    for shift, h, lo in zip((nz - b0).tolist(), hi_acc[nz].tolist(),
                            lo_acc[nz].tolist()):
        total += ((h << 26) + lo) << shift
    k = b0 - _EXP_BIAS - 53
    return float(total << k) if k >= 0 else total / (1 << -k)


def _fsum_python(a: np.ndarray) -> float:
    return math.fsum(itertools.chain.from_iterable(
        a[i:i + FSUM_BLOCK].tolist() for i in range(0, a.size, FSUM_BLOCK)))


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
    (complex, mask) pairs, and their homogeneous coordinates num/den."""
    num = a * Z + b * W
    den = c * Z + d * W
    inf_mask = den == 0
    with np.errstate(over="ignore", invalid="ignore"):
        points = num / np.where(inf_mask, 1.0, den)
    # an overflowing quotient is infinity too
    inf_mask = inf_mask | ~np.isfinite(points)
    return np.where(inf_mask, 0.0, points), inf_mask, num, den


def stretch(Z, W, num, den):
    """Spherical derivative of a det-1 map at (Z, W), given its image
    (num, den) from act: (|Z|^2 + |W|^2) / (|num|^2 + |den|^2)."""
    return (abs(Z) ** 2 + abs(W) ** 2) / (
        num.real**2 + num.imag**2 + den.real**2 + den.imag**2)


def apply_many(m: MoebiusMap, points, inf_mask):
    """Apply a Moebius map to an array of sphere points."""
    return act(m.a, m.b, m.c, m.d, *hom_many(points, inf_mask))[:2]


def spherical_derivative_many(m: MoebiusMap, points, inf_mask) -> np.ndarray:
    Z, W = hom_many(points, inf_mask)
    _, _, num, den = act(m.a, m.b, m.c, m.d, Z, W)
    return stretch(Z, W, num, den)


def chordal_many(p, points, inf_mask) -> np.ndarray:
    """Chordal distances from one sphere point to an array of them, by the
    forms of moebius.chordal; pairs beyond its affine range go to it."""
    p = as_sphere_point(p)
    y = np.asarray(points, dtype=complex)
    fin = ~np.asarray(inf_mask, dtype=bool)
    ay = np.hypot(y.real, y.imag)
    out = np.full(y.shape, chordal(p, INF))
    if p.is_infinity:
        out[fin] = 2.0 / np.hypot(1.0, ay[fin])
        return out
    ax = abs(p.value)
    affine = fin & (ay < CHORDAL_AFFINE_MAX) & (ax < CHORDAL_AFFINE_MAX)
    diff = p.value - y[affine]
    out[affine] = 2.0 * (np.hypot(diff.real, diff.imag) / np.hypot(1.0, ax)
                         ) / np.hypot(1.0, ay[affine])
    for i in np.flatnonzero(fin & ~affine):
        out[i] = chordal(p, SpherePoint(y[i]))
    return out


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


def to_sphere(p) -> np.ndarray:
    p = as_sphere_point(p)
    return sphere_coords_many(np.array([p.value]), np.array([p.is_infinity]))[:, 0]


def from_sphere_many(n1, n2, n3):
    """Stereographic projection of unit-sphere points to (points, inf_mask)."""
    denom = 1.0 - n3
    inf_mask = denom <= 1e-15
    pts = (n1 + 1j * n2) / np.where(inf_mask, 1.0, denom)
    return np.where(inf_mask, 0.0, pts), inf_mask


def from_sphere(n) -> SpherePoint:
    pts, inf_mask = from_sphere_many(*np.asarray(n, dtype=float)[:, None])
    return INF if inf_mask[0] else SpherePoint(complex(pts[0]))


def uniform_sphere_points(rng: np.random.Generator, n: int):
    """n uniform points on the sphere from two uniform variates each
    (area-preserving cylinder map), stereographed to the plane."""
    u = rng.uniform(-1.0, 1.0, size=n)  # cos(polar angle)
    ang = rng.uniform(0.0, 2.0 * np.pi, size=n)
    s = np.sqrt(np.maximum(0.0, 1.0 - u * u))
    return from_sphere_many(s * np.cos(ang), s * np.sin(ang), u)


def parallel_chunks(work, n: int, threads: int, chunk: int) -> None:
    """Call work(lo, hi) over range(n): once on all of it when threads <= 1,
    else on the pieces [lo, hi), each `chunk` long but the last, on at most
    `threads` threads and never more threads than pieces."""
    spans = [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]
    workers = min(threads, len(spans))
    if workers <= 1:
        work(0, n)
        return
    with ThreadPoolExecutor(max_workers=workers) as ex:
        list(ex.map(lambda span: work(*span), spans))
