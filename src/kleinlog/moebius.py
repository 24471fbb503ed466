"""Moebius transformations on the Riemann sphere with chordal geometry.

Matrices are kept normalized to determinant 1 (up to the global sign
ambiguity), so the Euclidean derivative is (cz+d)**-2 and the chordal
conformal factor has a closed homogeneous form that is total on the sphere.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

CLASSIFY_TOL = 1e-12


class PoleError(ZeroDivisionError):
    """Euclidean derivative requested at the pole of a map."""


class NotLoxodromicError(ValueError):
    """Fixed-point/multiplier data requested for a non-loxodromic map."""


def _clean(z) -> complex:
    # adding 0.0 collapses negative-zero components, which keeps
    # principal-branch logs deterministic on the real axis
    z = complex(z)
    return complex(z.real + 0.0, z.imag + 0.0)


@dataclass(frozen=True)
class SpherePoint:
    """A point of the Riemann sphere: a finite complex value or infinity."""

    value: complex = 0j
    is_infinity: bool = False

    def __post_init__(self):
        if self.is_infinity:
            object.__setattr__(self, "value", 0j)
            return
        z = _clean(self.value)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise ValueError(f"finite sphere point has non-finite value {z!r}")
        object.__setattr__(self, "value", z)

    def __complex__(self) -> complex:
        if self.is_infinity:
            raise ValueError("cannot convert the point at infinity to complex")
        return self.value

    def __repr__(self):
        return "SpherePoint(inf)" if self.is_infinity else f"SpherePoint({self.value!r})"


INF = SpherePoint(0j, True)


def as_sphere_point(z) -> SpherePoint:
    """Coerce a complex-like value (or SpherePoint) to a SpherePoint."""
    if isinstance(z, SpherePoint):
        return z
    return SpherePoint(z)


def _homogeneous(p: SpherePoint) -> tuple[complex, complex]:
    # representative with components bounded by 1, which keeps the chordal
    # formulas free of overflow for any point of the sphere
    if p.is_infinity:
        return 1 + 0j, 0j
    z = p.value
    if abs(z) <= 1.0:
        return z, 1 + 0j
    return 1 + 0j, 1 / z


# below this modulus |x - y| < 2**1023 cannot overflow, so chordal uses the
# affine form
CHORDAL_AFFINE_MAX = 2.0**1022


def _hypot1(a: float) -> float:
    # libm hypot(1, a), as complex abs and np.hypot compute it (math.hypot
    # rounds differently), so chordal agrees bitwise with its numpy form
    return abs(complex(1.0, a))


def chordal(x, y) -> float:
    """Chordal distance on the unit sphere (range [0, 2]).

    Finite points below CHORDAL_AFFINE_MAX use 2|x-y| / hypot(1,|x|) / hypot(1,|y|),
    divided in stages so that nothing overflows, which is accurate to a few
    ulps at any distance; infinity uses 2 / hypot(1,|x|).  The bounded
    homogeneous form rounds 1/z for |z| > 1 and so loses about 1e-16/r
    relative accuracy at distance r; it serves only larger points.
    """
    xp, yp = as_sphere_point(x), as_sphere_point(y)
    if xp.is_infinity and yp.is_infinity:
        return 0.0
    if xp.is_infinity or yp.is_infinity:
        return 2.0 / _hypot1(abs((yp if xp.is_infinity else xp).value))
    xv, yv = xp.value, yp.value
    ax, ay = abs(xv), abs(yv)
    if ax < CHORDAL_AFFINE_MAX and ay < CHORDAL_AFFINE_MAX:
        return 2.0 * (abs(xv - yv) / _hypot1(ax)) / _hypot1(ay)
    zx, wx = _homogeneous(xp)
    zy, wy = _homogeneous(yp)
    num = 2.0 * abs(zx * wy - zy * wx)
    den = math.sqrt((abs(zx) ** 2 + abs(wx) ** 2) * (abs(zy) ** 2 + abs(wy) ** 2))
    return num / den


@dataclass(frozen=True)
class FixedPointData:
    """Attracting/repelling fixed points and the multiplier of a loxodromic map."""

    fix_attracting: SpherePoint
    fix_repelling: SpherePoint
    multiplier: complex


class MoebiusMap:
    """A Moebius transformation stored as a det-1 matrix [[a, b], [c, d]]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        a, b, c, d = _clean(a), _clean(b), _clean(c), _clean(d)
        for v in (a, b, c, d):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError("matrix entries must be finite")
        det = a * d - b * c
        if abs(det) < 1e-200:
            raise ValueError("matrix is singular (det ~ 0)")
        if abs(det - 1.0) > 1e-15:
            s = cmath.sqrt(det)
            a, b, c, d = a / s, b / s, c / s, d / s
        self.a, self.b, self.c, self.d = a, b, c, d

    @classmethod
    def _from_normalized(cls, a, b, c, d) -> "MoebiusMap":
        # trusted path: the caller guarantees det = 1.  Evaluating a*d - b*c
        # here would cancel catastrophically once entries are large (deep word
        # products), even though the true determinant is still 1.
        m = object.__new__(cls)
        m.a, m.b, m.c, m.d = _clean(a), _clean(b), _clean(c), _clean(d)
        return m

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1, 0, 0, 1)

    @classmethod
    def scaling(cls, k) -> "MoebiusMap":
        """The map z -> k*z."""
        k = complex(k)
        if k == 0:
            raise ValueError("scaling factor must be nonzero")
        return cls(k, 0, 0, 1)

    @property
    def trace_squared(self) -> complex:
        t = self.a + self.d
        return t * t

    def __repr__(self):
        return f"MoebiusMap({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"

    def apply(self, z) -> SpherePoint:
        """Evaluate the map at a point of the sphere."""
        p = as_sphere_point(z)
        zz, ww = _homogeneous(p)
        z2 = self.a * zz + self.b * ww
        w2 = self.c * zz + self.d * ww
        if w2 == 0:
            return INF
        q = z2 / w2
        if not (math.isfinite(q.real) and math.isfinite(q.imag)):
            return INF
        return SpherePoint(q)

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other: (self.compose(other))(z) = self(other(z))."""
        # det(AB) = det(A) det(B) = 1, no renormalization needed
        return MoebiusMap._from_normalized(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MoebiusMap":
        # adjugate of a det-1 matrix, det unchanged
        return MoebiusMap._from_normalized(self.d, -self.b, -self.c, self.a)

    def is_identity(self) -> bool:
        return (
            max(abs(self.b), abs(self.c), abs(self.a - self.d)) <= CLASSIFY_TOL
            and abs(self.trace_squared - 4.0) <= 4 * CLASSIFY_TOL
        )

    def classify(self) -> str:
        """One of 'identity', 'parabolic', 'elliptic', 'loxodromic'."""
        if self.is_identity():
            return "identity"
        t2 = self.trace_squared
        if abs(t2 - 4.0) <= CLASSIFY_TOL:
            return "parabolic"
        if abs(t2.imag) <= CLASSIFY_TOL and -CLASSIFY_TOL <= t2.real <= 4.0:
            return "elliptic"
        return "loxodromic"

    def derivative(self, z) -> complex:
        """Euclidean derivative (cz+d)**-2 at a finite point."""
        p = as_sphere_point(z)
        if p.is_infinity:
            raise ValueError("Euclidean derivative requires a finite point")
        w = self.c * p.value + self.d
        if w == 0:
            raise PoleError("derivative requested at the pole of the map")
        q = 1.0 / (w * w)
        if not (math.isfinite(q.real) and math.isfinite(q.imag)):
            raise PoleError("derivative overflows at a point too close to the pole")
        return q

    def spherical_derivative(self, z) -> float:
        """Chordal conformal stretch factor; finite and positive on the whole sphere."""
        p = as_sphere_point(z)
        zz, ww = _homogeneous(p)
        n0 = abs(zz) ** 2 + abs(ww) ** 2
        z2 = self.a * zz + self.b * ww
        w2 = self.c * zz + self.d * ww
        n1 = abs(z2) ** 2 + abs(w2) ** 2
        return n0 / n1

    def _eigen_point(self, mu: complex) -> SpherePoint:
        # eigenvector of [[a, b], [c, d]] for eigenvalue mu, as a sphere point
        v1 = (self.b, mu - self.a)
        v2 = (mu - self.d, self.c)
        x, y = v1 if abs(v1[0]) + abs(v1[1]) >= abs(v2[0]) + abs(v2[1]) else v2
        if y == 0:
            return INF
        q = x / y
        if not (math.isfinite(q.real) and math.isfinite(q.imag)):
            return INF
        return SpherePoint(q)

    def fixed_points_multiplier(self) -> FixedPointData:
        """Fixed points and multiplier of a loxodromic map.

        The multiplier is the derivative at the repelling fixed point; it has
        modulus > 1 and equals the square of the larger eigenvalue.
        """
        kind = self.classify()
        if kind != "loxodromic":
            raise NotLoxodromicError(f"map is {kind}, not loxodromic")
        t = self.a + self.d
        disc = cmath.sqrt(t * t - 4.0)
        mu_big = (t + disc) / 2.0
        mu_small = (t - disc) / 2.0
        if abs(mu_big) < abs(mu_small):
            mu_big, mu_small = mu_small, mu_big
        fix_att = self._eigen_point(mu_big)
        fix_rep = self._eigen_point(mu_small)
        lam = mu_big * mu_big
        if chordal(fix_att, fix_rep) <= 1e-14:
            raise NotLoxodromicError("fixed points numerically coincide")
        return FixedPointData(fix_att, fix_rep, lam)


def from_fixed_points_multiplier(fix_repelling, fix_attracting, multiplier) -> MoebiusMap:
    """Build the loxodromic map with the given fixed points and multiplier.

    `multiplier` is the derivative at the repelling fixed point and must have
    modulus > 1.
    """
    p = as_sphere_point(fix_repelling)
    q = as_sphere_point(fix_attracting)
    lam = complex(multiplier)
    if abs(lam) <= 1.0:
        raise ValueError(f"multiplier must have modulus > 1, got |{lam}| = {abs(lam)}")
    if chordal(p, q) <= 1e-14:
        raise ValueError("fixed points must be distinct")
    mu = cmath.sqrt(lam)
    diag = MoebiusMap(mu, 0, 0, 1 / mu)
    # s sends the repelling point to 0 and the attracting point to infinity
    if p.is_infinity:
        s = MoebiusMap(0, 1, 1, -q.value)
    elif q.is_infinity:
        s = MoebiusMap(1, -p.value, 0, 1)
    else:
        s = MoebiusMap(1, -p.value, 1, -q.value)
    return s.inverse().compose(diag).compose(s)
