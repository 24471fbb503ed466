import cmath
import math
import random

import numpy as np
import pytest

from kleinlog.moebius import (
    CHORDAL_AFFINE_MAX,
    INF,
    MoebiusMap,
    NotLoxodromicError,
    PoleError,
    SpherePoint,
    as_sphere_point,
    chordal,
    from_fixed_points_multiplier,
)


def chordal_many(p, points, inf_mask) -> np.ndarray:
    """Chordal distances from one sphere point to an array of them, by the
    forms of chordal with numpy's hypot; pairs beyond its affine range go
    to chordal."""
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


def rand_map(rng) -> MoebiusMap:
    while True:
        a, b, c, d = (complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(4))
        if abs(a * d - b * c) > 1e-3:
            return MoebiusMap(a, b, c, d)


def rand_point(rng) -> SpherePoint:
    # occasionally infinity, otherwise a moderate finite point
    if rng.random() < 0.1:
        return INF
    return SpherePoint(complex(rng.gauss(0, 2), rng.gauss(0, 2)))


def test_determinant_normalized():
    rng = random.Random(7)
    for _ in range(200):
        m = rand_map(rng)
        assert abs(m.a * m.d - m.b * m.c - 1.0) < 1e-12


def test_identity_and_inverse():
    rng = random.Random(11)
    e = MoebiusMap.identity()
    assert e.is_identity()
    for _ in range(100):
        m = rand_map(rng)
        assert m.compose(m.inverse()).is_identity()
        assert m.inverse().compose(m).is_identity()


def test_apply_composition_consistency():
    rng = random.Random(13)
    for _ in range(300):
        m1, m2 = rand_map(rng), rand_map(rng)
        p = rand_point(rng)
        lhs = m1.compose(m2).apply(p)
        rhs = m1.apply(m2.apply(p))
        assert chordal(lhs, rhs) < 1e-9


def test_apply_pol_to_infinity():
    m = MoebiusMap(0, 1, 1, 0)  # z -> 1/z
    assert m.apply(SpherePoint(0j)).is_infinity
    assert complex(m.apply(INF)) == 0j
    t = MoebiusMap(1, 3 + 4j, 0, 1)
    assert t.apply(INF).is_infinity
    assert complex(t.apply(SpherePoint(1 + 0j))) == 4 + 4j


def test_chordal_metric_properties():
    rng = random.Random(17)
    pts = [rand_point(rng) for _ in range(40)]
    for x in pts:
        assert chordal(x, x) == 0.0
        for y in pts:
            d = chordal(x, y)
            assert 0.0 <= d <= 2.0 + 1e-15
            assert abs(d - chordal(y, x)) < 1e-15
    # triangle inequality on random triples
    for _ in range(200):
        x, y, z = (rand_point(rng) for _ in range(3))
        assert chordal(x, z) <= chordal(x, y) + chordal(y, z) + 1e-12


def test_chordal_closed_forms():
    # 0 and infinity are antipodal; 0 and 1 sit at distance sqrt(2)
    assert abs(chordal(SpherePoint(0j), INF) - 2.0) < 1e-15
    assert abs(chordal(SpherePoint(0j), SpherePoint(1 + 0j)) - math.sqrt(2)) < 1e-15


def test_spherical_derivative_chain_rule():
    rng = random.Random(23)
    for _ in range(200):
        g, h = rand_map(rng), rand_map(rng)
        p = rand_point(rng)
        lhs = g.compose(h).spherical_derivative(p)
        rhs = g.spherical_derivative(h.apply(p)) * h.spherical_derivative(p)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_spherical_derivative_matches_chordal_ratio():
    rng = random.Random(29)
    for _ in range(100):
        m = rand_map(rng)
        p = rand_point(rng)
        if not p.is_infinity and m.c != 0 and abs(complex(p) + m.d / m.c) < 1e-2:
            continue  # finite differencing is hopeless next to the pole
        q = as_sphere_point(
            (1e8 if p.is_infinity else complex(p)) + 1e-6 * cmath.exp(2j * rng.random())
        )
        ratio = chordal(m.apply(p), m.apply(q)) / chordal(p, q)
        assert abs(ratio - m.spherical_derivative(p)) < 1e-3 * max(
            1.0, m.spherical_derivative(p)
        )


def test_derivative_pole():
    m = MoebiusMap(1, 0, 1, 1)  # pole at -1
    with pytest.raises(PoleError):
        m.derivative(-1 + 0j)
    with pytest.raises(ValueError):
        m.derivative(INF)


def test_scaling_fixed_points_and_multiplier():
    m = MoebiusMap.scaling(4.0)
    fp = m.fixed_points_multiplier()
    # attracting fixed point of z -> 4z is infinity
    assert fp.fix_attracting.is_infinity
    assert complex(fp.fix_repelling) == 0j
    assert abs(fp.multiplier - 4.0) < 1e-12


def test_from_fixed_points_multiplier_roundtrip():
    rng = random.Random(31)
    for _ in range(100):
        zp = rand_point(rng)
        zm = rand_point(rng)
        if chordal(zp, zm) < 1e-2:
            continue
        lam = complex(rng.uniform(1.2, 8.0), rng.uniform(-1.0, 1.0))
        if abs(lam) <= 1.05:
            continue
        m = from_fixed_points_multiplier(zm, zp, lam)
        assert chordal(m.apply(zp), zp) < 1e-9
        assert chordal(m.apply(zm), zm) < 1e-9
        fp = m.fixed_points_multiplier()
        assert chordal(fp.fix_attracting, zp) < 1e-7
        assert chordal(fp.fix_repelling, zm) < 1e-7
        assert abs(fp.multiplier - lam) < 1e-7 * abs(lam)


def test_from_fixed_points_rejects_unit_multiplier():
    with pytest.raises(ValueError):
        from_fixed_points_multiplier(SpherePoint(0j), INF, cmath.exp(1j))


def test_classify():
    assert MoebiusMap.identity().classify() == "identity"
    assert MoebiusMap(1, 1 + 0j, 0, 1).classify() == "parabolic"
    assert MoebiusMap.scaling(cmath.exp(0.7j)).classify() == "elliptic"
    assert MoebiusMap.scaling(3.0).classify() == "loxodromic"
    assert MoebiusMap.scaling(2.0 * cmath.exp(0.5j)).classify() == "loxodromic"
    with pytest.raises(NotLoxodromicError):
        MoebiusMap(1, 1 + 0j, 0, 1).fixed_points_multiplier()


@pytest.mark.parametrize("r", [1e-3, 1e-6, 1e-9])
def test_chordal_close_pairs_match_mpmath(r):
    mpmath = pytest.importorskip("mpmath")
    u = cmath.exp(0.3j)
    pairs = [
        (u * (1 - r / 2), u * (1 + r / 2)),    # across |z| = 1
        (3 * u, 3 * u * (1 + r)),               # both outside the unit disk
        (0.4 * u, 0.4 * u * (1 + r)),           # both inside
        (1e100 * u, 1e100 * u * (1 + r)),       # far outside
        (1e5, 9e149), (1e100, 2e100),           # (1+|x|^2)(1+|y|^2) overflows
        (1e300, -1e300j),
    ]
    for x, y in pairs:
        with mpmath.workdps(50):
            X, Y = mpmath.mpc(x), mpmath.mpc(y)
            ref = float(2 * abs(X - Y)
                        / mpmath.sqrt((1 + abs(X) ** 2) * (1 + abs(Y) ** 2)))
        vec = chordal_many(x, np.array([y, x]), np.array([False, False]))
        assert vec[1] == 0.0
        for d in (chordal(x, y), chordal(y, x), vec[0]):
            assert abs(d - ref) <= 1e-15 * ref


def test_chordal_many_matches_scalar():
    rng = random.Random(31)
    pts = [rand_point(rng) for _ in range(30)]
    pts += [SpherePoint(1e200 + 3e199j), SpherePoint(-2e160 + 0j), INF,
            SpherePoint(0j), SpherePoint(1e308 + 0j), SpherePoint(-5e307j)]
    vals = np.array([p.value for p in pts])
    inf_mask = np.array([p.is_infinity for p in pts])
    for p in pts:
        got = chordal_many(p, vals, inf_mask)
        assert got.tolist() == [chordal(p, q) for q in pts]
