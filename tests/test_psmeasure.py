import math

import numpy as np
import pytest

from kleinlog.moebius import INF, SpherePoint, as_sphere_point, chordal
from kleinlog.psmeasure import (
    PAIR_BUDGET,
    POINT_BATCH,
    REL_TOL,
    MeasureError,
    NayataniDensity,
    PSMeasure,
    SingularEvaluationError,
    build_ps,
    conformality_report,
    quasi_invariance_residual,
    read_measure_csv,
    write_measure_csv,
)


def single_atom(delta=1.0, at=0j) -> PSMeasure:
    return PSMeasure(
        points=np.array([at], dtype=complex),
        inf_mask=np.array([False]),
        weights=np.array([1.0]),
        delta=delta,
        depth=1,
        basepoint=INF,
    )


def F(den: NayataniDensity, x) -> float:
    """F at one point through F_many; SingularEvaluationError within the
    atom guard."""
    p = as_sphere_point(x)
    vals, singular, _ = den.F_many(np.array([p.value]), np.array([p.is_infinity]))
    if singular[0]:
        raise SingularEvaluationError("evaluation point within the atom guard distance")
    return float(vals[0])


def test_build_ps_mass_and_support(std_group, sharp_delta):
    m = build_ps(std_group, sharp_delta, depth=6)
    assert abs(math.fsum(m.weights) - 1.0) <= 1e-12
    assert len(m) == 2 * 2 * 3 ** 5
    assert (m.weights > 0).all()
    assert not m.inf_mask.any()
    # every atom sits inside one of the defining disks
    inside = np.zeros(len(m), dtype=bool)
    for c in std_group.circles:
        inside |= np.abs(m.points - c.center) <= c.radius + 1e-9
    assert inside.all()
    assert m.delta == sharp_delta.delta


def test_build_ps_rejects_bad_inputs(std_group):
    with pytest.raises(MeasureError):
        build_ps(std_group, 0.3, depth=1)
    with pytest.raises(MeasureError):
        build_ps(std_group, -0.5, depth=6)
    from kleinlog.schottky import SchottkyGroup

    with pytest.raises(MeasureError):
        build_ps(SchottkyGroup([]), 0.3, depth=6)


def test_psmeasure_validation():
    pts = np.array([0j, 1 + 0j])
    msk = np.array([False, False])
    with pytest.raises(MeasureError):
        PSMeasure(pts, msk, np.array([0.7, 0.7]), 0.5, 1, INF)  # mass != 1
    with pytest.raises(MeasureError):
        PSMeasure(pts, msk, np.array([1.5, -0.5]), 0.5, 1, INF)  # negative
    with pytest.raises(MeasureError):
        PSMeasure(np.array([], dtype=complex), np.array([], dtype=bool),
                  np.array([]), 0.5, 1, INF)
    m = PSMeasure(pts, msk, np.array([0.5, 0.5]), 0.5, 1, INF)
    assert len(m) == 2
    with pytest.raises(ValueError):
        m.weights[0] = 1.0  # arrays are frozen
    for bad in (complex(math.nan, 0.0), complex(0.0, math.inf)):
        with pytest.raises(MeasureError, match="not marked infinite"):
            PSMeasure(np.array([bad, 1 + 0j]), msk, np.array([0.5, 0.5]), 0.5, 1, INF)
    # a point marked infinite is not read
    PSMeasure(np.array([complex(math.inf, 0.0), 1 + 0j]), np.array([True, False]),
              np.array([0.5, 0.5]), 0.5, 1, INF)


def test_quasi_invariance_residual_decreases(std_group, sharp_delta):
    res = [
        quasi_invariance_residual(build_ps(std_group, sharp_delta, d), std_group)
        for d in (6, 8)
    ]
    assert res[0] > res[1] > 0.0
    assert res[1] < 1e-3


def test_wrong_delta_inflates_residual(std_group, sharp_delta):
    good = quasi_invariance_residual(build_ps(std_group, sharp_delta, 6), std_group)
    bad = quasi_invariance_residual(
        build_ps(std_group, sharp_delta.delta + 0.2, 6), std_group
    )
    assert bad > 5.0 * good


def test_residual_in_blocks_is_bitwise(monkeypatch, std_group, sharp_delta):
    """Blocks of 1,000 and 7 atoms give the bits of one block, and those are
    the bits of fsum over whole arrays."""
    from kleinlog import psmeasure
    from kleinlog._vec import act, fsum, hom_many, sphere_coords_many, stretch

    m = build_ps(std_group, sharp_delta, 6)
    Z, W = hom_many(m.points, m.inf_mask)
    cx = sphere_coords_many(m.points, m.inf_mask)
    want = 0.0
    for g in std_group.generators:
        img, img_msk, num, den = act(g.a, g.b, g.c, g.d, Z, W)
        jac = stretch(Z, W, num, den) ** m.delta
        cy = sphere_coords_many(img, img_msk)
        for _, f in psmeasure.TEST_FUNCTIONS:
            fx = f(*cx)
            rel = abs(fsum(m.weights * fx) - fsum(m.weights * jac * f(*cy))) / (
                fsum(m.weights * np.abs(fx)) + psmeasure.RESIDUAL_EPS)
            want = max(want, rel)
    assert quasi_invariance_residual(m, std_group) == want
    for block in (1000, 7):
        monkeypatch.setattr(psmeasure, "RESIDUAL_BLOCK", block)
        assert quasi_invariance_residual(m, std_group) == want


def test_single_atom_density_closed_form():
    d = NayataniDensity(single_atom(delta=1.0))
    rng = np.random.default_rng(211)
    for _ in range(50):
        x = SpherePoint(complex(rng.normal(), rng.normal()))
        expected = 1.0 / (0.5 * chordal(x, SpherePoint(0j)) ** 2)
        assert abs(F(d, x) - expected) < 1e-12 * abs(expected)
    # antipode of 0 is infinity: phi = 2 there, F = 1/2
    assert abs(F(d, INF) - 0.5) < 1e-15
    assert abs(F(d, INF) ** (2.0 / d.measure.delta) - 0.25) < 1e-15


def test_density_singular_at_atom():
    d = NayataniDensity(single_atom(delta=0.7))
    with pytest.raises(SingularEvaluationError):
        F(d, SpherePoint(0j))
    vals, singular, _ = d.F_many(np.array([0j, 1j]), np.array([False, False]))
    assert singular[0] and not singular[1]
    assert np.isinf(vals[0]) and np.isfinite(vals[1])


def test_f_many_matches_scalar(std_group, sharp_delta):
    m = build_ps(std_group, sharp_delta, 5)
    den = NayataniDensity(m)
    rng = np.random.default_rng(223)
    pts = rng.normal(size=40) + 1j * rng.normal(size=40)
    vals, singular, _ = den.F_many(pts, np.zeros(40, dtype=bool))
    assert not singular.any()
    for p, v in zip(pts, vals):
        assert abs(F(den, SpherePoint(complex(p))) - v) <= 1e-12 * abs(v)


def test_conformality_report(std_group, sharp_delta):
    m = build_ps(std_group, sharp_delta, 8)
    den = NayataniDensity(m)
    rep = conformality_report(den, std_group, n_points=50, seed=0)
    assert rep.n_points > 0
    assert rep.max_rel_deviation > 0
    assert rep.residual > 0
    assert rep.max_rel_deviation <= rep.constant * max(rep.residual, 1e-12) + 1e-12
    assert rep.constant < 10.0


def test_csv_roundtrip(tmp_path, std_group, sharp_delta):
    m = build_ps(std_group, sharp_delta, 5)
    path = tmp_path / "measure.csv"
    write_measure_csv(m, path)
    back = read_measure_csv(path)
    assert back.delta == m.delta
    assert back.depth == m.depth
    assert back.basepoint.is_infinity == m.basepoint.is_infinity
    assert np.array_equal(back.points, m.points)
    assert np.array_equal(back.weights, m.weights)
    # a second export of the re-imported measure is byte identical
    path2 = tmp_path / "measure2.csv"
    write_measure_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


# hierarchical evaluation of F ----------------------------------------------------

def near_atom_points(measure, rng, k):
    """Points at chordal distance 1e-9..1e-3 from seeded atoms, plus infinity."""
    from kleinlog._vec import from_sphere_many, sphere_coords_many

    idx = rng.integers(0, len(measure), k)
    n0s = np.stack(sphere_coords_many(measure.points[idx], measure.inf_mask[idx]), 1)
    vecs = []
    for n0 in n0s:
        t = rng.normal(size=3)
        t -= t.dot(n0) * n0
        t /= np.linalg.norm(t)
        theta = 2.0 * math.asin(0.5 * 10.0 ** rng.uniform(-9.0, -3.0))
        vecs.append(math.cos(theta) * n0 + math.sin(theta) * t)
    pts, msk = from_sphere_many(*np.array(vecs).T)
    return np.append(pts, 0j), np.append(msk, True)


def assert_within_bounds(den, pts, msk):
    vals, singular, rel = den.F_many(pts, msk)
    exact, singular0, rel0 = den.F_many(pts, msk, rel_tol=0.0)
    assert np.array_equal(singular, singular0)
    ok = ~singular
    dev = np.abs(vals[ok] - exact[ok]) / exact[ok]
    assert (dev <= rel[ok]).all()
    assert (rel[ok] <= 1e-12).all() and (rel0[ok] <= 1e-12).all()
    return vals, exact, rel


def test_tree_error_bound_near_atoms(std_group, sharp_delta):
    import mpmath as mp

    from kleinlog._vec import hom_many, uniform_sphere_points

    m = build_ps(std_group, sharp_delta, 8)
    den = NayataniDensity(m)
    rng = np.random.default_rng(307)
    near, near_msk = near_atom_points(m, rng, 200)
    far, far_msk = uniform_sphere_points(rng, 200)
    pts = np.concatenate([near, far])
    msk = np.concatenate([near_msk, far_msk])
    vals, exact, rel = assert_within_bounds(den, pts, msk)
    assert np.any(vals != exact)  # nodes were accepted, not every atom summed
    # the bound also holds against an independent 40-digit sum over the
    # atoms as represented in homogeneous coordinates
    Za, Wa = hom_many(m.points, m.inf_mask)
    Zp, Wp = hom_many(pts, msk)
    with mp.workdps(40):
        d = mp.mpf(m.delta)
        atoms = [(mp.mpc(z), mp.mpc(w), mp.mpf(wt), abs(mp.mpc(z))**2 + abs(mp.mpc(w))**2)
                 for z, w, wt in zip(Za, Wa, m.weights)]
        for i in (0, 1, 200, len(pts) - 1):
            zp, wp = mp.mpc(Zp[i]), mp.mpc(Wp[i])
            nps = abs(zp) ** 2 + abs(wp) ** 2
            ref = mp.fsum(wt * (2 * abs(zp * w - z * wp) ** 2 / (nps * ns)) ** -d
                          for z, w, wt, ns in atoms)
            assert abs(vals[i] - ref) <= rel[i] * ref


def test_tree_flags_points_on_atoms(std_group, sharp_delta):
    m = build_ps(std_group, sharp_delta, 6)
    den = NayataniDensity(m)
    pts = np.concatenate([m.points[:5], m.points[5:10] * (1 + 1e-14), [3.0 + 0j]])
    vals, singular, rel = den.F_many(pts, np.zeros(pts.size, dtype=bool))
    assert singular[:10].all() and not singular[10]
    assert np.isinf(vals[:10]).all() and np.isfinite(vals[10])
    with pytest.raises(SingularEvaluationError):
        F(den, SpherePoint(complex(m.points[7])))


def test_f_many_independent_of_splits(std_group, sharp_delta):
    from kleinlog._vec import uniform_sphere_points

    m = build_ps(std_group, sharp_delta, 8)
    den = NayataniDensity(m)
    rng = np.random.default_rng(311)
    near, near_msk = near_atom_points(m, rng, 300)
    far, far_msk = uniform_sphere_points(rng, 3000)
    pts = np.concatenate([far, near, m.points[:3]])
    msk = np.concatenate([far_msk, near_msk, np.zeros(3, dtype=bool)])
    whole = den.F_many(pts, msk)
    cuts = np.sort(rng.choice(np.arange(1, pts.size), 12, replace=False))
    parts = [den.F_many(p, k) for p, k in zip(np.split(pts, cuts), np.split(msk, cuts))]
    for a, b in zip(whole, zip(*parts)):
        assert np.array_equal(a, np.concatenate(b))


def assert_same_bits(a, b):
    for x, y in zip(a, b):
        assert x.tobytes() == y.tobytes()


@pytest.mark.parametrize("depth, rel_tol, batches", [
    (8, REL_TOL, 5), (8, 0.0, 1.25), (10, REL_TOL, 5)])
def test_f_many_workspace_leaks_no_state(std_group, sharp_delta, depth, rel_tol,
                                         batches):
    """A call reuses one block of scratch rows over its batches: A, then B,
    then A again, and A's batches called one by one in reverse order all give
    the same bits.  With rel_tol=0 every pair reaches the leaves; at depth 10 a
    batch holds 119 points and the walk has 8 levels."""
    from kleinlog._vec import uniform_sphere_points

    m = build_ps(std_group, sharp_delta, depth)
    den = NayataniDensity(m)
    batch = min(POINT_BATCH, PAIR_BUDGET // den._leaves.w.shape[0])
    rng = np.random.default_rng(depth)
    near, near_msk = near_atom_points(m, rng, 40)
    far, far_msk = uniform_sphere_points(rng, int(batches * batch) - 44)
    a = (np.concatenate([near, m.points[:3], far]),
         np.concatenate([near_msk, np.zeros(3, dtype=bool), far_msk]))
    first = den.F_many(*a, rel_tol=rel_tol)
    assert np.flatnonzero(first[1]).tolist() == [41, 42, 43]
    den.F_many(*uniform_sphere_points(rng, batch // 2 + 1), rel_tol=rel_tol)
    assert_same_bits(first, den.F_many(*a, rel_tol=rel_tol))
    cuts = range(0, a[0].size, batch)
    parts = [den.F_many(a[0][lo:lo + batch], a[1][lo:lo + batch], rel_tol=rel_tol)
             for lo in reversed(cuts)]
    assert_same_bits(first, map(np.concatenate, zip(*reversed(parts))))


def reference_accept(den, lv, pi, nj, pt, rel_tol):
    """_accept's formulas on whole arrays, as their text reads."""
    from kleinlog.psmeasure import _U, GUARD_PHI, MAX_RHO

    Z, W, nsq, nvec, small, inf = pt
    d = den.measure.delta
    take = np.take
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dz = take(Z, pi) * take(lv.Wc, nj) - take(lv.Zc, nj) * take(W, pi)
        c2 = dz.real**2 + dz.imag**2
        phi0 = 2.0 * c2 / (take(nsq, pi) * take(lv.Nc, nj))
        cross = (take(small, pi) != take(lv.small, nj)) & ~take(inf, pi)
        eps = _U * (12.0 + 5.0 * cross / np.sqrt(c2))
        phi_lo = phi0 * (1.0 - eps)
        R = take(lv.R, nj)
        t = np.minimum(R, np.sqrt(2.0 * phi0 * (1.0 + eps)) * R + 0.5 * R * R)
        rho = t * (1.0 + 8.0 * _U) / phi_lo
        n1, n2, n3 = take(nvec, pi, axis=1)
        m1, M2 = take(lv.m1, nj, axis=1), take(lv.M2, nj, axis=1)
        a = n1 * m1[0] + n2 * m1[1] + n3 * m1[2]
        q = (n1 * (n1 * M2[0] + 2.0 * (n2 * M2[3] + n3 * M2[4]))
             + n2 * (n2 * M2[1] + 2.0 * n3 * M2[5]) + n3 * n3 * M2[2])
        Wn, eta1, eta2 = take(lv.W, nj), take(lv.eta1, nj), take(lv.eta2, nj)
        c3 = d * (d + 1.0) * (d + 2.0) / 6.0 * (1.0 - MAX_RHO) ** (-d - 3.0)
        trunc = c3 * rho * (np.maximum(q, 0.0) + eta2) / phi_lo**2
        mom = d * eta1 / phi_lo + 0.5 * d * (d + 1.0) * eta2 / phi_lo**2
        bound = trunc + mom + Wn * ((d + 2.0) * eps + 16.0 * _U)
        ok = ((eps <= 1e-3) & (rho <= MAX_RHO)
              & (phi_lo * (1.0 - rho) > GUARD_PHI)
              & (bound * (1.0 + MAX_RHO) ** d <= rel_tol * Wn))
    phi0 = phi0[ok]
    P = phi0**-d
    val = P * (Wn[ok] + d / phi0 * (a[ok] + 0.5 * (d + 1.0) * q[ok] / phi0))
    return pi[ok], val, bound[ok] * P, pi[~ok], nj[~ok]


@pytest.mark.parametrize("scale, delta", [(1.0, None), (1.0, 1.0), (0.25, None)])
def test_accept_in_place_matches_whole_array_text(std_group, sharp_delta, scale,
                                                  delta):
    """Every pair of every level, ACCEPT_BLOCK at a time through the
    scratch rows, gets the bits of the whole-array formulas, and so does
    every 7th pair taken alone (numpy rounds a one-element complex product
    written over an operand without FMA).  At delta 1 numpy's ** takes a
    reciprocal.  Scaled by 1/4, the group's atoms and node centres move into
    the |z| <= 1 chart, so the complex products of dz meet general values on
    both sides, where a * b and b * a round apart."""
    from kleinlog._vec import hom_many, sphere_embed, uniform_sphere_points
    from kleinlog.psmeasure import _accept_rows
    from kleinlog.schottky import Circle, SchottkyGroup, pairing_map

    c = [Circle(scale * k.center, scale * k.radius) for k in std_group.circles]
    group = SchottkyGroup([pairing_map(c[0], c[1]), pairing_map(c[2], c[3])], c)
    m = build_ps(group, sharp_delta if delta is None else delta, 7)
    den = NayataniDensity(m)
    rng = np.random.default_rng(19)
    near, near_msk = near_atom_points(m, rng, 30)
    far, far_msk = uniform_sphere_points(rng, 270)
    inf = np.concatenate([near_msk, far_msk])
    Z, W = hom_many(np.concatenate([near, far]), inf)
    pt = (Z, W, *sphere_embed(Z, W), W == 1.0, inf)
    rows, accepted = _accept_rows(), 0
    for lv in den._levels:
        pi = np.repeat(np.arange(Z.size), lv.W.size)
        nj = np.tile(np.arange(lv.W.size), Z.size)
        for rel_tol in (REL_TOL, 1e-6):
            got = den._accept(lv, pi, nj, pt, rel_tol, rows)
            assert_same_bits(got, reference_accept(den, lv, pi, nj, pt, rel_tol))
            accepted += got[0].size
        for i in range(0, pi.size, 7):
            one = pi[i:i + 1], nj[i:i + 1]
            assert_same_bits(den._accept(lv, *one, pt, REL_TOL, rows),
                             reference_accept(den, lv, *one, pt, REL_TOL))
    assert accepted > 0


def test_density_evaluated_on_whole_arrays(monkeypatch, std_group, sharp_delta):
    from kleinlog.poincare import bers_integral

    den = NayataniDensity(build_ps(std_group, sharp_delta, 8))
    f_many = NayataniDensity.F_many
    calls = []

    def counted(self, *args, **kwargs):
        calls.append(len(args[0]))
        return f_many(self, *args, **kwargs)

    monkeypatch.setattr(NayataniDensity, "F_many", counted)
    r = bers_integral(den, n_samples=5000, seed=13)
    assert r.n_singular == 0
    assert calls == [5000]
    calls.clear()
    conformality_report(den, std_group, n_points=50, seed=0)
    assert 1 + std_group.rank <= len(calls) <= 1 + std_group.rank + 1


class MarkedSingular:
    """A NayataniDensity whose F_many also marks chosen points singular:
    marks[i] indexes the points of the i-th call."""

    def __init__(self, density, marks):
        self.measure = density.measure
        self.density, self.marks, self.calls = density, marks, []

    def F_many(self, points, inf_mask):
        vals, singular, rel = self.density.F_many(points, inf_mask)
        idx = self.marks[len(self.calls)] if len(self.calls) < len(self.marks) else []
        self.calls.append(len(points))
        vals[idx], singular[idx] = math.inf, True
        return vals, singular, rel


def resampled(density, n, seed, marks):
    """(estimate, stderr) from the points bers_integral should end with:
    those marked on each call drawn again, in order, from the same stream."""
    from kleinlog._vec import fsum, uniform_sphere_points
    from kleinlog.poincare import BLOCH_WIGNER_INTEGRAND

    rng = np.random.default_rng(seed)
    pts, msk = uniform_sphere_points(rng, n)
    where = np.arange(n)
    for idx in marks:
        where = where[idx]
        pts[where], msk[where] = uniform_sphere_points(rng, where.size)
    fvals, singular, _ = density.F_many(pts, msk)
    assert not singular.any()
    vals = fvals ** (2.0 / density.measure.delta) * np.abs(
        BLOCH_WIGNER_INTEGRAND.eval_many(pts, msk))
    mean = fsum(vals) / n
    var = fsum((vals - mean) ** 2) / (n - 1)
    return 4.0 * math.pi * mean, 4.0 * math.pi * math.sqrt(var / n)


@pytest.mark.parametrize("marks", [[[7]], [[3, 50, 700, 999]], [[3, 50, 700], [1]],
                                   [list(range(0, 10000, 100))]])
def test_bers_resamples_singular_hits_from_the_stream(std_group, marks):
    """Points marked singular are drawn again from the same generator, and
    a point marked again is drawn again once more; 1% of the samples (100
    of 10,000) may be resampled."""
    from kleinlog.poincare import bers_integral

    den = NayataniDensity(build_ps(std_group, 0.3, 4))
    n = 10000 if len(marks[0]) == 100 else 1000
    stand_in = MarkedSingular(den, marks)
    r = bers_integral(stand_in, n_samples=n, seed=5)
    assert stand_in.calls == [n, *(len(idx) for idx in marks)]
    assert r.n_singular == sum(len(idx) for idx in marks)
    assert (r.estimate, r.stderr) == resampled(den, n, 5, marks)
    assert (r.estimate, r.stderr) != resampled(den, n, 5, [])


def test_bers_refuses_more_than_one_percent_singular(std_group):
    from kleinlog.poincare import bers_integral

    den = NayataniDensity(build_ps(std_group, 0.3, 4))
    with pytest.raises(MeasureError, match="101 singular resamples out of 10000"):
        bers_integral(MarkedSingular(den, [list(range(101))]), n_samples=10000)


def test_tree_matches_exact_path_on_other_layouts(tmp_path, std_group, sharp_delta):
    from kleinlog._vec import uniform_sphere_points

    rng = np.random.default_rng(313)
    far, far_msk = uniform_sphere_points(rng, 300)
    m = build_ps(std_group, sharp_delta, 8)
    path = tmp_path / "m.csv"
    write_measure_csv(m, path)
    perm = rng.permutation(len(m))
    shuffled = PSMeasure(m.points[perm], m.inf_mask[perm], m.weights[perm],
                         m.delta, m.depth, m.basepoint)
    for measure in (single_atom(0.7, 2.0 + 0j), read_measure_csv(path), shuffled):
        near, near_msk = near_atom_points(measure, rng, 50)
        assert_within_bounds(NayataniDensity(measure), np.concatenate([near, far]),
                             np.concatenate([near_msk, far_msk]))


def test_tree_evaluates_depth_10(std_group, sharp_delta):
    import time

    from kleinlog._vec import uniform_sphere_points

    m = build_ps(std_group, sharp_delta, 10)
    assert len(m) == 78732
    pts, msk = uniform_sphere_points(np.random.default_rng(317), 10000)
    t0 = time.perf_counter()
    vals, singular, rel = NayataniDensity(m).F_many(pts, msk)
    assert time.perf_counter() - t0 < 10.0
    assert np.isfinite(vals[~singular]).all() and (rel[~singular] <= 1e-12).all()
