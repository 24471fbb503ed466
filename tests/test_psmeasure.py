import math

import numpy as np
import pytest

from kleinlog.moebius import INF, SpherePoint, phi
from kleinlog.psmeasure import (
    MeasureError,
    NayataniDensity,
    PSMeasure,
    SingularEvaluationError,
    asymptotic_profile,
    atom_resolution,
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


def test_custom_test_functions(std_group, sharp_delta):
    m = build_ps(std_group, sharp_delta, 6)
    only_const = quasi_invariance_residual(
        m, std_group, test_functions=[("1", lambda n1, n2, n3: np.ones_like(n1))]
    )
    full = quasi_invariance_residual(m, std_group)
    assert only_const <= full + 1e-15


def test_single_atom_density_closed_form():
    d = NayataniDensity(single_atom(delta=1.0))
    rng = np.random.default_rng(211)
    for _ in range(50):
        x = SpherePoint(complex(rng.normal(), rng.normal()))
        expected = 1.0 / phi(x, SpherePoint(0j))
        assert abs(d.F(x) - expected) < 1e-12 * abs(expected)
    # antipode of 0 is infinity: phi = 2 there, F = 1/2
    assert abs(d.F(INF) - 0.5) < 1e-15
    assert abs(d.metric_factor(INF) - 0.25) < 1e-15


def test_density_singular_at_atom():
    d = NayataniDensity(single_atom(delta=0.7))
    with pytest.raises(SingularEvaluationError):
        d.F(SpherePoint(0j))
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
        assert abs(den.F(SpherePoint(complex(p))) - v) <= 1e-12 * abs(v)


def test_asymptotic_profile_single_atom():
    # F = phi^-delta around one atom gives log-slope exactly -2 delta
    for delta in (0.5, 1.0):
        d = NayataniDensity(single_atom(delta=delta))
        radii = np.geomspace(1e-2, 1e-4, 7)
        prof = asymptotic_profile(d, SpherePoint(0j), radii)
        assert abs(prof.slope + 2.0 * delta) < 1e-6
        assert prof.resolution == 0.0


def test_profile_refuses_below_resolution(std_group, sharp_delta):
    m = build_ps(std_group, sharp_delta, 6)
    den = NayataniDensity(m)
    y0 = SpherePoint(m.points[3])
    res = atom_resolution(den, y0)
    assert res >= 0.0
    with pytest.raises(MeasureError):
        asymptotic_profile(den, y0, np.geomspace(res + 1e-15, (res + 1e-15) / 100, 5))


def test_profile_near_limit_set(std_group, sharp_delta):
    # slope is recorded, not asserted: the measured profile exponent near the
    # limit set is diagnostic output
    m = build_ps(std_group, sharp_delta, 6)
    den = NayataniDensity(m)
    prof = asymptotic_profile(den, SpherePoint(2.2 + 0j), np.geomspace(0.5, 0.08, 6))
    assert np.isfinite(prof.slope)
    assert len(prof.values) == 6
    assert all(v > 0 for v in prof.values)


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
    from kleinlog._vec import from_sphere, sphere_coords_many

    idx = rng.integers(0, len(measure), k)
    n0s = np.stack(sphere_coords_many(measure.points[idx], measure.inf_mask[idx]), 1)
    pts, msk = [], []
    for n0 in n0s:
        t = rng.normal(size=3)
        t -= t.dot(n0) * n0
        t /= np.linalg.norm(t)
        theta = 2.0 * math.asin(0.5 * 10.0 ** rng.uniform(-9.0, -3.0))
        p = from_sphere(math.cos(theta) * n0 + math.sin(theta) * t)
        pts.append(0j if p.is_infinity else p.value)
        msk.append(p.is_infinity)
    return np.array(pts + [0j]), np.array(msk + [True])


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
        den.F(SpherePoint(complex(m.points[7])))


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


def test_bers_bitwise_across_threads(std_group, sharp_delta):
    from kleinlog.poincare import bers_integral

    den = NayataniDensity(build_ps(std_group, sharp_delta, 8))
    one = bers_integral(std_group, den, n_samples=5000, seed=13, threads=1)
    four = bers_integral(std_group, den, n_samples=5000, seed=13, threads=4)
    assert one == four
    assert 0.0 < one.density_rel_err <= 1e-12
    assert one.estimate_rel_err >= 2.0 / sharp_delta.delta * one.density_rel_err


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
