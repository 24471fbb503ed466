import cmath
import json
import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from kleinlog.polylog import (
    _BAND_COEFFS,
    _INV_K2,
    D_GLOBAL_BOUND,
    SingularArgumentError,
    _d_band_vec,
    _d_small_vec,
    bernoulli_number,
    bloch_wigner,
    bloch_wigner_many,
    li,
    ramakrishnan_D,
    ramakrishnan_L,
    zeta_int,
)

# anchor values frozen from the oracle runs (brute series / closed forms)
LI2_HALF = 0.5822405264650125  # pi^2/12 - log(2)^2/2
LI3_HALF = 0.5372131936080402  # 7 zeta(3)/8 - pi^2 log(2)/12 + log(2)^3/6
D_AT_I = 0.9159655941772190  # Catalan's constant
D_HEX = 1.0149416064096537  # D(exp(i pi/3)), global maximum of D


def mp_D(z) -> float:
    z = mpmath.mpc(z)
    v = mpmath.im(mpmath.polylog(2, z)) + mpmath.arg(1 - z) * mpmath.log(abs(z))
    return float(v)


def mp_ramakrishnan(m: int, z, denom: str = "2*m!") -> float:
    z = mpmath.mpc(z)
    nl = -mpmath.log(abs(z))
    L = mpmath.fsum(
        (nl ** (m - j) / mpmath.factorial(m - j) * mpmath.polylog(j, z)
         for j in range(1, m + 1)),
        absolute=False,
    )
    if m % 2 == 0:
        return float(mpmath.im(L))
    d = 2 * mpmath.factorial(m) if denom == "2*m!" else mpmath.factorial(2 * m)
    return float(mpmath.re(L) + mpmath.log(abs(z)) ** m / d)


def sample_off_axis(rng, n, lo=0.05, hi=5.0):
    r = np.exp(rng.uniform(math.log(lo), math.log(hi), n))
    th = rng.uniform(0.02, math.pi - 0.02, n)
    sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    return r * np.exp(1j * th * sign)


def test_anchor_values():
    assert abs(li(2, 1.0).value - math.pi ** 2 / 6) < 1e-12
    assert abs(li(2, -1.0).value + math.pi ** 2 / 12) < 1e-13
    assert abs(li(2, 0.5, 1e-14).value - LI2_HALF) < 1e-13
    assert abs(li(3, 0.5, 1e-14).value - LI3_HALF) < 1e-13
    assert abs(LI2_HALF - (math.pi ** 2 / 12 - math.log(2) ** 2 / 2)) < 1e-15
    assert abs(bloch_wigner(1j) - D_AT_I) < 1e-13
    assert abs(D_AT_I - float(mpmath.catalan)) < 1e-15
    assert abs(bloch_wigner(cmath.exp(1j * math.pi / 3)) - D_HEX) < 1e-13


def test_li_against_mpmath():
    rng = np.random.default_rng(42)
    pts = sample_off_axis(rng, 60)
    for n in (1, 2, 3, 4):
        for z in pts:
            res = li(n, complex(z), 1e-13)
            ref = complex(mpmath.polylog(n, mpmath.mpc(complex(z))))
            assert abs(res.value - ref) < 1e-11, (n, z)


def test_li_branch_continuous_from_below():
    # on the cut (1, inf) the value agrees with the limit from Im z < 0
    for x in (1.5, 2.0, 7.0):
        on_cut = li(2, x).value
        below = complex(mpmath.polylog(2, mpmath.mpc(x, -1e-25)))
        assert abs(on_cut - below) < 1e-10


def test_li_error_bound_honest():
    rng = np.random.default_rng(5)
    for z in sample_off_axis(rng, 40):
        res = li(2, complex(z), 1e-12)
        ref = complex(mpmath.polylog(2, mpmath.mpc(complex(z))))
        assert abs(res.value - ref) <= 2.0 * res.error_bound + 1e-14


def test_li_singular_arguments():
    with pytest.raises(SingularArgumentError):
        li(1, 1.0)
    with pytest.raises(SingularArgumentError):
        from kleinlog.moebius import INF

        li(2, INF)
    with pytest.raises(ValueError):
        li(0, 0.5)


def test_bloch_wigner_against_mpmath():
    rng = np.random.default_rng(7)
    for z in sample_off_axis(rng, 150, lo=0.01, hi=50.0):
        assert abs(bloch_wigner(complex(z)) - mp_D(complex(z))) < 1e-11, z


def test_bloch_wigner_real_axis_and_special_points():
    for x in (-3.0, -1.0, 0.0, 0.25, 1.0, 2.0, 100.0):
        assert bloch_wigner(x) == 0.0
    from kleinlog.moebius import INF

    assert bloch_wigner(INF) == 0.0


def test_bloch_wigner_antisymmetries():
    rng = np.random.default_rng(11)
    for z in sample_off_axis(rng, 300):
        z = complex(z)
        d = bloch_wigner(z)
        assert abs(bloch_wigner(z.conjugate()) + d) < 1e-12
        assert abs(bloch_wigner(1.0 / z) + d) < 1e-12
        assert abs(bloch_wigner(1.0 - z) + d) < 1e-12


def test_bloch_wigner_five_term_relation():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.05, 0.8))
        y = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.05, 0.8))
        if abs(1 - x * y) < 1e-3:
            continue
        s = (bloch_wigner(x) + bloch_wigner(y)
             + bloch_wigner((1 - x) / (1 - x * y))
             + bloch_wigner(1 - x * y)
             + bloch_wigner((1 - y) / (1 - x * y)))
        assert abs(s) < 1e-11


def test_bloch_wigner_global_bound():
    rng = np.random.default_rng(17)
    vals = bloch_wigner_many(sample_off_axis(rng, 5000, lo=0.001, hi=1000.0))
    assert np.max(np.abs(vals)) <= D_GLOBAL_BOUND
    assert np.max(np.abs(vals)) > 1.0  # the bound is nearly attained


def test_bloch_wigner_many_matches_scalar():
    rng = np.random.default_rng(19)
    z = sample_off_axis(rng, 400, lo=0.01, hi=100.0)
    # sprinkle real points and region boundaries
    z = np.concatenate([z, [0.5, 2.0, -1.0, 0.0, 1.0, 0.5j, 2.0j, 1.0 + 0.5j]])
    many = bloch_wigner_many(z)
    for zi, vi in zip(z, many):
        assert abs(vi - bloch_wigner(complex(zi))) < 1e-13


def _d_small_fresh(u):
    # _d_small_vec with a fresh array at every Horner step
    acc = np.zeros(u.shape, dtype=complex)
    for c in _INV_K2:
        acc = acc * u + c
    s = u * acc
    return s.imag + np.angle(1.0 - u) * np.log(np.abs(u))


def _d_band_fresh(u):
    mu = np.log(u)
    acc = np.zeros(u.shape, dtype=complex)
    for c in _BAND_COEFFS:
        acc = acc * mu + c
    li2 = zeta_int(2) + mu * (1.0 - np.log(-mu)) + mu * mu * acc
    return li2.imag + np.angle(1.0 - u) * np.log(np.abs(u))


def _upper(rng, n, r_lo, r_hi):
    return rng.uniform(r_lo, r_hi, n) * np.exp(1j * rng.uniform(0.01, 3.13, n))


def _band_points(rng, n):
    w = np.empty(0, dtype=complex)
    while w.size < n:
        c = _upper(rng, 2 * n, 0.51, 1.99)
        w = np.concatenate([w, c[np.abs(1.0 - c) > 0.5]])
    return w[:n]


@pytest.mark.parametrize("n", [1, 16383, 16384, 65536, 131073])
def test_d_kernels_in_place_horner_bitwise(n):
    """The in-place Horner loops give the bits of the allocating form in
    every region bloch_wigner_many sends to them, at sizes across numpy's
    temporary-reuse threshold."""
    rng = np.random.default_rng(n)
    cases = [
        # small |w| <= 1/2, large |w| >= 2 through 1/w, near 1 through 1 - w
        (_d_small_vec, _d_small_fresh, _upper(rng, n, 0.01, 0.5)),
        (_d_small_vec, _d_small_fresh, 1.0 / _upper(rng, n, 2.0, 50.0)),
        (_d_small_vec, _d_small_fresh, 1.0 - (1.0 + _upper(rng, n, 0.01, 0.5))),
        (_d_band_vec, _d_band_fresh, _band_points(rng, n)),
    ]
    for kernel, fresh, u in cases:
        assert kernel(u).view(np.int64).tolist() == \
            fresh(u).view(np.int64).tolist()


def test_bloch_wigner_many_rejects_nonfinite():
    with pytest.raises(ValueError):
        bloch_wigner_many(np.array([1j, complex("inf")]))


def test_small_argument_bound():
    rng = np.random.default_rng(23)
    r = np.exp(rng.uniform(math.log(1e-8), math.log(0.1), 100))
    th = rng.uniform(0, 2 * math.pi, 100)
    for z in r * np.exp(1j * th):
        z = complex(z)
        assert abs(bloch_wigner(z)) <= 2 * abs(z) * (1 + abs(math.log(abs(z))))


def test_ramakrishnan_d2_equals_bloch_wigner():
    rng = np.random.default_rng(29)
    for z in sample_off_axis(rng, 200):
        z = complex(z)
        assert abs(ramakrishnan_D(2, z, 1e-12).value - bloch_wigner(z)) < 1e-11


def test_ramakrishnan_against_mpmath():
    rng = np.random.default_rng(31)
    for m in (1, 2, 3, 4, 5):
        for z in sample_off_axis(rng, 25):
            z = complex(z)
            got = ramakrishnan_D(m, z, 1e-12).value
            assert abs(got - mp_ramakrishnan(m, z)) < 1e-10, (m, z)


def test_ramakrishnan_odd_denominator_variant():
    z = 0.3 + 0.4j
    default = ramakrishnan_D(3, z).value
    variant = ramakrishnan_D(3, z, odd_denominator="(2m)!").value
    corr_default = math.log(abs(z)) ** 3 / (2 * math.factorial(3))
    corr_variant = math.log(abs(z)) ** 3 / math.factorial(6)
    assert abs((default - corr_default) - (variant - corr_variant)) < 1e-13
    assert abs(variant - mp_ramakrishnan(3, z, "(2m)!")) < 1e-11
    with pytest.raises(ValueError):
        ramakrishnan_D(3, z, odd_denominator="bogus")


def test_ramakrishnan_single_valued_on_rays():
    # D_m must agree when approaching the positive reals from either side
    for m in (2, 3, 4):
        for x in (0.3, 0.7, 1.6, 3.0):
            up = ramakrishnan_D(m, complex(x, 1e-9)).value
            dn = ramakrishnan_D(m, complex(x, -1e-9)).value
            parity = -1.0 if m % 2 == 0 else 1.0
            assert abs(up - parity * dn) < 1e-6, (m, x)


def test_ramakrishnan_singularities():
    with pytest.raises(SingularArgumentError):
        ramakrishnan_L(2, 0.0)
    with pytest.raises(SingularArgumentError):
        ramakrishnan_L(2, 1.0)
    with pytest.raises(ValueError):
        ramakrishnan_L(0, 0.5)


def test_ramakrishnan_subnormal_tolerance():
    """The smallest positive tol, split over three orders, rounds to 0 for
    each; every order then works to tol itself."""
    assert ramakrishnan_D(3, 0.3 + 0.2j, 5e-324).value == \
        ramakrishnan_D(3, 0.3 + 0.2j, 1e-300).value


def test_bernoulli_and_zeta():
    known = {0: 1.0, 1: -0.5, 2: 1 / 6, 4: -1 / 30, 6: 1 / 42, 3: 0.0, 5: 0.0}
    for k, v in known.items():
        assert abs(bernoulli_number(k) - v) < 1e-15
    for k in range(2, 20):
        assert abs(bernoulli_number(k) - float(mpmath.bernoulli(k))) <= 1e-12 * max(
            1.0, abs(float(mpmath.bernoulli(k)))
        )
    for n in range(2, 12):
        assert abs(zeta_int(n) - float(mpmath.zeta(n))) < 1e-14


@pytest.mark.parametrize("z", ["1e6,1e6", "1e100,1e100"])
def test_cli_bloch_wigner_bound_covers_its_error(z):
    """polylog --bloch-wigner reports the bound it computed, and that bound
    covers the error against a 40-digit D."""
    from tests.test_cli import main_io

    code, out, err = main_io("polylog", "--bloch-wigner", "--z", z)
    assert code == 0, err
    res = json.loads(out)["results"]
    with mpmath.workdps(40):
        exact = mp_D(complex(*map(float, z.split(","))))
    assert res["error_bound"] >= abs(res["value"] - exact)
