import cmath
import json
import math
import warnings

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from kleinlog._vec import project
from kleinlog.polylog import (
    _D_COEFFS,
    D_GLOBAL_BOUND,
    D_SERIES_K,
    D_SERIES_TAIL,
    PolylogOverflowError,
    SingularArgumentError,
    bernoulli_number,
    bloch_wigner,
    bloch_wigner_many,
    li,
    ramakrishnan_D,
    ramakrishnan_L,
    zeta_int,
)
from kleinlog.schottky import EVAL_CHUNK

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


def _d_fresh(z):
    # bloch_wigner_many's formula with a fresh array at every step
    x, y = z.real, np.abs(z.imag)
    r = np.clip(np.abs(z), 5e-324, np.finfo(float).max)
    inv = r > 1.0
    x = np.where(inv, x / r / r, x)
    y = np.where(inv, y / r / r, y)
    la = np.where(inv, -np.log(r), np.log(r))
    lb = np.log(np.maximum((1.0 - x) * (1.0 - x) + y * y, 5e-324)) * 0.5
    refl = x > 0.5
    theta = np.arctan2(y, np.where(refl, x, 1.0 - x))
    logw = np.where(refl, lb, la)
    L = (-np.where(refl, la, lb)).astype(complex)
    L.imag = theta
    t = L * L
    acc = t * _D_COEFFS[0]
    for c in _D_COEFFS[1:]:
        acc = (acc + c) * t
    acc = acc * L
    d = (L.real * -0.5 + 1.0 - logw) * theta + acc.imag
    return np.where(z.imag < 0.0, -d, d)


def _d_test_points(rng, n):
    # every branch of the reduction, the real axis and its -0.0 included
    z = rng.uniform(-3.0, 3.0, n) + 1j * rng.uniform(-3.0, 3.0, n)
    z[::7] = z[::7].real
    z[3::7] = z[3::7].real - 0j
    z[5::7] *= 1e3
    return z


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64).tolist()


@pytest.mark.parametrize("n", sorted({1, 16383, 16384, 65536, 131073, 2 * EVAL_CHUNK + 1}))
def test_d_kernels_in_place_horner_bitwise(n):
    """bloch_wigner_many, which writes its Horner steps in place, gives the
    bits of the allocating form, and a whole array gives the bits of its
    pieces concatenated, at sizes across numpy's temporary-reuse threshold;
    so its values do not depend on how eval_many splits its input."""
    rng = np.random.default_rng(n)
    z = _d_test_points(rng, n)
    whole = bloch_wigner_many(z)
    assert _bits(whole) == _bits(_d_fresh(z))
    cuts = np.unique(np.concatenate([[0, n], rng.integers(0, n + 1, 5)]))
    pieces = [bloch_wigner_many(z[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]
    assert _bits(whole) == _bits(np.concatenate(pieces))


def test_d_of_one_point_is_its_value_in_an_array():
    """numpy rounds a complex product written over a one-element operand
    without FMA, so bloch_wigner_many keeps its products out of place: a
    point alone gets the bits it gets in a longer array."""
    z = _d_test_points(np.random.default_rng(7), 3000)
    alone = [bloch_wigner_many(z[i:i + 1]) for i in range(z.size)]
    assert _bits(np.concatenate(alone)) == _bits(bloch_wigner_many(z))


D_MANY_ERR = 6e-16  # absolute, against 40-digit mpmath


def test_bloch_wigner_many_against_mpmath(std_group):
    """bloch_wigner_many errs by at most D_MANY_ERR on each set below; it is
    +0.0 on the real axis, finite at huge and subnormal |z|, and raises no
    numpy warning."""
    rng = np.random.default_rng(37)
    n = 200

    def ring(r):
        return r * np.exp(1j * rng.uniform(-math.pi, math.pi, n))

    orbit = np.concatenate([project(piece.num, piece.den)[0]
                            for k, piece in next(std_group.orbits([0.3 + 0.7j], 6))
                            if k in (1, 3, 6)])
    hexa = cmath.exp(1j * math.pi / 3)
    sets = {
        "orbit": rng.choice(orbit, n, replace=False),
        "square": rng.uniform(-3, 3, n) + 1j * rng.uniform(-3, 3, n),
        "circle+": ring(1 + 1e-9),
        "circle-": ring(1 - 1e-9),
        "hexagonal": hexa + 1e-6 * (rng.normal(size=n) + 1j * rng.normal(size=n)),
        "re=1/2": 0.5 + 1j * rng.uniform(-3, 3, n),
        "radii": ring(np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n))),
        "near 1": 1 + ring(rng.uniform(1e-8, 1e-6, n)),
        "im~1e-12": rng.uniform(-3, 3, n) + 1e-12j * rng.uniform(-1, 1, n),
    }
    with warnings.catch_warnings(), \
            np.errstate(divide="warn", over="warn", invalid="warn"):
        warnings.simplefilter("error")
        for name, z in sets.items():
            with mpmath.workdps(40):
                exact = np.array([mp_D(complex(v)) for v in z])
            err = np.max(np.abs(bloch_wigner_many(z) - exact))
            assert err <= D_MANY_ERR, (name, err)
        real = np.array([-1e300, -3.0, -1.0, 0.0, 0.25, 0.5, 1.0, 2.0, 1e300, 5e-324])
        for z in (real + 0j, real - 0j, real.astype(complex)):
            got = bloch_wigner_many(z)
            assert np.all(got == 0.0) and not np.any(np.signbit(got)), z
        extreme = np.concatenate([ring(1e300), ring(1e-320),
                                  [1e308 + 1e308j, -1.7e308j, 5e-324j, -5e-324 + 5e-324j]])
        got = bloch_wigner_many(extreme)
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got) <= 1e-290)


def test_d_series_tail_bound():
    """On the reduced region |w| <= 1, Re w <= 1/2, Im w >= 0, |log(1 - w)|
    <= pi/3; there the Bernoulli terms bloch_wigner_many drops sum to at most
    D_SERIES_TAIL, recomputed from the coefficients, and D_SERIES_K is the
    least K that puts that sum below 2^-60."""
    th = np.linspace(math.pi / 3, math.pi, 2001)
    edge = np.concatenate([np.exp(1j * th),
                           0.5 + 1j * np.linspace(0.0, math.sqrt(0.75), 2001),
                           np.linspace(-1.0, 0.5, 2001)])
    assert np.max(np.abs(np.log(1.0 - edge))) <= math.pi / 3 * (1 + 1e-15)
    with mpmath.workdps(40):
        coef = [mpmath.bernoulli(2 * k) / mpmath.factorial(2 * k + 1)
                for k in range(1, D_SERIES_K + 60)]
        assert _D_COEFFS.tolist() == [float(c) for c in coef[D_SERIES_K - 1::-1]]
        terms = [abs(c) * (mpmath.pi / 3) ** (2 * k + 3) for k, c in enumerate(coef)]

        def tail(K):
            # the terms left out, past k = D_SERIES_K + 59, shrink 36-fold each
            return mpmath.fsum(terms[K:])

        assert tail(D_SERIES_K) <= D_SERIES_TAIL < 2.0 ** -60 < tail(D_SERIES_K - 1)


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


@pytest.mark.parametrize("m", [172, 400])
def test_ramakrishnan_L_overflow_names_the_order(m):
    """From order 172 on, (m - 1)! leaves the float range: L_m raises
    PolylogOverflowError naming m and z, as li and ramakrishnan_D do."""
    with pytest.raises(PolylogOverflowError,
                       match=rf"^L_{m} overflows the float range at z = \(0\.3\+0j\)$"):
        ramakrishnan_L(m, 0.3)
    # 170! is the last factorial below the float maximum
    assert cmath.isfinite(ramakrishnan_L(171, 0.3).value)


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


def test_zeta_int_is_correctly_rounded():
    with mpmath.workdps(60):
        for k in range(2, 64):
            assert zeta_int(k) == float(mpmath.zeta(k)), k


def li_bound_points(seed=0):
    """500 seeded points where li's bounds were tight: 300 with |z| log-uniform
    in [1e-3, 1e3], 100 within about 1e-3 of 1, 100 within 1e-6 of the unit
    circle."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(-math.pi, math.pi, 500)
    mod = np.concatenate([10.0 ** rng.uniform(-3, 3, 300), np.ones(200)])
    mod[300:400] += rng.uniform(-1e-3, 1e-3, 100)
    angle[300:400] *= 1e-3 / math.pi
    mod[400:] += rng.uniform(-1e-6, 1e-6, 100)
    return mod * np.exp(1j * angle)


def test_li_bounds_cover_the_zeta_constants():
    """Li_5 near 1 and the unit circle sums correctly rounded zeta values;
    its bound holds at 40 digits there, and so does li(n, 1)'s."""
    with mpmath.workdps(40):
        for z in li_bound_points():
            res = li(5, complex(z), 1e-12)
            exact = mpmath.polylog(5, mpmath.mpc(z.real, z.imag))
            assert abs(mpmath.mpc(res.value) - exact) <= res.error_bound, z
        for n in range(2, 9):
            res = li(n, 1.0)
            assert abs(mpmath.mpf(res.value.real) - mpmath.zeta(n)) <= res.error_bound, n
