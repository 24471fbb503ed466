import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinlog import _vec
from kleinlog._vec import (
    FSUM_BLOCK,
    FSUM_SHORT,
    act,
    from_sphere_many,
    fsum,
    fsum_c,
    hom_many,
    sphere_coords_many,
    stretch,
)
from kleinlog.moebius import (
    INF,
    MoebiusMap,
    PoleError,
    SpherePoint,
    as_sphere_point,
    chordal,
)
from kleinlog.schottky import SchottkyError, limit_set
from tests.conftest import make_random_group, matrix_orbit

finite = st.floats(allow_nan=False, allow_infinity=False)
# |x| <= 1e300 keeps short lists out of the overflow fallback, so they reach
# the binned path; subnormals are included
moderate = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


def outcome(fn, xs):
    """Bits of the result, or the exception type and message."""
    try:
        v = fn(xs)
    except (OverflowError, ValueError) as e:
        return type(e), str(e)
    return "nan" if math.isnan(v) else v.hex()


def assert_same(xs):
    ref = outcome(math.fsum, np.asarray(xs, dtype=float).tolist())
    assert outcome(fsum, xs) == ref
    assert outcome(_vec._fsum_binned, np.asarray(xs, dtype=float)) == ref


def spread(seed: int, n: int, lo: int, hi: int) -> np.ndarray:
    """n doubles with random signs, full 53-bit mantissas and exponents in
    [lo, hi] (lo = -1074 gives subnormals)."""
    rng = np.random.default_rng(seed)
    mant = rng.integers(2**52, 2**53, n).astype(float)
    sign = rng.choice([-1.0, 1.0], n)
    return sign * np.ldexp(mant, rng.integers(lo, hi + 1, n) - 53)


@given(st.lists(moderate, max_size=64))
def test_short_lists_bitwise(xs):
    assert_same(xs)


@given(st.lists(finite, max_size=64))
def test_full_exponent_range_bitwise(xs):
    assert_same(xs)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(FSUM_SHORT, 20_000),
       lo=st.integers(-1074, 1023), width=st.integers(0, 2100))
def test_random_exponents_bitwise(seed, n, lo, width):
    assert_same(spread(seed, n, lo, min(1023, lo + width)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6000),
       lo=st.integers(-1074, 900), residues=st.lists(moderate, max_size=8))
def test_heavy_cancellation_bitwise(seed, n, lo, residues):
    x = spread(seed, n, lo, min(1000, lo + 200))
    tiny = np.array(residues) * 2.0**-600
    xs = np.concatenate([x, -x, tiny, residues])
    np.random.default_rng(seed).shuffle(xs)
    assert_same(xs)


@pytest.mark.parametrize("n", [0, 1, FSUM_SHORT - 1, FSUM_SHORT,
                               2 * FSUM_BLOCK + 3, 2**17 + 3])
def test_lengths_and_block_boundaries(n):
    x = spread(n, n, -40, 40)
    assert_same(x)
    # an exact zero total is +0.0, as in math.fsum
    zero = np.concatenate([x, -x[::-1]])
    assert fsum(zero).hex() == math.fsum(zero.tolist()).hex() == "0x0.0p+0"
    assert fsum(-np.zeros(n)).hex() == "0x0.0p+0"


@pytest.mark.parametrize("xs", [
    [math.inf, -math.inf], [1e308, 1e308], [math.nan], [1.0, math.inf],
    [-math.inf, 2.0, -math.inf], [math.nan, math.inf],
    [1.7976931348623157e308, 2.0**970],
])
def test_non_finite_and_overflow_match_fsum(xs):
    assert_same(xs)
    # the same values inside an array long enough for the binned path
    pad = spread(7, FSUM_BLOCK + 11, -20, 20)
    assert_same(np.concatenate([pad[:FSUM_BLOCK + 5], xs, pad[FSUM_BLOCK + 5:]]))


def test_large_values_fall_back_to_fsum():
    assert_same(np.full(5000, 1e306))
    assert_same(np.concatenate([np.full(3000, 1e307), np.full(3000, -1e307)]))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 8000))
def test_complex_form_bitwise(seed, n):
    z = spread(seed, n, -300, 300) + 1j * spread(seed + 1, n, -300, 300)
    got = fsum_c(z)
    ref = complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))
    assert (got.real.hex(), got.imag.hex()) == (ref.real.hex(), ref.imag.hex())
    assert fsum_c(z.real) == complex(math.fsum(z.real.tolist()), 0.0)


# the vector kernels against the scalar references --------------------------------

U = 2.0**-53


def special_points():
    """0, infinity, points at |z| = 1 +- 1e-12 and 1e300, -2 (the pole of
    generator 1 of the standard group) and random points."""
    rng = np.random.default_rng(401)
    e = np.exp(2j * np.pi * rng.uniform(size=3))
    r = 10.0 ** rng.uniform(-3.0, 3.0, 12)
    vals = np.concatenate([[0j, -2.0 + 0j], (1 + 1e-12) * e, (1 - 1e-12) * e,
                           1e300 * e, r * np.exp(2j * np.pi * rng.uniform(size=12)),
                           [0j]])
    mask = np.zeros(vals.size, dtype=bool)
    mask[-1] = True
    return vals, mask


def as_points(vals, mask):
    return [INF if m else SpherePoint(complex(v)) for v, m in zip(vals, mask)]


def shell_maps(group, n):
    return [MoebiusMap._from_normalized(*m.ravel()) for m in group.shell_matrices(n)]


def assert_close_points(got, got_mask, refs):
    for v, m, ref in zip(got.tolist(), got_mask.tolist(), refs):
        assert chordal(INF if m else SpherePoint(v), ref) <= 8 * U


def assert_close_values(got, refs):
    for v, ref in zip(np.asarray(got).tolist(), refs):
        assert abs(v - ref) <= 8 * U * abs(ref)


def test_pole_is_an_orbit_pole(std_group):
    assert std_group.generators[0].apply(-2.0).is_infinity


def test_apply_and_stretch_many_match_scalar(std_group):
    vals, mask = special_points()
    # z -> 1e300 z sends 1e10 to an overflowing, and so infinite, quotient
    vals, mask = np.append(vals, 1e10), np.append(mask, False)
    pts = as_points(vals, mask)
    huge = MoebiusMap.scaling(1e300)
    Z, W = hom_many(vals, mask)
    for m in shell_maps(std_group, 1) + shell_maps(std_group, 3) + [huge]:
        got, got_mask, num, den = act(m.a, m.b, m.c, m.d, Z, W)
        assert_close_points(got, got_mask, [m.apply(p) for p in pts])
        assert_close_values(stretch(Z, W, num, den),
                            [m.spherical_derivative(p) for p in pts])


def test_shell_terms_match_scalar(std_group):
    vals, mask = special_points()
    for p in as_points(vals, mask):
        for n in (1, 3):
            maps = shell_maps(std_group, n)
            pts, inf_mask, w = std_group.shell_terms(matrix_orbit(std_group, n, p), p,
                                                   "absolute")
            assert_close_points(pts, inf_mask, [m.apply(p) for m in maps])
            assert_close_values(w, [m.spherical_derivative(p) for m in maps])
            # (c z + d)^2 overflows at |z| = 1e300, where derivative raises
            if p.is_infinity or abs(p.value) > 1e150:
                continue
            try:
                refs = [m.derivative(p) for m in maps]
            except PoleError:
                with pytest.raises(SchottkyError):
                    std_group.shell_terms(matrix_orbit(std_group, n, p), p, "holomorphic")
                continue
            _, _, w = std_group.shell_terms(matrix_orbit(std_group, n, p), p, "holomorphic")
            assert_close_values(w, refs)


def test_limit_set_matches_scalar(std_group):
    """Each point is within 8u (chordal) of its word's matrix applied to its
    seed by the scalar map: measured 3.1u on the standard group and 3.7u on
    the random one, whose walk and matrix products round apart."""
    depth = 3
    for group in (std_group, make_random_group()):
        maps = shell_maps(group, depth)
        words = [w for w in group.enumerate_words(depth) if w.length == depth]
        sample = limit_set(group, depth)
        refs = []
        for i, g in enumerate(group.generators, start=1):
            fp = g.fixed_points_multiplier()
            for direction, seed in ((i, fp.fix_attracting), (-i, fp.fix_repelling)):
                refs += [m.apply(seed) for m, w in zip(maps, words)
                         if w.letters[-1] != -direction]
        assert len(sample) == len(refs)
        for p, ref in zip(sample, refs):
            assert chordal(p, ref) <= 8 * U


def to_sphere(p) -> np.ndarray:
    p = as_sphere_point(p)
    return sphere_coords_many(np.array([p.value]), np.array([p.is_infinity]))[:, 0]


def test_sphere_round_trip():
    # projecting from the north pole rounds 1 - n3, which loses relative
    # accuracy outside the unit disk, so random points stay inside it
    vals, mask = special_points()
    rng = np.random.default_rng(409)
    disk = np.sqrt(rng.uniform(size=50)) * np.exp(2j * np.pi * rng.uniform(size=50))
    pts = as_points(vals[:11], mask[:11]) + [INF] + as_points(disk, np.zeros(50))
    back = as_points(*from_sphere_many(*np.stack([to_sphere(p) for p in pts], 1)))
    for p, q in zip(pts, back):
        assert chordal(q, p) <= 4 * U


# the running exact sum over pieces --------------------------------------------------


def pieces_of(xs, seed: int, cuts: int) -> list[np.ndarray]:
    """xs cut at `cuts` random places; pieces may be empty."""
    rng = np.random.default_rng(seed)
    xs = np.asarray(xs, dtype=float)
    return np.split(xs, np.sort(rng.integers(0, xs.size + 1, cuts)))


def exact_sum(pieces, seed: int) -> float:
    """One ExactSum fed the pieces in a random order."""
    acc = _vec.ExactSum()
    for j in np.random.default_rng(seed).permutation(len(pieces)):
        acc.add(pieces[j])
    return acc.value()


def union_outcome(xs):
    """math.fsum's outcome over xs; where math.fsum overflows part-way, the
    exact sum rounded once, or OverflowError if that is out of range."""
    xs = np.asarray(xs, dtype=float).tolist()
    ref = outcome(math.fsum, xs)
    if isinstance(ref, tuple) and ref[0] is OverflowError:
        exact = sum(n * (2**1074 // d) for n, d in (x.as_integer_ratio() for x in xs))
        ref = outcome(lambda _: exact / 2**1074, xs)
    return ref


def assert_pieces_sum_like_union(xs, seed: int, cuts: int):
    got = outcome(lambda p: exact_sum(p, seed), pieces_of(xs, seed, cuts))
    ref = union_outcome(xs)
    if isinstance(ref, tuple) and ref[0] is OverflowError:
        assert isinstance(got, tuple) and got[0] is OverflowError
    else:
        assert got == ref


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 20_000),
       lo=st.integers(-1074, 1023), width=st.integers(0, 2100),
       cuts=st.integers(0, 8))
def test_exact_sum_over_pieces_random_exponents(seed, n, lo, width, cuts):
    assert_pieces_sum_like_union(spread(seed, n, lo, min(1023, lo + width)),
                                 seed, cuts)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6000),
       lo=st.integers(-1074, 900), residues=st.lists(moderate, max_size=8),
       cuts=st.integers(0, 8))
def test_exact_sum_over_pieces_heavy_cancellation(seed, n, lo, residues, cuts):
    x = spread(seed, n, lo, min(1000, lo + 200))
    xs = np.concatenate([x, -x, np.array(residues) * 2.0**-600, residues])
    np.random.default_rng(seed).shuffle(xs)
    assert_pieces_sum_like_union(xs, seed, cuts)


@given(st.lists(finite, max_size=64), st.integers(0, 2**32 - 1),
       st.integers(0, 8))
def test_exact_sum_over_pieces_full_exponent_range(xs, seed, cuts):
    assert_pieces_sum_like_union(xs, seed, cuts)


@given(st.lists(st.floats(-1e300, 1e300), max_size=40),
       st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=3),
       st.integers(0, 2**32 - 1), st.integers(0, 8))
def test_exact_sum_over_non_finite_pieces(finite_xs, special, seed, cuts):
    xs = np.array(finite_xs + special, dtype=float)
    np.random.default_rng(seed).shuffle(xs)
    got = outcome(lambda p: exact_sum(p, seed), pieces_of(xs, seed, cuts))
    assert got == outcome(math.fsum, xs.tolist())


def test_exact_sum_rounds_where_fsum_overflows_part_way():
    acc = _vec.ExactSum()
    assert not acc.add(np.array([1e308, 1e308]))
    acc.add(np.array([-1e308]))
    assert acc.value() == 1e308
    with pytest.raises(OverflowError):
        math.fsum([1e308, 1e308, -1e308])
    acc.add(np.array([1.7976931348623157e308]))
    with pytest.raises(OverflowError):
        acc.value()


# extraction's edge cases: each sum against math.fsum's bits ----------------------


def assert_every_sum_like_union(xs, seed: int = 0):
    """fsum, _fsum_binned and an ExactSum fed xs in pieces give math.fsum's
    bits (the union's, where math.fsum overflows part-way)."""
    assert_same(xs)
    for cuts in (0, 5):
        assert_pieces_sum_like_union(xs, seed, cuts)


def below(e: int, n: int, seed: int) -> np.ndarray:
    """n doubles just below 2**e: 2**e less 1 to 2**40 of its lower
    neighbour's ulps, so their low bits are random."""
    ulp = np.spacing(np.nextafter(2.0**e, 0.0))
    return 2.0**e - np.random.default_rng(seed).integers(1, 2**40, n) * ulp


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("e", [-1030, 0, 1008, 1009])
def test_full_block_just_below_a_power_of_two(e, sign):
    """The top exponents of the vector path (1008) and of the element path
    (1009), a subnormal one and 0, at the block's full length."""
    x = sign * below(e, FSUM_BLOCK, e & 0xFFFF)
    assert math.frexp(np.abs(x).max())[1] == e
    assert_every_sum_like_union(x, seed=abs(e))


@pytest.mark.parametrize("unpaired", [0, 3])
def test_block_mixing_the_top_of_the_vector_path_with_subnormals(unpaired):
    big = spread(11, 4000, 1000, 1008)
    tiny = spread(12, FSUM_BLOCK - 8000 - unpaired, -1074, -1040)
    xs = np.concatenate([big, -big, tiny, big[:unpaired]])
    np.random.default_rng(13).shuffle(xs)
    assert xs.size == FSUM_BLOCK
    assert_every_sum_like_union(xs, seed=unpaired)


@pytest.mark.parametrize("top", [1.0, -1.0, 2.0**-1022, 2.0**-1074, 2.0**1008,
                                 -(2.0**1009)])
def test_block_whose_max_is_a_power_of_two(top):
    e = math.frexp(top)[1]
    xs = np.concatenate([spread(e & 0xFF, FSUM_BLOCK - 1, e - 60, e - 1)
                         if e > -1000 else np.full(FSUM_BLOCK - 1, 2.0**-1074),
                         [top]])
    assert np.abs(xs).max() == abs(top)
    assert_every_sum_like_union(xs, seed=e & 0xFF)


@pytest.mark.parametrize("top", [2.0**-1074, 1.5, np.nextafter(2.0**1008, 0.0),
                                 2.0**1008, 1.7976931348623157e308])
@pytest.mark.parametrize("extra", [[], [0.25], [2.0**-1074, -3.0]])
def test_alternating_plus_minus_max(top, extra):
    xs = np.concatenate([np.tile([top, -top], FSUM_BLOCK // 2 + 3), extra])
    assert_every_sum_like_union(xs)


@pytest.mark.parametrize("first, second", [((-5, 5), (900, 1000)),
                                           ((900, 1000), (-5, 5)),
                                           ((-1074, -1000), (0, 40)),
                                           ((1000, 1023), (-1074, -1050))])
def test_two_blocks_with_very_different_maxima(first, second):
    xs = np.concatenate([spread(21, FSUM_BLOCK, *first),
                         spread(22, FSUM_BLOCK - 7, *second)])
    assert_every_sum_like_union(xs, seed=first[0] & 0xFF)


# exact sums at every SIMD level ---------------------------------------------------

SIMD_CHILD = """
import json, math, sys
import numpy as np
from numpy._core._multiarray_umath import __cpu_features__
from kleinlog._vec import ExactSum, fsum

def spread(rng, n, lo, hi):
    mant = rng.integers(2**52, 2**53, n).astype(float)
    return rng.choice([-1.0, 1.0], n) * np.ldexp(mant, rng.integers(lo, hi + 1, n) - 53)

out = {"off": [f for f in sys.argv[1:] if __cpu_features__.get(f)], "sums": []}
rng = np.random.default_rng(31)
for n, lo, hi in [(3000, -12, 0), (20000, -60, 0), (40000, -300, 300),
                  (17000, -1074, 1000), (5000, -1074, -1000), (9000, 950, 1008)]:
    x = spread(rng, n, lo, hi)
    x = np.concatenate([x, -x[: n // 2], spread(rng, 50, lo, min(hi, lo + 20))])
    acc = ExactSum()
    for piece in np.array_split(x, 3):
        acc.add(piece)
    out["sums"].append([fsum(x).hex(), acc.value().hex(), math.fsum(x.tolist()).hex()])
print(json.dumps(out))
"""


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the disabled feature names are x86-64 ones")
def test_exact_sums_do_not_depend_on_the_simd_level():
    """One child process per NPY_DISABLE_CPU_FEATURES setting (AVX-512 off,
    then AVX2 as well) sums the same seeded arrays with fsum and ExactSum:
    every child gives math.fsum's bits."""
    src = str(Path(_vec.__file__).resolve().parents[1])
    results = []
    for off in ["", "X86_V4 AVX512_ICL AVX512_SPR",
                "X86_V4 AVX512_ICL AVX512_SPR X86_V3"]:
        env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": off,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        child = subprocess.run([sys.executable, "-c", SIMD_CHILD, *off.split()],
                               env=env, capture_output=True, text=True, timeout=60)
        assert child.returncode == 0, child.stderr
        out = json.loads(child.stdout)
        assert out["off"] == [], f"still enabled with {off!r}: {out['off']}"
        for fs, acc, ref in out["sums"]:
            assert fs == acc == ref
        results.append(out["sums"])
    assert results[0] == results[1] == results[2]
