import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinlog import _vec
from kleinlog._vec import (
    FSUM_BLOCK,
    FSUM_SHORT,
    apply_many,
    from_sphere,
    fsum,
    fsum_c,
    parallel_chunks,
    spherical_derivative_many,
    to_sphere,
)
from kleinlog.moebius import INF, MoebiusMap, PoleError, SpherePoint, chordal
from kleinlog.schottky import (
    EXP_CHUNK,
    SchottkyError,
    _exp_sum,
    limit_set,
    shell_sums,
)

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


def test_shell_sums_bitwise_across_threads(std_group):
    # shells 8 and 9 exceed the threaded path's threshold of 8192 words
    runs = [shell_sums(std_group, 0.7, 9, threads=t) for t in (1, 2, 4)]
    assert [v.hex() for v in runs[0]] == [v.hex() for v in runs[1]] \
        == [v.hex() for v in runs[2]]


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
    for m in shell_maps(std_group, 1) + shell_maps(std_group, 3) + [huge]:
        got, got_mask = apply_many(m, vals, mask)
        assert_close_points(got, got_mask, [m.apply(p) for p in pts])
        assert_close_values(spherical_derivative_many(m, vals, mask),
                            [m.spherical_derivative(p) for p in pts])


def test_shell_terms_match_scalar(std_group):
    vals, mask = special_points()
    for p in as_points(vals, mask):
        for n in (1, 3):
            maps = shell_maps(std_group, n)
            pts, inf_mask, w = std_group.shell_terms(n, p, "absolute")
            assert_close_points(pts, inf_mask, [m.apply(p) for m in maps])
            assert_close_values(w, [m.spherical_derivative(p) for m in maps])
            # (c z + d)^2 overflows at |z| = 1e300, where derivative raises
            if p.is_infinity or abs(p.value) > 1e150:
                continue
            try:
                refs = [m.derivative(p) for m in maps]
            except PoleError:
                with pytest.raises(SchottkyError):
                    std_group.shell_terms(n, p, "holomorphic")
                continue
            _, _, w = std_group.shell_terms(n, p, "holomorphic")
            assert_close_values(w, refs)


def test_limit_set_matches_scalar(std_group):
    depth = 3
    maps = shell_maps(std_group, depth)
    words = [w for w in std_group.enumerate_words(depth) if w.length == depth]
    sample = limit_set(std_group, depth)
    refs, firsts = [], []
    for direction, seed in sample.provenance:
        for m, w in zip(maps, words):
            if w.letters[-1] != -direction:
                refs.append(m.apply(seed))
                firsts.append(w.letters[0])
    assert sample.first_letters == tuple(firsts)
    assert len(sample.points) == len(refs)
    for p, ref in zip(sample.points, refs):
        assert chordal(p, ref) <= 8 * U


def test_sphere_round_trip():
    # projecting from the north pole rounds 1 - n3, which loses relative
    # accuracy outside the unit disk, so random points stay inside it
    vals, mask = special_points()
    rng = np.random.default_rng(409)
    disk = np.sqrt(rng.uniform(size=50)) * np.exp(2j * np.pi * rng.uniform(size=50))
    pts = as_points(vals[:11], mask[:11]) + [INF] + as_points(disk, np.zeros(50))
    for p in pts:
        assert chordal(from_sphere(to_sphere(p)), p) <= 4 * U


# threading --------------------------------------------------------------------


class RecordingExecutor:
    """Stands in for ThreadPoolExecutor: records max_workers, starts no
    thread and runs the work in order."""

    seen = []

    def __init__(self, max_workers):
        self.seen.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_thread_count_bounded_by_chunks(monkeypatch):
    monkeypatch.setattr(_vec, "ThreadPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "seen", [])
    logd = np.linspace(-3.0, 0.0, 3 * EXP_CHUNK + 1)
    assert _exp_sum(logd, 0.7, threads=10**6) == _exp_sum(logd, 0.7)
    spans = []
    parallel_chunks(lambda lo, hi: spans.append((lo, hi)), 10, 10**6, 4)
    assert spans == [(0, 4), (4, 8), (8, 10)]
    parallel_chunks(lambda lo, hi: spans.append((lo, hi)), 3, 10**6, 4)
    assert spans[-1] == (0, 3)
    assert RecordingExecutor.seen == [4, 3]
