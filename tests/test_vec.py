import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinlog import _vec
from kleinlog._vec import FSUM_BLOCK, FSUM_SHORT, fsum, fsum_c
from kleinlog.schottky import shell_sums

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
