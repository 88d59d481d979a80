import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares.arith import (
    MAX_MAGNITUDE,
    gcd,
    is_perfect_square,
    isqrt,
    parse_decimal,
    reduce_fraction,
)

# the reference for parse_decimal: [0-9], not \d, which matches any script's digits
DECIMAL = re.compile("0|[1-9][0-9]{0,18}")


def test_isqrt_examples():
    assert isqrt(0) == 0
    assert isqrt(2209) == 47
    assert isqrt(55224) == 234
    assert 234 * 234 <= 55224 < 235 * 235


def test_is_perfect_square_examples():
    assert is_perfect_square(2209) == 47
    assert is_perfect_square(1273) is None
    assert is_perfect_square(1) == 1
    assert is_perfect_square(0) == 0


def test_gcd_examples():
    assert gcd(765, 969) == 51
    assert gcd(0, 7) == 7
    assert gcd(7, 0) == 7
    assert gcd(1000009, 586) == 293


def test_reduce_fraction_examples():
    assert reduce_fraction(1235, 975) == (19, 15)
    assert reduce_fraction(969, 765) == (19, 15)
    assert reduce_fraction(7, 7) == (1, 1)


def test_reduce_fraction_zero_denominator():
    with pytest.raises(ValueError):
        reduce_fraction(3, 0)


def test_exhaustive_small_range():
    # isqrt contract and square-detection equivalence for all n <= 10^6
    expected_root = 0
    for n in range(10**6 + 1):
        if (expected_root + 1) ** 2 <= n:
            expected_root += 1
        r = isqrt(n)
        assert r == expected_root
        assert r * r <= n < (r + 1) ** 2
        detected = is_perfect_square(n)
        if r * r == n:
            assert detected == r
        else:
            assert detected is None


def test_magnitude_cap():
    assert isqrt(MAX_MAGNITUDE) == 3037000499
    with pytest.raises(OverflowError):
        isqrt(MAX_MAGNITUDE + 1)
    with pytest.raises(OverflowError):
        gcd(1, MAX_MAGNITUDE + 1)
    with pytest.raises(ValueError):
        isqrt(-1)


@given(st.integers(min_value=0, max_value=MAX_MAGNITUDE))
def test_isqrt_contract(n):
    r = isqrt(n)
    assert r * r <= n < (r + 1) ** 2


@given(st.integers(min_value=0, max_value=isqrt(MAX_MAGNITUDE)))
def test_squares_detected(r):
    assert is_perfect_square(r * r) == r


@settings(max_examples=300)
@given(
    st.integers(min_value=0, max_value=MAX_MAGNITUDE),
    st.integers(min_value=0, max_value=MAX_MAGNITUDE),
)
def test_gcd_properties(a, b):
    g = gcd(a, b)
    if a == b == 0:
        assert g == 0
        return
    assert a % g == 0 and b % g == 0
    # any common divisor divides g (spot-check small divisors)
    for d in range(1, 50):
        if a % d == 0 and b % d == 0:
            assert g % d == 0


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
)
def test_reduce_fraction_properties(p, q):
    rp, rq = reduce_fraction(p, q)
    assert gcd(rp, rq) == 1 or rp == 0
    assert rp * q == rq * p


def test_parse_decimal_matches_reference_pattern():
    alphabet = "0123456789+-_ \n\t.e١０９²"
    corpus = ["".join(p) for k in range(4) for p in itertools.product(alphabet, repeat=k)]
    corpus += ["1" * 19, "1" * 20, "9" * 19, str(MAX_MAGNITUDE), "0" * 19, "1000081"]
    for text in corpus:
        expected = int(text) if DECIMAL.fullmatch(text) else None
        assert parse_decimal(text) == expected, repr(text)


@given(st.text(alphabet=st.one_of(st.sampled_from("0123456789"), st.characters()), max_size=22))
@settings(max_examples=200, deadline=None)
def test_parse_decimal_matches_reference_pattern_random(text):
    expected = int(text) if DECIMAL.fullmatch(text) else None
    assert parse_decimal(text) == expected
