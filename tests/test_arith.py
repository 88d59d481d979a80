import itertools
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares.arith import MAX_MAGNITUDE, is_perfect_square, parse_decimal, reduce_fraction
from twosquares.certify import Certificate, Verdict, decide, verify
from twosquares.classify import classify
from twosquares.represent import oracle_representations
from twosquares.scan import initial_quadratic

# the reference for parse_decimal: [0-9], not \d, which matches any script's digits
DECIMAL = re.compile("0|[1-9][0-9]{0,18}")


def test_is_perfect_square_examples():
    assert is_perfect_square(2209) == 47
    assert is_perfect_square(1273) is None
    assert is_perfect_square(1) == 1
    assert is_perfect_square(0) == 0


def test_reduce_fraction_examples():
    assert reduce_fraction(1235, 975) == (19, 15)
    assert reduce_fraction(969, 765) == (19, 15)
    assert reduce_fraction(7, 7) == (1, 1)


def test_reduce_fraction_zero_denominator():
    with pytest.raises(ValueError):
        reduce_fraction(3, 0)
    with pytest.raises(ValueError):
        reduce_fraction(3, -2)


def test_exhaustive_small_range():
    # square detection against math.isqrt for all n <= 10^6
    for n in range(10**6 + 1):
        r = math.isqrt(n)
        detected = is_perfect_square(n)
        if r * r == n:
            assert detected == r
        else:
            assert detected is None


def test_magnitude_cap():
    # the cap is checked where N enters the library
    for bad, error in ((MAX_MAGNITUDE + 1, OverflowError), (-1, ValueError)):
        for entry in (classify, decide, oracle_representations):
            with pytest.raises(error):
                entry(bad)
        with pytest.raises(error):
            initial_quadratic(bad, 0)
        for verdict in (Verdict.PRIME, Verdict.INELIGIBLE):
            assert verify(Certificate(bad, verdict, (), None, None, "")) is False
    assert classify(MAX_MAGNITUDE).n == MAX_MAGNITUDE


@given(st.integers(min_value=0, max_value=math.isqrt(MAX_MAGNITUDE)))
def test_squares_detected(r):
    assert is_perfect_square(r * r) == r


@given(
    st.integers(min_value=0, max_value=10**9),
    st.integers(min_value=1, max_value=10**9),
)
def test_reduce_fraction_properties(p, q):
    rp, rq = reduce_fraction(p, q)
    assert math.gcd(rp, rq) == 1 or rp == 0
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
