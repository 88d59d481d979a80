import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares.arith import MAX_MAGNITUDE, parse_decimal
from twosquares.certify import Certificate, Verdict, decide, verify
from twosquares.classify import classify
from twosquares.represent import oracle_representations, window_representations
from twosquares.scan import initial_quadratic

# the reference for parse_decimal: [0-9], not \d, which matches any script's digits
DECIMAL = re.compile("0|[1-9][0-9]{0,18}")


def test_magnitude_cap():
    # the cap is checked where N enters the library
    for bad, error in ((MAX_MAGNITUDE + 1, OverflowError), (-1, ValueError)):
        for entry in (classify, decide, oracle_representations):
            with pytest.raises(error):
                entry(bad)
        with pytest.raises(error):
            initial_quadratic(bad, 0)
        with pytest.raises(error):
            window_representations(0, bad)
        for verdict in (Verdict.PRIME, Verdict.INELIGIBLE):
            assert verify(Certificate(bad, verdict, (), None, None, "")) is False
    assert classify(MAX_MAGNITUDE).n == MAX_MAGNITUDE


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
