import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twosquares import factorize
from twosquares.arith import InternalConsistencyError
from twosquares.factorize import (
    factor_with_witness,
    gcd_fraction_factor,
    klmn_factor,
    klmn_factor_mixed,
    select_pair,
    transposed_fraction,
)
from twosquares.represent import Representation, oracle_representations

R1000009 = (Representation.of(1000, 3), Representation.of(972, 235))


def test_klmn_canonical_worked_example():
    w = klmn_factor(1000009, *R1000009)
    assert (w.a, w.b, w.c, w.d) == (1000, 3, 972, 235)
    assert (w.u, w.v) == (28, 232)
    assert (w.k, w.l, w.m, w.n) == (4, 7, 58, 34)
    assert (w.k**2 + w.n**2) * (w.l**2 + w.m**2) == 4 * 1000009
    assert (w.f1, w.f2) == (293, 3413)


def test_klmn_mixed_worked_example():
    w = klmn_factor_mixed(1000009, *R1000009)
    assert (w.k, w.l, w.m, w.n) == (51, 15, 19, 65)
    assert (w.k**2 + w.n**2) // 2 == 3413
    assert (w.l**2 + w.m**2) // 2 == 293
    assert (w.f1, w.f2) == (293, 3413)


def test_klmn_square_number():
    reps = oracle_representations(169)
    r1, r2 = select_pair(reps)
    w = klmn_factor(169, r1, r2)
    assert (w.a, w.b, w.c, w.d) == (12, 5, 0, 13)
    assert (w.u, w.v, w.k, w.l, w.m, w.n) == (12, 8, 4, 3, 2, 6)
    assert 4 * 169 == (16 + 36) * (9 + 4)
    assert (w.f1, w.f2) == (13, 13)


def test_gcd_fraction_worked_example():
    assert transposed_fraction(*R1000009) == (19, 15)
    assert gcd_fraction_factor(1000009, *R1000009) == 293


def test_gcd_fraction_other_cases():
    reps169 = oracle_representations(169)
    g = gcd_fraction_factor(169, *select_pair(reps169))
    assert g == 13
    g325 = gcd_fraction_factor(325, Representation.of(18, 1), Representation.of(17, 6))
    assert 325 % g325 == 0 and 1 < g325 < 325


def test_factor_worked_example():
    w = factor_with_witness(1000009, list(R1000009))
    assert (w.f1, w.f2) == (293, 3413)


def test_factor_square_number():
    w = factor_with_witness(169, oracle_representations(169))
    assert (w.f1, w.f2) == (13, 13)


def test_factor_many_representations():
    w = factor_with_witness(1105, oracle_representations(1105))
    assert w.f1 * w.f2 == 1105 and 1 < w.f1 <= w.f2 < 1105


def test_routes_can_disagree_on_split_but_stay_consistent():
    # 4329 = 9 * 13 * 37: the arrangements extract different valid splits
    reps = oracle_representations(4329)
    r1, r2 = select_pair(reps)
    w = klmn_factor(4329, r1, r2)
    g = gcd_fraction_factor(4329, r1, r2)
    assert w.f1 * w.f2 == 4329
    assert 4329 % g == 0 and 1 < g < 4329
    split = factor_with_witness(4329, reps)
    assert split.f1 * split.f2 == 4329


def test_failed_gcd_route_is_an_internal_error(monkeypatch):
    # p/q = 1/1 gives gcd(N, 2) = 1 for odd N: a trivial divisor, which
    # the public route refuses; decide does not run it
    monkeypatch.setattr(factorize, "transposed_fraction", lambda rep1, rep2: (1, 1))
    with pytest.raises(ValueError, match="degenerate divisor 1 from representations of 1000009"):
        gcd_fraction_factor(1000009, *R1000009)
    assert factor_with_witness(1000009, list(R1000009)).f1 == 293


def test_recovery_ends_with_the_witness_check(monkeypatch):
    monkeypatch.setattr(factorize, "witness_violation", lambda number, w: "some identity")
    for recover in (klmn_factor, klmn_factor_mixed):
        with pytest.raises(InternalConsistencyError, match="fails some identity"):
            recover(1000009, *R1000009)


def test_requires_two_distinct():
    rep = Representation.of(1000, 3)
    with pytest.raises(ValueError):
        klmn_factor(1000009, rep, rep)
    with pytest.raises(ValueError):
        factor_with_witness(1000081, [Representation.of(1000, 9)])


def test_requires_odd_number():
    with pytest.raises(ValueError):
        klmn_factor(50, Representation.of(7, 1), Representation.of(5, 5))


def test_requires_representations_of_number():
    with pytest.raises(ValueError, match="does not represent"):
        klmn_factor(1000009, Representation.of(1000, 4), R1000009[1])


def test_property_small_corpus():
    for n in range(9, 20001, 2):
        reps = oracle_representations(n)
        if len({r.members() for r in reps}) < 2:
            continue
        r1, r2 = select_pair(reps)
        w = klmn_factor(n, r1, r2)
        assert 4 * n == (w.k**2 + w.n**2) * (w.l**2 + w.m**2)
        assert w.l * w.n == w.d + w.b
        assert w.f1 * w.f2 == n and 1 < w.f1 <= w.f2 < n
        wm = klmn_factor_mixed(n, r1, r2)
        assert wm.f1 * wm.f2 == n and 1 < wm.f1 <= wm.f2 < n
        g = gcd_fraction_factor(n, r1, r2)
        assert n % g == 0 and 1 < g < n


@settings(max_examples=200)
@given(
    st.integers(min_value=1, max_value=1500),
    st.integers(min_value=0, max_value=1500),
    st.integers(min_value=1, max_value=1500),
    st.integers(min_value=0, max_value=1500),
)
def test_identity_on_constructed_products(a, b, c, d):
    # two representations of (a^2+b^2)(c^2+d^2) from the product identity
    n = (a * a + b * b) * (c * c + d * d)
    if n % 2 == 0:
        return
    r1 = Representation.of(abs(a * c - b * d), a * d + b * c)
    r2 = Representation.of(a * c + b * d, abs(a * d - b * c))
    if r1.members() == r2.members():
        return
    w = klmn_factor(n, r1, r2)
    assert 4 * n == (w.k**2 + w.n**2) * (w.l**2 + w.m**2)
    assert w.f1 * w.f2 == n and 1 < w.f1 <= w.f2 < n
    g = gcd_fraction_factor(n, r1, r2)
    assert n % g == 0 and 1 < g < n


def test_internal_checks_survive_optimized_mode():
    # under python -O an assert would vanish and the derivation would
    # go on with u = 0
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "from twosquares.arith import InternalConsistencyError\n"
        "from twosquares.factorize import _klmn\n"
        "from twosquares.represent import Representation\n"
        "rep = Representation.of(2, 1)\n"
        "print(__debug__)\n"
        "try:\n"
        "    print(_klmn(5, rep, rep, 1, 2, 1, 3))\n"
        "except InternalConsistencyError as exc:\n"
        "    print('raised:', exc)\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "False\nraised: distinct representations cannot collide\n"
