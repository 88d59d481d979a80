from math import gcd, isqrt

import pytest

from twosquares.classify import classify
from twosquares.represent import (
    Representation,
    oracle_representations,
    representations,
    scan_tree,
)


def pairs(reps):
    return [(r.a, r.b) for r in reps]


def test_worked_composite():
    assert pairs(representations(1000009)) == [(1000, 3), (972, 235)]


def test_worked_prime():
    assert pairs(representations(1000081)) == [(1000, 9)]


def test_no_representation():
    assert representations(21) == []


def test_scan_tree_shape():
    root, leaves, reps = scan_tree(classify(1000009))
    assert root.name == "Q"
    # pruned leaves are listed but not scanned; the rest carry (hits, ts)
    assert [(leaf.name, scanned is None) for leaf, scanned in leaves] == [
        (leaf.name, not leaf.scannable) for leaf, _ in leaves
    ]
    assert sum(scanned is not None for _, scanned in leaves) == 3
    assert reps == representations(1000009)
    _, unpruned, reps_unpruned = scan_tree(classify(1000009), respect_pruning=False)
    assert all(scanned is not None for _, scanned in unpruned)
    assert reps_unpruned == reps
    # 21 is scanned and has no representation; ineligible 10 is not scanned
    _, leaves_21, reps_21 = scan_tree(classify(21))
    assert leaves_21 and reps_21 == []
    assert scan_tree(classify(10)) == (None, [], [])


def test_every_eligible_n_has_a_mod25_root():
    # eligible n = +-1 (mod 5) is a square mod 5, so mod 25 by Hensel
    assert all(classify(n).roots_mod25 for n in range(10**4) if classify(n).is_eligible)


def test_oracle_matches_naive_double_loop():
    # the oracle's contract for any n >= 0, eligible or not: every pair
    # a >= b >= 0 with a^2 + b^2 = n, by descending a
    limit = 3000
    naive = {n: [] for n in range(limit)}
    for a in range(isqrt(limit) + 1):
        for b in range(a + 1):
            if a * a + b * b < limit:
                naive[a * a + b * b].append((a, b))
    for n in range(limit):
        expected = sorted(naive[n], reverse=True)
        reps = oracle_representations(n)
        assert pairs(reps) == expected, n
        assert [r.coprime for r in reps] == [gcd(a, b) == 1 for a, b in expected], n


def test_oracle_examples():
    assert pairs(oracle_representations(1000009)) == [(1000, 3), (972, 235)]
    assert pairs(oracle_representations(25)) == [(5, 0), (4, 3)]
    assert pairs(oracle_representations(29)) == [(5, 2)]


def test_ineligible_rejected():
    with pytest.raises(ValueError, match="classify"):
        representations(39)


def test_representation_normalization():
    r = Representation.of(3, 1000)
    assert (r.a, r.b) == (1000, 3)
    assert r.coprime
    r2 = Representation.of(0, 9)
    assert (r2.a, r2.b) == (9, 0)
    assert not r2.coprime


def test_zero_member_admitted():
    # perfect squares keep their trivial representation; never coprime
    reps = representations(81)
    assert pairs(reps) == [(9, 0)]
    assert not reps[0].coprime


def test_determinism():
    assert representations(1000009) == representations(1000009)
    assert oracle_representations(1105) == oracle_representations(1105)


def test_oracle_equivalence_small():
    # scan result == brute force for every eligible n, pruning on or off
    for n in range(9, 20001):
        if not classify(n).is_eligible:
            continue
        oracle = oracle_representations(n)
        assert representations(n) == oracle, n
        assert scan_tree(classify(n), respect_pruning=False)[2] == oracle, n


def test_five_divisibility():
    for n in (1000009, 1000081, 481, 81, 9):
        for rep in representations(n):
            assert (rep.a % 5 == 0) != (rep.b % 5 == 0)
            assert rep.a * rep.a + rep.b * rep.b == n
