"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import random
import time

from twosquares.certify import (
    Verdict,
    certificate_from_json,
    certificate_to_json,
    decide,
    verify,
)
from twosquares.classify import classify
from twosquares.factorize import (
    gcd_fraction_factor,
    klmn_factor,
    klmn_factor_mixed,
    select_pair,
)
from twosquares.report import render_difference_table, sweep_csv
from twosquares.represent import oracle_representations, representations, scan_tree
from twosquares.scan import PruneReason, expand_branches, initial_quadratic, scan_branch

from test_certify import mutate_document, rejected


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def leaves_of(n):
    root = initial_quadratic(n, classify(n).roots_mod25[0])
    return {b.name: b for b in expand_branches(root)}


def test_criterion_1_worked_example_composite(capsys):
    start = time.monotonic()
    cert = decide(1000009)
    assert cert.verdict is Verdict.COMPOSITE_WITH_FACTORS
    assert set(cert.factors) == {293, 3413}
    assert {(r.a, r.b) for r in cert.representations} == {(1000, 3), (972, 235)}
    hits, _ = scan_branch(leaves_of(1000009)["B"])
    assert [(h.t, h.value, h.root) for h in hits] == [(-10, 2209, 47)]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: 1000009 composite, factors 293*3413, "
          f"B hits only 2209=47^2 at t=-10 ({elapsed:.3f}s)")


def test_criterion_2_worked_example_prime(capsys):
    start = time.monotonic()
    cert = decide(1000081)
    assert cert.verdict is Verdict.PRIME
    assert [(r.a, r.b) for r in cert.representations] == [(1000, 9)]
    leaves = leaves_of(1000081)
    assert leaves["B"].prune_reason is PruneReason.ALWAYS_FIVE_MOD_8
    hits_c, _ = scan_branch(leaves["C"])
    assert hits_c == []
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 2 PASS: 1000081 prime via unique (1000, 9); "
          f"B pruned always_five_mod_8, C square-free ({elapsed:.3f}s)")


def test_criterion_3_table_fidelity():
    # B(1000009): slow-side subtrahends and second differences of 800,
    # read from the rendered difference table (columns c | near | diff |
    # far | diff, head row first)
    def columns(leaf):
        _, ts = scan_branch(leaf)
        rows = [line.split("|") for line in render_difference_table(leaf, ts).splitlines()[2:]]
        return [[int(r[col]) for r in rows if len(r) > col and r[col].strip()]
                for col in (1, 2, 3, 4)]

    near_sub, near_diff, _, far_diff = columns(leaves_of(1000009)["B"])
    assert near_sub[:5] == [0, 176, 1152, 2928, 5504]
    for diffs in (near_diff, far_diff):
        assert len(diffs) > 5
        assert all(d2 - d1 == 800 for d1, d2 in zip(diffs, diffs[1:]))
    # 200-step cases from the prime worked example
    for name in ("A.e0", "A.o3"):
        _, near_diff, _, far_diff = columns(leaves_of(1000081)[name])
        for diffs in (near_diff, far_diff):
            assert all(d2 - d1 == 200 for d1, d2 in zip(diffs, diffs[1:]))
    # golden files are enforced byte-exactly in test_report
    print("\nACCEPTANCE 3 PASS: difference columns 0,176,1152,2928,5504; "
          "second differences 800 and 200")


def test_criterion_4_sweep_range():
    start = time.monotonic()
    certs = [decide(n) for n in range(1000000, 1002001) if classify(n).is_eligible]
    text = sweep_csv(certs)
    rows = {line.split(",")[0]: line for line in text.splitlines()[1:]}
    assert rows["1000009"] == "1000009,composite_with_factors,2,293,3413"
    assert rows["1000081"] == "1000081,prime,1,,"
    for cert in certs:
        assert (cert.verdict is Verdict.PRIME) == is_prime_trial(cert.n), cert.n
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 4 PASS: sweep [1000000, 1002000] = {len(certs)} eligible, "
          f"all verdicts match trial division ({elapsed:.2f}s)")


def test_criterion_5_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for n in range(9, 100001):
        if not classify(n).is_eligible:
            continue
        checked += 1
        oracle = oracle_representations(n)
        assert representations(n) == oracle, n
        assert scan_tree(classify(n), respect_pruning=False)[2] == oracle, n
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 5 PASS: scan == oracle (pruned and unpruned) for "
          f"{checked} eligible N in [9, 1e5] ({elapsed:.1f}s)")


def test_criterion_6_soundness():
    start = time.monotonic()
    for n in range(9, 100001):
        cert = decide(n)
        if cert.verdict is not Verdict.INELIGIBLE:
            assert (cert.verdict is Verdict.PRIME) == is_prime_trial(n), n
        assert verify(cert), n
    elapsed = time.monotonic() - start
    print(f"\nACCEPTANCE 6 PASS: decide verdicts match trial division and "
          f"verify(decide(N)) for all N in [9, 1e5] ({elapsed:.1f}s)")


def test_criterion_7_factorization_identities():
    count = 0
    for n in range(9, 100001, 2):
        reps = oracle_representations(n)
        if len({r.members() for r in reps}) < 2:
            continue
        count += 1
        r1, r2 = select_pair(reps)
        w = klmn_factor(n, r1, r2)
        assert 4 * n == (w.k**2 + w.n**2) * (w.l**2 + w.m**2), n
        assert w.l * w.n == w.d + w.b, n
        assert 1 < w.f1 <= w.f2 < n and w.f1 * w.f2 == n, n
        g = gcd_fraction_factor(n, r1, r2)
        assert n % g == 0 and 1 < g < n, n
    # golden values from the worked composite, in its pairing order
    reps9 = oracle_representations(1000009)
    wm = klmn_factor_mixed(1000009, reps9[0], reps9[1])
    assert (wm.k, wm.l, wm.m, wm.n) == (51, 15, 19, 65)
    assert math.gcd(1000009, 19**2 + 15**2) == 293
    print(f"\nACCEPTANCE 7 PASS: klmn and gcd-fraction identities on {count} "
          f"odd N with >= 2 representations; golden k,l,m,n = 51,15,19,65; "
          f"gcd(1000009, 586) = 293")


def test_criterion_8_certificate_robustness():
    rng = random.Random(86400)
    bases = [decide(n) for n in (1000009, 1000081, 29, 81, 261, 21, 481)]
    for cert in bases:
        text = certificate_to_json(cert)
        assert certificate_to_json(certificate_from_json(text)) == text
    docs = [json.loads(certificate_to_json(c)) for c in bases]
    count = 0
    for _ in range(1000):
        doc = mutate_document(rng.choice(docs), rng)
        assert rejected(doc), doc
        count += 1
    print(f"\nACCEPTANCE 8 PASS: serialization round-trips byte-identically; "
          f"{count}/1000 random single-field mutations rejected")
