from twosquares.classify import EligibilityStatus, classify, eligible_range
from twosquares.represent import oracle_representations


def test_worked_composite():
    e = classify(1000009)
    assert e.status is EligibilityStatus.ELIGIBLE
    assert e.roots_mod25 == (3, 22)


def test_worked_prime():
    e = classify(1000081)
    assert e.status is EligibilityStatus.ELIGIBLE
    assert e.roots_mod25 == (9, 16)


def test_small_eligible():
    e = classify(21)
    assert e.status is EligibilityStatus.ELIGIBLE
    assert e.roots_mod25 == (11, 14)


def test_ineligible_statuses():
    assert classify(39).status is EligibilityStatus.INELIGIBLE_MOD4
    assert classify(10).status is EligibilityStatus.INELIGIBLE_MOD4
    assert classify(33).status is EligibilityStatus.INELIGIBLE_LAST_DIGIT
    assert classify(25).status is EligibilityStatus.INELIGIBLE_LAST_DIGIT
    assert classify(5).status is EligibilityStatus.INELIGIBLE_TOO_SMALL
    assert classify(0).status is EligibilityStatus.INELIGIBLE_TOO_SMALL
    assert classify(9).status is EligibilityStatus.ELIGIBLE


def test_roots_are_every_square_root_mod_25():
    # n < 800 covers all 40 eligible classes mod 400 (n = 1, 9 mod 20)
    for n in range(800):
        e = classify(n)
        expected = tuple(r for r in range(25) if (r * r - n) % 25 == 0)
        assert e.roots_mod25 == (expected if e.is_eligible else ()), n


def test_eligible_root_structure():
    # eligible n: roots empty or the pair {r, 25 - r}, both coprime to 5
    for n in range(9, 5000):
        e = classify(n)
        if not e.is_eligible:
            assert e.roots_mod25 == ()
            continue
        assert n % 4 == 1 and n % 10 in (1, 9) and n >= 9
        roots = e.roots_mod25
        assert roots == () or (
            len(roots) == 2
            and roots[1] == 25 - roots[0]
            and all(r % 5 != 0 for r in roots)
        )


def test_one_member_divisible_by_five():
    # for eligible n every representation has exactly one member = 0 mod 5,
    # which is what justifies the x = 25 t + r parametrization
    for n in range(9, 20001):
        e = classify(n)
        if not e.is_eligible:
            continue
        for rep in oracle_representations(n):
            assert (rep.a % 5 == 0) != (rep.b % 5 == 0)
        if not e.roots_mod25:
            assert oracle_representations(n) == []


def test_eligible_range_matches_classify():
    for n in range(10**4):
        assert classify(n).is_eligible == (n >= 9 and n % 20 in (1, 9)), n
    eligible = {n for n in range(140) if classify(n).is_eligible}
    for lo in range(140):
        for hi in range(140):
            expected = [n for n in range(lo, hi + 1) if n in eligible]
            assert eligible_range(lo, hi) == expected, (lo, hi)
