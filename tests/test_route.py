"""The verifier's route: N's representations from its factorization.

route_representations() must list exactly what the brute-force oracle
lists, and what the scan engine lists for eligible N, at every size up
to the 2^63 - 1 cap; factorize() and is_prime() must be exact there.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
import types
from math import isqrt, prod
from pathlib import Path

from test_constructed import expected_count

import twosquares
from twosquares import Verdict, certificate_to_json, decide
from twosquares.classify import classify, eligible_range
from twosquares.represent import oracle_representations, representations, window_representations
from twosquares.route import factorize, is_prime, route_representations, two_squares
from twosquares.scan import SIEVE_MODULI

CAP = 2**63 - 1


def by_trial(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def assert_route_complete(factors: dict[int, int]) -> list:
    """factorize and the route on the product of factors: the factors
    come back, and the route lists as many distinct representations as
    the factorization implies, each of them valid."""
    n = prod(p**e for p, e in factors.items())
    assert n <= CAP, factors
    assert factorize(n) == dict(sorted(factors.items())), factors
    reps = route_representations(n)
    assert len({(r.a, r.b) for r in reps}) == len(reps) == expected_count(factors), factors
    assert all(r.a >= r.b >= 0 and r.a * r.a + r.b * r.b == n for r in reps), factors
    assert [r.a for r in reps] == sorted((r.a for r in reps), reverse=True), factors
    return reps


def test_route_matches_the_oracle_below_30000():
    # every n, eligible or not: 0, powers of 2, odd powers of q = 3 (mod 4)
    for n in range(30000):
        assert route_representations(n) == oracle_representations(n), n


def test_route_matches_the_scan_by_decade_and_class_mod_400():
    classes = [c for c in range(400) if classify(c + 400).is_eligible]
    rng = random.Random(1000009)
    for digits in range(6, 15):
        lo, hi = 10 ** (digits - 1), 10**digits
        for c in classes * 4:
            n = 400 * rng.randrange(lo // 400, hi // 400) + c
            assert route_representations(n) == representations(n), n


def test_route_matches_the_scan_by_shared_sieve_moduli():
    # N divisible by 1, 3 or all 5 of the leaf sieve's prime moduli that
    # are 1 (mod 4), the first of them once or squared, times a seeded
    # cofactor; N is kept when it is eligible, below 10^14 and divisible
    # by no other of the five
    moduli = (13, 17, 29, 37, 41)
    assert set(moduli) <= set(SIEVE_MODULI)
    rng = random.Random(41)
    for shared in (1, 3, 5):
        for power in (1, 2):
            kept = 0
            while kept < 60:
                chosen = rng.sample(moduli, shared)
                base = chosen[0] ** power * prod(chosen[1:])
                n = base * rng.randrange(1, 10**14 // base)
                if classify(n).is_eligible and sum(n % p == 0 for p in moduli) == shared:
                    assert route_representations(n) == representations(n), n
                    kept += 1


def test_window_pass_matches_the_route_by_decade():
    # every eligible n of [0, 1999] (y = 0 and the smallest eligible n) and
    # of a seeded 2000-wide window per decade: the window pass lists each n
    # with a representation, and only those
    seeded = [random.Random(e).randrange(10**e, 10 ** (e + 1) - 2000) for e in range(5, 13)]
    for lo in [0, *seeded]:
        expected = {n: reps for n in eligible_range(lo, lo + 1999) if (reps := route_representations(n))}
        assert window_representations(lo, lo + 1999) == expected, lo


def test_is_prime_matches_trial_division_below_10_5():
    assert [n for n in range(10**5) if is_prime(n)] == [n for n in range(10**5) if by_trial(n)]


def test_is_prime_rejects_strong_pseudoprimes():
    # 3215031751 = 151 * 751 * 28351 is a strong pseudoprime to bases 2, 3,
    # 5 and 7; 3825123056546413051 = 149491 * 747451 * 34233211 to every
    # prime base up to 31, so only the twelfth base, 37, exposes it
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert 3825123056546413051 < CAP
    assert is_prime(2**61 - 1) and is_prime(9223372036854775549)


def test_two_squares_of_every_prime_below_10_5():
    for p in range(5, 10**5, 4):
        if by_trial(p):
            a, b = two_squares(p)
            assert a > b > 0 and a * a + b * b == p, p


def test_prime_powers_up_to_the_cap():
    for p in (2, 3, 5, 7, 13, 1000003, 1000033):
        k = 1
        while p**k <= CAP:
            assert_route_complete({p: k})
            k += 1


def test_prime_squares_and_q_squared_p_at_the_cap():
    # the largest primes below sqrt(2^63 - 1) in each class mod 4
    root = isqrt(CAP)
    p = next(x for x in range(root - root % 4 + 1, 0, -4) if by_trial(x))
    q = next(x for x in range(root - root % 4 - 1, 0, -4) if by_trial(x))
    assert (p % 4, q % 4) == (1, 3)
    assert len(assert_route_complete({p: 2})) == 2
    assert [(r.a, r.b) for r in assert_route_complete({q: 2})] == [(q, 0)]
    # q^2 p: q scales p's one representation; q to an odd power leaves none
    big = next(x for x in range(CAP // 1000003**2, 0, -1) if x % 4 == 1 and by_trial(x))
    assert len(assert_route_complete({1000003: 2, big: 1})) == 1
    assert assert_route_complete({1000003: 3}) == []
    assert assert_route_complete({3: 1, 1000033: 1}) == []


def test_near_equal_primes_at_the_cap():
    # rho's worst case in range: two 32-bit primes 40 apart
    reps = assert_route_complete({3037000453: 1, 3037000493: 1})
    assert len(reps) == 2 and all(r.coprime for r in reps)
    assert route_representations(9223371873002223329) == reps


def modules_after(code: str) -> str:
    """What the child process running code prints."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(Path(twosquares.__file__).parent.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


COMMANDS = (
    "import contextlib, io, sys\n"
    "from twosquares import cli, decide\n"
    "decide(1000009)\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    for argv in (['prove', '1000009'], ['scan', '1000009'],\n"
    "                 ['sweep', '1000000', '1002000'],\n"
    "                 ['sweep', '1000000000000000', '1000000000000100']):\n"
    "        assert cli.main(argv) == 0, argv\n"
)
LOADED = "print('twosquares.route' in sys.modules)\n"


def test_only_verify_loads_the_route():
    # decide, prove, scan and both of sweep's paths neither compile nor
    # load the route, so its source adds nothing to their start-up
    assert modules_after(COMMANDS + LOADED) == "False\n"


def test_verify_loads_the_route():
    code = COMMANDS + LOADED
    code += "from twosquares import verify\nassert verify(decide(1000009))\n" + LOADED
    assert modules_after(code) == "False\nTrue\n"


def test_verify_loads_no_scan_code():
    # a verifier that imports twosquares.certify alone parses and verifies
    # a certificate of each verdict, and loads none of the scan engine
    certs = [decide(n) for n in (1000081, 1000009, 1000021, 1000003)]
    assert {cert.verdict for cert in certs} == set(Verdict)
    code = (
        "import sys\n"
        "from twosquares.certify import certificate_from_json, verify\n"
        f"for doc in {[certificate_to_json(cert) for cert in certs]!r}:\n"
        "    assert verify(certificate_from_json(doc))\n"
        "print([m for m in ('scan', 'represent', 'report') if f'twosquares.{m}' in sys.modules])\n"
    )
    assert modules_after(code) == "[]\n"


def test_the_package_exports_the_certificate_api():
    assert sorted(twosquares.__all__) == [
        "Verdict",
        "certificate_from_json",
        "certificate_to_json",
        "classify",
        "decide",
        "gcd_fraction_factor",
        "klmn_factor",
        "klmn_factor_mixed",
        "verify",
    ]
    namespace: dict = {}
    exec("from twosquares import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(twosquares.__all__)
    assert not any(isinstance(value, types.ModuleType) for value in namespace.values())
