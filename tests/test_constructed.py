"""decide across its claimed range, on N built from known primes.

Criteria 5-7 compare the scan with the brute-force oracle only up to
10^5.  Above that no oracle is needed when N is a product of chosen
primes: with p = 1 and q = 3 (mod 4), N has no representation if some q
has an odd exponent, and otherwise ceil(prod(e + 1) / 2) of them over
the p^e.  A decide that returns that many distinct, valid
representations has found them all.

check() is a plain function so that it also runs near the 2^63 - 1 cap,
where it is too slow for the tier-1 suite:

    PYTHONPATH=src:tests python -c 'import test_constructed as t; t.check(range(17, 20), 1)'
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from math import isqrt, prod

from twosquares import (
    Verdict,
    certificate_from_json,
    certificate_to_json,
    classify,
    decide,
    verify,
)
from twosquares.route import is_prime

CAP = 2**63

# each factor is (class mod 4, exponent), drawn at random, or a fixed
# prime; the last factor's size puts N at the requested digit count
SHAPES = {
    "p": ((1, 1),),
    "p p'": ((1, 1), (1, 1)),
    "p^2": ((1, 2),),
    "q^2 p": ((3, 2), (1, 1)),
    "3 q": (3, (3, 1)),
    "q q'": ((3, 1), (3, 1)),
}


def _prime(rng: random.Random, lo: int, hi: int, residue: int) -> int:
    """A random prime in [lo, hi) that is residue mod 4."""
    while True:
        x = rng.randrange(lo, hi)
        if x % 4 == residue and is_prime(x):
            return x


def _prime_mod_400(rng: random.Random, lo: int, hi: int, c: int) -> int:
    """A random prime in [lo, hi) that is c mod 400."""
    while True:
        x = 400 * rng.randrange(-(-(lo - c) // 400), -(-(hi - c) // 400)) + c
        if is_prime(x):
            return x


def _draw(rng: random.Random, shape: str, digits: int) -> Counter:
    """The factorization {prime: exponent} of a random N of the shape
    with the given number of digits."""
    *head, (residue, e) = SHAPES[shape]
    factors: Counter = Counter()
    for factor in head:
        if isinstance(factor, int):
            factors[factor] += 1
        else:
            # at most (digits - 2) / e digits leave the last factor two
            r, fe = factor
            k = rng.randrange(1, (digits - 2) // fe + 1)
            factors[_prime(rng, 10 ** (k - 1), 10**k, r)] += fe
    lead = prod(p**x for p, x in factors.items())
    lo, hi = (10 ** (digits - 1) + lead - 1) // lead, (10**digits + lead - 1) // lead
    if e == 2:
        lo, hi = isqrt(lo - 1) + 1, isqrt(hi - 1) + 1
    factors[_prime(rng, lo, hi, residue)] += e
    return factors


def expected_count(factors: Counter) -> int:
    """The number of representations a^2 + b^2 = N, a >= b >= 0."""
    if any(p % 4 == 3 and e % 2 for p, e in factors.items()):
        return 0
    return -(-prod(e + 1 for p, e in factors.items() if p % 4 == 1) // 2)


def check(digits, per_shape: int) -> int:
    """decide per_shape eligible N below the cap for each digit count and
    shape; assert its representations and verdict.  Returns the number
    of N checked."""
    checked = 0
    for d in digits:
        for shape in SHAPES:
            rng = random.Random(f"{d} {shape}")
            found = 0
            while found < per_shape:
                factors = _draw(rng, shape, d)
                n = prod(p**e for p, e in factors.items())
                # classify raises above the cap
                if n >= CAP or not classify(n).is_eligible:
                    continue
                found += 1
                cert = decide(n)
                where = f"N = {n} = {dict(factors)} ({shape})"
                reps = {(r.a, r.b) for r in cert.representations}
                assert len(reps) == len(cert.representations) == expected_count(factors), where
                assert all(a >= b >= 0 and a * a + b * b == n for a, b in reps), where
                assert (cert.verdict is Verdict.PRIME) == (shape == "p"), where
                if cert.factors is not None:
                    f1, f2 = cert.factors
                    assert f1 * f2 == n and 1 < f1 <= f2 < n, where
            checked += found
    return checked


def test_decide_on_n_built_from_known_primes():
    assert check(range(7, 17), 3) == 10 * len(SHAPES) * 3


def test_decide_in_every_eligible_class_mod_400():
    # the scan tree depends only on N mod 400: in each of the 40 eligible
    # classes, a prime p and a product q*r with q = 1 and r = p (mod 400)
    classes = [c for c in range(400) if classify(c + 400).is_eligible]
    assert len(classes) == 40
    for digits in (9, 13):
        rng = random.Random(f"mod 400 {digits}")
        lo, hi = 10 ** (digits - 1), 10**digits
        for c in classes:
            p = _prime_mod_400(rng, lo, hi, c)
            cert = decide(p)
            assert cert.verdict is Verdict.PRIME and len(cert.representations) == 1, p
            # q < 10^(digits // 2) < r, so the pair is (q, r)
            q = _prime_mod_400(rng, 1000, 10 ** (digits // 2), 1)
            r = _prime_mod_400(rng, -(-lo // q), -(-hi // q), c)
            n = q * r
            assert lo <= n < hi and n % 400 == c
            cert = decide(n)
            assert cert.verdict is Verdict.COMPOSITE_WITH_FACTORS, (q, r)
            assert len(cert.representations) == 2 and cert.factors == (q, r), (q, r)


def test_certificates_at_the_cap_match_the_pinned_hashes():
    # the SHA-256 of `twosquares prove N --out FILE` that CI pins for the
    # largest eligible prime below 2^63 - 1, the product of two near-equal
    # primes there, and the N in range with the most representations;
    # verify accepts each document, as `twosquares verify` does in CI
    pinned = {
        9223372036854775549: "13de4270382dfb91a8b8445cb82dda26a0f8e9752073ce942c0fc76a0f2c371f",
        9223371873002223329: "e30e987df8f1fb09eb4d8b3e458299f03d5dbd3259991c21a2314feb693cda06",
        4377825349681037761: "5dc3cc4ecd4595c47e69e056b5dca09fec32584a0bbb0b6e0bf10e73922bdc26",
    }
    for n, digest in pinned.items():
        text = certificate_to_json(decide(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest, n
        assert verify(certificate_from_json(text)), n
