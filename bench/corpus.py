"""Seeded benchmark inputs, chosen without the engine.

Every N is built as c * x: a cofactor c picked for the verdict class and
a prime x taken from an arithmetic progression mod 6300 = 4 * 9 * 25 * 7.
The seed picks the progression, so it fixes N's residues mod 4, 9, 7 and
25 (mod 3 follows from mod 9); the scan's branch pruning depends on them.

The work a corpus asks for barely depends on the seed, which keeps the
run-to-run spread small.  Magnitudes are stratified: item i of k lies
near the middle of the i-th of k equal log-width bands.  Every block of
four strata holds one item of each class, in a fixed order, because
verify costs twice as much on a prime.  The parity of the smaller square
root of N mod 25 alternates from stratum to stratum (and flips from
block to block, so each class gets both), because the scan's
substitution x = 25*t + r starts from that root and today's pruning
leaves about sqrt(N)/25 rows when it is odd and sqrt(N)/17 when it is
even.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Deterministic Miller-Rabin: with these bases the test is exact for every
# n < 3.3 * 10**24 (Sorenson & Webster 2015), far above any N used here.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

MODULUS = 4 * 9 * 25 * 7
_UNITS = tuple(u for u in range(MODULUS) if math.gcd(u, MODULUS) == 1)

KINDS = ("prime", "pq", "square", "norep")
_VERDICT = {
    "prime": "prime",
    "pq": "composite_with_factors",
    "square": "composite_with_factors",
    "norep": "composite_no_representation",
}
# primes = 3 (mod 4), other than 5: g for g^2 | N, small q for N = q * x
_SMALL_3_MOD_4 = (3, 7, 11, 19, 23, 31, 43, 47)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact below 3.3 * 10**24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_eligible(n: int) -> bool:
    """N = 1 (mod 4) with last digit 1 or 9, i.e. N = 1 or 9 (mod 20)."""
    return n >= 9 and n % 20 in (1, 9)


@dataclass(frozen=True)
class Item:
    """One benchmark input N, the verdict it must get, and why it was chosen.

    factors is the split the engine must report when N has only one
    nontrivial split it can reach (p*q, and g^2 * x), else None.
    """

    n: int
    kind: str
    verdict: str
    factors: tuple[int, int] | None
    reason: str


def _random_prime(rng: random.Random, lo: int, hi: int, mod4: int) -> int:
    while True:
        p = rng.randrange(lo, hi) | 1
        if p % 4 == mod4 and p > 7 and is_prime(p):
            return p


def _cofactor(rng: random.Random, kind: str, target: int) -> tuple[int, str]:
    """(c, description) for one class; N will be c * x.

    Cofactors stay below target**0.3, so x is large and the progression
    step 6300 lands the first prime within a fraction of a percent of
    the target.
    """
    if kind == "prime":
        return 1, "prime"
    if kind == "pq":
        p = _random_prime(rng, int(target**0.2), int(target**0.3), 1)
        return p, f"p*q with p = {p} = 1 (mod 4): two coprime representations"
    if kind == "square":
        g = rng.choice(_SMALL_3_MOD_4)
        return g * g, f"g^2 * x with g = {g} = 3 (mod 4): one non-coprime representation"
    if rng.random() < 0.5:
        q = rng.choice(_SMALL_3_MOD_4)
    else:
        q = _random_prime(rng, int(target**0.2), int(target**0.3), 3)
    return q, f"q*x with q = {q} = 3 (mod 4): no representation"


# smaller square root of each quadratic residue mod 25
_SMALLER_ROOT_MOD25 = {r * r % 25: r for r in range(12, -1, -1)}


def make_item(rng: random.Random, kind: str, target: int, root_parity: int) -> Item:
    """The first N = c * x >= target of the class whose smaller square
    root mod 25 has the given parity, x prime in a seeded progression
    mod 6300 that makes N eligible."""
    c, why = _cofactor(rng, kind, target)
    u = rng.choice([u for u in _UNITS if c * u % 20 in (1, 9)
                    and _SMALLER_ROOT_MOD25[c * u % 25] % 2 == root_parity])
    lo = -(-target // c)
    x = lo + (u - lo) % MODULUS
    while not is_prime(x):
        x += MODULUS
    n = c * x
    factors = tuple(sorted((c, x))) if kind in ("pq", "square") else None
    reason = (
        f"{kind} near {target:.3g}: {why}; N mod 8 = {n % 8}, mod 9 = {n % 9}, "
        f"mod 7 = {n % 7}, mod 25 = {n % 25} (smaller root {_SMALLER_ROOT_MOD25[n % 25]})"
    )
    return Item(n=n, kind=kind, verdict=_VERDICT[kind], factors=factors, reason=reason)


def corpus(seed: int, lo: int, hi: int, per_kind: int) -> list[Item]:
    """4 * per_kind items with lo <= N < hi (roughly), sorted by N."""
    rng = random.Random(seed)
    k = per_kind * len(KINDS)
    items = []
    for block in range(per_kind):
        for j, kind in enumerate(KINDS):
            position = (block * len(KINDS) + j + 0.5 + rng.uniform(-0.25, 0.25)) / k
            target = int(lo * (hi / lo) ** position)
            items.append(make_item(rng, kind, target, (block + j) % 2))
    return sorted(items, key=lambda item: item.n)


def windows(seed: int, lo: int, hi: int, count: int, width: int) -> list[tuple[int, int]]:
    """count sweep windows [start, start + width - 1], one per equal
    stratum of [lo, hi)."""
    rng = random.Random(seed)
    step = (hi - lo) // count
    starts = [lo + i * step + rng.randrange(step - width) for i in range(count)]
    return [(s, s + width - 1) for s in starts]
