"""N's representations from its factorization: the verifier's route.

Unique factorization in Z[i] turns N's prime factorization into its
complete list of representations.  A prime p = 1 (mod 4) splits as
p = pi * conj(pi) with pi = a + bi, found by Hermite-Serret; 2 is
-i(1 + i)^2; a prime q = 3 (mod 4) stays prime, so N has no
representation when some q divides it to an odd power.  Every Gaussian
integer of norm N is a unit times a product, over the p^e, of
pi^j * conj(pi)^(e - j), times (1 + i)^e2 and each q^(e/2).

The factorization is exact: trial division by the primes below 100,
Miller-Rabin on the first 12 prime bases (deterministic below
3.3 * 10**24, Sorenson and Webster 2015, far past the 2**63 - 1 cap),
and Pollard rho with Brent's cycle search (Brent 1980) for composite
cofactors.  Nothing here runs the scan engine; certify.verify() imports
this module when it first runs, so no other command loads it.
"""

from __future__ import annotations

from math import gcd, isqrt

from .arith import Representation

#: the first 12 primes: Miller-Rabin on them is exact below 3.3 * 10**24
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: factorize divides these out before it runs rho
_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % d for d in range(2, isqrt(p) + 1)))


def is_prime(n: int) -> bool:
    """Miller-Rabin on MR_BASES; exact for every n below 3.3 * 10**24."""
    if n < 2:
        return False
    for a in MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent(n: int, c: int) -> int:
    """A divisor d > 1 of the odd composite n from the orbit of
    x -> x^2 + c (mod n); d == n when this c fails.  The differences are
    multiplied in batches of 128 between gcds, and a batch that gives n
    is replayed one step at a time."""
    y, q, r, g = 2, 1, 1, 1
    while g == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            saved = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            g = gcd(q, n)
            k += 128
        r *= 2
    if g == n:
        g = 1
        while g == 1:
            saved = (saved * saved + c) % n
            g = gcd(x - saved, n)
    return g


def factorize(n: int) -> dict[int, int]:
    """The prime factorization {p: e} of n >= 1, ascending in p."""
    factors: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
    pending = [(n, 1)] if n > 1 else []
    while pending:
        m, e = pending.pop()
        if is_prime(m):
            factors[m] = factors.get(m, 0) + e
        elif (r := isqrt(m)) * r == m:
            pending.append((r, 2 * e))
        else:
            c = 1
            while (d := _brent(m, c)) == m:
                c += 1
            pending += [(d, e), (m // d, e)]
    return dict(sorted(factors.items()))


def two_squares(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p, a > b > 0, for a prime p = 1 (mod 4),
    by Hermite-Serret: with r^2 = -1 (mod p), Euclid's remainders from
    (p, r) first fall below sqrt(p) at a, and the next one is b."""
    c = 2
    while (r := pow(c, (p - 1) // 4, p)) * r % p != p - 1:
        c += 1
    x, y = p, r
    while y * y > p:
        x, y = y, x % y
    return y, x % y


def _times(z: tuple[int, int], w: tuple[int, int]) -> tuple[int, int]:
    return z[0] * w[0] - z[1] * w[1], z[0] * w[1] + z[1] * w[0]


def route_representations(n: int) -> list[Representation]:
    """Every representation n = a^2 + b^2, a >= b >= 0, from n's
    factorization; any n >= 0, eligible or not.  Sorted by descending a,
    as oracle_representations() lists them."""
    if n == 0:
        return [Representation.of(0, 0)]
    scale, gaussians = 1, [(1, 0)]
    for p, e in factorize(n).items():
        if p % 4 == 3 and e % 2:
            return []
        if p % 4 != 1:
            # 2^e is (1 + i)^e times a unit; q^e with e even is q^(e/2) squared
            scale *= p ** (e // 2)
            if p == 2 and e % 2:
                gaussians = [(1, 1)]  # 2 comes first: factorize ascends in p
            continue
        pi, powers = two_squares(p), [(1, 0)]
        for _ in range(e):
            powers.append(_times(powers[-1], pi))
        choices = [_times(powers[j], (powers[e - j][0], -powers[e - j][1])) for j in range(e + 1)]
        gaussians = [_times(z, w) for z in gaussians for w in choices]
    reps = {Representation.of(scale * abs(x), scale * abs(y)) for x, y in gaussians}
    return sorted(reps, key=lambda r: -r.a)
