"""N's representations from its factorization, for verify and sweep.

Unique factorization in Z[i] turns N's prime factorization into its
complete list of representations.  A prime p = 1 (mod 4) splits as
p = pi * conj(pi) with pi = a + bi, found by Hermite-Serret; 2 is
-i(1 + i)^2; a prime q = 3 (mod 4) stays prime, so N has no
representation when some q divides it to an odd power.  Every Gaussian
integer of norm N is a unit times a product, over the p^e, of
pi^j * conj(pi)^(e - j), times (1 + i)^e2 and each q^(e/2).

The factorization is exact: trial division by the primes below 100,
Miller-Rabin on the first k prime bases with k sized to n (exact below
psi_12 = 318665857834031151167461, OEIS A014233; Jaeschke 1993,
Sorenson and Webster 2015; far past the 2**63 - 1 cap), and Pollard rho
with Brent's cycle search (Brent 1980) for composite cofactors.
route_representations(n) is factorize(n) then factored_representations;
verify() hands the latter a factorization merged from the certificate's
own split.  Nothing here runs the scan engine; only certify.verify()
and sweep's per-N path import this module, when they first run.
"""

from __future__ import annotations

from math import gcd, isqrt

from .arith import Representation

#: the first 12 primes, Miller-Rabin's bases
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

#: (psi_k, k): the first k of MR_BASES are exact for every n < psi_k
#: (OEIS A014233); psi_8 = psi_7 and psi_10 = psi_11 = psi_9, so 8, 10
#: and 11 bases end no tier of their own
MR_TIERS = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
)

#: factorize divides these out before it runs rho
_SMALL_PRIMES = tuple(p for p in range(2, 100) if all(p % d for d in range(2, isqrt(p) + 1)))


def is_prime(n: int) -> bool:
    """Miller-Rabin on the first k of MR_BASES, k from n's tier in
    MR_TIERS; exact for every n below psi_12 = 318665857834031151167461.
    Past it all 12 bases run, a probable-prime test: psi_12 passes."""
    if n < 2:
        return False
    for a in MR_BASES:
        if n % a == 0:
            return n == a
    for psi, k in MR_TIERS:
        if n < psi:
            break
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in MR_BASES[:k]:
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
        if m < 100 * 100 or is_prime(m):  # no prime below 100 divides m
            factors[m] = factors.get(m, 0) + e
        elif (r := isqrt(m)) * r == m:
            pending.append((r, 2 * e))
        else:
            c = 1
            while (d := _brent(m, c)) == m:
                c += 1
            pending += [(d, e), (m // d, e)]
    return dict(sorted(factors.items()))


def _jacobi(a: int, m: int) -> int:
    """The Jacobi symbol (a/m) for 0 <= a and odd m > 0."""
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if m & 7 in (3, 5):
                sign = -sign
        if a & m & 3 == 3:
            sign = -sign
        a, m = m % a, a
    return sign if m == 1 else 0


def two_squares(p: int) -> tuple[int, int]:
    """(a, b) with a^2 + b^2 = p, a > b > 0, for a prime p = 1 (mod 4),
    by Hermite-Serret: with r^2 = -1 (mod p), Euclid's remainders from
    (p, r) first fall below sqrt(p) at a, and the next one is b.

    r = c^((p - 1)/4) for a non-residue c, which reciprocity finds on
    small numbers: 2 when p = 5 (mod 8), else the first odd c with
    (p mod c / c) = -1, since (c/p) = (p/c) for p = 1 (mod 4).  The least
    non-residue is prime, and every odd c below it has only residues
    for factors, so the Jacobi symbol passes over it."""
    if p % 8 == 5:
        c = 2
    else:
        c = 3
        while _jacobi(p % c, c) == 1:
            c += 2
    r = pow(c, (p - 1) // 4, p)
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
    return factored_representations(factorize(n)) if n else [Representation.of(0, 0)]


def factored_representations(factors: dict[int, int]) -> list[Representation]:
    """route_representations of the product of p^e over factors, a
    prime factorization {p: e} in any order."""
    scale, gaussians = 1, [(1, 0)]
    for p, e in factors.items():
        if p % 4 == 3 and e % 2:
            return []
        if p % 4 != 1:
            # 2^e is (1 + i)^e times a unit; q^e with e even is q^(e/2) squared
            scale *= p ** (e // 2)
            if p == 2 and e % 2:
                gaussians = [_times(z, (1, 1)) for z in gaussians]
            continue
        pi, powers = two_squares(p), [(1, 0)]
        for _ in range(e):
            powers.append(_times(powers[-1], pi))
        choices = [_times(powers[j], (powers[e - j][0], -powers[e - j][1])) for j in range(e + 1)]
        gaussians = [_times(z, w) for z in gaussians for w in choices]
    reps = {Representation.of(scale * abs(x), scale * abs(y)) for x, y in gaussians}
    return sorted(reps, key=lambda r: -r.a)
