"""Explicit factors from two distinct two-square representations.

If an odd N is a^2 + b^2 = c^2 + d^2 in two genuinely different ways,
write u = |a - c|, v = |d - b|, k = gcd(u, v), u = k*l, v = k*m; then
m divides a + c, and with a + c = m*n the cross-identity l*n = d + b
holds, giving

    4*N = (k^2 + n^2) * (l^2 + m^2),

which splits N into two nontrivial factors once the constant 4 is
distributed according to the parities of k, n and l, m.

Two member arrangements are implemented: the canonical one pairs the
even members as (a, c) and the odd members as (b, d), which forces k
and n even so the factors are ((k/2)^2 + (n/2)^2) and (l^2 + m^2); the
alternate mixed-parity arrangement makes all of k, l, m, n odd and the
factors (k^2 + n^2)/2 and (l^2 + m^2)/2.

A second, independent route forms the transposed products
(a - d)(a + d) = (c - b)(c + b) from rep1 = (a, b), rep2 = (c, d),
reduces (a + d)/(c + b) to lowest terms p/q, and extracts
gcd(N, p^2 + q^2) as a nontrivial divisor.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .represent import Representation
from .scan import InternalConsistencyError


@dataclass(frozen=True)
class TwoRepWitness:
    """Factorization witness from two representations.

    In the canonical arrangement a, c are the even members and b, d the
    odd members; the mixed arrangement (alternate code path) pairs
    across parities instead.  Either way f1 * f2 = N, 1 < f1 <= f2 < N,
    and 4*N = (k^2 + n^2) * (l^2 + m^2).
    """

    rep1: Representation
    rep2: Representation
    a: int
    b: int
    c: int
    d: int
    u: int
    v: int
    k: int
    l: int
    m: int
    n: int
    f1: int
    f2: int


def _validate_pair(number: int, rep1: Representation, rep2: Representation) -> None:
    if number % 2 == 0:
        raise ValueError("factorization from two representations needs an odd number")
    for rep in (rep1, rep2):
        if rep.a * rep.a + rep.b * rep.b != number:
            raise ValueError(f"({rep.a}, {rep.b}) does not represent {number}")
    if rep1.members() == rep2.members():
        raise ValueError("the two representations must be distinct")


def _check_split(number: int, f1: int, f2: int) -> None:
    if f1 * f2 != number or not 1 < f1 <= f2 < number:
        raise InternalConsistencyError(f"{f1} * {f2} is not a nontrivial split of {number}")


def _even_odd(rep: Representation) -> tuple[int, int]:
    if rep.a % 2 == 0:
        return rep.a, rep.b
    return rep.b, rep.a


def _derive(a: int, b: int, c: int, d: int) -> tuple[int, int, int, int, int, int]:
    """Common k, l, m, n derivation; returns (u, v, k, l, m, n)."""
    u = abs(a - c)
    v = abs(d - b)
    if u == 0 or v == 0:
        raise InternalConsistencyError("distinct representations cannot collide")
    k = gcd(u, v)
    l, m = u // k, v // k
    n, rem = divmod(a + c, m)
    if rem != 0:
        raise InternalConsistencyError("m must divide a + c")
    if l * n != d + b:
        raise InternalConsistencyError("cross-identity l*n = d + b failed")
    return u, v, k, l, m, n


def klmn_factor(number: int, rep1: Representation, rep2: Representation) -> TwoRepWitness:
    """Factor via the canonical even/odd arrangement.

    The representation with the larger even member supplies (a, b).
    k and n come out even, so the factors are (k/2)^2 + (n/2)^2 and
    l^2 + m^2.
    """
    _validate_pair(number, rep1, rep2)
    (a, b), (c, d) = sorted((_even_odd(rep1), _even_odd(rep2)), reverse=True)
    u, v, k, l, m, n = _derive(a, b, c, d)
    if k % 2 or n % 2:
        raise InternalConsistencyError("even/odd arrangement forces k, n even")
    f1 = (k // 2) ** 2 + (n // 2) ** 2
    f2 = l * l + m * m
    f1, f2 = sorted((f1, f2))
    _check_split(number, f1, f2)
    return TwoRepWitness(rep1, rep2, a, b, c, d, u, v, k, l, m, n, f1, f2)


def klmn_factor_mixed(number: int, rep1: Representation, rep2: Representation) -> TwoRepWitness:
    """Factor via the mixed-parity arrangement: (a, b) = (even, odd) of
    rep1, (c, d) = (odd, even) of rep2.  All of k, l, m, n come out odd,
    so the factors are (k^2 + n^2)/2 and (l^2 + m^2)/2."""
    _validate_pair(number, rep1, rep2)
    a, b = _even_odd(rep1)
    d, c = _even_odd(rep2)
    u, v, k, l, m, n = _derive(a, b, c, d)
    if not all(x % 2 == 1 for x in (k, l, m, n)):
        raise InternalConsistencyError("mixed arrangement forces k,l,m,n odd")
    f1 = (k * k + n * n) // 2
    f2 = (l * l + m * m) // 2
    f1, f2 = sorted((f1, f2))
    _check_split(number, f1, f2)
    return TwoRepWitness(rep1, rep2, a, b, c, d, u, v, k, l, m, n, f1, f2)


def transposed_fraction(rep1: Representation, rep2: Representation) -> tuple[int, int]:
    """Reduce (a + d)/(c + b) to lowest terms, where rep1 = (a, b) and
    rep2 = (c, d); valid because a^2 - d^2 = c^2 - b^2."""
    p, q = rep1.a + rep2.b, rep2.a + rep1.b
    g = gcd(p, q)
    return p // g, q // g


def gcd_fraction_factor(number: int, rep1: Representation, rep2: Representation) -> int:
    """Nontrivial divisor of number via the reduced transposed fraction
    p/q: the divisor is gcd(number, p^2 + q^2)."""
    _validate_pair(number, rep1, rep2)
    p, q = transposed_fraction(rep1, rep2)
    g = gcd(number, p * p + q * q)
    if g in (1, number):
        raise ValueError(f"degenerate divisor {g} from representations of {number}")
    return g


def select_pair(reps: list[Representation]) -> tuple[Representation, Representation]:
    """The two lexicographically smallest distinct representations."""
    distinct = sorted({r.members(): r for r in reps}.values(), key=Representation.members)
    if len(distinct) < 2:
        raise ValueError("need at least two distinct representations")
    return distinct[0], distinct[1]


def factor_with_witness(number: int, reps: list[Representation]) -> TwoRepWitness:
    """Run both factorization routes on the two smallest representations
    and cross-check them.

    The routes must agree that number splits: g divides f1*f2 with
    1 < g < number.  They need not produce the same split; with three
    or more prime factors the two arrangements can extract different
    (equally valid) divisors, e.g. 4329 = 13*333 = 37*117.
    """
    rep1, rep2 = select_pair(reps)
    witness = klmn_factor(number, rep1, rep2)
    g = gcd_fraction_factor(number, rep1, rep2)
    if (witness.f1 * witness.f2) % g != 0 or g in (1, number):
        raise InternalConsistencyError(
            f"factor routes inconsistent on {number}: {g} vs {witness.f1}*{witness.f2}"
        )
    return witness

