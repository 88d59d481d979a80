"""Explicit factors from two distinct two-square representations.

If an odd N is a^2 + b^2 = c^2 + d^2 in two genuinely different ways,
write u = |a - c|, v = |d - b|, k = gcd(u, v), u = k*l, v = k*m; then
m divides a + c, and with a + c = m*n the cross-identity l*n = d + b
holds, giving

    4*N = (k^2 + n^2) * (l^2 + m^2),

which splits N into two nontrivial factors once the 4 is split by
parity: (k^2 + n^2)/4 * (l^2 + m^2) when 4 divides k^2 + n^2, and
(k^2 + n^2)/2 * (l^2 + m^2)/2 otherwise.

One derivation takes either of two arrangements of the members: the
canonical one pairs the even members as (a, c) and the odd ones as
(b, d), forcing k and n even; the paper's mixed one pairs across
parities, making all of k, l, m, n odd.  witness_violation() names the
first identity a witness fails; recovery and certify.verify end with it.

A second, independent route, gcd_fraction_factor, forms the transposed
products (a - d)(a + d) = (c - b)(c + b) from rep1 = (a, b),
rep2 = (c, d), reduces (a + d)/(c + b) to lowest terms p/q, and extracts
gcd(N, p^2 + q^2) as a nontrivial divisor.  decide does not run it:
witness_violation already checks f1 * f2 = N with 1 < f1 <= f2 < N.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .arith import InternalConsistencyError, Representation


@dataclass(frozen=True)
class TwoRepWitness:
    """Factorization witness from either arrangement of the members of
    two representations (canonical: a, c even and b, d odd; mixed:
    a, d even and b, c odd); f1 * f2 = N with 1 < f1 <= f2 < N, and
    4*N = (k^2 + n^2) * (l^2 + m^2)."""

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


def witness_violation(number: int, w: TwoRepWitness) -> str | None:
    """The first identity the witness fails for number, by name; None
    when it satisfies them all."""
    pairs = {w.rep1.members(), w.rep2.members()}
    if {(max(w.a, w.b), min(w.a, w.b)), (max(w.c, w.d), min(w.c, w.d))} != pairs:
        return "{a, b}, {c, d} = the members of rep1, rep2"
    if w.a * w.a + w.b * w.b != number or w.c * w.c + w.d * w.d != number:
        return "a^2 + b^2 = c^2 + d^2 = N"
    if w.u != abs(w.a - w.c) or w.v != abs(w.d - w.b):
        return "u = |a - c|, v = |d - b|"
    if w.k == 0 or w.k != gcd(w.u, w.v):
        return "k = gcd(u, v) > 0"
    if w.k * w.l != w.u or w.k * w.m != w.v:
        return "u = k*l, v = k*m"
    if w.m * w.n != w.a + w.c or w.l * w.n != w.d + w.b:
        return "a + c = m*n, d + b = l*n"
    if (w.k**2 + w.n**2) * (w.l**2 + w.m**2) != 4 * number:
        return "4*N = (k^2 + n^2) * (l^2 + m^2)"
    if w.f1 * w.f2 != number or not 1 < w.f1 <= w.f2 < number:
        return "f1 * f2 = N with 1 < f1 <= f2 < N"
    return None


def _even_odd(rep: Representation) -> tuple[int, int]:
    return (rep.a, rep.b) if rep.a % 2 == 0 else (rep.b, rep.a)


def _klmn(number: int, rep1: Representation, rep2: Representation,
          a: int, b: int, c: int, d: int) -> TwoRepWitness:
    """The k, l, m, n derivation from one arrangement of the members,
    checked by witness_violation before it is returned."""
    u, v = abs(a - c), abs(d - b)
    if u == 0 or v == 0:
        raise InternalConsistencyError("distinct representations cannot collide")
    k = gcd(u, v)
    l, m = u // k, v // k
    n = (a + c) // m
    s, t = k * k + n * n, l * l + m * m
    f1, f2 = sorted((s // 4, t) if s % 4 == 0 else (s // 2, t // 2))
    w = TwoRepWitness(rep1, rep2, a, b, c, d, u, v, k, l, m, n, f1, f2)
    violation = witness_violation(number, w)
    if violation is not None:
        raise InternalConsistencyError(f"witness for {number} fails {violation}")
    return w


def klmn_factor(number: int, rep1: Representation, rep2: Representation) -> TwoRepWitness:
    """Factor via the canonical even/odd arrangement.

    The representation with the larger even member supplies (a, b).
    k and n come out even, so the factors are (k/2)^2 + (n/2)^2 and
    l^2 + m^2.
    """
    _validate_pair(number, rep1, rep2)
    (a, b), (c, d) = sorted((_even_odd(rep1), _even_odd(rep2)), reverse=True)
    return _klmn(number, rep1, rep2, a, b, c, d)


def klmn_factor_mixed(number: int, rep1: Representation, rep2: Representation) -> TwoRepWitness:
    """Factor via the mixed-parity arrangement: (a, b) = (even, odd) of
    rep1, (c, d) = (odd, even) of rep2.  All of k, l, m, n come out odd,
    so the factors are (k^2 + n^2)/2 and (l^2 + m^2)/2."""
    _validate_pair(number, rep1, rep2)
    a, b = _even_odd(rep1)
    d, c = _even_odd(rep2)
    return _klmn(number, rep1, rep2, a, b, c, d)


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
    """Factor number from its two smallest representations."""
    return klmn_factor(number, *select_pair(reps))
