"""Exact integer kernels: integer square root, perfect-square detection,
gcd and fraction reduction.

Everything here is exact integer arithmetic.  Inputs are capped at
2**63 - 1; anything larger is rejected rather than silently accepted,
so results stay reproducible on consumers with fixed-width integers.
Intermediates may exceed the cap (Python ints are exact at any width).
"""

from __future__ import annotations

import math

MAX_MAGNITUDE = 2**63 - 1

# The only quadratic residues mod 8.  A number outside these classes is
# never a perfect square, which lets square tests skip the isqrt.
SQUARE_RESIDUES_MOD_8 = frozenset({0, 1, 4})


def check_magnitude(*values: int) -> None:
    """Reject negative or out-of-range values (> 2**63 - 1)."""
    for v in values:
        if v < 0:
            raise ValueError(f"expected a nonnegative integer, got {v}")
        if v > MAX_MAGNITUDE:
            raise OverflowError(f"{v} exceeds the supported magnitude 2**63 - 1")


def isqrt(n: int) -> int:
    """Largest r with r*r <= n.

    >>> isqrt(2209)
    47
    >>> isqrt(55224)
    234
    """
    check_magnitude(n)
    return math.isqrt(n)


def is_perfect_square(n: int) -> int | None:
    """Return the square root of n if n is a perfect square, else None.

    A residue prefilter (mod 8) rejects most non-squares before the
    isqrt confirmation; it only ever skips work, never changes the answer.

    >>> is_perfect_square(2209)
    47
    >>> is_perfect_square(1273) is None
    True
    """
    check_magnitude(n)
    if n % 8 not in SQUARE_RESIDUES_MOD_8:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


def parse_decimal(text: str) -> int | None:
    """The value of text if it is spelled 0|[1-9][0-9]{0,18}, else None.

    That is the one accepted spelling of an integer in certificates and
    on the command line: ASCII digits only (isdigit alone also accepts
    other scripts' digits), no sign, separator, whitespace or leading
    zero, and at most 19 digits, the width of 2**63 - 1.  It is checked
    with str methods because a regex match allocates about 1 KiB per
    call, which shows in the verifier's peak memory.

    >>> parse_decimal("1000081"), parse_decimal("01000081")
    (1000081, None)
    """
    if text.isascii() and text.isdigit() and len(text) <= 19 and (text[0] != "0" or text == "0"):
        return int(text)
    return None


def gcd(a: int, b: int) -> int:
    """Greatest common divisor; gcd(0, b) == b."""
    check_magnitude(a, b)
    return math.gcd(a, b)


def reduce_fraction(p: int, q: int) -> tuple[int, int]:
    """Reduce p/q to lowest terms.  q must be positive.

    >>> reduce_fraction(1235, 975)
    (19, 15)
    """
    check_magnitude(p, q)
    if q == 0:
        raise ValueError("fraction denominator must be positive")
    g = math.gcd(p, q)
    return (p // g, q // g)
