"""Exact integer kernels: perfect-square detection, fraction reduction,
the one decimal spelling, and the magnitude cap.

Everything here is exact integer arithmetic.  The cap of 2**63 - 1
keeps results reproducible on consumers with fixed-width integers; it
is checked once, where N enters (classify, initial_quadratic and
oracle_representations, and the CLI's number parser), not here on
every call.  Intermediates may exceed it (Python ints are exact at any
width).
"""

from __future__ import annotations

import math

MAX_MAGNITUDE = 2**63 - 1

# The only quadratic residues mod 8.  A number outside these classes is
# never a perfect square, which lets square tests skip the isqrt.
SQUARE_RESIDUES_MOD_8 = frozenset({0, 1, 4})


def check_magnitude(n: int) -> None:
    """Reject a negative or out-of-range n (> 2**63 - 1)."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    if n > MAX_MAGNITUDE:
        raise OverflowError(f"{n} exceeds the supported magnitude 2**63 - 1")


def is_perfect_square(n: int) -> int | None:
    """Return the square root of n >= 0 if n is a perfect square, else None.

    A residue prefilter (mod 8) rejects most non-squares before the
    isqrt confirmation; it only ever skips work, never changes the answer.

    >>> is_perfect_square(2209)
    47
    >>> is_perfect_square(1273) is None
    True
    """
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


def reduce_fraction(p: int, q: int) -> tuple[int, int]:
    """Reduce p/q to lowest terms.  q must be positive.

    >>> reduce_fraction(1235, 975)
    (19, 15)
    """
    if q <= 0:
        raise ValueError("fraction denominator must be positive")
    g = math.gcd(p, q)
    return (p // g, q // g)
