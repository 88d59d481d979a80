"""What several modules share: the magnitude cap, the one decimal
spelling of an integer, the error for a failed internal check, and the
Representation record.  It imports nothing from the package, so the
verifier's modules can share the record without loading the scan.

The cap of 2**63 - 1 keeps results reproducible on consumers with
fixed-width integers; it is checked once, where N enters (classify,
initial_quadratic, window_representations' hi and
oracle_representations, and the CLI's number parser), not on every
call.  Intermediates may exceed it (Python ints are exact at any width).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

MAX_MAGNITUDE = 2**63 - 1


class InternalConsistencyError(RuntimeError):
    """A result failed its own cross-check; indicates a bug."""


def check_magnitude(n: int) -> None:
    """Reject a negative or out-of-range n (> 2**63 - 1)."""
    if n < 0:
        raise ValueError(f"expected a nonnegative integer, got {n}")
    if n > MAX_MAGNITUDE:
        raise OverflowError(f"{n} exceeds the supported magnitude 2**63 - 1")


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


@dataclass(frozen=True, order=True)
class Representation:
    """Unordered pair a >= b >= 0 with a^2 + b^2 = N."""

    a: int
    b: int
    coprime: bool

    @classmethod
    def of(cls, x: int, y: int) -> "Representation":
        a, b = (x, y) if x >= y else (y, x)
        return cls(a=a, b=b, coprime=gcd(a, b) == 1)

    def members(self) -> tuple[int, int]:
        return (self.a, self.b)
