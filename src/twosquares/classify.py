"""Eligibility test and mod-25 seed data for the two-square scan.

The scan applies to N = 1 (mod 4) whose last decimal digit is 1 or 9.
For such N any representation N = x^2 + y^2 has exactly one member
divisible by 5 (hence its square by 25), so the other member x must
satisfy x^2 = N (mod 25).  The square roots of N mod 25 seed the scan's
substitution x = 25*t + r.  eligible_range applies the same rule to a range.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .arith import check_magnitude

MIN_ELIGIBLE = 9


class EligibilityStatus(Enum):
    ELIGIBLE = "eligible"
    INELIGIBLE_MOD4 = "ineligible_mod4"
    INELIGIBLE_LAST_DIGIT = "ineligible_last_digit"
    INELIGIBLE_TOO_SMALL = "ineligible_too_small"


# roots[res] = sorted tuple of r in [0, 25) with r*r = res (mod 25)
_MOD25_ROOTS: dict[int, tuple[int, ...]] = {
    res: tuple(r for r in range(25) if r * r % 25 == res) for res in range(25)
}


@dataclass(frozen=True)
class Eligibility:
    """Classification of a candidate N, plus the mod-25 scan seeds."""

    n: int
    status: EligibilityStatus
    roots_mod25: tuple[int, ...] = ()

    @property
    def is_eligible(self) -> bool:
        return self.status is EligibilityStatus.ELIGIBLE


def classify(n: int) -> Eligibility:
    """Decide whether the scan applies to n and compute its mod-25 roots.

    Check order: too small (< 9), then n != 1 (mod 4), then last digit
    not in {1, 9}.  Every eligible n is +-1 mod 5, a square mod 5 and so
    (by Hensel) mod 25: its roots are always a pair {r, 25 - r}.
    Ineligible n get no roots.
    """
    check_magnitude(n)
    if n < MIN_ELIGIBLE:
        return Eligibility(n, EligibilityStatus.INELIGIBLE_TOO_SMALL)
    if n % 4 != 1:
        return Eligibility(n, EligibilityStatus.INELIGIBLE_MOD4)
    if n % 10 not in (1, 9):
        return Eligibility(n, EligibilityStatus.INELIGIBLE_LAST_DIGIT)
    return Eligibility(n, EligibilityStatus.ELIGIBLE, _MOD25_ROOTS[n % 25])


def eligible_range(lo: int, hi: int) -> list[int]:
    # n = 1 (mod 4) with last digit 1 or 9 is exactly n = 1 or 9 (mod 20)
    return [n for n in range(max(lo, MIN_ELIGIBLE), hi + 1) if n % 20 in (1, 9)]
