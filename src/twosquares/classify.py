"""Eligibility test and mod-25 seed data for the two-square scan.

The scan applies to N = 1 (mod 4) whose last decimal digit is 1 or 9.
For such N any representation N = x^2 + y^2 has exactly one member
divisible by 5 (hence its square by 25), so the other member x must
satisfy x^2 = N (mod 25).  The square roots of N mod 25 seed the scan's
substitution x = 25*t + r.
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


def mod25_sqrt(res: int) -> tuple[int, ...]:
    """All r in [0, 25) with r*r = res (mod 25), sorted ascending.

    For res coprime to 5 the result has size 0 or 2 (the pair {r, 25-r}).
    """
    if not 0 <= res < 25:
        raise ValueError(f"residue out of range: {res}")
    return _MOD25_ROOTS[res]


@dataclass(frozen=True)
class Eligibility:
    """Classification of a candidate N, plus the mod-25 scan seeds."""

    n: int
    status: EligibilityStatus
    n_mod4: int
    last_digit: int
    n_mod25: int
    roots_mod25: tuple[int, ...]

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
    n_mod4 = n % 4
    last_digit = n % 10
    n_mod25 = n % 25
    if n < MIN_ELIGIBLE:
        status = EligibilityStatus.INELIGIBLE_TOO_SMALL
    elif n_mod4 != 1:
        status = EligibilityStatus.INELIGIBLE_MOD4
    elif last_digit not in (1, 9):
        status = EligibilityStatus.INELIGIBLE_LAST_DIGIT
    else:
        status = EligibilityStatus.ELIGIBLE
    roots = mod25_sqrt(n_mod25) if status is EligibilityStatus.ELIGIBLE else ()
    return Eligibility(
        n=n,
        status=status,
        n_mod4=n_mod4,
        last_digit=last_digit,
        n_mod25=n_mod25,
        roots_mod25=roots,
    )
