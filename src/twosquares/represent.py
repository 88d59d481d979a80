"""Complete two-square representation sets, by scan and by brute force.

The scan route drives the branch machinery over the smaller mod-25
root (signed t reaches the conjugate root class); the brute-force
route is an independent oracle used for verification.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, isqrt

from .arith import check_magnitude, is_perfect_square
from .classify import classify
from .scan import ScanHit, expand_branches, initial_quadratic, recover_xy, scan_branch


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


def _canonical(reps: set[Representation]) -> list[Representation]:
    return sorted(reps, key=lambda r: -r.a)


def scan_hits(n: int, *, respect_pruning: bool = True) -> list[ScanHit]:
    """All perfect-square hits over every branch of n's scan tree.

    With respect_pruning=False, pruned branches are scanned too (they
    must contribute nothing; the equivalence tests rely on this).
    """
    elig = classify(n)
    if not elig.is_eligible:
        raise ValueError(
            f"{n} is not eligible ({elig.status.value}); see classify()"
        )
    if not elig.roots_mod25:
        return []
    root = initial_quadratic(n, elig.roots_mod25[0])
    hits: list[ScanHit] = []
    for leaf in expand_branches(root, respect_pruning=respect_pruning):
        if respect_pruning and not leaf.scannable:
            continue
        hits.extend(scan_branch(leaf)[0])
    return hits


def representations(n: int, *, respect_pruning: bool = True) -> list[Representation]:
    """All representations n = a^2 + b^2, found by the branch scan.

    Sorted by descending a.  Empty when n is a non-residue mod 25.
    Raises ValueError for ineligible n.
    """
    return representations_from_hits(n, scan_hits(n, respect_pruning=respect_pruning))


def representations_from_hits(n: int, hits: list[ScanHit]) -> list[Representation]:
    """The distinct representations of n that scan hits map back to,
    sorted by descending a."""
    return _canonical({Representation.of(*recover_xy(h, n)) for h in hits})


def oracle_representations(n: int) -> list[Representation]:
    """Brute-force representation set: test n - b^2 for every b up to
    sqrt(n/2).  Works for any n >= 0, eligible or not."""
    check_magnitude(n)
    found: set[Representation] = set()
    for b in range(isqrt(n // 2) + 1):
        a = is_perfect_square(n - b * b)
        if a is not None:
            found.add(Representation.of(a, b))
    return _canonical(found)
