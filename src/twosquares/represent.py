"""Complete two-square representation sets, by scan and by brute force.

The scan route is one walk of the branch tree, scan_tree(), seeded
with the smaller mod-25 root (signed t reaches the conjugate root
class); representations() and the CLI's prove and scan read from it.
The window pass, window_representations(), lists every eligible
x^2 + y^2 in [lo, hi] at once, for sweep: it steps the member y that
is divisible by 5, then sorts each n's list by descending a.  The
brute-force oracle, oracle_representations(), is the tests' reference:
the scan and the verifier's factorization route (route.py) are both
checked against it.  The Representation record they all return lives
in arith.py, so the verifier shares it without loading this module;
twosquares.represent.Representation still names it.
"""

from __future__ import annotations

from math import isqrt

from .arith import Representation, check_magnitude
from .classify import MIN_ELIGIBLE, Eligibility, classify
from .scan import ScanBranch, expand_branches, initial_quadratic, recover_xy, scan_branch


def scan_tree(
    elig: Eligibility, *, respect_pruning: bool = True
) -> tuple[ScanBranch | None, list, list[Representation]]:
    """Walk N's scan tree once; returns (root, leaves, reps).

    root is the branch seeded with the smaller of N's two mod-25 roots,
    or None when N is ineligible.  leaves lists every leaf depth-first,
    paired with scan_branch's (hits, ts), or with None when the leaf is
    pruned.  reps is the canonical representation list.  With
    respect_pruning=False, pruned leaves are scanned too (they must
    contribute nothing; the equivalence tests rely on this).
    """
    if not elig.is_eligible:
        return None, [], []
    root = initial_quadratic(elig.n, elig.roots_mod25[0])
    leaves = [
        (leaf, scan_branch(leaf) if leaf.scannable or not respect_pruning else None)
        for leaf in expand_branches(root, respect_pruning=respect_pruning)
    ]
    hits = [hit for _, scanned in leaves if scanned for hit in scanned[0]]
    reps = {Representation.of(*recover_xy(h, elig.n)) for h in hits}
    return root, leaves, sorted(reps, key=lambda r: -r.a)


def representations(n: int) -> list[Representation]:
    """All representations n = a^2 + b^2, found by the branch scan.

    Sorted by descending a; empty when n has none.
    Raises ValueError for ineligible n.
    """
    elig = classify(n)
    if not elig.is_eligible:
        raise ValueError(f"{n} is not eligible ({elig.status.value}); see classify()")
    return scan_tree(elig)[2]


def window_representations(lo: int, hi: int) -> dict[int, list[Representation]]:
    """representations(n) of every eligible n in [lo, hi] with one, by one
    pass over the annulus lo <= x^2 + y^2 <= hi, y a multiple of 5.

    An eligible n ends in 1 or 9, so exactly one member of each of its
    representations is divisible by 5 (25 would divide n if both were):
    stepping that member as y lists each representation once.  Each
    n's list is sorted by descending a at the end."""
    check_magnitude(hi)
    lo = max(lo, MIN_ELIGIBLE)
    found: dict[int, list[Representation]] = {}
    for y in range(0, isqrt(hi) + 1, 5):
        yy = y * y
        for x in range(isqrt(lo - yy - 1) + 1 if lo > yy else 0, isqrt(hi - yy) + 1):
            if (n := x * x + yy) % 20 in (1, 9):
                found.setdefault(n, []).append(Representation.of(x, y))
    for reps in found.values():
        reps.sort(key=lambda r: -r.a)
    return found


def oracle_representations(n: int) -> list[Representation]:
    """Brute-force representation list: keep every b up to sqrt(n/2)
    for which n - b^2 is a square a^2.  Works for any n >= 0, eligible
    or not.  b^2 <= n/2 makes a >= b, and a falls as b rises, so the
    list comes out sorted by descending a."""
    check_magnitude(n)
    reps = []
    for b in range(isqrt(n // 2) + 1):
        a = isqrt(n - b * b)
        if a * a + b * b == n:
            reps.append(Representation.of(a, b))
    return reps
