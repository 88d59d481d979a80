"""Residual-quadratic branches, their pruning, and the leaf sieve.

Every branch is one closed form.  On x = scale*t + offset,

    Q(t) = (N - x^2)/divisor = m - beta*t - gamma*t^2,

so m, beta and gamma are N - offset^2, 2*scale*offset and scale^2 over
the divisor, the largest 25*4^k that divides all three.  The root is
x = 25*t + r for a mod-25 root r of N.  Refinement splits t into classes
t = S*s + O, which compose into x, and each child is built from the
closed form, not by substitution into its parent.  For N = 1000009 and
r = 3 the paper's branches A (x = 50b + 3) and B (x = 100c + 28) are

    A = 10000 - 3b - 25bb    = (1000009 - (50b + 3)^2)/100,
    B = 39969 - 224c - 400cc = (1000009 - (100c + 28)^2)/25.

A branch with gamma = 25 is refined: the even class t = 2s is kept when
it divides through by 4, else split into t = 0 and t = 2 (mod 4); the
odd classes t = 1 and t = 3 (mod 4) are always emitted.  No depth cap
is needed: gamma = 25 at scale 25*2^j needs divisor 25*4^j, and for
j >= 2 that divisor dividing beta makes offset even, so N - offset^2 is
odd, as N is.  No branch below A divides through to gamma = 25.  The
tree depends only on N mod 400 (tests/test_scan.py checks all 40
eligible classes); no leaf is deeper than 2, and 3 of its 4 or 6 leaves
are scannable.

A branch whose values over one period mod 8 all miss the squares
{0, 1, 4} is pruned (always 5 mod 8, always oddly even, or some other
non-residue pattern), and neither refined nor scanned.

Surviving leaves are scanned over the exact range of t where Q(t) >= 0,
by an exclusion sieve that carries the mod-8 test on (Gauss's method of
exclusion, Disquisitiones sec. VI): Q(t) mod p depends only on t mod p,
so for each of the 14 moduli p of SIEVE_MODULI one p-bit pattern marks
the t whose value can be a square mod p.  Each coprime group of
SIEVE_GROUPS is tiled once per leaf into one int, one bit per t, with
the group's product as its period.  Over windows of 2880 t, four turns
of the 16*9*5 wheel, the wheel never shifts and the other groups are
shifted to the window's first t; only the t that survive every modulus
are square-tested exactly with isqrt.  A hit at t gives N = x^2 + y^2
with x = scale*t + offset.  The scan keeps no rows: report.py renders
the difference tables from the covered range.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cache

from .arith import InternalConsistencyError, check_magnitude

#: quadratic coefficient of refinable branches (the residual's 25)
_REFINABLE_GAMMA = 25

#: the only squares mod 8; a value outside them is never a perfect square
SQUARE_RESIDUES_MOD_8 = frozenset({0, 1, 4})

#: (period, moduli) of the leaf sieve's coprime groups: 16 sharpens the
#: branch pruning's mod 8, then 9 and the primes up to 43.  A value is a
#: square mod a group's product exactly when it is one mod each member
#: (CRT), so one mask with the product as its period sieves for the group
_GROUPS = ((16, 9, 5), (7, 29), (11, 23), (13, 19), (17,), (31, 37), (41, 43))
SIEVE_GROUPS = tuple((math.prod(g), g) for g in _GROUPS)
SIEVE_MODULI = tuple(p for _, group in SIEVE_GROUPS for p in group)

#: t per sieve window: four periods of the first group, so its mask (the
#: wheel of 16*9*5 = 720 t) is the same in every window
SIEVE_WINDOW = 4 * SIEVE_GROUPS[0][0]


class PruneReason(Enum):
    ALWAYS_FIVE_MOD_8 = "always_five_mod_8"
    ODDLY_EVEN = "oddly_even"
    OTHER_NON_RESIDUE = "other_non_residue"


@dataclass(frozen=True)
class Quadratic:
    """Q(t) = m - beta*t - gamma*t^2 with gamma > 0 (downward parabola)."""

    m: int
    beta: int
    gamma: int

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise ValueError("quadratic coefficient must be positive")

    def value_at(self, t: int) -> int:
        return self.m - self.beta * t - self.gamma * t * t

    def __str__(self) -> str:
        s = str(self.m)
        if self.beta:
            s += f" - {self.beta} t" if self.beta > 0 else f" + {-self.beta} t"
        return s + f" - {self.gamma} t^2"


@dataclass(frozen=True)
class ScanBranch:
    name: str
    quadratic: Quadratic
    scale: int
    offset: int
    divisor: int
    prune_reason: PruneReason | None

    @property
    def scannable(self) -> bool:
        return self.prune_reason is None

    def describe(self) -> str:
        s = f"branch {self.name}: Q(t) = {self.quadratic}"
        if self.prune_reason is not None:
            s += f" [pruned: {self.prune_reason.value}]"
        return s


@dataclass(frozen=True)
class ScanHit:
    """A perfect square found during a branch scan."""

    branch: ScanBranch
    t: int
    value: int
    root: int


@cache
def _prune_reason(m: int, beta: int, gamma: int) -> PruneReason | None:
    """Check m - beta*t - gamma*t^2, coefficients taken mod 8, over one
    full period mod 8 (its values mod 8 depend on nothing else).

    If no value can be a square residue, report why: always 5 (mod 8),
    always oddly even (2 mod 4), or some other non-residue pattern.
    """
    values = {(m - beta * t - gamma * t * t) % 8 for t in range(8)}
    if values & SQUARE_RESIDUES_MOD_8:
        return None
    if values == {5}:
        return PruneReason.ALWAYS_FIVE_MOD_8
    if all(v % 4 == 2 for v in values):
        return PruneReason.ODDLY_EVEN
    return PruneReason.OTHER_NON_RESIDUE


def _branch(n: int, name: str, scale: int, offset: int) -> ScanBranch:
    """The branch on x = scale*t + offset: Q(t) = (n - x^2)/divisor, the
    divisor the largest 25*4^k that makes every coefficient whole."""
    m, beta, gamma = n - offset * offset, 2 * scale * offset, scale * scale
    divisor = 25
    while m % (4 * divisor) == 0 and beta % (4 * divisor) == 0 and gamma % (4 * divisor) == 0:
        divisor *= 4
    m, beta, gamma = m // divisor, beta // divisor, gamma // divisor
    return ScanBranch(
        name=name,
        quadratic=Quadratic(m, beta, gamma),
        scale=scale,
        offset=offset,
        divisor=divisor,
        prune_reason=_prune_reason(m % 8, beta % 8, gamma % 8),
    )


def initial_quadratic(n: int, r: int) -> ScanBranch:
    """Root branch for odd n with mod-25 root r:
    Q(t) = (n - r^2)/25 - 2r*t - 25*t^2, divisor 25, via x = 25*t + r.

    Signed t covers both root classes r and 25 - r.
    """
    check_magnitude(n)
    if n % 2 == 0:
        raise ValueError(f"{n} is even; the scan tree is built for odd N")
    if not 0 <= r < 25 or (n - r * r) % 25 != 0:
        raise ValueError(f"{r} is not a square root of {n} mod 25")
    return _branch(n, "Q", 25, r)


_ROOT_CHILD_NAMES = {"e": "A", "e0": "A0", "e2": "A2", "o1": "B", "o3": "C"}


def refine(branch: ScanBranch) -> list[ScanBranch]:
    """Split a branch's t-domain into the residue classes that partition
    it: the even class (kept when it divides through by 4, else split
    into t = 0 and t = 2 mod 4), then t = 1 and t = 3 (mod 4).  N is read
    back as m*divisor + offset^2, the closed form at t = 0."""
    s, o = branch.scale, branch.offset
    n = branch.quadratic.m * branch.divisor + o * o
    names = _ROOT_CHILD_NAMES if branch.name == "Q" else {
        tag: f"{branch.name}.{tag}" for tag in _ROOT_CHILD_NAMES
    }
    even = _branch(n, names["e"], 2 * s, o)
    if even.divisor > branch.divisor:
        children = [even]
    else:
        children = [_branch(n, names["e0"], 4 * s, o), _branch(n, names["e2"], 4 * s, 2 * s + o)]
    return children + [_branch(n, names["o1"], 4 * s, s + o), _branch(n, names["o3"], 4 * s, o - s)]


def expand_branches(root: ScanBranch, *, respect_pruning: bool = True) -> list[ScanBranch]:
    """Refine the root into its leaf branches (depth-first order).

    A branch is refined while its quadratic coefficient is still 25
    (the residual scale, where parity splits keep paying off);
    everything else is a leaf, pruned or scannable.  With
    respect_pruning=False, pruned status is ignored for the refinement
    decision (used by the pruning-equivalence checks).
    """
    leaves: list[ScanBranch] = []
    stack = [root]
    while stack:
        br = stack.pop()
        if br.quadratic.gamma == _REFINABLE_GAMMA and (br.scannable or not respect_pruning):
            stack.extend(reversed(refine(br)))
        else:
            leaves.append(br)
    return leaves


@cache
def residue_pattern(p: int, m: int, beta: int, gamma: int) -> int:
    """Bit k is set when m - beta*k - gamma*k^2, coefficients taken mod p,
    is a square mod p.

    Q(t) mod p is this at k = t mod p, so a t whose bit is clear never
    makes Q(t) a perfect square.  The cache holds at most p^3 patterns
    per modulus, 286,021 over SIEVE_MODULI.
    """
    squares = {j * j % p for j in range(p)}
    return sum(1 << k for k in range(p) if (m - beta * k - gamma * k * k) % p in squares)


#: per modulus p, the factor that repeats a p-bit pattern past a window
#: and its group's period, the most any window shifts it, plus p bits for
#: the pattern's own rotation: the sum of 2^(p*j) over j < turns
_REPEATS = {
    p: ((1 << p * ((SIEVE_WINDOW + period) // p + 2)) - 1) // ((1 << p) - 1)
    for period, group in SIEVE_GROUPS for p in group
}

#: bits in the longest pattern, more than any rotation shifts one
_LONGEST_PATTERN = max(SIEVE_MODULI)

#: the set bits of each byte value in order, built one bit at a time, and
#: a table taking nonzero bytes to 1
_BIT_OFFSETS = [()]
for _bit in range(8):
    _BIT_OFFSETS += [offsets + (_bit,) for offsets in _BIT_OFFSETS]
del _bit
_NONZERO = bytes(1) + bytes([1]) * 255


def _sieve(q: Quadratic, ts: range) -> Iterator[int]:
    """Yield, in order, the t of ts at which q(t) is a square mod each of
    the 14 moduli of SIEVE_MODULI.

    Bit i of each int is t = ts.start + i.  Each member's p-bit pattern
    is repeated by one multiply, rotated to ts.start and ANDed into one
    int per group, once per call.  Over windows of SIEVE_WINDOW = 2880 t
    the wheel, whose period divides the window, never shifts; the window
    at lo ANDs it with each other group shifted right by (lo - ts.start)
    mod its period.  On a one-window leaf every group ANDs into the
    wheel, which ends the leaf once it is empty.  A window's survivors
    are read a byte at a time: translate marks the nonzero bytes, find
    jumps to each in C, and _BIT_OFFSETS lists the byte's set bits.
    """
    m, beta, gamma = q.m, q.beta, q.gamma
    window = min(SIEVE_WINDOW, len(ts))
    wheel, tiles = (1 << window) - 1, []
    # a one-window leaf reads window + p - 1 bits of a repeated pattern,
    # so it multiplies by no more of the repeat factor than that
    cut = -1 if len(ts) > window else (1 << window + _LONGEST_PATTERN) - 1
    for period, group in SIEVE_GROUPS:
        tiled = -1
        for p in group:
            pattern = residue_pattern(p, m % p, beta % p, gamma % p)
            tiled &= pattern * (_REPEATS[p] & cut) >> ts.start % p
        if len(ts) > window and SIEVE_WINDOW % period:
            tiles.append((tiled, period))
        elif not (wheel := wheel & tiled):
            return
    for lo in range(ts.start, ts.stop, window):
        mask = wheel if ts.stop - lo >= window else wheel & (1 << ts.stop - lo) - 1
        for tiled, period in tiles:
            mask &= tiled >> (lo - ts.start) % period
        if not mask:
            continue
        survivors = mask.to_bytes((window + 7) // 8, "little")
        nonzero = survivors.translate(_NONZERO)
        i = nonzero.find(1)
        while i >= 0:
            for b in _BIT_OFFSETS[survivors[i]]:
                yield lo + 8 * i + b
            i = nonzero.find(1, i + 1)


def scan_branch(branch: ScanBranch) -> tuple[list[ScanHit], range]:
    """Find the t with Q(t) >= 0 at which Q(t) is a perfect square.

    Returns (hits, ts): the hits sorted by t, and ts, the range of
    exactly the t with Q(t) >= 0 (empty when Q is everywhere negative).
    Since 4*gamma*Q(t) = beta^2 + 4*gamma*m - (2*gamma*t + beta)^2, that
    range is |2*gamma*t + beta| <= isqrt(beta^2 + 4*gamma*m).

    ts is sieved, not walked: only the t that _sieve keeps after all 14
    moduli, one bit per t over windows of 2880 t, are evaluated and
    tested with isqrt.
    """
    q = branch.quadratic
    m, beta, gamma = q.m, q.beta, q.gamma
    hits: list[ScanHit] = []
    disc = beta * beta + 4 * gamma * m
    if disc < 0:
        return hits, range(0)
    r = math.isqrt(disc)
    ts = range(-((r + beta) // (2 * gamma)), (r - beta) // (2 * gamma) + 1)
    for t in _sieve(q, ts):
        value = m - beta * t - gamma * t * t
        root = math.isqrt(value)
        if root * root == value:
            hits.append(ScanHit(branch, t, value, root))
    return hits, ts


def recover_xy(hit: ScanHit, n: int) -> tuple[int, int]:
    """Map a scan hit back to the representation n = x^2 + y^2
    (y the member divisible by 5)."""
    branch = hit.branch
    x = abs(branch.scale * hit.t + branch.offset)
    y = math.isqrt(branch.divisor) * hit.root
    if x * x + y * y != n:
        raise InternalConsistencyError(
            f"hit at t={hit.t} on branch {branch.name} does not reconstruct {n}"
        )
    return x, y
