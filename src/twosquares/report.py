"""Text renderings of the scan tree and the sweep CSV.

This module lays out every table line.  render_tree draws a whole
scan_tree walk; each scanned leaf gets a subtrahend/difference table
(what gets subtracted for each step away from the start, first
differences growing by 2*gamma) and a running-subtraction table (the
successive branch values, squares marked with '*').  Both tables are a
view over the range of t that scan_branch covered.  Like the hand
tables, they evaluate Q once per side, at the head, and get every other
value by running subtraction; the cells are formatted by one '%' per
block of rows, with each column as wide as the longest of its header,
its smallest cell and its largest cell.

The side whose subtrahends grow more slowly (linear term working
against the quadratic) is rendered first, matching the hand layout.
All output is plain decimal, LF line endings, locale-independent;
render_tree yields pieces that each end in their own newline, unjoined.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import accumulate, chain, pairwise, repeat
from operator import sub

from .certify import Certificate
from .classify import Eligibility
from .scan import Quadratic, ScanBranch, ScanHit


def _vertex(q: Quadratic) -> int:
    """The integer t where Q is largest, next to the vertex -beta/(2*gamma)."""
    lo = -q.beta // (2 * q.gamma)
    return max((lo, lo + 1), key=q.value_at)


def _sides(branch: ScanBranch, ts: range) -> tuple[tuple[str, range], tuple[str, range]]:
    """The near and far sides of a nonempty range ts as (column label,
    range of t): each side starts at the head t, includes it and goes
    outward.

    The head is t = 0 when Q(0) >= 0 (matching the hand tables), else
    the vertex.  The near side is the direction where the linear term
    works against the quadratic, so subtrahends grow more slowly
    (negative t when beta > 0, positive t otherwise).
    """
    q = branch.quadratic
    t0 = 0 if 0 in ts else _vertex(q)
    g, b = q.gamma, abs(q.beta)
    near, far = (f"{g}c^2-{b}c", f"{g}c^2+{b}c") if b else (f"{g}c^2",) * 2
    up, down = range(t0, ts.stop), range(t0, ts.start - 1, -1)
    return ((near, down), (far, up)) if q.beta > 0 else ((near, up), (far, down))


def _columns(branch: ScanBranch, ts: range) -> Iterator[tuple[str, range, list[int], range]]:
    """Each side of _sides as (label, side, values, diffs): the branch
    values from the head outward, by running subtraction, and the first
    differences between them, which grow by 2*gamma per step."""
    q = branch.quadratic
    for label, side in _sides(branch, ts):
        t0, s = side.start, side.step
        d0 = q.beta * s + q.gamma * (2 * t0 * s + 1)
        diffs = range(d0, d0 + 2 * q.gamma * (len(side) - 1), 2 * q.gamma)
        yield label, side, list(accumulate(diffs, sub, initial=q.value_at(t0))), diffs


def render_difference_table(branch: ScanBranch, ts: range) -> str:
    """Fixed-width table of per-step subtrahends and their differences,
    near side then far side, one row per distance c from the start.

    ts is the range of t that scan_branch covered."""
    title = branch.describe()
    if not ts:
        return title + "\n  (no rows)\n"
    m = branch.quadratic.m
    sides = list(_columns(branch, ts))
    lengths = [len(side) for _, side, _, _ in sides]
    # (header, cells, c of the first cell) per column; a side's diffs start at c = 1
    columns = [("c", range(max(lengths)), 0)]
    for label, _, values, diffs in sides:
        columns += [(label, list(map(sub, repeat(m), values)), 0), ("diff", diffs, 1)]
    # len(str(x)) grows with |x| on each side of 0, so min or max is the widest cell
    widths = [max(len(head), len(str(min(col, default=0))), len(str(max(col, default=0))))
              for head, col, _ in columns]
    lines = [title, " | ".join(map(str.rjust, [head for head, _, _ in columns], widths))]
    # in each block of rows (the head, both sides, the longer side's tail)
    # every column is filled throughout or blank throughout
    for lo, hi in pairwise(sorted({0, 1, *lengths})):
        filled = [first <= lo and hi <= first + len(col) for _, col, first in columns]
        row = " | ".join(f"%{w}d" if f else " " * w for f, w in zip(filled, widths)).rstrip()
        cells = [col[lo - first : hi - first] for (_, col, first), f in zip(columns, filled) if f]
        lines.append("\n".join([row] * (hi - lo)) % tuple(chain.from_iterable(zip(*cells))))
    return "\n".join(lines) + "\n"


def render_scan_table(branch: ScanBranch, ts: range, hits: list[ScanHit]) -> str:
    """Running-subtraction columns: the branch values with the first
    differences between them, squares marked with '*'.

    ts and hits are what scan_branch returned."""
    title = branch.describe()
    if not ts:
        return title + "\n  (no rows)\n"
    q = branch.quadratic
    # ts is exactly where Q >= 0, so it holds the vertex, the widest value
    width = len(str(q.value_at(_vertex(q))))
    lines = [title]
    for label, side, values, diffs in _columns(branch, ts):
        # a line per value, a diff line between two; a hit at the head shows on both sides
        templates = [f"  %{width}d"] * (2 * len(side) - 1)
        for h in hits:
            if h.t in side:
                templates[2 * side.index(h.t)] = f"* %{width}d"
        cells = [0] * len(templates)
        cells[::2], cells[1::2] = values, diffs
        lines += [f"side {label}:", "\n".join(templates) % tuple(cells)]
    return "\n".join(lines) + "\n"


def render_tree(elig: Eligibility, walk: tuple) -> Iterator[str]:
    """N's scan tables, drawn from its scan_tree walk (root, leaves, reps),
    as pieces that each end in their own newline, each made when asked for."""
    n = elig.n
    root, leaves, reps = walk
    if root is None:
        yield f"n = {n} is not eligible ({elig.status.value}); nothing to scan\n"
        return
    yield f"n = {n}, substitution x = {root.scale} t + {root.offset}\n{root.describe()}\n\n"
    for leaf, scanned in leaves:
        if scanned is None:
            yield leaf.describe() + "\n"
        else:
            hits, ts = scanned
            yield render_difference_table(leaf, ts)
            yield "\n"
            yield render_scan_table(leaf, ts, hits)
            yield from (f"hit: t = {h.t}, value = {h.value} = {h.root}^2\n" for h in hits)
        yield "\n"
    listed = ", ".join(f"({r.a}, {r.b})" for r in reps) or "none"
    yield f"representations: {listed}\n"


def sweep_csv(certs: list[Certificate]) -> str:
    """One CSV row per certificate: n, verdict, representation count and
    the factor pair (blank when absent).  Rows sorted by n."""
    lines = ["n,verdict,rep_count,factor1,factor2\n"]
    for cert in sorted(certs, key=lambda c: c.n):
        f1, f2 = cert.factors or ("", "")
        lines.append(f"{cert.n},{cert.verdict.value},{len(cert.representations)},{f1},{f2}\n")
    return "".join(lines)
