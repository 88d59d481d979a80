"""Text renderings of the scan tree and the sweep CSV.

This module lays out every table line.  render_tree draws a whole
scan_tree walk; each scanned leaf gets a subtrahend/difference table
(what gets subtracted for each step away from the start, first
differences growing by 2*gamma) and a running-subtraction table (the
successive branch values, squares marked with '*').  Both tables are a
view over the range of t that scan_branch covered.  Like the hand
tables, they evaluate Q once per side, at the head, and get every other
value by running subtraction.  Each column is monotone on each side of
the vertex, so a bisect per change of length finds the runs of cells
whose decimals have one length and one sign.  A column is as wide as its
header and its longest run, and each run of rows is formatted by one '%'
with a bare %d per cell, its padding written into the template.

The side whose subtrahends grow more slowly (linear term working
against the quadratic) is rendered first, matching the hand layout.
All output is plain decimal, LF line endings, locale-independent;
render_tree yields pieces that each end in their own newline, unjoined.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from itertools import accumulate, pairwise
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


def _diffs(q: Quadratic, side: range) -> range:
    """The first differences Q(t) - Q(t + s) along a side of step s, from
    its head outward; they grow by 2*gamma per step."""
    t0, s = side.start, side.step
    d0 = q.beta * s + q.gamma * (2 * t0 * s + 1)
    return range(d0, d0 + 2 * q.gamma * (len(side) - 1), 2 * q.gamma)


def _runs(cells, turn: int) -> list[tuple[int, int, int]]:
    """(start, stop, length) of each run of cells whose decimals have one
    length and one sign, in order.  cells, a list or range, is monotone
    before turn and from turn on, so each run is contiguous and a bisect
    finds where it stops."""
    runs = []
    for lo, hi in (0, turn), (turn, len(cells)):
        while lo < hi:
            n, neg = len(str(cells[lo])), cells[lo] < 0
            stop = bisect_left(cells, True, lo + 1, hi, key=lambda x: len(str(x)) != n or (x < 0) != neg)
            runs.append((lo, stop, n))
            lo = stop
    return runs


def _turn(q: Quadratic, side: range) -> int:
    """The index of the vertex on side, where its values stop rising and
    its subtrahends stop falling; 0 when the vertex is off the side."""
    v = _vertex(q)
    return side.index(v) if v in side else 0


def render_difference_table(branch: ScanBranch, ts: range) -> str:
    """Fixed-width table of per-step subtrahends and their differences,
    near side then far side, one row per distance c from the start.

    ts is the range of t that scan_branch covered."""
    title = branch.describe()
    if not ts:
        return title + "\n  (no rows)\n"
    q = branch.quadratic
    sides = _sides(branch, ts)
    lengths = [len(side) for _, side in sides]
    # (header, cells, c of the first cell, runs) per column; a side's diffs start at c = 1
    depth = range(max(lengths))
    columns = [("c", depth, 0, _runs(depth, 0))]
    for label, side in sides:
        diffs = _diffs(q, side)
        subtrahends = list(accumulate(diffs, initial=q.m - q.value_at(side.start)))
        columns += [(label, subtrahends, 0, _runs(subtrahends, _turn(q, side))),
                    ("diff", diffs, 1, _runs(diffs, 0))]
    widths = [max([len(head), *(n for _, _, n in runs)]) for head, _, _, runs in columns]
    lines = [title, " | ".join(map(str.rjust, [head for head, _, _, _ in columns], widths))]
    # every column is filled throughout or blank throughout a block of rows
    # (the head, both sides, the longer side's tail), and its cells have
    # one length throughout a run
    cuts = {0, 1, *lengths, *(first + lo for _, _, first, runs in columns for lo, _, _ in runs)}
    for lo, hi in pairwise(sorted(cuts)):
        row, filled = [], []
        for (_, col, first, _), w in zip(columns, widths):
            if first <= lo and hi <= first + len(col):
                row.append(" " * (w - len(str(col[lo - first]))) + "%d")
                filled.append(col[lo - first : hi - first])
            else:
                row.append(" " * w)
        cells = [0] * (len(filled) * (hi - lo))
        for j, col in enumerate(filled):
            cells[j :: len(filled)] = col
        lines.append("\n".join([" | ".join(row).rstrip()] * (hi - lo)) % tuple(cells))
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
    for label, side in _sides(branch, ts):
        diffs = _diffs(q, side)
        values = list(accumulate(diffs, sub, initial=q.value_at(side.start)))
        # a line per value, a diff line between two, each padded by its template
        templates = [""] * (2 * len(side) - 1)
        for col, turn, parity in (values, _turn(q, side), 0), (diffs, 0, 1):
            for lo, hi, n in _runs(col, turn):
                template = "  " + " " * (width - n) + "%d"
                templates[2 * lo + parity : 2 * hi + parity : 2] = [template] * (hi - lo)
        # a hit at the head shows on both sides
        for h in hits:
            if h.t in side:
                i = 2 * side.index(h.t)
                templates[i] = "*" + templates[i][1:]
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
