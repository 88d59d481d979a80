"""Text renderings of the scan tree and the sweep CSV.

This module lays out every table line.  render_tree draws a whole
scan_tree walk; each scanned leaf gets a subtrahend/difference table
(what gets subtracted for each step away from the start, first
differences growing by 2*gamma) and a running-subtraction table (the
successive branch values, squares marked with '*').  Both tables are a
view over the range of t that scan_branch covered.

The side whose subtrahends grow more slowly (linear term working
against the quadratic) is rendered first, matching the hand layout.
All output is plain decimal, LF line endings, locale-independent.
"""

from __future__ import annotations

from itertools import pairwise

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


def render_difference_table(branch: ScanBranch, ts: range) -> str:
    """Fixed-width table of per-step subtrahends and their differences,
    near side then far side, one row per distance c from the start.

    ts is the range of t that scan_branch covered."""
    title = branch.describe()
    if not ts:
        return title + "\n  (no rows)\n"
    q = branch.quadratic
    sides = _sides(branch, ts)
    depth = max(len(side) for _, side in sides)
    # one list of cells per column, header first; a short side pads with ""
    columns = [["c", *map(str, range(depth))]]
    for label, side in sides:
        values = list(map(q.value_at, side))
        pad = [""] * (depth - len(side))
        columns.append([label, *(str(q.m - v) for v in values), *pad])
        columns.append(["diff", "", *(str(a - b) for a, b in pairwise(values)), *pad])
    widths = [max(map(len, column)) for column in columns]
    rows = (" | ".join(map(str.rjust, row, widths)).rstrip() for row in zip(*columns))
    return "\n".join([title, *rows]) + "\n"


def render_scan_table(branch: ScanBranch, ts: range, hits: list[ScanHit]) -> str:
    """Running-subtraction columns: the branch values with the first
    differences between them, squares marked with '*'.

    ts and hits are what scan_branch returned."""
    title = branch.describe()
    if not ts:
        return title + "\n  (no rows)\n"
    q = branch.quadratic
    hit_ts = {h.t for h in hits}
    # ts is exactly where Q >= 0, so it holds the vertex, the widest value
    width = len(str(q.value_at(_vertex(q))))
    lines = [title]
    for label, side in _sides(branch, ts):
        lines.append(f"side {label}:")
        prev = None
        for t in side:
            value = q.value_at(t)
            if prev is not None:
                lines.append("  " + str(prev - value).rjust(width))
            lines.append(("* " if t in hit_ts else "  ") + str(value).rjust(width))
            prev = value
    return "\n".join(lines) + "\n"


def render_tree(elig: Eligibility, walk: tuple) -> str:
    """N's scan tables, drawn from its scan_tree walk (root, leaves, reps)."""
    n = elig.n
    root, leaves, reps = walk
    if root is None:
        return f"n = {n} is not eligible ({elig.status.value}); nothing to scan\n"
    blocks = [f"n = {n}, substitution x = {root.scale} t + {root.offset}", root.describe(), ""]
    for leaf, scanned in leaves:
        if scanned is None:
            blocks.append(leaf.describe())
        else:
            hits, ts = scanned
            blocks.append(render_difference_table(leaf, ts).rstrip("\n"))
            blocks.append("")
            blocks.append(render_scan_table(leaf, ts, hits).rstrip("\n"))
            blocks.extend(f"hit: t = {h.t}, value = {h.value} = {h.root}^2" for h in hits)
        blocks.append("")
    listed = ", ".join(f"({r.a}, {r.b})" for r in reps) or "none"
    blocks.append(f"representations: {listed}")
    return "\n".join(blocks) + "\n"


def sweep_csv(certs: list[Certificate]) -> str:
    """One CSV row per certificate: n, verdict, representation count and
    the factor pair (blank when absent).  Rows sorted by n."""
    lines = ["n,verdict,rep_count,factor1,factor2\n"]
    for cert in sorted(certs, key=lambda c: c.n):
        f1, f2 = cert.factors or ("", "")
        lines.append(f"{cert.n},{cert.verdict.value},{len(cert.representations)},{f1},{f2}\n")
    return "".join(lines)
