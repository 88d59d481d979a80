"""Text renderings of scan tables and the sweep CSV.

Two table styles: the subtrahend/difference table (what gets
subtracted for each step away from the start, with first differences
growing by 2*gamma), and the running-subtraction table (the successive
branch values themselves, squares marked with '*').  Both are a view
over a scan: they take the range of t that scan_branch covered and
evaluate the branch quadratic there.

The side whose subtrahends grow more slowly (linear term working
against the quadratic) is rendered first, matching the hand layout.
All output is plain decimal, LF line endings, locale-independent.
"""

from __future__ import annotations

import csv
import io

from .certify import Certificate
from .scan import ScanBranch, ScanHit


def _split_sides(
    branch: ScanBranch, ts: range
) -> tuple[tuple[int, int, None], list[tuple[int, int, int]], list[tuple[int, int, int]]]:
    """(head row, near side, far side) of a nonempty range ts.

    A row is (t, Q(t), first difference into it); the head row has no
    difference, and each side lists its rows outward from the head.
    The head is t = 0 when Q(0) >= 0 (matching the hand tables), else
    the integer nearest the vertex -beta/(2*gamma) with the larger
    value.  The near side is the direction where the linear term works
    against the quadratic, so subtrahends grow more slowly (negative t
    when beta > 0, positive t otherwise).
    """
    q = branch.quadratic
    t0 = 0
    if 0 not in ts:
        lo = -q.beta // (2 * q.gamma)
        t0 = max((lo, lo + 1), key=q.value_at)
    head = (t0, q.value_at(t0), None)

    def side(outward: range) -> list[tuple[int, int, int]]:
        rows, prev = [], head[1]
        for t in outward:
            value = q.value_at(t)
            rows.append((t, value, prev - value))
            prev = value
        return rows

    plus = side(range(t0 + 1, ts.stop))
    minus = side(range(t0 - 1, ts.start - 1, -1))
    if q.beta > 0:
        return head, minus, plus
    return head, plus, minus


def _side_label(branch: ScanBranch, near: bool) -> str:
    g, b = branch.quadratic.gamma, branch.quadratic.beta
    if b == 0:
        return f"{g}c^2"
    sign = "-" if near else "+"
    return f"{g}c^2{sign}{abs(b)}c"


def render_difference_table(branch: ScanBranch, ts: range) -> str:
    """Fixed-width table of per-step subtrahends and their differences,
    near side then far side, one row per distance c from the start.

    ts is the range of t that scan_branch covered."""
    title = branch.describe()
    if not ts:
        return title + "\n  (no rows)\n"
    m = branch.quadratic.m
    head, near, far = _split_sides(branch, ts)
    labels = (_side_label(branch, True), _side_label(branch, False))
    sides = (near, far)

    depth = max(len(near), len(far))
    cwidth = len(str(depth))
    swidths = []
    dwidths = []
    for label, side in zip(labels, sides):
        swidths.append(max(len(label), *(len(str(m - v)) for _, v, _ in [head] + side)))
        dwidths.append(max([4] + [len(str(d)) for _, _, d in side]))

    def cell(text: str, width: int) -> str:
        return text.rjust(width)

    lines = [title]
    header = cell("c", cwidth)
    for label, sw, dw in zip(labels, swidths, dwidths):
        header += " | " + cell(label, sw) + " | " + cell("diff", dw)
    lines.append(header)
    for i in range(depth + 1):
        line = cell(str(i), cwidth)
        for side, sw, dw in zip(sides, swidths, dwidths):
            if i == 0:
                sub, diff = str(m - head[1]), ""
            elif i <= len(side):
                _, value, d = side[i - 1]
                sub, diff = str(m - value), str(d)
            else:
                sub, diff = "", ""
            line += " | " + cell(sub, sw) + " | " + cell(diff, dw)
        lines.append(line.rstrip())
    return "\n".join(lines) + "\n"


def render_scan_table(branch: ScanBranch, ts: range, hits: list[ScanHit]) -> str:
    """Running-subtraction columns: the branch values with the first
    differences between them, squares marked with '*'.

    ts and hits are what scan_branch returned."""
    title = branch.describe()
    if not ts:
        return title + "\n  (no rows)\n"
    head, near, far = _split_sides(branch, ts)
    hit_ts = {h.t for h in hits}
    width = max(len(str(v)) for _, v, _ in [head] + near + far)

    def value_line(t: int, value: int) -> str:
        mark = "* " if t in hit_ts else "  "
        return mark + str(value).rjust(width)

    lines = [title]
    for label, side in zip(
        (_side_label(branch, True), _side_label(branch, False)), (near, far)
    ):
        lines.append(f"side {label}:")
        lines.append(value_line(head[0], head[1]))
        for t, value, diff in side:
            lines.append("  " + str(diff).rjust(width))
            lines.append(value_line(t, value))
    return "\n".join(lines) + "\n"


def sweep_csv(certs: list[Certificate]) -> str:
    """One CSV row per certificate: n, verdict, representation count and
    the factor pair (blank when absent).  Rows sorted by n."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "verdict", "rep_count", "factor1", "factor2"])
    for cert in sorted(certs, key=lambda c: c.n):
        f1, f2 = cert.factors if cert.factors else ("", "")
        writer.writerow([cert.n, cert.verdict.value, len(cert.representations), f1, f2])
    return buf.getvalue()
