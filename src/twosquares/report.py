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

import csv
import io
from itertools import chain, pairwise

from .certify import Certificate
from .classify import Eligibility
from .scan import ScanBranch, ScanHit


def _sides(branch: ScanBranch, ts: range) -> tuple[int, range, range]:
    """(t0, near, far) of a nonempty range ts: the head t, and each
    side's t going outward from it.

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
    plus = range(t0 + 1, ts.stop)
    minus = range(t0 - 1, ts.start - 1, -1)
    return (t0, minus, plus) if q.beta > 0 else (t0, plus, minus)


def _side_labels(branch: ScanBranch) -> tuple[str, str]:
    """The near and far sides' column labels."""
    g, b = branch.quadratic.gamma, branch.quadratic.beta
    if b == 0:
        return f"{g}c^2", f"{g}c^2"
    return f"{g}c^2-{abs(b)}c", f"{g}c^2+{abs(b)}c"


def render_difference_table(branch: ScanBranch, ts: range) -> str:
    """Fixed-width table of per-step subtrahends and their differences,
    near side then far side, one row per distance c from the start.

    ts is the range of t that scan_branch covered."""
    title = branch.describe()
    if not ts:
        return title + "\n  (no rows)\n"
    q = branch.quadratic
    t0, near, far = _sides(branch, ts)
    depth = max(len(near), len(far))
    # one list of cells per column, header first; a short side pads with ""
    columns = [["c", *map(str, range(depth + 1))]]
    for label, side in zip(_side_labels(branch), (near, far)):
        values = list(map(q.value_at, chain((t0,), side)))
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
    t0, near, far = _sides(branch, ts)
    hit_ts = {h.t for h in hits}
    # every value on ts is >= 0, so the largest is the widest
    width = len(str(max(map(q.value_at, ts))))

    def value_line(t: int, value: int) -> str:
        return ("* " if t in hit_ts else "  ") + str(value).rjust(width)

    lines = [title]
    for label, side in zip(_side_labels(branch), (near, far)):
        prev = q.value_at(t0)
        lines += [f"side {label}:", value_line(t0, prev)]
        for t in side:
            value = q.value_at(t)
            lines += ["  " + str(prev - value).rjust(width), value_line(t, value)]
            prev = value
    return "\n".join(lines) + "\n"


def render_tree(elig: Eligibility, walk: tuple) -> str:
    """N's scan tables, drawn from its scan_tree walk (root, leaves, reps)."""
    n = elig.n
    root, leaves, reps = walk
    if root is None:
        return f"n = {n} is not eligible ({elig.status.value}); nothing to scan\n"
    blocks = [f"n = {n}, substitution x = 25 t + {elig.roots_mod25[0]}", root.describe(), ""]
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
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["n", "verdict", "rep_count", "factor1", "factor2"])
    for cert in sorted(certs, key=lambda c: c.n):
        f1, f2 = cert.factors if cert.factors else ("", "")
        writer.writerow([cert.n, cert.verdict.value, len(cert.representations), f1, f2])
    return buf.getvalue()
