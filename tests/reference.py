"""Slow references that the fast paths of twosquares are checked against."""

from __future__ import annotations

import json
import math
from itertools import pairwise
from math import isqrt

from twosquares import decide
from twosquares.arith import check_magnitude
from twosquares.certify import Certificate
from twosquares.classify import MIN_ELIGIBLE, eligible_range
from twosquares.report import _sides, _vertex, sweep_csv
from twosquares.represent import Representation
from twosquares.scan import Quadratic, ScanBranch, ScanHit

SQUARES_MOD_8 = {0, 1, 4}


def indented_certificate_json(cert: Certificate) -> str:
    """Reference for certificate_to_json: the certificate's document,
    integers as decimal strings in a fixed key order, through json's
    indenting encoder, the encoder certificate_to_json replaced."""

    def rep(r):
        return {"a": str(r.a), "b": str(r.b), "coprime": r.coprime}

    w = cert.witness
    integers = ("a", "b", "c", "d", "u", "v", "k", "l", "m", "n", "f1", "f2")
    doc = {
        "n": str(cert.n),
        "verdict": cert.verdict.value,
        "representations": [rep(r) for r in cert.representations],
        "factors": [str(f) for f in cert.factors] if cert.factors else None,
        "witness": (
            {"rep1": rep(w.rep1), "rep2": rep(w.rep2)}
            | {f: str(getattr(w, f)) for f in integers}
            if w
            else None
        ),
        "notes": cert.notes,
        "method_version": cert.method_version,
    }
    return json.dumps(doc, indent=2) + "\n"


def per_n_sweep(lo: int, hi: int) -> str:
    """The sweep CSV of [lo, hi] by one decide per eligible N, the path
    `twosquares sweep` takes for windows too narrow for its window pass."""
    return sweep_csv([decide(n) for n in eligible_range(lo, hi)])


def annulus_window_representations(lo: int, hi: int) -> dict[int, list[Representation]]:
    """representations(n) of every eligible n in [lo, hi] with one, by one
    pass over the annulus lo <= a^2 + b^2 <= hi, a >= b >= 0: b rises, so
    each list comes out sorted by descending a.  The window pass that
    window_representations replaced: about sqrt(hi/2) b-steps."""
    check_magnitude(hi)
    lo = max(lo, MIN_ELIGIBLE)
    found: dict[int, list[Representation]] = {}
    for b in range(isqrt(hi // 2) + 1):
        a = max(b, isqrt(lo - b * b - 1) + 1 if lo > b * b else 0)
        while (n := a * a + b * b) <= hi:
            if n % 20 in (1, 9):
                found.setdefault(n, []).append(Representation.of(a, b))
            a += 1
    return found


def reference_scan(branch):
    """Reference for scan_branch: the per-row difference-table walk over
    every t with Q(t) >= 0, one subtraction per row, mod-8 prefilter,
    then isqrt.  Returns ([(t, value, root)] by t, ts)."""
    q = branch.quadratic
    disc = q.beta * q.beta + 4 * q.gamma * q.m
    if disc < 0:
        return [], range(0)
    r = math.isqrt(disc)
    ts = range(-((r + q.beta) // (2 * q.gamma)), (r - q.beta) // (2 * q.gamma) + 1)
    hits = []
    value = q.value_at(ts.start)
    diff = q.beta + q.gamma * (2 * ts.start + 1)
    for t in ts:
        if value & 7 in SQUARES_MOD_8:
            root = math.isqrt(value)
            if root * root == value:
                hits.append((t, value, root))
        value -= diff
        diff += 2 * q.gamma
    return hits, ts


def sieve_survivors(q: Quadratic, ts: range, moduli: tuple[int, ...]) -> list[int]:
    """Reference for scan._sieve: the t of ts, in order, at which q(t) is
    a square mod every one of moduli, by evaluating q(t) at each t."""
    squares = {p: {j * j % p for j in range(p)} for p in moduli}
    survivors = []
    for t in ts:
        value = q.value_at(t)
        if all(value % p in squares[p] for p in moduli):
            survivors.append(t)
    return survivors


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
