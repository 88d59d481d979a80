"""Slow references that the fast paths of twosquares are checked against."""

from __future__ import annotations

from twosquares import decide, sweep_csv
from twosquares.classify import eligible_range


def per_n_sweep(lo: int, hi: int) -> str:
    """The sweep CSV of [lo, hi] by one decide per eligible N, the path
    `twosquares sweep` takes for windows too narrow for its window pass."""
    return sweep_csv([decide(n) for n in eligible_range(lo, hi)])
