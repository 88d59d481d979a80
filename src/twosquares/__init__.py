"""twosquares: primality certificates for N = 1 (mod 4) ending in 1 or 9,
via exhaustive two-square representation search with factor recovery."""

from .certify import (
    Verdict,
    certificate_from_json,
    certificate_to_json,
    decide,
    verify,
)
from .classify import classify
from .factorize import gcd_fraction_factor, klmn_factor, klmn_factor_mixed
from .represent import oracle_representations, representations
from .report import render_difference_table, render_scan_table, sweep_csv
from .scan import expand_branches, initial_quadratic, recover_xy, scan_branch

__version__ = "0.1.0"

__all__ = [
    "Verdict",
    "certificate_from_json",
    "certificate_to_json",
    "classify",
    "decide",
    "expand_branches",
    "gcd_fraction_factor",
    "initial_quadratic",
    "klmn_factor",
    "klmn_factor_mixed",
    "oracle_representations",
    "recover_xy",
    "render_difference_table",
    "render_scan_table",
    "representations",
    "scan_branch",
    "sweep_csv",
    "verify",
]
