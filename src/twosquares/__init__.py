"""twosquares: primality certificates for N = 1 (mod 4) ending in 1 or 9,
via exhaustive two-square representation search with factor recovery."""

from .arith import MAX_MAGNITUDE, gcd, is_perfect_square, isqrt, reduce_fraction
from .certify import (
    Certificate,
    CertificateError,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    decide,
    verify,
)
from .classify import Eligibility, EligibilityStatus, classify, mod25_sqrt
from .factorize import (
    TwoRepWitness,
    factor,
    gcd_fraction_factor,
    klmn_factor,
    klmn_factor_mixed,
)
from .represent import Representation, oracle_representations, representations
from .report import render_difference_table, render_scan_table, sweep_csv
from .scan import (
    PruneReason,
    Quadratic,
    ScanBranch,
    ScanHit,
    SubstitutionChain,
    expand_branches,
    initial_quadratic,
    recover_xy,
    refine,
    scan_branch,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_MAGNITUDE",
    "Certificate",
    "CertificateError",
    "Eligibility",
    "EligibilityStatus",
    "PruneReason",
    "Quadratic",
    "Representation",
    "ScanBranch",
    "ScanHit",
    "SubstitutionChain",
    "TwoRepWitness",
    "Verdict",
    "certificate_from_json",
    "certificate_to_json",
    "classify",
    "decide",
    "expand_branches",
    "factor",
    "gcd",
    "gcd_fraction_factor",
    "initial_quadratic",
    "is_perfect_square",
    "isqrt",
    "klmn_factor",
    "klmn_factor_mixed",
    "mod25_sqrt",
    "oracle_representations",
    "recover_xy",
    "reduce_fraction",
    "refine",
    "render_difference_table",
    "render_scan_table",
    "representations",
    "scan_branch",
    "sweep_csv",
    "verify",
]
