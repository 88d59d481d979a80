"""twosquares: primality certificates for N = 1 (mod 4) ending in 1 or 9,
via exhaustive two-square representation search with factor recovery.
The package exports the certificate API; the engine's functions are
imported from their modules (scan, represent, report)."""

from .certify import Verdict, certificate_from_json, certificate_to_json, decide, verify
from .classify import classify
from .factorize import gcd_fraction_factor, klmn_factor, klmn_factor_mixed

__version__ = "0.1.0"

__all__ = [
    "Verdict",
    "certificate_from_json",
    "certificate_to_json",
    "classify",
    "decide",
    "gcd_fraction_factor",
    "klmn_factor",
    "klmn_factor_mixed",
    "verify",
]
