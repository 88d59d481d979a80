"""Verdicts with self-contained evidence, and their independent check.

certificate_for() is the table of verdicts: it turns N's complete
representation list into the one certificate that list implies.
decide() feeds it the scan engine's list; verify() feeds it the list
that N's factorization implies (route.py: Miller-Rabin, Pollard-Brent
rho and Hermite-Serret) and accepts only the same certificate, then
re-checks primality by Miller-Rabin, the factor product and the
witness identities without the scan engine, so a verifier needs none
of the machinery that produced the certificate.  Each entry point
imports its engine when it first runs, decide() the scan and verify()
the route, so importing this module loads neither, and a verifier
never loads the scan.

Certificates serialize to JSON with integers as decimal strings (no
consumer precision loss) and a fixed key order, so a document
round-trips byte-identically.  canonical_lines() spells that one
encoding directly, in the bytes of json's two-space indent; it builds
no encoder, so each certificate it writes leaves nothing in reference
cycles for the garbage collector.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from math import gcd

from .arith import Representation, parse_decimal
from .classify import Eligibility, classify
from .factorize import TwoRepWitness, factor_with_witness, witness_violation

METHOD_VERSION = "1.0"

NO_REPRESENTATION_NOTE = (
    "no two-square representation exists; a number of this form with none "
    "is composite with at least two prime factors congruent to 3 mod 4, "
    "which this method cannot exhibit"
)


class CertificateError(ValueError):
    """Malformed certificate document."""


class Verdict(Enum):
    PRIME = "prime"
    COMPOSITE_WITH_FACTORS = "composite_with_factors"
    COMPOSITE_NO_REPRESENTATION = "composite_no_representation"
    INELIGIBLE = "ineligible"


@dataclass(frozen=True)
class Certificate:
    n: int
    verdict: Verdict
    representations: tuple[Representation, ...]
    factors: tuple[int, int] | None
    witness: TwoRepWitness | None
    notes: str
    method_version: str = METHOD_VERSION


def certificate_for(elig: Eligibility, reps: list[Representation]) -> Certificate:
    """The one certificate that N's eligibility and its complete
    representation list (sorted by descending a; empty when N is
    ineligible) imply: the table of verdicts."""
    n = elig.n
    reps = tuple(reps)
    factors = witness = None
    if not elig.is_eligible:
        verdict, notes = Verdict.INELIGIBLE, f"not in scope: {elig.status.value}"
    elif not reps:
        verdict, notes = Verdict.COMPOSITE_NO_REPRESENTATION, NO_REPRESENTATION_NOTE
    elif len(reps) > 1:
        witness = factor_with_witness(n, list(reps))
        verdict, factors = Verdict.COMPOSITE_WITH_FACTORS, (witness.f1, witness.f2)
        notes = "factors recovered from two distinct representations"
    elif reps[0].coprime and reps[0].b >= 1:
        verdict, notes = Verdict.PRIME, "unique coprime two-square representation"
    else:
        # unique but non-coprime: the shared divisor's square splits n
        g = gcd(reps[0].a, reps[0].b)
        factors = (g, g) if g * g == n else tuple(sorted((g * g, n // (g * g))))
        verdict = Verdict.COMPOSITE_WITH_FACTORS
        notes = f"unique representation with common divisor {g}"
    return Certificate(n, verdict, reps, factors, witness, notes)


def decide(n: int) -> Certificate:
    """Certificate for any n >= 0 (ineligible n gets an Ineligible one)."""
    from .represent import representations

    elig = classify(n)
    return certificate_for(elig, representations(n) if elig.is_eligible else [])


# ---------------------------------------------------------------------------
# independent verification
# ---------------------------------------------------------------------------

def verify(cert: Certificate) -> bool:
    """Rebuild the certificate from the representation list that N's
    factorization implies and accept only an exact match; then re-check
    the primality by Miller-Rabin, the factor product, and the witness
    with witness_violation, the check factor recovery ends with.  Never
    runs the scan engine.  False on any mismatch."""
    from .route import is_prime, route_representations

    try:
        n = cert.n
        elig = classify(n)
        reps = route_representations(n) if elig.is_eligible else []
        if cert != certificate_for(elig, reps):
            return False
        if cert.verdict is Verdict.PRIME and not is_prime(n):
            return False
        if cert.factors is not None:
            f1, f2 = cert.factors
            if not (1 < f1 <= f2 < n and f1 * f2 == n):
                return False
        return cert.witness is None or witness_violation(n, cert.witness) is None
    except (ValueError, OverflowError, TypeError):
        return False


# ---------------------------------------------------------------------------
# serialization (integers as decimal strings, fixed key order)
# ---------------------------------------------------------------------------

#: the witness's integer fields, in document order after rep1 and rep2
_WITNESS_INTEGERS = ("a", "b", "c", "d", "u", "v", "k", "l", "m", "n", "f1", "f2")


def _rep_object(rep: Representation) -> str:
    """A representation as an object from its "{", at the depth where
    the certificate lists one: in representations or in the witness."""
    coprime = "true" if rep.coprime else "false"
    return f'{{\n      "a": "{rep.a}",\n      "b": "{rep.b}",\n      "coprime": {coprime}\n    }}'


def canonical_lines(cert: Certificate) -> Iterator[str]:
    """The certificate's one encoding, in pieces of whole lines: the
    bytes json.dumps(doc, indent=2) gives for its document, every
    integer a decimal string, and a final newline.

    Only notes and method_version, which a parsed certificate may carry
    as any string, go through json's string encoder; the rest is spelled
    here, so no encoder and none of its reference cycles are built.
    """
    yield f'{{\n  "n": "{cert.n}",\n  "verdict": "{cert.verdict.value}",\n'
    if cert.representations:
        reps = ",\n    ".join(_rep_object(r) for r in cert.representations)
        yield f'  "representations": [\n    {reps}\n  ],\n'
    else:
        yield '  "representations": [],\n'
    if cert.factors:
        factors = ",\n".join(f'    "{f}"' for f in cert.factors)
        yield f'  "factors": [\n{factors}\n  ],\n'
    else:
        yield '  "factors": null,\n'
    if w := cert.witness:
        fields = "".join(f',\n    "{f}": "{getattr(w, f)}"' for f in _WITNESS_INTEGERS)
        rep1, rep2 = _rep_object(w.rep1), _rep_object(w.rep2)
        yield f'  "witness": {{\n    "rep1": {rep1},\n    "rep2": {rep2}{fields}\n  }},\n'
    else:
        yield '  "witness": null,\n'
    yield f'  "notes": {json.dumps(cert.notes)},\n'
    yield f'  "method_version": {json.dumps(cert.method_version)}\n}}\n'


def certificate_to_json(cert: Certificate) -> str:
    return "".join(canonical_lines(cert))


def _parse_int(value, what: str) -> int:
    if not isinstance(value, str):
        raise CertificateError(f"{what} must be a decimal string")
    number = parse_decimal(value)
    if number is None:
        raise CertificateError(f"{what} is not a plain decimal integer: {value!r}")
    return number


def _rep_from_json(doc, what: str) -> Representation:
    if not isinstance(doc, dict) or set(doc) != {"a", "b", "coprime"}:
        raise CertificateError(f"{what} must have fields a, b, coprime")
    if not isinstance(doc["coprime"], bool):
        raise CertificateError(f"{what}.coprime must be a boolean")
    return Representation(
        a=_parse_int(doc["a"], f"{what}.a"),
        b=_parse_int(doc["b"], f"{what}.b"),
        coprime=doc["coprime"],
    )


def _witness_from_json(doc) -> TwoRepWitness:
    if not isinstance(doc, dict) or set(doc) != {"rep1", "rep2", *_WITNESS_INTEGERS}:
        raise CertificateError("witness has wrong fields")
    return TwoRepWitness(
        rep1=_rep_from_json(doc["rep1"], "witness.rep1"),
        rep2=_rep_from_json(doc["rep2"], "witness.rep2"),
        **{f: _parse_int(doc[f], f"witness.{f}") for f in _WITNESS_INTEGERS},
    )


def certificate_from_json(text: str) -> Certificate:
    """Parse a certificate document; CertificateError on malformed input."""
    try:
        # ValueError covers JSONDecodeError and an int past int()'s digit limit
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CertificateError(f"not valid JSON: {exc}") from exc
    expected = {"n", "verdict", "representations", "factors", "witness", "notes",
                "method_version"}
    if not isinstance(doc, dict) or set(doc) != expected:
        raise CertificateError(f"certificate must have exactly the fields {sorted(expected)}")
    try:
        verdict = Verdict(doc["verdict"])
    except ValueError as exc:
        raise CertificateError(f"unknown verdict {doc['verdict']!r}") from exc
    if not isinstance(doc["representations"], list):
        raise CertificateError("representations must be a list")
    reps = tuple(
        _rep_from_json(r, f"representations[{i}]")
        for i, r in enumerate(doc["representations"])
    )
    factors = None
    if doc["factors"] is not None:
        if not isinstance(doc["factors"], list) or len(doc["factors"]) != 2:
            raise CertificateError("factors must be null or a pair")
        factors = (
            _parse_int(doc["factors"][0], "factors[0]"),
            _parse_int(doc["factors"][1], "factors[1]"),
        )
    witness = _witness_from_json(doc["witness"]) if doc["witness"] is not None else None
    if not isinstance(doc["notes"], str) or not isinstance(doc["method_version"], str):
        raise CertificateError("notes and method_version must be strings")
    return Certificate(
        n=_parse_int(doc["n"], "n"),
        verdict=verdict,
        representations=reps,
        factors=factors,
        witness=witness,
        notes=doc["notes"],
        method_version=doc["method_version"],
    )
