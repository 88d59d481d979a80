import gc
import json
import random
from dataclasses import replace

import pytest
from reference import indented_certificate_json

from twosquares import certify, represent
from twosquares.certify import (
    Certificate,
    _WITNESS_INTEGERS,
    CertificateError,
    Verdict,
    certificate_from_json,
    certificate_to_json,
    decide,
    verify,
)
from twosquares.classify import classify
from twosquares.factorize import witness_violation
from twosquares.represent import Representation


def test_decide_worked_composite():
    cert = decide(1000009)
    assert cert.verdict is Verdict.COMPOSITE_WITH_FACTORS
    assert cert.factors == (293, 3413)
    assert [(r.a, r.b) for r in cert.representations] == [(1000, 3), (972, 235)]
    assert cert.witness is not None
    assert verify(cert)


def test_decide_worked_prime():
    cert = decide(1000081)
    assert cert.verdict is Verdict.PRIME
    assert [(r.a, r.b) for r in cert.representations] == [(1000, 9)]
    assert cert.factors is None
    assert verify(cert)


def test_decide_no_representation():
    cert = decide(21)
    assert cert.verdict is Verdict.COMPOSITE_NO_REPRESENTATION
    assert cert.representations == ()
    assert "3 mod 4" in cert.notes
    assert verify(cert)
    # the recorded claim holds on this instance: 21 = 3 * 7, both 3 mod 4
    assert 3 * 7 == 21 and 3 % 4 == 3 and 7 % 4 == 3


def test_decide_noncoprime_unique():
    cert = decide(81)
    assert cert.verdict is Verdict.COMPOSITE_WITH_FACTORS
    assert cert.factors == (9, 9)
    assert verify(cert)
    cert261 = decide(261)  # 261 = 9 * 29, unique rep (15, 6) with gcd 3
    assert cert261.verdict is Verdict.COMPOSITE_WITH_FACTORS
    assert cert261.factors == (9, 29)
    assert verify(cert261)


def test_decide_small_prime():
    cert = decide(29)
    assert cert.verdict is Verdict.PRIME
    assert verify(cert)


def test_decide_ineligible():
    for n in (10, 0, 39, 55):
        cert = decide(n)
        assert cert.verdict is Verdict.INELIGIBLE
        assert verify(cert)


def test_verify_rejects_wrong_factors():
    cert = decide(1000081)
    bad = Certificate(
        n=cert.n,
        verdict=Verdict.COMPOSITE_WITH_FACTORS,
        representations=cert.representations,
        factors=(3, 333360),
        witness=None,
        notes=cert.notes,
    )
    assert not verify(bad)


def test_verify_rejects_verdict_flip():
    cert = decide(1000009)
    flipped = Certificate(
        n=cert.n,
        verdict=Verdict.PRIME,
        representations=cert.representations,
        factors=None,
        witness=None,
        notes=cert.notes,
    )
    assert not verify(flipped)


def test_verify_rejects_coprime_flag_tamper():
    cert = decide(1000081)
    rep = cert.representations[0]
    tampered = Certificate(
        n=cert.n,
        verdict=cert.verdict,
        representations=(Representation(rep.a, rep.b, not rep.coprime),),
        factors=None,
        witness=None,
        notes=cert.notes,
    )
    assert not verify(tampered)


def document(n: int, **fields) -> str:
    """decide(n) as a JSON document, with the given fields replaced."""
    doc = json.loads(certificate_to_json(decide(n)))
    doc.update(fields)
    return json.dumps(doc)


def foreign_witness() -> dict:
    return json.loads(certificate_to_json(decide(1000009)))["witness"]


# True claims in documents decide never emits: each parses, and only an
# exact match with the certificate the oracle's list implies verifies.
NON_CANONICAL = {
    "prime_with_foreign_witness": lambda: document(1000081, witness=foreign_witness()),
    "no_rep_with_foreign_witness": lambda: document(21, witness=foreign_witness()),
    "ineligible_with_foreign_witness": lambda: document(10, witness=foreign_witness()),
    "prime_other_method_version": lambda: document(1000081, method_version="9.9"),
    "composite_other_method_version": lambda: document(1000009, method_version="9.9"),
    "ineligible_with_rep_and_factors": lambda: document(
        10, representations=[{"a": "3", "b": "1", "coprime": True}], factors=["2", "5"]
    ),
    "witness_stripped": lambda: document(1000009, witness=None),
    "no_rep_marked_with_factors": lambda: document(
        21, verdict="composite_with_factors", factors=["3", "7"]
    ),
    "other_split_of_unique_rep": lambda: document(261, factors=["3", "87"]),
}


@pytest.mark.parametrize("name", sorted(NON_CANONICAL))
def test_verify_accepts_only_the_oracle_certificate(name):
    assert not verify(certificate_from_json(NON_CANONICAL[name]()))


def test_verify_never_runs_the_scan_engine(monkeypatch):
    certs = [decide(n) for n in range(2001)]

    def scan_engine_called(*args, **kwargs):
        raise AssertionError("verify ran the scan engine")

    for module, name in [
        (represent, "representations"),
        (represent, "scan_tree"),
        (represent, "scan_branch"),
        (represent, "expand_branches"),
        (represent, "initial_quadratic"),
    ]:
        monkeypatch.setattr(module, name, scan_engine_called)
    with pytest.raises(AssertionError):
        decide(1000009)
    for cert in certs:
        assert verify(cert), cert.n


# verify's checks after the exact match: each forgery below is handed to
# verify as the certificate the oracle's list implies, so the match
# passes and only the later checks can reject it.

def verify_past_the_match(monkeypatch, forged: Certificate) -> bool:
    monkeypatch.setattr(certify, "certificate_for", lambda elig, reps: forged)
    return verify(forged)


def witness_forgeries():
    w = decide(1000009).witness
    for field in _WITNESS_INTEGERS:
        yield field, replace(w, **{field: getattr(w, field) + 1})
    for field in ("rep1", "rep2"):
        rep = getattr(w, field)
        yield field, replace(w, **{field: Representation(rep.a + 1, rep.b, rep.coprime)})


EXPECTED_VIOLATION = {
    **dict.fromkeys(("a", "b", "c", "d", "rep1", "rep2"), "{a, b}, {c, d} = the members of rep1, rep2"),
    "u": "u = |a - c|, v = |d - b|",
    "v": "u = |a - c|, v = |d - b|",
    "k": "k = gcd(u, v) > 0",
    "l": "u = k*l, v = k*m",
    "m": "u = k*l, v = k*m",
    "n": "a + c = m*n, d + b = l*n",
    "f1": "f1 * f2 = N with 1 < f1 <= f2 < N",
    "f2": "f1 * f2 = N with 1 < f1 <= f2 < N",
}


def test_verify_past_the_match_accepts_the_genuine_certificate(monkeypatch):
    for n in (1000009, 1000081, 261):
        assert verify_past_the_match(monkeypatch, decide(n))


def test_verify_rechecks_every_witness_field(monkeypatch):
    cert = decide(1000009)
    forgeries = dict(witness_forgeries())
    assert set(forgeries) == set(EXPECTED_VIOLATION)
    for field, forged in forgeries.items():
        assert witness_violation(1000009, forged) == EXPECTED_VIOLATION[field], field
        assert not verify_past_the_match(monkeypatch, replace(cert, witness=forged)), field


def test_verify_rechecks_the_witness_represents_n(monkeypatch):
    # 1000009's witness on 1105 = 5 * 13 * 17, with 1105's own factors
    forged = replace(decide(1105), witness=decide(1000009).witness)
    assert witness_violation(1105, forged.witness) == "a^2 + b^2 = c^2 + d^2 = N"
    assert not verify_past_the_match(monkeypatch, forged)


def test_verify_rechecks_primality_by_miller_rabin(monkeypatch):
    forged = replace(decide(1000009), verdict=Verdict.PRIME, factors=None, witness=None)
    assert not verify_past_the_match(monkeypatch, forged)


def test_verify_rechecks_the_factor_range(monkeypatch):
    forged = replace(
        decide(1000081), verdict=Verdict.COMPOSITE_WITH_FACTORS, factors=(1, 1000081)
    )
    assert forged.witness is None
    assert not verify_past_the_match(monkeypatch, forged)


# verify factors N from the split a certificate names, so it checks the
# split first; these are rejected with certificate_for itself in place

def test_verify_rejects_a_split_whose_product_is_not_n():
    # 45 = 6^2 + 3^2 = 5 * 9: the certificate 49 would get if 6^2 + 3^2
    # represented it names the split of 45, and factoring 5 and 9 rebuilds
    # that same certificate, so only the product check rejects it
    forged = certify.certificate_for(classify(49), [Representation.of(6, 3)])
    assert forged.factors == (5, 9)
    assert not verify(forged)


def test_verify_rejects_a_valid_split_other_than_its_own():
    cert = decide(4901)  # 13^2 * 29
    assert cert.factors == (13, 377)
    assert not verify(replace(cert, factors=(29, 169)))


def test_verify_rejects_a_split_off_one_or_out_of_order():
    cert = decide(1000009)
    f1, f2 = cert.factors
    assert not verify(replace(cert, factors=(1, 1000009)))
    assert not verify(replace(cert, factors=(f2, f1)))


def test_verify_merges_a_split_whose_halves_share_a_prime():
    for n, split in ((81, (9, 9)), (1521, (13, 117)), (4901, (13, 377))):
        cert = decide(n)
        assert cert.factors == split
        assert verify(cert), n


def test_verify_leaves_no_cyclic_garbage():
    # a run of accepted and rejected certificates sets off no collection
    certs = [decide(n) for n in (1000009, 1000081, 21, 81, 10)]
    certs += [
        replace(certs[0], factors=(3, 5)),
        replace(certs[1], verdict=Verdict.INELIGIBLE),
        replace(certs[1], n=2**63),  # classify raises, and verify catches it
    ]
    gc.collect()
    gc.disable()
    try:
        assert [verify(cert) for cert in certs] == [True] * 5 + [False] * 3
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_serialization_roundtrip_byte_identical():
    for n in (1000009, 1000081, 21, 81, 10):
        text = certificate_to_json(decide(n))
        again = certificate_to_json(certificate_from_json(text))
        assert again == text


def test_encoding_matches_the_indenting_encoder():
    # every verdict and layout: every n < 3000, seeded N per decade up to
    # 10^12, and notes and method_version that json must escape
    rng = random.Random(34)
    seeded = (rng.randrange(10**e, 10 ** (e + 1)) for e in range(4, 12) for _ in range(20))
    ns = [*range(3000), *seeded]
    for n in ns:
        cert = decide(n)
        assert certificate_to_json(cert) == indented_certificate_json(cert), n
    strings = ['a "quoted" word', "back\\slash", "tab\tnewline\nbell\x07", "caf\u00e9 \U0001f600", ""]
    for n in (1000009, 1000081, 21, 10):
        cert = decide(n)
        for text in strings:
            for odd in (replace(cert, notes=text), replace(cert, method_version=text)):
                assert certificate_to_json(odd) == indented_certificate_json(odd), (n, text)


def test_serialization_integers_are_strings():
    doc = json.loads(certificate_to_json(decide(1000009)))
    assert doc["n"] == "1000009"
    assert doc["factors"] == ["293", "3413"]
    assert doc["representations"][0] == {"a": "1000", "b": "3", "coprime": True}
    assert doc["witness"]["k"] == "4"
    assert list(doc) == [
        "n", "verdict", "representations", "factors", "witness", "notes",
        "method_version",
    ]


def test_parse_rejects_malformed():
    with pytest.raises(CertificateError):
        certificate_from_json("not json")
    with pytest.raises(CertificateError):
        certificate_from_json("{}")
    with pytest.raises(CertificateError):
        certificate_from_json('{"n": ' + "1" * 5000 + "}")  # past int()'s digit limit
    good = certificate_to_json(decide(1000009))
    doc = json.loads(good)
    doc["extra"] = 1
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(doc))
    doc = json.loads(good)
    doc["n"] = 1000009  # bare int, must be a decimal string
    with pytest.raises(CertificateError):
        certificate_from_json(json.dumps(doc))


def respellings(text: str) -> list[str]:
    """Other spellings of the same decimal integer that int() accepts."""
    return [
        f"{text[0]}_{text[1:]}",
        " " + text,
        "+" + text,
        "0" + text,
        text + "\n",
        text.translate({ord(c): ord(c) + 0xFEE0 for c in "0123456789"}),
    ]


def test_parse_accepts_one_spelling_only():
    good = json.loads(certificate_to_json(decide(1000009)))
    assert good["n"] == "1000009"
    fields = [
        lambda d: (d, "n"),
        lambda d: (d["representations"][0], "a"),
        lambda d: (d["factors"], 1),
        lambda d: (d["witness"], "f2"),
    ]
    for field in fields:
        container, key = field(good)
        spellings = respellings(container[key])
        assert len(set(spellings)) == 6 and all(int(s) == int(container[key]) for s in spellings)
        for spelling in spellings:
            doc = json.loads(json.dumps(good))
            container, key = field(doc)
            container[key] = spelling
            with pytest.raises(CertificateError):
                certificate_from_json(json.dumps(doc))
    assert verify(certificate_from_json(json.dumps(good)))


MUTABLE_VERDICTS = [v.value for v in Verdict]


def mutate_document(doc: dict, rng: random.Random) -> dict | None:
    """Mutate one semantic field of a parsed certificate; None if the
    document offers no target."""
    doc = json.loads(json.dumps(doc))  # deep copy
    targets = []
    if doc["representations"]:
        targets.append("n")
        for i, _ in enumerate(doc["representations"]):
            targets.extend([("rep", i, "a"), ("rep", i, "b"), ("rep", i, "coprime")])
    targets.append("verdict")
    if doc["factors"]:
        targets.extend([("factor", 0), ("factor", 1)])
    elif doc["verdict"] != "ineligible":
        targets.append("spurious_factors")
    if doc["witness"]:
        for f in _WITNESS_INTEGERS:
            targets.append(("witness", f))
        targets.extend([("witness_rep", "rep1", "a"), ("witness_rep", "rep2", "b")])

    def bump(text: str) -> str:
        value = int(text)
        delta = rng.choice([-3, -2, -1, 1, 2, 3, 10, 100])
        return str(value + delta if value + delta != value else value + 1)

    t = rng.choice(targets)
    if t == "n":
        doc["n"] = bump(doc["n"])
    elif t == "verdict":
        doc["verdict"] = rng.choice([v for v in MUTABLE_VERDICTS if v != doc["verdict"]])
    elif t == "spurious_factors":
        doc["factors"] = ["3", "7"]
    elif t[0] == "rep":
        _, i, field = t
        if field == "coprime":
            doc["representations"][i][field] = not doc["representations"][i][field]
        else:
            doc["representations"][i][field] = bump(doc["representations"][i][field])
    elif t[0] == "factor":
        doc["factors"][t[1]] = bump(doc["factors"][t[1]])
    elif t[0] == "witness":
        doc["witness"][t[1]] = bump(doc["witness"][t[1]])
    elif t[0] == "witness_rep":
        _, rep, field = t
        doc["witness"][rep][field] = bump(doc["witness"][rep][field])
    return doc


def rejected(doc: dict) -> bool:
    """True when a certificate document fails to parse or to verify.
    A mutation that leaves the one accepted integer spelling (a negative
    bump, say) is rejected by the parser before verify sees it."""
    try:
        cert = certificate_from_json(json.dumps(doc))
    except CertificateError:
        return True
    return not verify(cert)


def test_random_mutations_rejected():
    rng = random.Random(20260809)
    bases = [decide(n) for n in (1000009, 1000081, 29, 81, 21, 261, 481)]
    docs = [json.loads(certificate_to_json(c)) for c in bases]
    for base in bases:
        assert verify(base)
    for _ in range(200):
        doc = mutate_document(rng.choice(docs), rng)
        assert rejected(doc), doc
