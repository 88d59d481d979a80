"""The four workloads: what one operation calls and how its output is checked.

One operation is one call a user would make, issued by a single caller
that waits for each reply (a closed loop, one process, one thread):

- prove-large:  decide(N), then certificate_to_json, N in [1e12, 1e13)
- sweep-dense:  `twosquares sweep LO HI --out FILE --jobs 1` on a
                2000-integer window in [1e7, 1.1e7)
- verify-mixed: certificate_from_json, then verify, N in [1e11, 1e12);
                half the documents are valid, half have one field mutated
- tables:       `twosquares scan N` into a buffer, N in [1e10, 1e11)

No check uses the engine.  Each parses the output itself and tests it
against deterministic Miller-Rabin, a^2 + b^2 = N and f1 * f2 = N.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import re
from dataclasses import dataclass
from math import gcd
from pathlib import Path
from typing import Callable

from corpus import Item, corpus, is_eligible, is_prime, windows

OUT_DIR = Path(__file__).resolve().parents[1] / ".bench_out"

# representations each class must have (corpus.py builds them so)
_REP_COUNT = {"prime": 1, "pq": 2, "square": 1, "norep": 0}


@dataclass
class Op:
    rid: object  # request id carried by the op's spans: N, or the window start
    numbers: int  # numbers decided by the op
    call: Callable[[], object]
    check: Callable[[object], "str | None"]  # error message, or None when correct
    # The untimed memory pass runs few ops, because tracemalloc slows the
    # engine 8-13x: the smallest p*q item (its valid certificate, on
    # verify-mixed), whose certificate is the largest a class produces,
    # or the first three sweep windows.
    in_memory_pass: bool


@dataclass(frozen=True)
class Workload:
    why: str
    build: Callable  # (seed, cli module, certify module) -> (ops, input notes)
    # Take the latencies over each input's median call time, not over
    # single calls.  For inputs that all cost the same, the slowest single
    # calls are the machine's hiccups, not the program's slow inputs.
    latency_by_input: bool = False


def _memory_item(items: list[Item]) -> Item:
    return next(item for item in items if item.kind == "pq")


def _check_reps(item: Item, reps: list[tuple[int, int]]) -> str | None:
    n = item.n
    for a, b in reps:
        if a * a + b * b != n or not a >= b >= 0:
            return f"({a}, {b}) is not a representation of {n}"
    if len(set(reps)) != len(reps) or len(reps) != _REP_COUNT[item.kind]:
        return f"{len(reps)} representations of {n}, expected {_REP_COUNT[item.kind]}"
    if item.kind == "prime" and gcd(*reps[0]) != 1:
        return f"the representation of prime {n} is not coprime"
    return None


def check_certificate(item: Item, text: str) -> str | None:
    """Check a certificate document for item.n without the engine."""
    doc = json.loads(text)
    if doc["n"] != str(item.n):
        return f"certificate is for {doc['n']}, not {item.n}"
    if doc["verdict"] != item.verdict or (doc["verdict"] == "prime") != is_prime(item.n):
        return f"verdict {doc['verdict']} for {item.n}, expected {item.verdict}"
    reps = [(int(r["a"]), int(r["b"])) for r in doc["representations"]]
    error = _check_reps(item, reps)
    if error:
        return error
    for r, (a, b) in zip(doc["representations"], reps):
        if r["coprime"] is not (gcd(a, b) == 1):
            return f"coprime flag wrong on ({a}, {b})"
    factors = tuple(int(f) for f in doc["factors"]) if doc["factors"] else None
    if factors != item.factors:
        return f"factors {factors} for {item.n}, expected {item.factors}"
    return None


# -- prove-large ------------------------------------------------------------

def build_prove(seed, cli, certify):
    items = corpus(seed, 10**12, 10**13, per_kind=9)

    def op(item):
        def call():
            return certify.certificate_to_json(certify.decide(item.n))

        return Op(item.n, 1, call, lambda text: check_certificate(item, text),
                  item is _memory_item(items))

    return [op(item) for item in items], [f"{item.n}: {item.reason}" for item in items]


# -- sweep-dense ------------------------------------------------------------

SWEEP_HEADER = ["n", "verdict", "rep_count", "factor1", "factor2"]


def check_sweep_csv(lo: int, hi: int, text: str) -> str | None:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_HEADER:
        return "sweep CSV header missing or wrong"
    expected = [n for n in range(lo, hi + 1) if is_eligible(n)]
    if [int(r[0]) for r in rows[1:]] != expected:
        return f"sweep rows are not the eligible n of [{lo}, {hi}] in order"
    for n_text, verdict, rep_text, f1_text, f2_text in rows[1:]:
        n, rep_count = int(n_text), int(rep_text)
        if (verdict == "prime") != is_prime(n):
            return f"verdict {verdict} for {n} contradicts Miller-Rabin"
        if verdict == "composite_with_factors":
            f1, f2 = int(f1_text), int(f2_text)
            if f1 * f2 != n or not 1 < f1 <= f2 < n or rep_count < 1:
                return f"bad factors {f1} * {f2} for {n}"
        elif f1_text or f2_text or rep_count != {"prime": 1}.get(verdict, 0):
            return f"row for {n} ({verdict}) has {rep_count} representations or factors"
    return None


def build_sweep(seed, cli, certify):
    out = OUT_DIR / "sweep.csv"
    digests: dict[int, str] = {}

    def op(lo, hi):
        def call():
            return cli.main(["sweep", str(lo), str(hi), "--out", str(out), "--jobs", "1"])

        def check(code):
            if code != 0:
                return f"sweep exited {code}"
            text = out.read_text(encoding="utf-8")
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digests.setdefault(lo, digest) != digest:
                return f"sweep CSV for [{lo}, {hi}] changed between calls"
            return check_sweep_csv(lo, hi, text)

        count = sum(1 for n in range(lo, hi + 1) if is_eligible(n))
        return Op(lo, count, call, check, (lo, hi) in ranges[:3])

    OUT_DIR.mkdir(exist_ok=True)
    ranges = windows(seed, 10**7, 11 * 10**6, count=8, width=2000)
    notes = [f"[{lo}, {hi}]: window {i} of 8 equal strata of [1e7, 1.1e7)"
             for i, (lo, hi) in enumerate(ranges)]
    return [op(lo, hi) for lo, hi in ranges], notes


# -- verify-mixed -----------------------------------------------------------

# One-field mutations that keep the document well formed and make it
# invalid.  Each still reaches the oracle inside verify, as a forged
# certificate would.
_MUTATIONS = {
    "prime": ("rep_b_plus_1", "coprime_flipped", "verdict_no_rep"),
    "composite_with_factors": ("rep_b_plus_1", "factor1_plus_2", "factors_swapped"),
    "composite_no_representation": ("verdict_prime", "factors_trivial"),
}


def mutate(text: str, rng: random.Random) -> tuple[str, str]:
    doc = json.loads(text)
    kind = rng.choice(_MUTATIONS[doc["verdict"]])
    if kind == "rep_b_plus_1":
        rep = doc["representations"][0]
        rep["b"] = str(int(rep["b"]) + 1)
    elif kind == "coprime_flipped":
        rep = doc["representations"][0]
        rep["coprime"] = not rep["coprime"]
    elif kind == "verdict_no_rep":
        doc["verdict"] = "composite_no_representation"
    elif kind == "verdict_prime":
        doc["verdict"] = "prime"
    elif kind == "factor1_plus_2":
        doc["factors"][0] = str(int(doc["factors"][0]) + 2)
    elif kind == "factors_swapped":
        doc["factors"].reverse()
    else:  # factors_trivial
        doc["factors"] = ["1", doc["n"]]
    return json.dumps(doc, indent=2) + "\n", kind


def build_verify(seed, cli, certify):
    items = corpus(seed, 10**11, 10**12, per_kind=4)
    rng = random.Random(seed)
    ops, notes = [], []

    def op(item, text, valid, in_memory_pass):
        def call():
            return certify.verify(certify.certificate_from_json(text))

        def check(ok):
            if ok is not valid:
                kind = "valid" if valid else "mutated"
                return f"verify returned {ok} for a {kind} certificate of {item.n}"
            # the certificate decide made during set-up must be right too
            return check_certificate(item, text) if valid else None

        return Op(item.n, 1, call, check, in_memory_pass)

    for item in items:
        text = certify.certificate_to_json(certify.decide(item.n))
        forged, how = mutate(text, rng)
        ops += [op(item, text, True, item is _memory_item(items)),
                op(item, forged, False, False)]
        notes.append(f"{item.n}: {item.reason}; mutated copy: {how}")
    return ops, notes


# -- tables -----------------------------------------------------------------

_REPS_LINE = re.compile(r"^representations: (.*)$", re.MULTILINE)
_HIT_LINE = re.compile(r"^hit: t = -?\d+, value = (\d+) = (\d+)\^2$", re.MULTILINE)


def check_tables(item: Item, result) -> str | None:
    code, text = result
    if code != 0:
        return f"scan exited {code}"
    found = _REPS_LINE.findall(text)
    if len(found) != 1:
        return "scan output has no representations line"
    reps = [] if found[0] == "none" else [
        (int(a), int(b)) for a, b in re.findall(r"\((\d+), (\d+)\)", found[0])
    ]
    for value, root in _HIT_LINE.findall(text):
        if int(root) ** 2 != int(value):
            return f"hit {value} is not {root}^2"
    return _check_reps(item, reps)


def build_tables(seed, cli, certify):
    items = corpus(seed, 10**10, 10**11, per_kind=16)

    def op(item):
        def call():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["scan", str(item.n)])
            return code, buf.getvalue()

        return Op(item.n, 1, call, lambda result: check_tables(item, result),
                  item is _memory_item(items))

    return [op(item) for item in items], [f"{item.n}: {item.reason}" for item in items]


WORKLOADS = {
    "prove-large": Workload(
        "scan_branch does ~98% of decide's work; kernel and exclusion-wheel gains show here",
        build_prove,
    ),
    "sweep-dense": Workload(
        "short scans, so per-N overhead (classify on every integer, branch expansion, CSV) shows",
        build_sweep,
        latency_by_input=True,
    ),
    "verify-mixed": Workload(
        "bypasses the scan: brute-force oracle and trial division, on accept and reject paths",
        build_verify,
    ),
    "tables": Workload(
        "keeps every scan row for display: renderers and the representations rescan show",
        build_tables,
    ),
}
