"""Command-line front end: classify, prove, scan, sweep, verify.

Exit codes: verdicts are data, never failures (prove exits 0 for any
verdict); 1 means a certificate failed verification or is not spelled
byte for byte as prove writes it; 2 means bad input (unparseable
number, out-of-range value, malformed or undecodable document, a
certificate file of more than MAX_CERTIFICATE_BYTES = 2**20 bytes), an
--out file that cannot be written, or tables (scan, prove --emit-tables)
of more than MAX_TABLE_ROWS = 10**6 rows, which are refused before
anything is written.  prove takes its certificate, and with
--emit-tables its tables, from one walk of the scan tree.  sweep takes
one window pass when a cost rule timed on both paths rates it cheaper
than one decide per N; same CSV.  Only sweep's per-N path with --jobs
above 1 loads the process pool.  Every command writes through
_write_out, and output streams, never joined or re-parsed whole: a
failure part-way (out of memory, say) leaves what was written, and
`| head` still exits 0.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from math import isqrt

from .arith import MAX_MAGNITUDE, parse_decimal
from .certify import (
    Certificate,
    CertificateError,
    certificate_for,
    certificate_from_json,
    certificate_to_json,
    decide,
    verify,
)
from .classify import Eligibility, classify, eligible_range
from .report import render_tree, sweep_csv
from .represent import scan_tree, window_representations

# scan and prove --emit-tables refuse longer tables: each row is hundreds
# of bytes of text, and each leaf's table is drawn whole before it is written
MAX_TABLE_ROWS = 10**6

# verify reads no more of a file: the largest certificate of an eligible
# N <= 2**63 - 1 (1,152 representations) is about 100 KB
MAX_CERTIFICATE_BYTES = 2**20

# sweep's path costs in leaf-sieve rows, timed in one process on one core of
# a 2-core Xeon: a y-step of the window pass, certificates included, and
# decide's cost per N before its sqrt(N)/17 rows
WINDOW_STEP_ROWS, DECIDE_SETUP_ROWS = 620, 105000


def _natural(text: str) -> int:
    value = parse_decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"not a plain nonnegative decimal integer: {text!r}")
    if value > MAX_MAGNITUDE:
        raise argparse.ArgumentTypeError("value exceeds the supported magnitude 2**63 - 1")
    return value


def _jobs(text: str) -> int:
    value = _natural(text)
    if value < 1:
        raise argparse.ArgumentTypeError("--jobs must be at least 1")
    return value


def _write_out(pieces: Iterable[str], out: str | None) -> int:
    """Write each piece as it is made, to stdout or to out once it is open."""
    if out is None:
        sys.stdout.writelines(pieces)
        return 0
    try:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _certificate_text(cert: Certificate) -> str:
    lines = [f"n = {cert.n}", f"verdict: {cert.verdict.value}"]
    if cert.representations:
        listed = ", ".join(f"({r.a}, {r.b})" for r in cert.representations)
        lines.append(f"representations: {listed}")
    if cert.factors:
        lines.append(f"factors: {cert.factors[0]} * {cert.factors[1]} = {cert.n}")
    if cert.witness:
        w = cert.witness
        lines.append(
            f"witness: u={w.u} v={w.v} k={w.k} l={w.l} m={w.m} n={w.n}"
        )
    lines.append(f"notes: {cert.notes}")
    return "\n".join(lines) + "\n"


def cmd_classify(args: argparse.Namespace) -> int:
    n, elig = args.n, classify(args.n)
    roots = [str(r) for r in elig.roots_mod25]
    if args.format == "json":
        # the bytes json.dumps(doc, indent=2) + "\n" gives: every value is
        # a decimal string or a status name, so nothing needs escaping
        listed = ",\n    ".join(f'"{r}"' for r in roots)
        pieces = [
            f'{{\n  "n": "{n}",\n  "status": "{elig.status.value}",\n  "n_mod4": "{n % 4}",\n',
            f'  "last_digit": "{n % 10}",\n  "n_mod25": "{n % 25}",\n',
            f'  "roots_mod25": [\n    {listed}\n  ]\n}}\n' if roots else '  "roots_mod25": []\n}\n',
        ]
    else:
        pieces = [
            f"n = {n}\n",
            f"status: {elig.status.value}\n",
            f"n mod 4 = {n % 4}, last digit = {n % 10}, n mod 25 = {n % 25}\n",
        ]
        if roots:
            pieces.append(f"square roots of n mod 25: {'/'.join(roots)}\n")
    return _write_out(pieces, None)


def _tables(elig: Eligibility, walk: tuple) -> Iterator[str] | None:
    """render_tree's pieces, or None after an error on stderr when the
    walk's scanned leaves hold more than MAX_TABLE_ROWS rows."""
    rows = sum(len(scanned[1]) for _, scanned in walk[1] if scanned)
    if rows > MAX_TABLE_ROWS:
        limit = f"the limit of {MAX_TABLE_ROWS:,} rows"
        print(f"error: the tables for {elig.n} have {rows:,} rows, past {limit}", file=sys.stderr)
        return None
    return render_tree(elig, walk)


def cmd_prove(args: argparse.Namespace) -> int:
    elig = classify(args.n)
    walk = scan_tree(elig)
    cert = certificate_for(elig, walk[2])
    tables = _tables(elig, walk) if args.emit_tables else ()
    if tables is None:
        return 2
    if args.format == "text":
        head = _certificate_text(cert)
        pieces = chain([head, "\n"], tables) if args.emit_tables else [head]
    elif args.emit_tables:
        # "tables" as json.dumps(indent=2) spells a last field: JSON escapes
        # one code point at a time, so piece by piece gives the same bytes
        head = certificate_to_json(cert).removesuffix("\n}\n")
        escaped = (json.dumps(piece)[1:-1] for piece in tables)
        pieces = chain([head, ',\n  "tables": "'], escaped, ['"\n}\n'])
    else:
        pieces = [certificate_to_json(cert)]
    return _write_out(pieces, args.out)


def cmd_scan(args: argparse.Namespace) -> int:
    elig = classify(args.n)
    tables = _tables(elig, scan_tree(elig))
    return 2 if tables is None else _write_out(tables, None)


def cmd_sweep(args: argparse.Namespace) -> int:
    ns = eligible_range(args.start, args.stop)
    root = isqrt(args.stop)
    if WINDOW_STEP_ROWS * (root // 5 + 1) <= len(ns) * (root // 17 + DECIDE_SETUP_ROWS):
        found = window_representations(args.start, args.stop)
        certs = (certificate_for(classify(n), found.pop(n, [])) for n in ns)
    elif (workers := min(args.jobs, os.cpu_count() or 1, len(ns))) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            certs = list(pool.map(decide, ns, chunksize=64))
    else:
        certs = [decide(n) for n in ns]
    return _write_out([sweep_csv(certs)], args.out)


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        # bytes keep CRLF line ends, so they fail the byte check below
        with open(args.file, "rb") as fh:
            data = fh.read(MAX_CERTIFICATE_BYTES + 1)
        if len(data) > MAX_CERTIFICATE_BYTES:
            limit = f"the limit of {MAX_CERTIFICATE_BYTES:,} bytes"
            print(f"error: {args.file} is over {limit} for a certificate", file=sys.stderr)
            return 2
        text = data.decode("utf-8")
        cert = certificate_from_json(text)
    except (OSError, UnicodeDecodeError, CertificateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text != certificate_to_json(cert):
        print(f"certificate for {cert.n} REJECTED: not the canonical encoding", file=sys.stderr)
        return 1
    if verify(cert):
        print(f"certificate for {cert.n} is valid ({cert.verdict.value})")
        return 0
    print(f"certificate for {cert.n} REJECTED", file=sys.stderr)
    return 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The twosquares argument parser, built once per process on first
    use: parse_args leaves it unchanged, and building it takes about a
    third as long as a whole 2000-wide sweep near 10**7."""
    parser = argparse.ArgumentParser(
        prog="twosquares",
        description=(
            "Decide primality of N = 1 (mod 4) ending in 1 or 9 by "
            "exhaustive two-square representation search"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="eligibility and mod-25 roots")
    p.add_argument("n", type=_natural)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("prove", help="decide n and emit a certificate")
    p.add_argument("n", type=_natural)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument("--emit-tables", action="store_true")
    p.add_argument("--out", metavar="FILE")
    p.set_defaults(func=cmd_prove)

    p = sub.add_parser("scan", help="show all branches and their tables")
    p.add_argument("n", type=_natural)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("sweep", help="decide every eligible n in a range, emit CSV")
    p.add_argument("start", type=_natural)
    p.add_argument("stop", type=_natural)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--jobs", type=_jobs, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="check a certificate file independently")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # the reader closed stdout early (| head); the flush at exit goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
