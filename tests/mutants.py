"""A standing mutation check: every mutant below must fail its tests.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each entry names a file under src/, one exact snippet of it, its
replacement, and the tests that must fail once it is made.  For each
entry the script copies src/ into a temporary directory of its own,
applies the edit there and runs those tests in a child process against
the copy.  Every named test also runs on an unedited copy, which must
pass.  Up to os.cpu_count() children run at once, and the mutants are
reported in the order they are listed.  It exits 1 when a named test
passes under its mutant (the mutant survives), when a snippet does not
occur exactly once in its file, or when the unedited copy fails; else
0.  Only the standard library is used here; the tests themselves run
under pytest.  The name does not start with test_, so the tier-1 run
does not collect this file.

A mutant moves in the same change as the code it edits.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


SIEVE_TESTS = (
    "tests/test_scan.py::test_sieve_keeps_exactly_the_residue_survivors",
    "tests/test_scan.py::test_sieve_matches_reference_scan_on_every_leaf",
)
ALL_RESIDUES = "tests/test_scan.py::test_sieve_drops_no_t_where_every_value_is_a_residue"
EARLY_EXIT = "tests/test_scan.py::test_sieve_stops_a_one_window_leaf_at_its_first_empty_group"
FIRST_WINDOW_EMPTY = "tests/test_scan.py::test_sieve_reads_every_window_of_a_leaf_whose_first_is_empty"
TREE_TESTS = (
    "tests/test_scan.py::test_tree_matches_the_substitution_reference",
    "tests/test_scan.py::test_refine_worked_composite",
)
CERTIFY = "tests/test_certify.py"
ENCODING = f"{CERTIFY}::test_encoding_matches_the_indenting_encoder"
SWEEP = "tests/test_sweep.py"
ROUTE = "tests/test_route.py"
ANNULUS = f"{SWEEP}::test_window_representations_match_the_annulus_pass"
WINDOW_ROUTE = f"{ROUTE}::test_window_pass_matches_the_route_by_decade"
NO_SCAN_CODE = f"{ROUTE}::test_verify_loads_no_scan_code"
REPORT = "tests/test_report.py"

MUTANTS = [
    Mutant(
        "a 0 dropped from residue_pattern's squares",
        "twosquares/scan.py",
        "squares = {j * j % p for j in range(p)}",
        "squares = {j * j % p for j in range(1, p)}",
        ("tests/test_scan.py::test_residue_patterns_exclude_only_non_squares", *SIEVE_TESTS),
    ),
    Mutant(
        "a pattern rotated off by one bit",
        "twosquares/scan.py",
        ">> ts.start % p",
        ">> (ts.start + 1) % p",
        SIEVE_TESTS,
    ),
    Mutant(
        "the last window masked one bit short",
        "twosquares/scan.py",
        "wheel & (1 << ts.stop - lo) - 1",
        "wheel & (1 << ts.stop - lo - 1) - 1",
        (SIEVE_TESTS[0], ALL_RESIDUES),
    ),
    Mutant(
        "the last t of every full window dropped",
        "twosquares/scan.py",
        "wheel, tiles = (1 << window) - 1, []",
        "wheel, tiles = (1 << window - 1) - 1, []",
        (SIEVE_TESTS[0], ALL_RESIDUES),
    ),
    Mutant(
        "a group shifted one bit off",
        "twosquares/scan.py",
        "tiled >> (lo - ts.start) % period",
        "tiled >> (lo - ts.start + 1) % period",
        SIEVE_TESTS,
    ),
    Mutant(
        "a pattern repeated one turn short of a window, its period and a rotation",
        "twosquares/scan.py",
        "(SIEVE_WINDOW + period) // p + 2",
        "(SIEVE_WINDOW + period) // p + 1",
        (ALL_RESIDUES,),
    ),
    Mutant(
        "a one-window leaf's repeat factor cut at its width",
        "twosquares/scan.py",
        "(1 << window + _LONGEST_PATTERN) - 1",
        "(1 << window) - 1",
        (SIEVE_TESTS[0], ALL_RESIDUES),
    ),
    Mutant(
        "a byte's survivors read high bit first",
        "twosquares/scan.py",
        "offsets + (_bit,)",
        "(_bit,) + offsets",
        SIEVE_TESTS,
    ),
    Mutant(
        "the one-window early exit taken on a leaf of a window and one t",
        "twosquares/scan.py",
        "if len(ts) > window and SIEVE_WINDOW % period:",
        "if len(ts) > window + 1 and SIEVE_WINDOW % period:",
        (FIRST_WINDOW_EMPTY,),
    ),
    Mutant(
        "a one-window leaf that builds every group",
        "twosquares/scan.py",
        "if len(ts) > window and SIEVE_WINDOW % period:",
        "if SIEVE_WINDOW % period:",
        (EARLY_EXIT,),
    ),
    Mutant(
        "an empty wheel read from its first byte only",
        "twosquares/scan.py",
        "elif not (wheel := wheel & tiled):",
        "elif not (wheel := wheel & tiled) & 255:",
        SIEVE_TESTS,
    ),
    Mutant(
        "_branch's divisor starting at 100",
        "twosquares/scan.py",
        "divisor = 25\n",
        "divisor = 100\n",
        TREE_TESTS,
    ),
    Mutant(
        "beta without its 2",
        "twosquares/scan.py",
        "2 * scale * offset, scale * scale",
        "scale * offset, scale * scale",
        TREE_TESTS,
    ),
    Mutant(
        "the e2 child dropped",
        "twosquares/scan.py",
        ', _branch(n, names["e2"], 4 * s, 2 * s + o)]',
        "]",
        ("tests/test_scan.py::test_tree_matches_the_substitution_reference",),
    ),
    Mutant(
        "coprime spelled from b, not from the coprime flag",
        "twosquares/certify.py",
        '"true" if rep.coprime else "false"',
        '"true" if rep.b else "false"',
        (ENCODING,),
    ),
    Mutant(
        "the witness's last integer field dropped",
        "twosquares/certify.py",
        "getattr(w, f)}\"' for f in _WITNESS_INTEGERS)",
        "getattr(w, f)}\"' for f in _WITNESS_INTEGERS[:-1])",
        (ENCODING, f"{CERTIFY}::test_serialization_roundtrip_byte_identical"),
    ),
    Mutant(
        "notes written without json's escapes",
        "twosquares/certify.py",
        "{json.dumps(cert.notes)}",
        "\"{cert.notes}\"",
        (ENCODING,),
    ),
    Mutant(
        "certificate_from_json not catching ValueError",
        "twosquares/certify.py",
        "except (ValueError, RecursionError) as exc:",
        "except RecursionError as exc:",
        (f"{CERTIFY}::test_parse_rejects_malformed",),
    ),
    Mutant(
        "verify comparing only n",
        "twosquares/certify.py",
        "if cert != certificate_for(elig, reps):",
        "if cert.n != certificate_for(elig, reps).n:",
        (
            f"{CERTIFY}::test_verify_rejects_coprime_flag_tamper",
            f"{CERTIFY}::test_verify_accepts_only_the_oracle_certificate",
            f"{CERTIFY}::test_random_mutations_rejected",
        ),
    ),
    Mutant(
        "verify without its primality re-check",
        "twosquares/certify.py",
        "and not is_prime(n):",
        "and False:",
        (f"{CERTIFY}::test_verify_rechecks_primality_by_miller_rabin",),
    ),
    Mutant(
        "verify without its factor re-check",
        "twosquares/certify.py",
        "if not (1 < f1 <= f2 < n and f1 * f2 == n):",
        "if False:",
        (f"{CERTIFY}::test_verify_rechecks_the_factor_range",),
    ),
    Mutant(
        "verify without its witness re-check",
        "twosquares/certify.py",
        "return cert.witness is None or witness_violation(n, cert.witness) is None",
        "return True",
        (
            f"{CERTIFY}::test_verify_rechecks_every_witness_field",
            f"{CERTIFY}::test_verify_rechecks_the_witness_represents_n",
        ),
    ),
    Mutant(
        "certify.py importing the scan's representations at its top",
        "twosquares/certify.py",
        "from .factorize import TwoRepWitness, factor_with_witness, witness_violation\n",
        "from .factorize import TwoRepWitness, factor_with_witness, witness_violation\n"
        "from .represent import representations\n",
        (NO_SCAN_CODE,),
    ),
    Mutant(
        "the route taking Representation from represent.py",
        "twosquares/route.py",
        "from .arith import Representation",
        "from .represent import Representation",
        (NO_SCAN_CODE,),
    ),
    Mutant(
        "the route keeping n with a prime 3 (mod 4) to an odd power",
        "twosquares/route.py",
        "        if p % 4 == 3 and e % 2:\n            return []\n",
        "",
        (
            f"{ROUTE}::test_route_matches_the_oracle_below_30000",
            f"{ROUTE}::test_prime_squares_and_q_squared_p_at_the_cap",
        ),
    ),
    Mutant(
        "Hermite-Serret stopping one remainder early",
        "twosquares/route.py",
        "while y * y > p:",
        "while (x % y) ** 2 > p:",
        (
            f"{ROUTE}::test_two_squares_of_every_prime_below_10_5",
            f"{ROUTE}::test_route_matches_the_oracle_below_30000",
        ),
    ),
    Mutant(
        "Miller-Rabin without its last base, 37",
        "twosquares/route.py",
        "29, 31, 37)",
        "29, 31)",
        (f"{ROUTE}::test_is_prime_rejects_strong_pseudoprimes",),
    ),
    Mutant(
        "the window pass without its final sort",
        "twosquares/represent.py",
        "reps.sort(key=lambda r: -r.a)",
        "pass",
        (ANNULUS, WINDOW_ROUTE, f"{SWEEP}::test_window_representations_match_the_scan"),
    ),
    Mutant(
        "the window pass's y from 5",
        "twosquares/represent.py",
        "range(0, isqrt(hi) + 1, 5)",
        "range(5, isqrt(hi) + 1, 5)",
        (ANNULUS, WINDOW_ROUTE, f"{SWEEP}::test_window_pass_matches_per_n_sweep"),
    ),
    Mutant(
        "the window pass's y below sqrt(hi)",
        "twosquares/represent.py",
        "range(0, isqrt(hi) + 1, 5)",
        "range(0, isqrt(hi), 5)",
        (
            ANNULUS,
            WINDOW_ROUTE,
            f"{SWEEP}::test_window_ends_are_sums_of_two_squares",
            f"{SWEEP}::test_window_pass_matches_per_n_sweep",
        ),
    ),
    Mutant(
        "the window pass's x from sqrt(lo - y^2)",
        "twosquares/represent.py",
        "isqrt(lo - yy - 1) + 1 if lo > yy else 0",
        "isqrt(lo - yy) if lo > yy else 0",
        (ANNULUS, WINDOW_ROUTE, f"{SWEEP}::test_window_representations_match_the_scan"),
    ),
    Mutant(
        "the window pass's x below sqrt(hi - y^2)",
        "twosquares/represent.py",
        "isqrt(hi - yy) + 1)",
        "isqrt(hi - yy))",
        (
            ANNULUS,
            WINDOW_ROUTE,
            f"{SWEEP}::test_window_ends_are_sums_of_two_squares",
            f"{SWEEP}::test_window_pass_matches_per_n_sweep",
            f"{SWEEP}::test_path_rule_crossover",
            f"{SWEEP}::test_window_representations_match_the_scan",
        ),
    ),
    Mutant(
        "the window pass's lo floor at 1",
        "twosquares/represent.py",
        "lo = max(lo, MIN_ELIGIBLE)",
        "lo = max(lo, 1)",
        (ANNULUS, WINDOW_ROUTE),
    ),
    Mutant(
        "a column's width taken from its head cell only",
        "twosquares/report.py",
        "*(n for _, _, n in runs)",
        "*(n for _, _, n in runs[:1])",
        (f"{REPORT}::test_difference_table_worked_composite",),
    ),
    Mutant(
        "d0 spelled 2*t0*s - 1",
        "twosquares/report.py",
        "(2 * t0 * s + 1)",
        "(2 * t0 * s - 1)",
        (f"{REPORT}::test_difference_table_worked_composite", f"{REPORT}::test_scan_table_worked_composite"),
    ),
    Mutant(
        "a head hit marked on the down side only",
        "twosquares/report.py",
        "if h.t in side:",
        "if h.t in side[side.step > 0 :]:",
        (f"{REPORT}::test_tables_reduced_even_branch",),
    ),
    Mutant(
        "the run search taking bisect_right, past the run's last cell",
        "twosquares/report.py",
        "from bisect import bisect_left",
        "from bisect import bisect_right as bisect_left",
        (f"{REPORT}::test_difference_table_worked_composite", f"{REPORT}::test_scan_table_worked_composite"),
    ),
    Mutant(
        "no cut where a column changes sign",
        "twosquares/report.py",
        "len(str(x)) != n or (x < 0) != neg",
        "len(str(x)) != n",
        (f"{REPORT}::test_tables_match_per_cell_reference",),
    ),
]


def run_tests(src: Path, tests: tuple[str, ...], report: Path) -> dict[str, bool]:
    """Run tests against the package in src; map each test id (a
    parametrized test counts once, failing if any case fails) to passed."""
    # no bytecode: a mutant and its restored file can share size and mtime
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    # no named test uses hypothesis, and pass or fail is read from the
    # report, so its plugin and assertion rewriting only slow each child
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "no:hypothesispytest",
         "--assert=plain", f"--junitxml={report}", *tests],
        cwd=ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        check=False,
    )
    results: dict[str, list[bool]] = {}
    if report.exists():
        for case in ET.parse(report).iter("testcase"):
            test = f"tests/{case.get('classname').rpartition('.')[2]}.py::{case.get('name').partition('[')[0]}"
            results.setdefault(test, []).append(not any(c.tag in ("failure", "error", "skipped") for c in case))
    return {test: bool(results.get(test)) and all(results[test]) for test in tests}


def check(mutant: Mutant | None) -> tuple[str | None, list[str]]:
    """Run one mutant in its own copy of src/, or with None every named
    test on an unedited copy; returns its report line and its failures."""
    with tempfile.TemporaryDirectory() as tmp:
        src, report = Path(tmp) / "src", Path(tmp) / "report.xml"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        if mutant is None:
            every_test = tuple(dict.fromkeys(t for m in MUTANTS for t in m.tests))
            result = run_tests(src, every_test, report)
            return None, [f"unedited copy: {t} does not pass" for t, ok in result.items() if not ok]
        target = src / mutant.path
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return None, [f"{mutant.name}: snippet found {text.count(mutant.old)} times in {mutant.path}"]
        target.write_text(text.replace(mutant.old, mutant.new))
        survived = [t for t, ok in run_tests(src, mutant.tests, report).items() if ok]
    line = f"{'SURVIVED' if survived else 'killed'}: {mutant.name}"
    return line, [f"{mutant.name}: {t} passes" for t in survived]


def main() -> int:
    # each child pytest mostly waits on its own start-up, so up to one per
    # CPU runs at once; map reports them in MUTANTS order all the same
    failures = []
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as pool:
        for line, failed in pool.map(check, [None, *MUTANTS]):
            if line:
                print(line, flush=True)
            failures += failed
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
