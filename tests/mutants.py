"""A standing mutation check: every mutant below must fail its tests.

Run from anywhere, with the test dependencies installed:

    python tests/mutants.py

Each entry names a file under src/, one exact snippet of it, its
replacement, and the tests that must fail once it is made.  For each
entry the script copies src/ into a temporary directory, applies the
edit there and runs those tests in a child process against the copy.
It first runs every named test on an unedited copy, which must pass.
It exits 1 when a named test passes under its mutant (the mutant
survives), when a snippet does not occur exactly once in its file, or
when the unedited copy fails; else 0.  Only the standard library is
used here; the tests themselves run under pytest.  The name does not
start with test_, so the tier-1 run does not collect this file.

A mutant moves in the same change as the code it edits.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET
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
TREE_TESTS = (
    "tests/test_scan.py::test_tree_matches_the_substitution_reference",
    "tests/test_scan.py::test_refine_worked_composite",
)
SWEEP = "tests/test_sweep.py"
ANNULUS = f"{SWEEP}::test_window_representations_match_the_annulus_pass"

MUTANTS = [
    Mutant(
        "a 0 dropped from residue_pattern's squares",
        "twosquares/scan.py",
        "squares = {j * j % p for j in range(p)}",
        "squares = {j * j % p for j in range(1, p)}",
        ("tests/test_scan.py::test_residue_patterns_exclude_only_non_squares", *SIEVE_TESTS),
    ),
    Mutant(
        "a pattern rotated off by one",
        "twosquares/scan.py",
        "k = ts.start % p",
        "k = (ts.start + 1) % p",
        SIEVE_TESTS,
    ),
    Mutant(
        "the last window shortened by one",
        "twosquares/scan.py",
        '[: ts.stop - lo]',
        '[: ts.stop - lo - 1]',
        (*SIEVE_TESTS, ALL_RESIDUES),
    ),
    Mutant(
        "the last t of every full window dropped",
        "twosquares/scan.py",
        '[: ts.stop - lo]',
        '[: min(ts.stop - lo, window - 1)]',
        (SIEVE_TESTS[0], ALL_RESIDUES),
    ),
    Mutant(
        "the last t of every window dropped",
        "twosquares/scan.py",
        '[: ts.stop - lo]',
        '[: ts.stop - lo][:-1]',
        (*SIEVE_TESTS, ALL_RESIDUES),
    ),
    Mutant(
        "a group shifted one byte off",
        "twosquares/scan.py",
        "tiled >> 8 * ((lo - ts.start) % period)",
        "tiled >> 8 * ((lo - ts.start + 1) % period)",
        SIEVE_TESTS,
    ),
    Mutant(
        "a tiled int one byte short",
        "twosquares/scan.py",
        "size = window + period - 1 if",
        "size = window + period - 2 if",
        (ALL_RESIDUES,),
    ),
    Mutant(
        "an empty group mask read from its first byte only",
        "twosquares/scan.py",
        "if not tiled:",
        "if not tiled & 255:",
        SIEVE_TESTS,
    ),
    Mutant(
        "SIEVE_WINDOW not the wheel's period",
        "twosquares/scan.py",
        "SIEVE_WINDOW = SIEVE_GROUPS[0][0]",
        "SIEVE_WINDOW = SIEVE_GROUPS[0][0] - 20",
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
        "the window pass without its final sort",
        "twosquares/represent.py",
        "reps.sort(key=lambda r: -r.a)",
        "pass",
        (ANNULUS, f"{SWEEP}::test_window_representations_match_the_scan"),
    ),
    Mutant(
        "the window pass's y from 5",
        "twosquares/represent.py",
        "range(0, isqrt(hi) + 1, 5)",
        "range(5, isqrt(hi) + 1, 5)",
        (ANNULUS, f"{SWEEP}::test_window_pass_matches_per_n_sweep"),
    ),
    Mutant(
        "the window pass's y below sqrt(hi)",
        "twosquares/represent.py",
        "range(0, isqrt(hi) + 1, 5)",
        "range(0, isqrt(hi), 5)",
        (
            ANNULUS,
            f"{SWEEP}::test_window_ends_are_sums_of_two_squares",
            f"{SWEEP}::test_window_pass_matches_per_n_sweep",
        ),
    ),
    Mutant(
        "the window pass's x from sqrt(lo - y^2)",
        "twosquares/represent.py",
        "isqrt(lo - yy - 1) + 1 if lo > yy else 0",
        "isqrt(lo - yy) if lo > yy else 0",
        (ANNULUS, f"{SWEEP}::test_window_representations_match_the_scan"),
    ),
    Mutant(
        "the window pass's x below sqrt(hi - y^2)",
        "twosquares/represent.py",
        "isqrt(hi - yy) + 1)",
        "isqrt(hi - yy))",
        (
            ANNULUS,
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
        (ANNULUS,),
    ),
]


def run_tests(src: Path, tests: tuple[str, ...], report: Path) -> dict[str, bool]:
    """Run tests against the package in src; map each test id (a
    parametrized test counts once, failing if any case fails) to passed."""
    # no bytecode: a mutant and its restored file can share size and mtime
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", f"--junitxml={report}", *tests],
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
        report.unlink()
    return {test: bool(results.get(test)) and all(results[test]) for test in tests}


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src, report = Path(tmp) / "src", Path(tmp) / "report.xml"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        every_test = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.tests))
        baseline = run_tests(src, every_test, report)
        failures += [f"unedited copy: {t} does not pass" for t, ok in baseline.items() if not ok]
        for mutant in MUTANTS:
            target = src / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                failures.append(f"{mutant.name}: snippet found {text.count(mutant.old)} times in {mutant.path}")
                continue
            target.write_text(text.replace(mutant.old, mutant.new))
            try:
                result = run_tests(src, mutant.tests, report)
            finally:
                target.write_text(text)
            survived = [t for t, ok in result.items() if ok]
            print(f"{'SURVIVED' if survived else 'killed'}: {mutant.name}")
            failures += [f"{mutant.name}: {t} passes" for t in survived]
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
