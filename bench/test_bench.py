"""Tests of the benchmark's own arithmetic: row counts, self times, wrapping
and the independent primality check.

    PYTHONPATH=src python -m pytest bench -q
"""

from __future__ import annotations

import importlib
import sys

import pytest

from corpus import corpus, is_prime
from layers import SRC, LayerTrace, TRACED, nonnegative_rows
from run import latencies
from spans import Tracer


@pytest.fixture(scope="module")
def engine():
    # A plain import, not import_engine's fresh one: that would leave the
    # repository's tests, when run in the same session, holding functions
    # that no longer match their modules, and pickling them would fail.
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("twosquares")


@pytest.mark.parametrize("n", [21, 29, 1000009, 1000081, 10**9 + 9, 10**10 + 9])
def test_analytic_rows_match_scan_branch(engine, n):
    scan = importlib.import_module("twosquares.scan")
    root = scan.initial_quadratic(n, engine.classify(n).roots_mod25[0])
    leaves = scan.expand_branches(root, respect_pruning=False)
    for leaf in leaves:
        q = leaf.quadratic
        _, rows = scan.scan_branch(leaf)
        assert nonnegative_rows(q.m, q.beta, q.gamma) == len(rows), leaf.name


def test_nonnegative_rows_by_brute_force():
    for m in range(-30, 60, 7):
        for beta in range(-40, 41, 9):
            for gamma in (1, 4, 25, 400):
                expected = sum(1 for t in range(-100, 101) if m - beta * t - gamma * t * t >= 0)
                assert nonnegative_rows(m, beta, gamma) == expected, (m, beta, gamma)


def test_self_time_of_nested_spans():
    # A [0, 10] holds B [1, 5], which holds C [2, 4]; A also holds D [6, 9]
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 9.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    tracer.current_request = 42
    tracer.begin("A")
    tracer.begin("B")
    tracer.begin("C")
    tracer.finish()
    tracer.finish()
    tracer.begin("D")
    tracer.finish()
    tracer.finish()
    self_s, calls = tracer.totals()
    assert self_s == {"A": 3.0, "B": 2.0, "C": 2.0, "D": 3.0}
    assert calls == {"A": 1, "B": 1, "C": 1, "D": 1}
    assert list(tracer.parent) == [-1, 0, 1, 0]
    assert tracer.request == [42] * 4
    assert tracer.top_level_seconds() == sum(self_s.values()) == 10.0


def test_wrappers_sit_where_functions_are_looked_up(engine, monkeypatch):
    represent = importlib.import_module("twosquares.represent")
    certify = importlib.import_module("twosquares.certify")
    original = represent.scan_branch
    monkeypatch.setitem(TRACED, "scan.gone", ("twosquares.scan", "no_such_function"))
    layer = LayerTrace(Tracer())
    layer.install()
    try:
        assert represent.scan_branch is not original
        certify.decide(1000009)
    finally:
        layer.uninstall()
    assert represent.scan_branch is original
    metrics = layer.metrics(1, 1.0, 1.0)
    assert metrics["scan.gone.self_s"] == (None, "s/op")
    assert metrics["classify.calls"][0] == 2  # once in decide, once in representations
    assert metrics["scan.rows"][0] == metrics["scan.rows_returned"][0] > 0
    assert metrics["scan.hits"][0] == 2  # 1000009 = 1000^2 + 3^2 = 972^2 + 235^2
    assert metrics["factorize.factor_with_witness.calls"][0] == 1


def test_miller_rabin_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
    # strong pseudoprimes to several small bases, and a large prime
    assert not any(is_prime(n) for n in (561, 3215031751, 3825123056546413051))
    assert is_prime(2**61 - 1)


def test_corpus_is_seeded_and_classes_hold():
    items = corpus(3, 10**8, 10**9, per_kind=2)
    assert items == corpus(3, 10**8, 10**9, per_kind=2)
    assert items != corpus(4, 10**8, 10**9, per_kind=2)
    for item in items:
        assert item.n % 20 in (1, 9)
        assert is_prime(item.n) == (item.kind == "prime")
        if item.factors:
            assert item.factors[0] * item.factors[1] == item.n


def test_latencies_over_calls_and_over_inputs():
    # three passes over two inputs: input 0 takes 1 s, input 1 takes 3 s,
    # and one call of input 0 hits a 10 s hiccup
    samples = [1.0, 3.0, 10.0, 3.0, 1.0, 3.0]
    # fewer than eleven samples: the tail falls back to the fastest call
    assert latencies(samples, 2, by_input=False) == (3.0, 1.0)
    # 24 samples: the tail is the 11th slowest, past the four hiccups
    assert latencies(samples * 4, 2, by_input=False) == (3.0, 3.0)
    assert latencies(samples, 2, by_input=True) == (2.0, 3.0)
