"""The sweep's two paths, the window pass and the route per N, against one
decide per N, and the window pass against the annulus pass it replaced."""

import random

import pytest

from reference import annulus_window_representations, per_n_sweep
from twosquares import cli, represent
from twosquares.classify import eligible_range
from twosquares.cli import main
from twosquares.represent import representations, window_representations


def sweep(capsys, monkeypatch, lo, hi):
    """(CSV, whether the window pass ran) of `twosquares sweep lo hi`."""
    calls = []

    def spy(lo, hi):
        calls.append((lo, hi))
        return represent.window_representations(lo, hi)

    monkeypatch.setattr(cli, "window_representations", spy)
    assert main(["sweep", str(lo), str(hi)]) == 0
    return capsys.readouterr().out, bool(calls)


@pytest.mark.parametrize(
    "lo, hi",
    [
        (1000000, 1002000),
        (0, 3000),
        (1, 9),
        (9, 9),
        # 2401 = 49^2 + 0^2: the b = 0 column
        (2390, 2410),
        # both ends eligible sums of two squares
        (1000009, 1000081),
        (1009, 1021),
    ],
)
def test_window_pass_matches_per_n_sweep(capsys, monkeypatch, lo, hi):
    out, windowed = sweep(capsys, monkeypatch, lo, hi)
    assert windowed
    assert out == per_n_sweep(lo, hi)


@pytest.mark.parametrize("lo, hi", [(1000009, 1000081), (1009, 1021)])
def test_window_ends_are_sums_of_two_squares(lo, hi):
    assert {lo, hi} <= window_representations(lo, hi).keys()


@pytest.mark.parametrize(
    "lo, hi, windowed",
    [
        # near 10^7 the pass takes 3162 // 5 + 1 = 633 y-steps and the route
        # 10 * isqrt(isqrt(3162)) = 70 per N: 2, 3 and 9 eligible N route
        (10**7, 10**7 + 20, False),
        (10**7, 10**7 + 28, False),
        (10**7, 10**7 + 88, False),
        # 10 eligible N cross it: 700
        (10**7, 10**7 + 89, True),
        (10**12 + 61, 10**12 + 81, False),
        # near 10^12, 200001 y-steps against 310 per N: 645 N route, 646 cross
        (10**12, 10**12 + 6448, False),
        (10**12, 10**12 + 6449, True),
        # 6324556 y-steps against 740 per N for 100 N
        (10**15, 10**15 + 1000, False),
    ],
)
def test_path_rule_crossover(capsys, monkeypatch, lo, hi, windowed):
    out, took_window = sweep(capsys, monkeypatch, lo, hi)
    assert took_window is windowed
    assert out == per_n_sweep(lo, hi)


@pytest.mark.parametrize("exponent", [5, 7, 9, 11, 12])
def test_window_representations_match_the_scan(exponent):
    rng = random.Random(exponent)
    lo = rng.randrange(10**exponent, 2 * 10**exponent)
    hi = lo + 400
    found = window_representations(lo, hi)
    expected = {n: representations(n) for n in eligible_range(lo, hi)}
    assert found == {n: reps for n, reps in expected.items() if reps}


def test_window_representations_match_the_annulus_pass():
    # every window's dict, and each n's list in order, equals the b-loop's;
    # y = 0 (2401 = 49^2 + 0^2), the smallest eligible n, and windows that
    # start at y^2 or y^2 + 1 for y a multiple of 5, where x starts at 0 or 1
    windows = [(lo, lo + 40) for lo in range(3000)]
    windows += [(0, 0), (1, 9), (9, 9), (2401, 2401), (1000009, 1000009)]
    for y in [*range(0, 400, 5), 31625, 100000]:
        windows += [(y * y, y * y + 40), (y * y + 1, y * y + 41)]
    for lo, hi in windows:
        assert window_representations(lo, hi) == annulus_window_representations(lo, hi), (lo, hi)
    # a seeded lo per decade up to 10^12; the reference's cost is sqrt(hi/2)
    # b-steps at any width, so its widest window gives the narrower ones
    for exponent in range(1, 13):
        lo = random.Random(exponent).randrange(10**exponent, 2 * 10**exponent)
        widest = annulus_window_representations(lo, lo + 2000)
        for width in (0, 1, 20, 2000):
            expected = {n: reps for n, reps in widest.items() if n <= lo + width}
            assert window_representations(lo, lo + width) == expected, (lo, width)
