import hashlib
import math
import random
from pathlib import Path

import reference
from twosquares.certify import decide
from twosquares.classify import classify
from twosquares.report import render_difference_table, render_scan_table, render_tree, sweep_csv
from twosquares.represent import scan_tree
from twosquares.scan import (
    Quadratic,
    ScanBranch,
    expand_branches,
    initial_quadratic,
    scan_branch,
)

GOLDEN = Path(__file__).parent / "golden"


def branch_named(n, name):
    root = initial_quadratic(n, classify(n).roots_mod25[0])
    return next(b for b in expand_branches(root) if b.name == name)


def golden_check(name, text):
    assert text == (GOLDEN / name).read_text(encoding="utf-8")


def test_difference_table_worked_composite():
    br = branch_named(1000009, "B")
    _, ts = scan_branch(br)
    text = render_difference_table(br, ts)
    golden_check("b_1000009_diff.txt", text)
    # the slow side's subtrahends and first differences, per the hand table
    lines = text.splitlines()
    assert lines[1].split() == ["c", "|", "400c^2-224c", "|", "diff", "|", "400c^2+224c", "|", "diff"]
    near = [line.split("|")[1:3] for line in lines[3:7]]
    assert [(int(sub), int(diff)) for sub, diff in near] == [
        (176, 176), (1152, 976), (2928, 1776), (5504, 2576),
    ]
    q = br.quadratic
    assert [q.m - q.value_at(t) for t in range(-1, -5, -1)] == [176, 1152, 2928, 5504]


def test_scan_table_worked_composite():
    br = branch_named(1000009, "B")
    hits, ts = scan_branch(br)
    text = render_scan_table(br, ts, hits)
    golden_check("b_1000009_scan.txt", text)
    assert "*  2209" in text
    assert text.count("*") == 1


def test_scan_table_no_hits():
    br = branch_named(1000081, "C")
    hits, ts = scan_branch(br)
    text = render_scan_table(br, ts, hits)
    golden_check("c_1000081_scan.txt", text)
    assert "1273" in text
    assert "*" not in text


def test_tables_reduced_even_branch():
    br = branch_named(1000081, "A.e0")
    hits, ts = scan_branch(br)
    diff = render_difference_table(br, ts)
    scan = render_scan_table(br, ts, hits)
    golden_check("a_e0_1000081_diff.txt", diff)
    golden_check("a_e0_1000081_scan.txt", scan)
    # ends at 45; the only square is the head value 2500
    assert scan.count("*") == 2  # head is shown atop both sides
    assert "* 2500" in scan
    assert scan.rstrip().splitlines()[-1].endswith("864")
    assert "    45" in scan


def test_tables_odd_branch_prime_case():
    br = branch_named(1000081, "A.o3")
    hits, ts = scan_branch(br)
    golden_check("a_o3_1000081_scan.txt", render_scan_table(br, ts, hits))
    assert hits == []


def test_every_hit_marked_and_every_mark_square():
    for n in (1000009, 1000081, 481, 81):
        root = initial_quadratic(n, classify(n).roots_mod25[0])
        for br in expand_branches(root):
            if not br.scannable:
                continue
            hits, ts = scan_branch(br)
            text = render_scan_table(br, ts, hits)
            starred = [
                int(line.replace("*", "").strip())
                for line in text.splitlines()
                if line.startswith("*")
            ]
            for v in starred:
                assert math.isqrt(v) ** 2 == v
            for h in hits:
                assert h.value in starred


def test_empty_rows_render_header_only():
    br = initial_quadratic(21, 11)
    hits, ts = scan_branch(br)
    assert render_difference_table(br, ts).splitlines()[0].startswith("branch Q")
    assert "(no rows)" in render_difference_table(br, ts)
    assert "(no rows)" in render_scan_table(br, ts, hits)


# (m, beta, gamma) of synthetic leaves at the layout's edges: beta = 0
# (equal labels, hits on both sides); Q(0) < 0, so the head sits at the
# vertex; a near side whose first subtrahend and difference are both
# -12; one row; no rows
EDGE_LEAVES = [(2500, 0, 100), (-10, -200, 25), (9894, 412, 400), (0, 0, 25), (-1, 0, 25)]


def edge_layouts():
    blocks = []
    for m, beta, gamma in EDGE_LEAVES:
        leaf = ScanBranch("edge", Quadratic(m, beta, gamma), 1, 0, 1, None)
        hits, ts = scan_branch(leaf)
        blocks.append(render_difference_table(leaf, ts) + "\n" + render_scan_table(leaf, ts, hits))
    return "\n".join(blocks)


def test_edge_layouts_golden():
    golden_check("report_edge_layouts.txt", edge_layouts())


def synthetic_leaves():
    """Seeded (m, beta, gamma) at the edges of the renderers' runs of
    equal-length cells."""
    rng = random.Random(29)
    for k in range(1, 8):
        for _ in range(6):
            # the near side's subtrahends fall from 0 past -beta^2/(4*gamma)
            # and climb back past 0; its first differences climb from about
            # -|beta| past 0 to about sqrt(beta^2 + 4*gamma*m): both
            # columns cross 10^k on both sides of zero, in a few dozen rows
            beta = rng.choice((-1, 1)) * rng.randrange(10**k, 4 * 10**k)
            gamma = max(1, abs(beta) // rng.randrange(2, 60))
            yield rng.randrange(-abs(beta), beta * beta // gamma), beta, gamma
    for _ in range(8):
        # a 19-digit m with a few dozen rows or fewer
        m = rng.randrange(10**18, 2**63)
        gamma = m // rng.randrange(1, 400)
        yield m, rng.randrange(-2 * gamma, 2 * gamma), gamma
    for _ in range(8):
        # Q(0) >= 0 > Q of the far side's next t: a far side of one row
        beta, gamma = rng.choice((-1, 1)) * rng.randrange(1, 10**4), rng.randrange(1, 100)
        yield rng.randrange(0, abs(beta) + gamma), beta, gamma


def leaves_to_render():
    """(leaf, ts, hits) for every scanned leaf of the comparison inputs."""
    rng = random.Random(23)
    seeded = []
    while len(seeded) < 20:
        n = rng.randrange(10**10, 10**11)
        if classify(n).is_eligible:
            seeded.append(n)
    for n, pruning in [*((n, p) for n in range(3000) for p in (True, False)),
                       *((n, True) for n in (1000009, 1000081, 10**12 + 61, *seeded))]:
        for leaf, scanned in scan_tree(classify(n), respect_pruning=pruning)[1]:
            if scanned is not None:
                yield leaf, scanned[1], scanned[0]
    # the two after EDGE_LEAVES: a first difference (-19999) wider than the last one
    for m, beta, gamma in [*EDGE_LEAVES, (10, -20000, 1), (10, 20000, 1), *synthetic_leaves()]:
        leaf = ScanBranch("edge", Quadratic(m, beta, gamma), 1, 0, 1, None)
        hits, ts = scan_branch(leaf)
        yield leaf, ts, hits


def test_tables_match_per_cell_reference():
    # names the leaves that differ: a diff of two long tables would take minutes
    differ, count = [], 0
    for leaf, ts, hits in leaves_to_render():
        fast = render_difference_table(leaf, ts), render_scan_table(leaf, ts, hits)
        slow = reference.render_difference_table(leaf, ts), reference.render_scan_table(leaf, ts, hits)
        if fast != slow:
            differ.append(leaf.describe())
        count += 1
    assert differ == []
    assert count > 2000


def test_rendering_is_pure():
    br = branch_named(1000009, "B")
    hits, ts = scan_branch(br)
    assert render_scan_table(br, ts, hits) == render_scan_table(br, ts, hits)
    assert render_difference_table(br, ts) == render_difference_table(br, ts)


# SHA-256 of render_tree over every n < 3000, per respect_pruning: covers
# ineligible n, pruned leaves, "(no rows)" leaves and hits at the head,
# which the 7-digit goldens and the 13-digit CI hash mostly miss
RENDER_TREE_PINS = {
    True: "380c0d7a661fd7395c504d3e2ff264d9d5c3cb6453b843cce72d12b0fcffe890",
    False: "c288bde3e3ddc44dfdeb47afed226e81caac70734c1600791e02fa7c6ad17147",
}


def test_render_tree_bytes_pinned_below_3000():
    for pruning, pin in RENDER_TREE_PINS.items():
        digest = hashlib.sha256()
        for n in range(3000):
            elig = classify(n)
            digest.update("".join(render_tree(elig, scan_tree(elig, respect_pruning=pruning))).encode())
        assert digest.hexdigest() == pin, pruning


def test_sweep_csv_golden():
    certs = [decide(1000009), decide(1000081)]
    text = sweep_csv(certs)
    assert text == (
        "n,verdict,rep_count,factor1,factor2\n"
        "1000009,composite_with_factors,2,293,3413\n"
        "1000081,prime,1,,\n"
    )


def test_sweep_csv_sorted_and_edge_cases():
    assert sweep_csv([]) == "n,verdict,rep_count,factor1,factor2\n"
    text = sweep_csv([decide(1000081), decide(21)])
    lines = text.splitlines()
    assert lines[1] == "21,composite_no_representation,0,,"
    assert lines[2] == "1000081,prime,1,,"
