import gc
import math

import pytest

from twosquares.certify import decide
from twosquares.classify import classify
from twosquares.report import render_difference_table, render_scan_table
from twosquares.scan import (
    MAX_REFINE_DEPTH,
    InternalConsistencyError,
    PruneReason,
    Quadratic,
    ScanBranch,
    ScanHit,
    SubstitutionChain,
    expand_branches,
    initial_quadratic,
    recover_xy,
    refine,
    scan_branch,
)

SQUARES_MOD_8 = {0, 1, 4}


def leaves_of(n):
    root = initial_quadratic(n, classify(n).roots_mod25[0])
    return {b.name: b for b in expand_branches(root)}


def test_initial_quadratic_worked_composite():
    br = initial_quadratic(1000009, 3)
    assert br.quadratic == Quadratic(40000, 6, 25)
    assert br.chain.divisor == 25
    assert br.chain.apply(-39) == -972


def test_initial_quadratic_worked_prime():
    br = initial_quadratic(1000081, 9)
    assert br.quadratic == Quadratic(40000, 18, 25)


def test_initial_quadratic_small():
    br = initial_quadratic(21, 11)
    assert br.quadratic == Quadratic(-4, 22, 25)
    assert br.chain.divisor == 25


def test_initial_quadratic_rejects_bad_root():
    with pytest.raises(ValueError):
        initial_quadratic(1000009, 4)


def test_refine_worked_composite():
    children = {b.name: b for b in refine(initial_quadratic(1000009, 3))}
    assert children["A"].quadratic == Quadratic(10000, 3, 25)
    assert children["A"].chain.divisor == 100
    assert children["B"].quadratic == Quadratic(39969, 224, 400)
    assert children["B"].scannable
    assert children["C"].quadratic == Quadratic(39981, -176, 400)
    assert children["C"].prune_reason is PruneReason.ALWAYS_FIVE_MOD_8


def test_refine_worked_prime():
    children = {b.name: b for b in refine(initial_quadratic(1000081, 9))}
    assert children["A"].quadratic == Quadratic(10000, 9, 25)
    assert children["B"].quadratic == Quadratic(39957, 272, 400)
    assert children["B"].prune_reason is PruneReason.ALWAYS_FIVE_MOD_8
    assert children["C"].quadratic == Quadratic(39993, -128, 400)
    assert children["C"].scannable


def test_refine_second_level_composite():
    # children of A for 1000009: the four sub-branches
    lv = leaves_of(1000009)
    assert lv["A.e0"].quadratic == Quadratic(2500, 3, 100)
    assert lv["A.e0"].chain.divisor == 400
    assert lv["A.o1"].quadratic == Quadratic(2493, 53, 100)
    assert lv["A.o1"].chain.divisor == 400
    assert lv["A.o3"].quadratic == Quadratic(9978, -188, 400)
    assert lv["A.o3"].prune_reason is PruneReason.ODDLY_EVEN
    assert lv["A.e2"].prune_reason is PruneReason.ODDLY_EVEN


def test_refine_second_level_prime():
    lv = leaves_of(1000081)
    assert lv["A.e0"].quadratic == Quadratic(2500, 9, 100)
    assert lv["A.o1"].quadratic == Quadratic(9966, 236, 400)
    assert lv["A.o1"].prune_reason is PruneReason.ODDLY_EVEN
    assert lv["A.o3"].quadratic == Quadratic(2496, -41, 100)
    assert lv["A.o3"].scannable


def test_domains_partition_parent():
    # every integer t of the parent maps, through x, to exactly one child class
    for n in (1000009, 1000081, 21, 29, 169):
        e = classify(n)
        root = initial_quadratic(n, e.roots_mod25[0])
        children = refine(root)
        for t in range(-20, 21):
            x = root.chain.apply(t)
            owners = sum(
                (x - child.chain.offset) % child.chain.scale == 0 for child in children
            )
            assert owners == 1, (n, t)


def test_divisor_always_square():
    for n in (1000009, 1000081, 21, 29, 81, 169):
        root = initial_quadratic(n, classify(n).roots_mod25[0])
        for leaf in expand_branches(root):
            d = leaf.chain.divisor
            assert math.isqrt(d) ** 2 == d
            while d % 4 == 0:
                d //= 4
            assert d == 25


def vertex_island_branch():
    # Q(0) < 0 <= Q near the vertex: nonnegative only for t = 1, 2, 3
    return ScanBranch(
        name="synthetic",
        quadratic=Quadratic(-4, -100, 25),
        chain=SubstitutionChain(25, 1, 25),
        prune_reason=None,
        depth=0,
    )


def test_scan_branch_b_single_hit():
    br = leaves_of(1000009)["B"]
    q = br.quadratic
    hits, ts = scan_branch(br)
    assert [(h.t, h.value, h.root) for h in hits] == [(-10, 2209, 47)]
    assert ts == range(-10, 10)
    # full negative side matches the hand computation
    minus = range(-1, ts.start - 1, -1)
    assert [q.value_at(t) for t in minus] == [
        39793, 38817, 37041, 34465, 31089, 26913, 21937, 16161, 9585, 2209,
    ]
    assert [q.value_at(t + 1) - q.value_at(t) for t in minus] == [
        176, 976, 1776, 2576, 3376, 4176, 4976, 5776, 6576, 7376,
    ]
    assert [q.value_at(t) for t in range(1, ts.stop)] == [
        39345, 37921, 35697, 32673, 28849, 24225, 18801, 12577, 5553,
    ]


def test_scan_branch_c_no_hits():
    lv = leaves_of(1000081)
    hits, ts = scan_branch(lv["C"])
    assert hits == []
    plus = [lv["C"].quadratic.value_at(t) for t in ts if t > 0]
    assert plus[-1] == 1273
    assert plus == [39721, 38649, 36777, 34105, 30633, 26361, 21289, 15417, 8745, 1273]


def test_scan_branch_reduced_even_hit():
    lv = leaves_of(1000081)
    hits, rows = scan_branch(lv["A.e0"])
    assert [(h.t, h.value, h.root) for h in hits] == [(0, 2500, 50)]


def table_columns(text):
    """(subtrahends, diffs) per side, from a rendered difference table;
    each side is read outward from the head row, which has no diff."""
    subs, diffs = ([], []), ([], [])
    for line in text.splitlines()[2:]:
        cells = [c.strip() for c in line.split("|")][1:]
        cells += [""] * (4 - len(cells))
        for side in (0, 1):
            sub, diff = cells[2 * side:2 * side + 2]
            if sub:
                subs[side].append(int(sub))
            if diff:
                diffs[side].append(int(diff))
    return subs, diffs


def test_difference_law():
    # consecutive differences on one side differ by exactly 2*gamma
    for n in (1000009, 1000081, 349, 1000):
        if not classify(n).is_eligible:
            continue
        for leaf in leaves_of(n).values():
            if not leaf.scannable:
                continue
            _, ts = scan_branch(leaf)
            if not ts:
                continue
            _, diffs = table_columns(render_difference_table(leaf, ts))
            assert sum(map(len, diffs)) == len(ts) - 1
            for side in diffs:
                for d1, d2 in zip(side, side[1:]):
                    assert d2 - d1 == 2 * leaf.quadratic.gamma


def scan_table_values(text):
    """Values per side, from a rendered scan table, read outward from
    the head; the lines under each side header alternate value, diff."""
    sides = []
    for line in text.splitlines()[1:]:
        if line.startswith("side "):
            sides.append([])
        else:
            sides[-1].append(line)
    return tuple([int(v.replace("*", "")) for v in side[::2]] for side in sides)


def test_incremental_matches_direct():
    # both tables show Q(t) for every visited t once per side (the head
    # row opens both), and subtrahend = m - value on every row
    for n in (1000009, 1000081, 29, 41):
        for leaf in leaves_of(n).values():
            q = leaf.quadratic
            hits, ts = scan_branch(leaf)
            if not ts:
                continue
            subs, _ = table_columns(render_difference_table(leaf, ts))
            values = scan_table_values(render_scan_table(leaf, ts, hits))
            for side_subs, side_values in zip(subs, values):
                assert side_subs == [q.m - v for v in side_values]
            near, far = values
            assert near[0] == far[0]
            assert sorted(near + far[1:]) == sorted(q.value_at(t) for t in ts)


def test_pruning_soundness():
    for n in (1000009, 1000081, 21, 29, 89, 101):
        if not classify(n).is_eligible:
            continue
        for leaf in leaves_of(n).values():
            if leaf.scannable:
                continue
            values = {leaf.quadratic.value_at(t) % 8 for t in range(8)}
            assert not values & SQUARES_MOD_8
            if leaf.prune_reason is PruneReason.ALWAYS_FIVE_MOD_8:
                assert values == {5}
            elif leaf.prune_reason is PruneReason.ODDLY_EVEN:
                assert all(v % 4 == 2 for v in values)


def test_pruned_branches_scan_empty_of_squares():
    # scanning a pruned branch directly must find nothing
    for n in (1000009, 1000081, 21):
        for leaf in leaves_of(n).values():
            if leaf.scannable:
                continue
            hits, _ = scan_branch(leaf)
            assert hits == []


def test_recover_xy_worked_composite():
    lv = leaves_of(1000009)
    hits, _ = scan_branch(lv["B"])
    assert recover_xy(hits[0], 1000009) == (972, 235)
    hits_a, _ = scan_branch(lv["A.e0"])
    assert recover_xy(hits_a[0], 1000009) == (3, 1000)


def test_recover_xy_worked_prime():
    lv = leaves_of(1000081)
    hits, _ = scan_branch(lv["A.e0"])
    assert lv["A.e0"].chain.divisor == 400
    assert recover_xy(hits[0], 1000081) == (9, 1000)


def test_recover_xy_rejects_tampered_hit():
    lv = leaves_of(1000009)
    hits, _ = scan_branch(lv["B"])
    fake = ScanHit(branch=hits[0].branch, t=hits[0].t, value=2209, root=46)
    with pytest.raises(InternalConsistencyError):
        recover_xy(fake, 1000009)


def test_nonsquare_value_is_not_a_hit():
    lv = leaves_of(1000009)
    hits, ts = scan_branch(lv["B"])
    assert 0 in ts
    assert lv["B"].quadratic.value_at(0) == 39969
    assert all(h.t != 0 for h in hits)


def test_scan_empty_when_everywhere_negative():
    br = initial_quadratic(21, 11)
    hits, ts = scan_branch(br)
    assert hits == [] and len(ts) == 0


def test_scan_starts_at_vertex_when_origin_negative():
    # Q(0) < 0 <= Q near the vertex: the nonnegative island must be found
    br = vertex_island_branch()
    hits, ts = scan_branch(br)
    assert list(ts) == [1, 2, 3]
    assert {t: br.quadratic.value_at(t) for t in ts} == {1: 71, 2: 96, 3: 71}
    # the tables start at the vertex row 96 and step out to 71 on each side
    text = render_scan_table(br, ts, hits)
    assert text.splitlines()[1:] == [
        "side 25c^2-100c:", "  96", "  25", "  71",
        "side 25c^2+100c:", "  96", "  25", "  71",
    ]


def test_scan_visits_exactly_the_nonnegative_range():
    # direct guard on the kernel: every leaf, pruned ones included
    branches = [vertex_island_branch()]
    for n in (29, 41, 481, 1000009, 1000081, 10**10 + 9):
        root = initial_quadratic(n, classify(n).roots_mod25[0])
        branches.extend(expand_branches(root, respect_pruning=False))
    for br in branches:
        q = br.quadratic
        hits, ts = scan_branch(br)
        squares = [t for t in ts if math.isqrt(q.value_at(t)) ** 2 == q.value_at(t)]
        assert [h.t for h in hits] == squares, br.name
        assert all(h.value == q.value_at(h.t) == h.root**2 for h in hits), br.name
        assert q.value_at(ts.start - 1) < 0 and q.value_at(ts.stop) < 0, br.name


def test_decide_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        for n in (1000009, 1000081, 10**10 + 9):
            decide(n)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_depth_cap():
    # a synthetic root that keeps reducing stays capped
    q = Quadratic(25 * 4**6, 64, 25)
    br = ScanBranch(
        name="Q",
        quadratic=q,
        chain=SubstitutionChain(25, 1, 25),
        prune_reason=None,
        depth=0,
    )
    leaves = expand_branches(br)
    assert all(leaf.depth <= MAX_REFINE_DEPTH for leaf in leaves)
    assert any(
        leaf.depth == MAX_REFINE_DEPTH and leaf.quadratic.gamma == 25
        for leaf in leaves
    )


def test_real_inputs_never_hit_depth_cap():
    for n in range(9, 3000):
        e = classify(n)
        if not e.is_eligible or not e.roots_mod25:
            continue
        root = initial_quadratic(n, e.roots_mod25[0])
        assert all(b.depth <= 2 for b in expand_branches(root))
