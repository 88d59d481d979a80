import gc
import itertools
import math
import random

import pytest
from reference import SQUARES_MOD_8, reference_scan, sieve_survivors

from twosquares import scan
from twosquares.certify import certificate_to_json, decide
from twosquares.classify import classify
from twosquares.report import render_difference_table, render_scan_table
from twosquares.scan import (
    SIEVE_GROUPS,
    SIEVE_MODULI,
    SIEVE_WINDOW,
    InternalConsistencyError,
    PruneReason,
    Quadratic,
    ScanBranch,
    ScanHit,
    expand_branches,
    initial_quadratic,
    recover_xy,
    refine,
    residue_pattern,
    scan_branch,
)
from twosquares.scan import _prune_reason, _sieve


def reference_prune_reason(q):
    """The pruning rule evaluated on Q itself at t = 0..7."""
    values = {q.value_at(t) % 8 for t in range(8)}
    if values & SQUARES_MOD_8:
        return None
    if values == {5}:
        return PruneReason.ALWAYS_FIVE_MOD_8
    if all(v % 4 == 2 for v in values):
        return PruneReason.ODDLY_EVEN
    return PruneReason.OTHER_NON_RESIDUE


REFERENCE_ROOT_NAMES = {"e": "A", "e0": "A0", "e2": "A2", "o1": "B", "o3": "C"}


def reference_child(branch, scale, offset, tag):
    """The paper's substitution step: put t = scale*s + offset into the
    parent quadratic, then divide by 4 while every coefficient allows,
    folding each 4 into the divisor."""
    q = branch.quadratic
    m = q.m - q.beta * offset - q.gamma * offset * offset
    beta = scale * (q.beta + 2 * q.gamma * offset)
    gamma = scale * scale * q.gamma
    divisor = branch.divisor
    while m % 4 == 0 and beta % 4 == 0 and gamma % 4 == 0:
        m, beta, gamma, divisor = m // 4, beta // 4, gamma // 4, divisor * 4
    child = Quadratic(m, beta, gamma)
    name = REFERENCE_ROOT_NAMES[tag] if branch.name == "Q" else f"{branch.name}.{tag}"
    x_scale, x_offset = branch.scale * scale, branch.scale * offset + branch.offset
    return ScanBranch(name, child, x_scale, x_offset, divisor, reference_prune_reason(child))


def reference_refine(branch):
    even = reference_child(branch, 2, 0, "e")
    if even.divisor > branch.divisor:
        children = [even]
    else:
        children = [reference_child(branch, 4, 0, "e0"), reference_child(branch, 4, 2, "e2")]
    return children + [reference_child(branch, 4, 1, "o1"), reference_child(branch, 4, -1, "o3")]


def reference_leaves(n, r, respect_pruning):
    """Reference for expand_branches: the tree by substitution from
    x = 25*t + r, depth-first, refining while gamma = 25."""
    q = Quadratic((n - r * r) // 25, 2 * r, 25)
    stack = [ScanBranch("Q", q, 25, r, 25, reference_prune_reason(q))]
    leaves = []
    while stack:
        br = stack.pop()
        if br.quadratic.gamma == 25 and (br.scannable or not respect_pruning):
            stack.extend(reversed(reference_refine(br)))
        else:
            leaves.append(br)
    return leaves


def assert_scan_matches_reference(branch):
    hits, ts = scan_branch(branch)
    ref_hits, ref_ts = reference_scan(branch)
    assert ts == ref_ts, branch.name
    assert [(h.t, h.value, h.root) for h in hits] == ref_hits, branch.name
    assert all(h.branch is branch for h in hits)
    return hits, ts


def eligible_sample(rng, lo, hi, count):
    ns = []
    while len(ns) < count:
        n = rng.randrange(lo, hi)
        if classify(n).is_eligible:
            ns.append(n)
    return ns


def synthetic(m, beta, gamma):
    return ScanBranch(
        name="synthetic",
        quadratic=Quadratic(m, beta, gamma),
        scale=25,
        offset=1,
        divisor=25,
        prune_reason=None,
    )


def leaves_of(n):
    root = initial_quadratic(n, classify(n).roots_mod25[0])
    return {b.name: b for b in expand_branches(root)}


def test_initial_quadratic_worked_composite():
    br = initial_quadratic(1000009, 3)
    assert br.quadratic == Quadratic(40000, 6, 25)
    assert br.divisor == 25
    assert br.scale * -39 + br.offset == -972


def test_initial_quadratic_worked_prime():
    br = initial_quadratic(1000081, 9)
    assert br.quadratic == Quadratic(40000, 18, 25)


def test_initial_quadratic_small():
    br = initial_quadratic(21, 11)
    assert br.quadratic == Quadratic(-4, 22, 25)
    assert br.divisor == 25


def test_initial_quadratic_rejects_bad_root():
    with pytest.raises(ValueError):
        initial_quadratic(1000009, 4)


def test_quadratic_rejects_nonpositive_gamma():
    for gamma in (0, -25):
        with pytest.raises(ValueError, match="must be positive"):
            Quadratic(40000, 6, gamma)


def test_refine_worked_composite():
    children = {b.name: b for b in refine(initial_quadratic(1000009, 3))}
    assert children["A"].quadratic == Quadratic(10000, 3, 25)
    assert children["A"].divisor == 100
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
    assert lv["A.e0"].divisor == 400
    assert lv["A.o1"].quadratic == Quadratic(2493, 53, 100)
    assert lv["A.o1"].divisor == 400
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
            x = root.scale * t + root.offset
            owners = sum(
                (x - child.offset) % child.scale == 0 for child in children
            )
            assert owners == 1, (n, t)


def test_divisor_always_square():
    for n in (1000009, 1000081, 21, 29, 81, 169):
        root = initial_quadratic(n, classify(n).roots_mod25[0])
        for leaf in expand_branches(root):
            d = leaf.divisor
            assert math.isqrt(d) ** 2 == d
            while d % 4 == 0:
                d //= 4
            assert d == 25


def vertex_island_branch():
    # Q(0) < 0 <= Q near the vertex: nonnegative only for t = 1, 2, 3
    return synthetic(-4, -100, 25)


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
    assert lv["A.e0"].divisor == 400
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
    # nor does its certificate's encoding: a run of certificates sets off
    # no collection of its own
    gc.collect()
    gc.disable()
    try:
        for n in (1000009, 1000081, 10**10 + 9, 21, 10):
            certificate_to_json(decide(n))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_real_inputs_never_hit_depth_cap():
    # a leaf's depth below the root is 1 + the dots in its name (A.e0: 2)
    for n in range(9, 3000):
        e = classify(n)
        if not e.is_eligible or not e.roots_mod25:
            continue
        root = initial_quadratic(n, e.roots_mod25[0])
        assert all(b.name.count(".") <= 1 for b in expand_branches(root))


@pytest.mark.parametrize("respect_pruning", [True, False])
def test_tree_matches_the_substitution_reference(respect_pruning):
    # every eligible class mod 400 at n < 809 and just below 2^63, both
    # mod-25 roots: the closed-form tree equals the substituted one in
    # every field, and has the finite shape the scan.py docstring states
    small = [n for n in range(9, 809) if classify(n).is_eligible]
    classes = {n % 400 for n in small}
    assert len(classes) == 40
    cap = 2**63 - 1
    for n in small + [cap - (cap - c) % 400 for c in classes]:
        e = classify(n)
        assert e.is_eligible
        for r in e.roots_mod25:
            leaves = expand_branches(initial_quadratic(n, r), respect_pruning=respect_pruning)
            assert leaves == reference_leaves(n, r, respect_pruning), (n, r)
            assert sum(leaf.scannable for leaf in leaves) == 3, (n, r)
            assert len(leaves) in (4, 6), (n, r)


def test_initial_quadratic_rejects_even_n():
    # the recursion ends only because N is odd: at N = 0 every branch
    # would divide through to gamma = 25 again
    for n in (0, 100, 1000000):
        with pytest.raises(ValueError, match="even"):
            initial_quadratic(n, 0)


def test_sieve_matches_reference_scan_on_every_leaf():
    # pruning off, both mod-25 roots: pruned leaves and excluded leaves too
    ns = list(range(9, 20001)) + eligible_sample(random.Random(1009), 10**10, 10**12, 30)
    leaves = 0
    for n in ns:
        e = classify(n)
        if not e.is_eligible:
            continue
        for r in e.roots_mod25:
            for leaf in expand_branches(initial_quadratic(n, r), respect_pruning=False):
                assert leaf.prune_reason == reference_prune_reason(leaf.quadratic)
                assert_scan_matches_reference(leaf)
                leaves += 1
    assert leaves > 20000


def test_prune_lookup_matches_eight_point_evaluation():
    rng = random.Random(512)
    for m, beta, gamma in itertools.product(range(8), repeat=3):
        for _ in range(3):
            q = Quadratic(
                m + 8 * rng.randrange(-10**12, 10**12),
                beta + 8 * rng.randrange(-10**12, 10**12),
                gamma + 8 * rng.randrange(1, 10**12),
            )
            assert _prune_reason(m, beta, gamma) == reference_prune_reason(q), q


def test_residue_patterns_exclude_only_non_squares():
    rng = random.Random(29)
    for p in SIEVE_MODULI:
        squares = {j * j % p for j in range(p)}
        for sign in (1, -1):
            for _ in range(40):
                q = Quadratic(
                    rng.randrange(-10**15, 10**15),
                    sign * rng.randrange(1, 10**8),
                    rng.randrange(1, 10**6),
                )
                pattern = residue_pattern(p, q.m % p, q.beta % p, q.gamma % p)
                assert 0 <= pattern < 1 << p
                for t in range(-3 * p, 3 * p):
                    assert pattern >> t % p & 1 == (q.value_at(t) % p in squares), (p, q, t)


def test_sieve_across_several_windows_from_negative_t():
    # Q(t) = M - (t + 7)^2 with M = 5^2 * 13^2 * 17 * 29 * 37, a sum of two
    # squares in many ways, so hits fall in many windows
    big = 5**2 * 13**2 * 17 * 29 * 37
    hits, ts = assert_scan_matches_reference(synthetic(big - 49, 14, 1))
    assert ts.start < -SIEVE_WINDOW and len(ts) > 5 * SIEVE_WINDOW
    assert len({(h.t - ts.start) // SIEVE_WINDOW for h in hits}) > 3


WHEEL = SIEVE_GROUPS[0][0]


@pytest.mark.parametrize(
    "edge", [WHEEL - 1, WHEEL, 2 * WHEEL, SIEVE_WINDOW - 1, SIEVE_WINDOW, 2 * SIEVE_WINDOW]
)
def test_sieve_finds_a_hit_at_a_window_edge(edge):
    # at the wheel's turns inside a window and at the window's own edges
    # Q(t) = a^2 + b^2 - t^2 with isqrt(a^2 + b^2) = a + edge: ts starts
    # at -(a + edge), so t = -a, where Q = b^2, is edge rows into ts
    b = 3 * edge
    a = (b * b - edge * edge) // (2 * edge)
    br = synthetic(a * a + b * b, 0, 1)
    hits, ts = assert_scan_matches_reference(br)
    assert ts.start + edge == -a
    assert (-a, b * b, b) in [(h.t, h.value, h.root) for h in hits]


def test_excluded_leaf_returns_its_whole_range():
    # a leaf whose pattern mod p is empty is not walked, but its ts is
    # still exactly the nonnegative range (the rendered tables and the
    # benchmark's row count read it)
    excluded = {}
    for n in (1000081, 10**13 + 41):
        for leaf in leaves_of(n).values():
            q = leaf.quadratic
            for p in SIEVE_MODULI:
                if not residue_pattern(p, q.m % p, q.beta % p, q.gamma % p):
                    excluded.setdefault(p, leaf)
    assert 16 in excluded and set(excluded) - {16}
    # and a one-window leaf, Q(t) = 432 - t^2 on |t| <= 20, where every
    # pattern marks some t but no t of the leaf survives the wheel
    short = synthetic(432, 0, 1)
    q = short.quadratic
    assert all(residue_pattern(p, q.m % p, q.beta % p, q.gamma % p) for p in SIEVE_MODULI)
    assert sieve_survivors(q, nonnegative_ts(q), (16, 9, 5)) == []
    for leaf in [*excluded.values(), short]:
        hits, ts = assert_scan_matches_reference(leaf)
        assert hits == [] and len(ts) > 0
        assert list(_sieve(leaf.quadratic, ts)) == []


def nonnegative_ts(q):
    r = math.isqrt(q.beta * q.beta + 4 * q.gamma * q.m)
    return range(-((r + q.beta) // (2 * q.gamma)), (r - q.beta) // (2 * q.gamma) + 1)


def test_sieve_keeps_exactly_the_residue_survivors():
    # seeded slices of every scannable leaf of the cap prime, the cap p*q
    # and the widest certificate's N (whole leaves are too long for the
    # reference): about 10^5 t, whose last window is cut at a seeded width,
    # one window and its neighbours, and short slices of 1, 4p - 1 and 4p t
    # for each p but 16, a single window shorter than most groups' periods;
    # every length takes every modulus
    rng = random.Random(720)
    short = [1, *(4 * p + d for p in SIEVE_MODULI[1:] for d in (-1, 0))]
    for n in (9223372036854775549, 9223371873002223329, 4377825349681037761):
        for leaf in leaves_of(n).values():
            if not leaf.scannable:
                continue
            q = leaf.quadratic
            ts = nonnegative_ts(q)
            long = rng.randrange(10**5, 10**5 + SIEVE_WINDOW)
            for length in [long, SIEVE_WINDOW - 1, SIEVE_WINDOW, SIEVE_WINDOW + 1, *short]:
                start = rng.randrange(ts.start, ts.stop - length)
                part = range(start, start + length)
                survivors = sieve_survivors(q, part, SIEVE_MODULI)
                assert list(_sieve(q, part)) == survivors, (n, leaf.name, start, length)
                # each shorter length again, ending on the last survivor, so
                # that a t lost at the end of a range shows
                if survivors and length < long:
                    part = range(survivors[-1] + 1 - length, survivors[-1] + 1)
                    survivors = sieve_survivors(q, part, SIEVE_MODULI)
                    assert list(_sieve(q, part)) == survivors, (n, leaf.name, part)


def test_sieve_drops_no_t_where_every_value_is_a_residue():
    # Q(t) = -(L - 1)*t^2 = t^2 mod every modulus, L their product, so every
    # t survives, and a t lost to a short mask or a cut window shows; the
    # window is prime to every period but the wheel's, so over as many
    # windows as the longest period, 41*43, each group's mask takes every
    # shift below its period
    q = Quadratic(0, 0, math.prod(SIEVE_MODULI) - 1)
    windows = max(period for period, _ in SIEVE_GROUPS)
    for ts in (range(-5, windows * SIEVE_WINDOW + 17), range(7, 7 + SIEVE_WINDOW), range(-3, 50)):
        survivors = _sieve(q, ts)
        assert all(t == next(survivors, None) for t in ts) and next(survivors, None) is None, ts


def test_sieve_stops_a_one_window_leaf_at_its_first_empty_group(monkeypatch):
    # Q(t) = 266 - t^2 on |t| <= 16: 6 t survive the wheel, none survive
    # 7*29 as well, so the leaf is done before the third group
    asked = []

    def spy(p, m, beta, gamma):
        asked.append(p)
        return residue_pattern(p, m, beta, gamma)

    q = Quadratic(266, 0, 1)
    ts = nonnegative_ts(q)
    assert len(ts) <= SIEVE_WINDOW
    assert sieve_survivors(q, ts, SIEVE_GROUPS[0][1])
    assert not sieve_survivors(q, ts, SIEVE_GROUPS[0][1] + SIEVE_GROUPS[1][1])
    monkeypatch.setattr(scan, "residue_pattern", spy)
    assert list(_sieve(q, ts)) == []
    assert asked == [16, 9, 5, 7, 29]


def test_sieve_reads_every_window_of_a_leaf_whose_first_is_empty():
    # a leaf one t longer than a window, ending on a survivor with no
    # other in the window before it
    q = leaves_of(10**12 + 61)["A0"].quadratic
    ts = nonnegative_ts(q)
    survivors = sieve_survivors(q, ts, SIEVE_MODULI)
    last = next(b for a, b in itertools.pairwise(survivors) if b - a > SIEVE_WINDOW)
    part = range(last - SIEVE_WINDOW, last + 1)
    assert list(_sieve(q, part)) == [last]
