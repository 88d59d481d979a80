# Walk through the full decision for 1000009, step by step.
#
# The number is 1 mod 4 and ends in 9, so if it is a sum of two squares
# at all, one of the squares is divisible by 25.  Writing the other side
# as x = 25 t + r with r a square root of N mod 25 turns the question
# into "when is a certain downward parabola a perfect square?", which a
# difference table answers with one subtraction per candidate (the
# engine sieves the candidates by their residues first).

from twosquares import classify, decide, verify
from twosquares.report import render_difference_table, render_scan_table
from twosquares.scan import expand_branches, initial_quadratic, recover_xy, scan_branch

N = 1000009

# --- eligibility and the mod-25 seed -------------------------------------
elig = classify(N)
print(f"N = {N}: {elig.status.value}")
print(f"N mod 25 = {N % 25}, square roots mod 25: {elig.roots_mod25}")
print()

# --- branch construction ---------------------------------------------------
# The residual (N - (25t + 3)^2) / 25 splits by the parity of t into a
# handful of quadratics; mod-8 arithmetic kills some of them outright.
root = initial_quadratic(N, elig.roots_mod25[0])
print(root.describe())
leaves = expand_branches(root)
for leaf in leaves:
    print(" ", leaf.describe())
print()

# --- scanning the survivors ------------------------------------------------
for leaf in leaves:
    if not leaf.scannable:
        continue
    hits, rows = scan_branch(leaf)
    print(render_difference_table(leaf, rows))
    print(render_scan_table(leaf, rows, hits))
    for hit in hits:
        x, y = recover_xy(hit, N)
        print(f"hit at t = {hit.t}: value {hit.value} = {hit.root}^2 "
              f"-> {N} = {x}^2 + {y}^2")
    print()

# --- the verdict -----------------------------------------------------------
# Two distinct representations force a factorization.
cert = decide(N)
print(f"verdict: {cert.verdict.value}")
print(f"factors: {cert.factors[0]} * {cert.factors[1]} = {N}")
w = cert.witness
print(f"witness: u={w.u} v={w.v} k={w.k} l={w.l} m={w.m} n={w.n}")
print(f"independent verification: {verify(cert)}")
