# Prove 1000081 prime by exhausting its two-square representations.
#
# A number of this form with exactly one representation, and that one
# coprime, must in fact be prime.  The machinery shows its work: one
# branch dies because its values always leave remainder 5 on division
# by 8, two others because their values are twice an odd number, and
# the three survivors contain no square except the known 1000^2.

from twosquares import classify, decide, verify
from twosquares.report import render_scan_table
from twosquares.scan import expand_branches, initial_quadratic, scan_branch

N = 1000081

elig = classify(N)
print(f"N = {N}: {elig.status.value}, roots mod 25: {elig.roots_mod25}")
print()

root = initial_quadratic(N, elig.roots_mod25[0])
for leaf in expand_branches(root):
    if leaf.scannable:
        hits, rows = scan_branch(leaf)
        print(render_scan_table(leaf, rows, hits))
        found = [(h.t, h.value) for h in hits]
        print(f"squares found: {found or 'none'}")
    else:
        print(leaf.describe())
    print()

cert = decide(N)
print(f"verdict: {cert.verdict.value}")
rep = cert.representations[0]
print(f"unique representation: {N} = {rep.a}^2 + {rep.b}^2 (coprime: {rep.coprime})")
print(f"independent verification (factorization + Miller-Rabin): {verify(cert)}")
