# Factor recovery from a double representation, on its own.
#
# If N = a^2 + b^2 = c^2 + d^2 in two genuinely different ways, then
# with u = |a - c|, v = |d - b|, k = gcd(u, v), u = k l, v = k m,
# a + c = m n it holds that 4N = (k^2 + n^2)(l^2 + m^2) -- an explicit
# split of N.  A second route reduces the transposed-product fraction
# (a + d)/(c + b) to p/q and reads a divisor off gcd(N, p^2 + q^2).

from twosquares import gcd_fraction_factor, klmn_factor, klmn_factor_mixed
from twosquares.factorize import select_pair, transposed_fraction
from twosquares.represent import oracle_representations

for N in (1000009, 325, 481, 169, 4329):
    reps = oracle_representations(N)
    print(f"N = {N}")
    for r in reps:
        print(f"  = {r.a}^2 + {r.b}^2")
    if len(reps) < 2:
        print("  (single representation, nothing to factor)\n")
        continue
    r1, r2 = select_pair(reps)

    w = klmn_factor(N, r1, r2)
    print(f"  even/odd arrangement: u={w.u} v={w.v} k={w.k} l={w.l} m={w.m} n={w.n}")
    print(f"    4N = ({w.k}^2+{w.n}^2)({w.l}^2+{w.m}^2) -> {N} = {w.f1} * {w.f2}")

    wm = klmn_factor_mixed(N, r1, r2)
    print(f"  mixed arrangement:    k={wm.k} l={wm.l} m={wm.m} n={wm.n} "
          f"-> {N} = {wm.f1} * {wm.f2}")

    p, q = transposed_fraction(r1, r2)
    g = gcd_fraction_factor(N, r1, r2)
    print(f"  fraction route: ({r1.a}+{r2.b})/({r2.a}+{r1.b}) reduces to {p}/{q}; "
          f"gcd(N, {p}^2+{q}^2) = {g}")
    print(f"    -> {N} = {g} * {N // g}")
    print()
