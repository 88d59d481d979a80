# Audit a whole range: decide every eligible number in [1000000, 1002000],
# re-verify each certificate independently, and check the CSV against
# the one `twosquares sweep` writes.
#
# This is the workload the method was built for: checking a printed
# prime table.  The range here contains one famous correction -- a
# number listed as prime that the scan splits as 293 * 3413.

import os
import tempfile
import time

from twosquares import classify, decide, verify
from twosquares.cli import main
from twosquares.report import sweep_csv

LO, HI = 1000000, 1002000

start = time.monotonic()
certs = [decide(n) for n in range(LO, HI + 1) if classify(n).is_eligible]
elapsed = time.monotonic() - start

primes = [c.n for c in certs if c.verdict.value == "prime"]
by_verdict = {}
for cert in certs:
    by_verdict[cert.verdict.value] = by_verdict.get(cert.verdict.value, 0) + 1

print(f"decided {len(certs)} eligible numbers in [{LO}, {HI}] in {elapsed:.2f}s")
print(f"verdict counts: {by_verdict}")
print(f"primes found: {len(primes)}")
print()

# every certificate re-checks without the scan engine
assert all(verify(c) for c in certs)
print("all certificates pass independent verification")
print()

# the corrected entry and its neighbours
csv_text = sweep_csv(certs)
for line in csv_text.splitlines():
    if line.startswith(("n,", "1000001,", "1000009,", "1000081,")):
        print(line)

# the CLI's sweep lists the window in one pass over its annulus instead
# of one decide per N, and writes the same bytes
with tempfile.TemporaryDirectory() as tmp:
    out = os.path.join(tmp, "range_audit.csv")
    assert main(["sweep", str(LO), str(HI), "--out", out]) == 0
    with open(out, encoding="utf-8", newline="") as fh:
        assert fh.read() == csv_text
print("\ntwosquares sweep writes the same table")
