#!/usr/bin/env python3
"""Three routes to S_f(x) = sum_{n<=x} f(floor(x/n)) and why they agree.

floor(x/n) takes only about 2 sqrt(x) distinct values, so the literal
O(x) loop can be collapsed into a walk over constant-quotient blocks
whose endpoints come from integer division alone. The dual form goes one
step further and swaps the roles of n and the quotient d, which is the
rewrite every error-term estimate in this area starts from:

    #{n : floor(x/n) = d} = floor(x/d) - floor(x/(d+1))
                          = x/d - x/(d+1) - psi(x/d) + psi(x/(d+1)),

with psi the centered sawtooth. The package checks that count identity in
exact rational arithmetic; here we just watch all three routes land on
the same numbers.
"""

import math
import time

from floorsum import LAMBDA, distinct_quotients, sum_blocked, sum_direct, sum_dual, tau
from floorsum.floor_sums import _TABLE_FACTOR


def banner(text):
    print()
    print("=" * 72)
    print(f" {text}")
    print("=" * 72)


banner("Block structure")
for x in (100, 10**4):
    dec = distinct_quotients(x)
    print(f"x = {x}: {dec.block_count} blocks (bound 2 sqrt(x) + 1 = {2 * math.isqrt(x) + 1})")
print("first blocks at x = 100:", dec.blocks[:1], "...", distinct_quotients(100).blocks[:4])

banner("Direct vs blocked vs dual")
print(f"{'x':>10} {'kind':>7} {'direct':>18} {'blocked':>18} {'dual(N=x^0.47)':>18}")
for x in (10**4, 10**5, 10**6):
    for kind in (tau(2), tau(3), LAMBDA):
        d = sum_direct(kind, x)
        b = sum_blocked(kind, x)
        split = sum_dual(kind, x, max(1, round(x**0.47)))
        fmt = (lambda v: f"{v:>18}") if kind.name == "tau" else (lambda v: f"{v:>18.6f}")
        print(f"{x:>10} {kind.label:>7} {fmt(d)} {fmt(b)} {fmt(split.total)}")
        assert (b == d) if kind.name == "tau" else abs(b - d) < 1e-9 * abs(d)
        assert split.psi_form_discrepancy == 0

banner("Cost of the blocked route")
x = 10**8
t0 = time.perf_counter()
s = sum_blocked(LAMBDA, x)
t1 = time.perf_counter()
# the table cut of sum_blocked: f from the sieve for q <= T, by points above
T = min(x, _TABLE_FACTOR[LAMBDA.name] * math.isqrt(x))
print(f"sum_blocked(lambda, 1e8) = {s:.6f} in {t1 - t0:.2f}s "
      f"({distinct_quotients(x).block_count} blocks; f from a {T}-entry sieve, "
      f"{x // (T + 1)} point evaluations)")
print(f"S/x = {s / x:.8f} (heads toward the linear coefficient ~0.4498)")
