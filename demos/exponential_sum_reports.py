#!/usr/bin/env python3
"""Measured exponential sums against the bound formulas, plus the
three-way case split that routes divisor factorizations to the right
estimate.

Bound ratios are reports, not assertions: the formulas carry unspecified
implied constants and x^eps factors, so all we demand is the trivial
bound and sanity (ratio below 1e3).
"""

import math
from fractions import Fraction as F

from floorsum import (
    ExpSumScenario,
    bound_comparison,
    classify_factorization,
    pair,
)

HALF = pair(F(1, 2), F(1, 2))

print("single dyadic range, phase h x / (n + delta):")
print(f"  {'x':>10} {'range':>16} {'coeffs':>7} {'modulus':>10} {'trivial':>9} {'vdc ratio':>10}")
for x, n_lo, coeffs in ((10**6, 1000, "unit"), (10**6, 1000, "lambda"),
                        (10**8, 4000, "mu"), (10**7, 2000, "random")):
    s = ExpSumScenario(shape="monomial", x=float(x), h=1, n_lo=n_lo, coeffs=coeffs)
    rep = bound_comparison(s, HALF)
    print(f"  {x:>10} ({n_lo},{2*n_lo}] {coeffs:>7} {rep.measured:>10.2f} "
          f"{rep.trivial_bound:>9.1f} {rep.ratio:>10.4f}")

print()
print("the regime the main theorem works in: x = 1e8, D = x^(8/15), H = D^2/x^(1-1/195):")
x = 10**8
d = round(x ** (8 / 15))
h_lo = max(1, round(d * d / x ** (1 - 1 / 195) / 2))
m_lo, n_lo = round(math.sqrt(d) / 2), round(math.sqrt(d))
s = ExpSumScenario(shape="triple", x=float(x), h_lo=h_lo, m_lo=m_lo, n_lo=n_lo, coeffs="random")
for lemma in ("LWY", "RS"):
    rep = bound_comparison(s, HALF, lemma)
    print(f"  {lemma}: measured {rep.measured:.2f}, bound {rep.bound.value:.2e}, "
          f"ratio {rep.ratio:.2e}, flagged={rep.flagged}")


print()
print("case classification of dyadic factorizations (exact cube comparisons):")
rows = [
    (2, 2**20, (2**6, 2**14)),
    (3, 2**30, (2**10, 2**10, 2**10)),
    (4, 2**24, (2**4, 2**5, 2**7, 2**8)),
    (5, 2**20, (2**4,) * 5),
    (6, 2**17, (2**2, 2**2, 2**3, 2**3, 2**3, 2**4)),
]
for k, D, factors in rows:
    split = classify_factorization(k, D, factors)
    merge = "" if split.t is None else f"  t={split.t}, L1=2^{split.l1.bit_length()-1}, L2=2^{split.l2.bit_length()-1}"
    print(f"  k={k}, D=2^{D.bit_length()-1}, largest=2^{factors[-1].bit_length()-1}: case {split.case}{merge}")
