#!/usr/bin/env python3
"""How big is E(x) = S_f(x) - C_f x really, at desk scale?

The interesting theory says |E| = O(x^(7/15 + 1/195 + eps)), roughly
x^0.472. Desk-scale data cannot confirm an exponent that close to the
x^0.5 neighborhood, so this demo reports the fitted slope without
pretending it certifies anything. What the data does show cleanly: E
stays far below the x^0.55 sanity ceiling for the von Mangoldt kind,
while the divisor kind still carries a visible secondary term at small x
(it crosses the same ceiling at x = 1e4 and 2e4).
"""

from floorsum import LAMBDA, cli, error_series, fit_exponent, geometric_grid, main_constant, tau

grid = geometric_grid(10**4, 10**7, 2)
for kind, terms in ((LAMBDA, 10**7), (tau(2), 10**6)):
    bracket = main_constant(kind, terms)
    series = error_series(kind, bracket, grid)
    print(f"{kind.label}: constant in [{bracket.lo:.9f}, {bracket.hi:.9f}]")
    print(f"  {'x':>10} {'S(x)':>16} {'E(x)':>12} {'|E|/x^0.55':>12}")
    for x, s, e in zip(series.xs, series.sums, series.errors):
        print(f"  {x:>10} {s:>16.2f} {e:>12.2f} {abs(e) / x**0.55:>12.3f}")
    fit = fit_exponent(series)
    print(f"  log-log fit: slope {fit.slope:.3f}, intercept {fit.intercept:.2f}, "
          f"rms residual {fit.residual:.3f} "
          f"({fit.points_used} points, {fit.points_excluded} excluded)")
    print()

print("CSV form, from the errfit subcommand:")
cli.main(["errfit", "--f", "lambda", "--x-lo", "10000", "--x-hi", "100000", "--terms", "1000000"])
