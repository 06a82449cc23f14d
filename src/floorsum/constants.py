"""Certified brackets for the linear coefficients C_f = sum_{n>=1} f(n)/(n(n+1)).

A bracket [lo, hi] is an honest enclosure of the true constant: the
partial sum is widened outward by an explicit float rounding allowance,
and the tail gets a computable upper bound.

Von Mangoldt tail: every term is at most log n / n**2, whose integrand
decreases for n >= 2, so

    sum_{n > N} log n / n**2  <=  (log N + 1)/N + log(N + 1)/(N + 1)**2

(the integral from N plus one guard term). Divisor tail: the Dirichlet
series identity sum_n tau_k(n)/n**2 = zeta(2)**k gives the exact
remainder

    sum_{n > N} tau_k(n)/(n(n+1)) <= sum_{n > N} tau_k(n)/n**2
                                   = zeta(2)**k - sum_{n <= N} tau_k(n)/n**2,

which needs no implied constants at all. All bracket arithmetic is
widened by a small multiple of machine epsilon per operation, so the
enclosure property is literally true for the float endpoints.

Partial sums run over [1, N] in the windows of sieve.windows, so memory is
bounded by the one window size, sieve._WINDOW, whatever N is. In each
window the von Mangoldt sum reads only the sparse prime powers from the
sieve's prime-power walk, and the divisor sums read a tau_k table of the
window. One float part per window is reduced in the requested order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .primes import primes_upto
from .sieve import Kind, prime_powers, sieve_table, windows

_EPS = float(np.finfo(np.float64).eps)
# Covers per-term evaluation (a handful of roundings each) plus the
# pairwise chunk reduction; generous by an order of magnitude.
_PAD_REL = 64.0 * _EPS


@dataclass(frozen=True)
class ConstantBracket:
    """kind, number of partial-sum terms, and the enclosure [lo, hi]."""

    kind: Kind
    terms_used: int
    lo: float
    hi: float

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


def _combine(parts: list[float], order: str) -> float:
    if order == "ascending":
        return math.fsum(parts)
    if order == "blockwise":
        # coarser tree: fold pairs first, then fsum the survivors
        folded = [sum(parts[i : i + 2]) for i in range(0, len(parts), 2)]
        return math.fsum(folded)
    raise DomainError(f"unknown evaluation order {order!r}")


def _window_sums(kind: Kind, s: int, e: int, primes: np.ndarray) -> tuple[float, float]:
    """The sums of f(n)/(n(n+1)) and of f(n)/n**2 over the window [s, e).

    Lambda reads the sparse prime powers of the window, f(p**a) = log p,
    and skips the square sum (0.0), which only the tau tail needs; tau_k
    reads a sieved table of the window, freed once its float copy exists.
    n(n + 1) and n**2 are formed in one reused buffer, by the same float
    operations as v / (n * (n + 1.0)) and v / (n * n). Every array dies on
    return, so none is held while the next window is sieved.
    """
    if kind.name == "lambda":
        ns, ps = prime_powers(s, e, primes)
        n = ns.astype(np.float64)
        v = np.log(ps.astype(np.float64))
    else:
        v = sieve_table(kind, s, e).values.astype(np.float64)
        n = np.arange(s, e, dtype=np.float64)
    buf = np.add(n, 1.0)
    np.multiply(n, buf, out=buf)
    main = float(np.sum(np.divide(v, buf, out=buf)))
    if kind.name != "tau":
        return main, 0.0
    np.multiply(n, n, out=buf)
    return main, float(np.sum(np.divide(v, buf, out=buf)))


def _partial_sums(kind: Kind, n_terms: int, order: str) -> tuple[float, float]:
    """Partial sums of f(n)/(n(n+1)) and f(n)/n**2 over n <= n_terms, one
    part per window of sieve.windows (see _window_sums), reduced in the
    given order."""
    primes = primes_upto(math.isqrt(n_terms))
    parts_main, parts_sq = zip(*(_window_sums(kind, s, e, primes) for s, e in windows(1, n_terms + 1)))
    return _combine(list(parts_main), order), _combine(list(parts_sq), order)


def _zeta2_power(k: int) -> tuple[float, float]:
    """Directed bracket for zeta(2)**k = (pi**2 / 6)**k."""
    z = math.pi * math.pi / 6.0
    val = z**k
    pad = (3 + k) * _EPS * val
    return val - pad, val + pad


def main_constant(kind: Kind, n_terms: int, *, order: str = "ascending") -> ConstantBracket:
    """Bracket for C_f with n_terms partial-sum terms.

    order selects the reduction tree ("ascending" or "blockwise"); any
    order yields a valid bracket, and brackets from different orders must
    overlap.
    """
    if n_terms < 10:
        raise DomainError("main_constant needs at least 10 terms")
    if kind.name == "lambda":
        partial, _ = _partial_sums(kind, n_terms, order)
        pad = _PAD_REL * partial
        n = float(n_terms)
        tail = (math.log(n) + 1.0) / n + math.log(n + 1.0) / ((n + 1.0) * (n + 1.0))
        tail = tail * (1.0 + 8.0 * _EPS)
        return ConstantBracket(kind, n_terms, partial - pad, partial + pad + tail)
    if kind.name == "tau":
        partial, partial_sq = _partial_sums(kind, n_terms, order)
        pad = _PAD_REL * partial
        pad_sq = _PAD_REL * partial_sq
        _, z_hi = _zeta2_power(kind.k)
        tail = z_hi - (partial_sq - pad_sq)
        return ConstantBracket(kind, n_terms, partial - pad, partial + pad + tail)
    raise DomainError(f"no main-term constant for kind {kind.label}")
