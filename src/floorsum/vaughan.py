"""A concrete, numerically checkable Vaughan decomposition of von
Mangoldt sums over a dyadic block.

For d in (D, D1] (D1 <= 2D) and any bounded weight g, the convolution
identity

    Lambda = mu_{<=U} * log  -  (mu_{<=U} * Lambda_{<=U}) * 1
             + mu_{>U} * Lambda_{>U} * 1,

valid for arguments larger than U, turns the sum of Lambda(d) g(d) into

    T1 = sum_{m <= U}    mu(m) sum_{D < mk <= D1} log(k) g(mk)      (type I, log weight)
    T2 = sum_{m <= U**2} c(m)  sum_{D < mk <= D1} g(mk)             (type I)
    T3 = sum_{m > U, k > U, D < mk <= D1} mu(m) w(k) g(mk)          (type II)

with c(m) = sum_{ab = m, a <= U, b <= U} mu(a) Lambda(b) and
w(k) = sum_{b | k, b > U} Lambda(b), and T1 - T2 + T3 equals the direct
sum. The cutoff is U = floor(D**(1/3)), so both type-II factors live in
(U, D1/U), the cube-root window up to the dyadic dilation.

Lambda values never enter as floats before the final accumulation: c(m)
is carried as an integer combination of log p terms, and w is sieved by
adding log p once per prime-power divisor above the cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .primes import introot
from .sieve import LAMBDA, MU, sieve_table
from .summation import compensated_sum


@dataclass(frozen=True)
class VaughanDecomposition:
    D: int
    D1: int
    U: int
    t1: complex
    t2: complex
    t3: complex
    direct: complex
    abs_err: float
    rel_err: float
    mu_small: np.ndarray
    c_table: tuple[dict[int, int], ...]
    w_table: np.ndarray

    @property
    def combined(self) -> complex:
        return self.t1 - self.t2 + self.t3


@dataclass(frozen=True)
class CoefficientReport:
    D: int
    U: int
    max_c_ratio: float
    max_w_ratio: float
    c_values: np.ndarray
    w_values: np.ndarray


def _cutoff(D: int) -> int:
    return introot(D, 3)


def c_coefficients(U: int) -> tuple[dict[int, int], ...]:
    """c(m) for m <= U**2 as exact {prime: multiplicity} combinations,
    where c(m) = sum of mu(a) Lambda(b) over ab = m with a, b <= U."""
    mu = sieve_table(MU, 1, U + 1).values if U >= 1 else np.zeros(0, dtype=np.int64)
    base = sieve_table(LAMBDA, 1, U + 1).values if U >= 1 else np.zeros(0, dtype=np.int64)
    table: list[dict[int, int]] = [dict() for _ in range(U * U + 1)]
    for b in range(2, U + 1):
        p = int(base[b - 1])
        if p == 1:
            continue
        for a in range(1, U + 1):
            m = int(mu[a - 1])
            if m:
                entry = table[a * b]
                entry[p] = entry.get(p, 0) + m
    return tuple(table)


def _c_floats(c_table) -> np.ndarray:
    out = np.zeros(len(c_table), dtype=np.float64)
    for m, entry in enumerate(c_table):
        if entry:
            out[m] = math.fsum(mult * math.log(p) for p, mult in entry.items())
    return out


def w_values(U: int, k_max: int) -> np.ndarray:
    """w(k) = sum over prime-power divisors q of k with q > U of log p,
    sieved for all k <= k_max."""
    out = np.zeros(k_max + 1, dtype=np.float64)
    if k_max <= U:
        return out
    base = sieve_table(LAMBDA, 1, k_max + 1).values
    for q in range(U + 1, k_max + 1):
        p = int(base[q - 1])
        if p > 1:
            out[q::q] += math.log(p)
    return out


def _weights_on_block(D: int, D1: int, g) -> np.ndarray:
    if callable(g):
        vals = np.asarray(g(np.arange(D + 1, D1 + 1, dtype=np.int64)), dtype=np.complex128)
    else:
        vals = np.asarray(g, dtype=np.complex128)
    if vals.shape != (D1 - D,):
        raise DomainError(f"g must provide {D1 - D} values on ({D}, {D1}]")
    return vals


def decompose(D: int, g, *, D1: int | None = None) -> VaughanDecomposition:
    """Split sum_{D < d <= D1} Lambda(d) g(d) into T1 - T2 + T3 and
    evaluate all four quantities on the same weight values.

    g may be a vectorized callable on the integers of (D, D1] or an array
    of D1 - D values. D1 defaults to the dyadic endpoint 2D and may be
    anywhere in (D, 2D] (the variable upper limit that partial summation
    introduces).
    """
    if D <= 100:
        raise DomainError("decompose needs D > 100")
    if D1 is None:
        D1 = 2 * D
    if not D < D1 <= 2 * D:
        raise DomainError(f"D1 must lie in (D, 2D], got {D1}")
    U = _cutoff(D)
    g_vals = _weights_on_block(D, D1, g)

    def block(m: int, k_lo: int, k_hi: int) -> np.ndarray:
        # g values at m*k for k in (k_lo, k_hi], as a strided view
        start = m * (k_lo + 1) - (D + 1)
        stop = m * k_hi - (D + 1) + 1
        return g_vals[start:stop:m]

    mu_top = D1 // (U + 1)
    mu_small = sieve_table(MU, 1, max(U, mu_top) + 1).values
    logs = np.arange(1, D1 + 1, dtype=np.float64)
    np.log(logs, out=logs)

    t1_parts = []
    for m in range(1, U + 1):
        mu_m = int(mu_small[m - 1])
        if mu_m == 0:
            continue
        k_lo, k_hi = D // m, D1 // m
        if k_hi > k_lo:
            t1_parts.append(mu_m * np.dot(logs[k_lo : k_hi], block(m, k_lo, k_hi)))
    t1 = complex(np.sum(np.array(t1_parts, dtype=np.complex128)))
    del logs  # D1 doubles, freed before the Lambda table and lam * g_vals exist

    c_table = c_coefficients(U)
    c_float = _c_floats(c_table)
    t2_parts = []
    for m in range(1, U * U + 1):
        if c_float[m] == 0.0:
            continue
        k_lo, k_hi = D // m, D1 // m
        if k_hi > k_lo:
            t2_parts.append(c_float[m] * np.sum(block(m, k_lo, k_hi)))
    t2 = complex(np.sum(np.array(t2_parts, dtype=np.complex128)))

    w = w_values(U, D1 // (U + 1))
    t3_parts = []
    for m in range(U + 1, mu_top + 1):
        mu_m = int(mu_small[m - 1])
        if mu_m == 0:
            continue
        k_lo, k_hi = max(U, D // m), D1 // m
        if k_hi > k_lo:
            t3_parts.append(mu_m * np.dot(w[k_lo + 1 : k_hi + 1], block(m, k_lo, k_hi)))
    t3 = complex(np.sum(np.array(t3_parts, dtype=np.complex128)))

    lam = sieve_table(LAMBDA, D + 1, D1 + 1).lambda_values()
    direct = compensated_sum(lam * g_vals)
    weight_mass = float(np.sum(lam * np.abs(g_vals)))
    abs_err = abs(t1 - t2 + t3 - direct)
    rel_err = abs_err / weight_mass if weight_mass > 0 else abs_err
    return VaughanDecomposition(
        D, D1, U, t1, t2, t3, direct, abs_err, rel_err, mu_small[:U], c_table, w
    )


def coefficient_bounds_report(D: int) -> CoefficientReport:
    """Size check of the decomposition coefficients: max |c(m)| / log m
    over 2 <= m <= U**2 and max w(k) / log k over 2 <= k <= 2D/(U+1).

    Both ratios are bounded by 1 (w(k) sums log p over a subset of the
    prime-power divisors of k, whose full sum is log k)."""
    if D <= 100:
        raise DomainError("coefficient_bounds_report needs D > 100")
    U = _cutoff(D)
    c_float = _c_floats(c_coefficients(U))
    k_max = (2 * D) // (U + 1)
    w = w_values(U, k_max)
    c_ratio = 0.0
    for m in range(2, U * U + 1):
        c_ratio = max(c_ratio, abs(c_float[m]) / math.log(m))
    w_ratio = 0.0
    for k in range(2, k_max + 1):
        if w[k]:
            w_ratio = max(w_ratio, w[k] / math.log(k))
    return CoefficientReport(D, U, c_ratio, w_ratio, c_float, w)
