"""Sieves and pointwise evaluators for the von Mangoldt base, the Mobius
function, and the k-fold divisor functions.

The von Mangoldt function is handled through its prime base b(n)
(b(n) = p when n = p**a, otherwise 1), so tables stay integer-exact and a
logarithm only appears when a caller materializes Lambda(n) = log b(n).

Two evaluation routes are kept deliberately independent so they can
cross-check each other. Tables come from one segmented sieve (Bays and
Hudson, BIT 1977): a walk over the prime powers p**a < hi with
p <= sqrt(hi - 1) that visits the multiples of each p**a in [lo, hi) by
a strided slice. The base kind marks the multiples of each p and takes the
p**a lying in the window; what stays unmarked is prime. Mobius and tau_k
multiply the local factor f(p**a) into each multiple and keep the product
of the walked prime powers, so that n over that product is 1 or one prime
above sqrt(hi - 1). Memory is O(hi - lo + sqrt(hi)) for every kind, the
second term for the base primes.

The walk runs over windows of at most _WINDOW entries, and windows(lo, hi)
is the one place that cuts a range into them: sieve_table, the partial
sums of main_constant and the floor-quotient sums all stream through it,
so one constant sets the working set of every pass. point_value goes
through factorization and the stars-and-bars formula
tau_k(p**a) = binomial(a + k - 1, k - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError, DomainError
from .primes import factor_pairs, prime_power_base, primes_upto

DEFAULT_MAX_ENTRIES = 1 << 27
# Every streaming pass (sieve_table, main_constant's partial sums, the sum
# routes) walks windows of at most _WINDOW entries. On a 2-core VM, 2**20
# ran as fast as 2**22 and held less: main_constant(tau(2), 5e6) peaked at
# 71 MB instead of 158 MB, sum_direct(LAMBDA, 1e7) at 46 MB instead of
# 126 MB, and sum_blocked at x = 1e12 at 104 MB instead of 260 MB.
_WINDOW = 1 << 20


@dataclass(frozen=True)
class Kind:
    """Which arithmetic function a table holds: lambda, mu, or tau with order k."""

    name: str
    k: int | None = None

    def __post_init__(self) -> None:
        if self.name not in ("lambda", "mu", "tau"):
            raise DomainError(f"unknown kind {self.name!r}")
        if self.name == "tau":
            if self.k is None or self.k < 2:
                raise DomainError("tau kind needs order k >= 2")
        elif self.k is not None:
            raise DomainError(f"kind {self.name!r} takes no order")

    @property
    def label(self) -> str:
        return f"tau{self.k}" if self.name == "tau" else self.name


LAMBDA = Kind("lambda")
MU = Kind("mu")


def tau(k: int) -> Kind:
    return Kind("tau", k)


@dataclass(frozen=True)
class Factorization:
    """n together with its (prime, exponent) pairs in increasing prime order."""

    n: int
    factors: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class ArithmeticTable:
    """Sieved values for n in [lo, hi).

    lambda tables store the prime base b(n), mu tables store values in
    {-1, 0, 1}, tau tables store the positive divisor counts.
    """

    kind: Kind
    lo: int
    hi: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != self.hi - self.lo:
            raise DomainError("table length must equal hi - lo")
        self.values.setflags(write=False)

    def value(self, n: int) -> int:
        if not self.lo <= n < self.hi:
            raise DomainError(f"{n} outside table range [{self.lo}, {self.hi})")
        return int(self.values[n - self.lo])

    def lambda_values(self) -> np.ndarray:
        """Lambda(n) = log b(n) as floats; only valid for lambda tables."""
        if self.kind.name != "lambda":
            raise DomainError("lambda_values only applies to lambda tables")
        out = np.zeros(len(self.values), dtype=np.float64)
        nz = self.values > 1
        out[nz] = np.log(self.values[nz].astype(np.float64))
        return out


def factorize(n: int) -> Factorization:
    """Factor n, deterministic and verified by re-multiplication."""
    return Factorization(n, factor_pairs(n))


def windows(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """Consecutive [s, e) of at most _WINDOW entries that tile [lo, hi).

    _WINDOW is read at call time, so setting it reaches every pass."""
    size = _WINDOW
    for s in range(lo, hi, size):
        yield s, min(hi, s + size)


def _prime_power_walk(lo: int, hi: int, primes: np.ndarray) -> Iterator[tuple[int, int, int, int]]:
    """(p, a, p**a, start) for every p in primes and a >= 1 such that p**a
    has a multiple in [lo, hi); the multiples sit at offsets start,
    start + p**a, ... from lo."""
    length = hi - lo
    for p in primes.tolist():
        pa, a = p, 1
        # no multiple of p**a in the window means none of any higher power
        while (start := -lo % pa) < length:
            yield p, a, pa, start
            pa *= p
            a += 1


def prime_powers(lo: int, hi: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, p) as two int64 arrays, one entry for every prime power
    n = p**a in [lo, hi); primes must reach sqrt(hi - 1).

    The powers of the given primes come first, in walk order, then the
    remaining primes of the window in increasing order. Callers hand it
    one window at a time (see windows).
    """
    # stays True for n > 1 with no factor in primes: a prime above them
    unmarked = np.ones(hi - lo, dtype=bool)
    if lo == 1:
        unmarked[0] = False  # 1 is not a prime power
    small_n, small_p = [], []
    for p, a, pa, start in _prime_power_walk(lo, hi, primes):
        if a == 1:
            unmarked[start::p] = False
        if pa >= lo:
            small_n.append(pa)
            small_p.append(p)
    big = np.flatnonzero(unmarked) + lo
    return (
        np.concatenate((np.array(small_n, dtype=np.int64), big)),
        np.concatenate((np.array(small_p, dtype=np.int64), big)),
    )


def _local_factor(kind: Kind, a: int) -> int:
    """f(p**a) for the multiplicative kinds, mu and tau_k."""
    if kind.name == "mu":
        return (1, -1, 0)[min(a, 2)]
    return math.comb(a + kind.k - 1, kind.k - 1)


def _multiplicative_segment(kind: Kind, lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    """mu or tau_k for n in [lo, hi); primes must reach sqrt(hi - 1).

    smooth[n] collects the walked prime powers dividing n, and each p**a
    swaps the local factor f(p**(a-1)) in vals for f(p**a). Whatever n
    has left over is one prime above sqrt(hi - 1), with local factor f(p).
    """
    length = hi - lo
    smooth = np.ones(length, dtype=np.int64)
    vals = np.ones(length, dtype=np.int64)
    for p, a, pa, start in _prime_power_walk(lo, hi, primes):
        step = vals[start::pa]
        smooth[start::pa] *= p
        old = _local_factor(kind, a - 1)
        if old == 0:  # mu past p**2 stays 0
            continue
        if old != 1:
            step //= old
        step *= _local_factor(kind, a)
    vals[np.arange(lo, hi, dtype=np.int64) != smooth] *= _local_factor(kind, 1)
    return vals


def sieve_table(
    kind: Kind,
    lo: int,
    hi: int,
    *,
    max_entries: int = DEFAULT_MAX_ENTRIES,
) -> ArithmeticTable:
    """Sieve an ArithmeticTable for n in [lo, hi).

    Every kind runs the same prime-power walk window by window (see
    windows), so the output is identical for any window size. The memory
    budget is checked, before anything is allocated, against the larger of
    the table's hi - lo entries and the isqrt(hi - 1) entries of the
    base-prime sieve. The base kind scatters the sparse prime powers of
    each window into b(n).
    """
    if not 1 <= lo < hi:
        raise DomainError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    entries = max(hi - lo, math.isqrt(hi - 1))
    if entries > max_entries:
        raise BudgetExceededError(
            f"sieve of {kind.label} over [{lo}, {hi}) needs {entries} entries, "
            f"budget is {max_entries}"
        )
    primes = primes_upto(math.isqrt(hi - 1))
    parts = []
    for s, e in windows(lo, hi):
        if kind.name == "lambda":
            ns, ps = prime_powers(s, e, primes)
            part = np.ones(e - s, dtype=np.int64)
            part[ns - s] = ps
        else:
            part = _multiplicative_segment(kind, s, e, primes)
        parts.append(part)
    return ArithmeticTable(kind, lo, hi, np.concatenate(parts))


def point_value(kind: Kind, n: int) -> int:
    """Single value by factorization: the prime base for lambda, mu(n), or
    tau_k(n) via multiplicativity with tau_k(p**a) = C(a + k - 1, k - 1)."""
    if n < 1:
        raise DomainError("point_value needs n >= 1")
    if kind.name == "lambda":
        return prime_power_base(n)
    pairs = factor_pairs(n)
    if kind.name == "mu":
        if any(e > 1 for _, e in pairs):
            return 0
        return -1 if len(pairs) % 2 else 1
    k = kind.k
    out = 1
    for _, e in pairs:
        out *= math.comb(e + k - 1, k - 1)
    return out
