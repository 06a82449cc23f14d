"""Evaluation of floor-quotient sums S_f(x) = sum_{n <= x} f(floor(x/n)).

Three routes are implemented and cross-checked:

* sum_direct divides every n from 1 to x, window by window (see
  sieve.windows), and adds f at each run of equal quotient times its
  length; up to x = 2**52 the quotients are floors of float64 divisions,
  exact by the argument in _window_quotients, and int64 divisions above;
* sum_blocked groups n by the quotient q = floor(x/n), O(sqrt x) blocks
  whose counts are formed as numpy arrays; f(q) is read from sieve tables,
  one per window of sieve.windows, for q <= T = c isqrt(x), with c = 16
  for Lambda and 4 for tau, and the larger quotients, about isqrt(x) / c
  of them, are evaluated a window at a time by sieve.point_values; only
  the about 2 isqrt(x) table entries that some block reaches are reduced;
* sum_dual splits the range at a threshold N and rewrites the tail over
  quotient values d, where the interval count floor(x/d) - floor(x/(d+1))
  equals x/d - x/(d+1) - psi(x/d) + psi(x/(d+1)) for the sawtooth psi.
  The tail blocks are built as int64 arrays a window at a time, and the
  sawtooth form is evaluated exactly in integer arithmetic over the
  common denominator d(d+1), through x/d - psi(x/d) - 1/2 = (x - x mod d)/d:
  in int64 where x(d+1) < 2**63, in Python ints for the larger d, which
  exist only for x > 2**32. Its largest difference from the counting form
  is reported.

The split threshold follows one fixed boundary rule: n belongs to the
tail iff n > N, and the tail enumerates exactly the quotient values
d = floor(x/n) attained by those n. The block whose n-interval straddles
N is clipped at N (its sawtooth form uses floor(x/d) = x/d - psi(x/d) -
1/2 against the exact lower limit N).

Divisor-kind sums are exact integers. Von Mangoldt sums add count *
log(base) contributions through one exactly rounded math.fsum, so no
result depends on the window size; one reducer, _reduce, does both for
all three routes. sum_blocked reads f(q) for q <= T from the sieve, and
every other f value of the three routes comes from sieve.point_values, so
comparing the routes checks the sieve against point_values as well as the
grouping. sum_blocked charges its T + x // (T + 1) entries and points to
max_terms, so the default budget of 10**9 stops it near x = 3.9e15 for
Lambda and 5.5e16 for tau.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .constants import ConstantBracket
from .errors import BracketTooWideError, DomainError, charge
from .primes import MAX_FACTOR_INPUT
from .sieve import DEFAULT_MAX_TERMS, Kind, point_values, sieve_table, windows

# sum_blocked reads f from sieve tables up to T = _TABLE_FACTOR[kind.name] * isqrt(x)
# and evaluates the quotients above T by point_values. From a scan on a
# 2-core VM, the primes caches cleared before every call, median ms of
# sum_blocked with the factor c interleaved (21 runs at x <= 2.1e9, 11 at
# 1e10, 7 at 1e11-1e12, 6 at 1e13):
#   Lambda  c =  8    12    16    24      tau2  c =  3     4     6     8
#   2.1e9     12.1  11.0  11.6  15.1            23.8  20.3  24.2  28.5
#   1e12       292   268   266   300             820   751   767   876
# tau2 at 1.05e9: 14.1  13.9  15.5  17.3; 1e10: 45.2  47.0  53.1  63.4;
# 1e11: 189  197  190  215; 1e13 (c = 4, 5, 6): 2697  2716  2615.
# Lambda is flat over 12-16. For tau, once each distinct cofactor is tested
# once (sieve.point_values) with as few bases as its size needs
# (primes.is_prime), 4 is best or within 5% of the best from 1e9 to 1e13.
_TABLE_FACTOR = {"lambda": 16, "tau": 4}


class Block(NamedTuple):
    q: int
    n_lo: int
    n_hi: int


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of [1, x] into maximal intervals of constant floor(x/n)."""

    x: int
    blocks: tuple[Block, ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)


@dataclass(frozen=True)
class SplitSum:
    """S_f(x) split at N: s1 over n <= N, s2 over N < n <= x."""

    x: int
    N: int
    s1: float | int
    s2: float | int
    total: float | int
    # max over tail quotients of |count_form - sawtooth_form|, exact; the
    # dual identity holds iff this is 0.
    psi_form_discrepancy: Fraction


@dataclass(frozen=True)
class ErrorSeries:
    """E(x) = S_f(x) - C_f * x over a grid, with the bracket on C_f kept
    so every row can be re-derived and the uncertainty propagated."""

    kind: Kind
    bracket: ConstantBracket
    xs: tuple[int, ...]
    sums: tuple[float, ...]
    errors: tuple[float, ...]
    errors_lo: tuple[float, ...]
    errors_hi: tuple[float, ...]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    residual: float
    points_used: int
    points_excluded: int


def distinct_quotients(x: int) -> BlockDecomposition:
    """All maximal blocks (q, n_lo, n_hi) with floor(x/n) = q on [n_lo, n_hi]."""
    if x < 1:
        raise DomainError("distinct_quotients needs x >= 1")
    blocks = []
    n = 1
    while n <= x:
        q = x // n
        n_hi = x // q
        blocks.append(Block(q, n, n_hi))
        n = n_hi + 1
    return BlockDecomposition(x, tuple(blocks))


def psi(t):
    """Sawtooth t - floor(t) - 1/2, equal to -1/2 at integers.

    Rational input (int or Fraction) gives an exact Fraction back; floats
    stay floats.
    """
    if isinstance(t, (int, Fraction)):
        f = Fraction(t)
        return f - (f.numerator // f.denominator) - Fraction(1, 2)
    t = float(t)
    return t - math.floor(t) - 0.5


def _check_sum_kind(kind: Kind) -> None:
    if kind.name not in ("lambda", "tau"):
        raise DomainError(f"floor-quotient sums take lambda or tau kinds, not {kind.label}")


def _check_sum_x(x: int) -> None:
    # the n = 1 term is f(x), and point_values takes int64 n, at most MAX_FACTOR_INPUT
    if not 1 <= x <= MAX_FACTOR_INPUT:
        raise DomainError(f"floor-quotient sums need 1 <= x <= {MAX_FACTOR_INPUT}, got {x}")


def _window_quotients(x: int, lo: int, hi: int) -> np.ndarray:
    """floor(x/n) for n = lo..hi-1, 1 <= lo <= hi - 1 <= x: float64 array
    holding exact integers for x <= 2**52, int64 array above.

    For x <= 2**52 each quotient is np.floor(x / n) over a float64 arange,
    in which x and n are exact. With k = x // n, this is k: rounding is
    monotone and k is a float, so fl(x/n) >= k; and k + 1 is a float with
    k + 1 - x/n >= 1/n, because x < n(k+1) in integers, while rounding up to
    k + 1 needs k + 1 - x/n <= (k+1) 2**-53, half the float spacing below
    k + 1, that is n(k+1) >= 2**53. But n(k+1) <= x + n <= 2x <= 2**53, with
    equality only at n = x = 2**52, where x/n = 1 is exact. Above 2**52 the
    int64 floor_divide is kept: at x = 2**60 + 12345 the float quotient is
    wrong for 302 of n = 1..2e5.
    """
    # divided in place: with a second window-sized temporary the freed
    # heap top outgrew glibc's trim threshold, so each window faulted
    # its pages in again (x near 2e6: 28 ms per enumeration, not 15)
    if x <= 1 << 52:
        q = np.arange(lo, hi, dtype=np.float64)
        np.divide(x, q, out=q)
        return np.floor(q, out=q)
    q = np.arange(lo, hi, dtype=np.int64)
    return np.floor_divide(x, q, out=q)


def _window_runs(x: int, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, count) int64 arrays of the runs of floor(x/n) for n = lo..hi-1.
    The quotient array dies on return, before the next window allocates
    its own: holding two at once costs each window its page faults again
    (x = 7.65e6: 27 ms per enumeration, not 16)."""
    q = _window_quotients(x, lo, hi)
    starts = np.concatenate(([0], np.flatnonzero(q[:-1] != q[1:]) + 1))
    return q[starts].astype(np.int64, copy=False), np.diff(starts, append=q.size)


def _quotient_runs(x: int, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, count) as two int64 arrays, one entry for each maximal run of
    q = floor(x/n), n = 1..n_max, found by dividing every n, window by
    window, with _window_quotients (float64 up to x = 2**52, int64 above).
    Runs split by window borders are merged, so the output does not depend
    on the window size."""
    values, counts = zip(*(_window_runs(x, lo, hi) for lo, hi in windows(1, n_max + 1)))
    q, count = np.concatenate(values), np.concatenate(counts)
    starts = np.concatenate(([0], np.flatnonzero(q[:-1] != q[1:]) + 1))
    return q[starts], np.add.reduceat(count, starts)


def _run_values(kind: Kind, q: np.ndarray, counts: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(f values, counts) for the runs (q, counts), with f from
    point_values, one window of sieve.windows runs at a time."""
    for lo, hi in windows(0, len(q)):
        yield point_values(kind, q[lo:hi]), counts[lo:hi]


def sum_direct(kind: Kind, x: int, *, max_terms: int = DEFAULT_MAX_TERMS):
    """S_f(x) by the literal loop over n = 1..x, grouped into runs of equal
    quotient, with f at each run's quotient from sieve.point_values.
    Every n is divided (_quotient_runs): in float64 up to x = 2**52, where
    the floor of the rounded quotient is exact (_window_quotients), in
    int64 above.

    Exact integer for tau kinds. For lambda the per-run contributions
    count * log(base) are reduced by one exactly rounded math.fsum.
    """
    _check_sum_kind(kind)
    _check_sum_x(x)
    charge(x, max_terms, "direct sum terms")
    return _reduce(kind, _run_values(kind, *_quotient_runs(x, x)))


def _table_dot(values: np.ndarray, counts: np.ndarray) -> int:
    """Exact sum of values * counts over non-negative arrays: counts int64,
    values int64 or the object array of Python ints point_values returns
    for high tau orders.

    One dot when max(values) * sum(counts) < 2**63 bounds it; otherwise
    Python-int products over the nonzero counts.
    """
    if not len(values):
        return 0
    if int(values.max()) * int(counts.sum()) < 1 << 63:
        return int(np.dot(values, counts))
    nz = np.flatnonzero(counts)
    return sum(map(operator.mul, values[nz].tolist(), counts[nz].tolist()))


def _lambda_terms(bases: np.ndarray, counts: np.ndarray) -> list[float]:
    """count * log(b) for every prime-power entry some block reaches."""
    hit = (bases > 1) & (counts > 0)
    return (counts[hit] * np.log(bases[hit].astype(np.float64))).tolist()


def _reduce(kind: Kind, parts: Iterable[tuple[np.ndarray, np.ndarray]]):
    """sum of f values * counts over (f values, counts) array pairs: an
    exact integer for tau, one exactly rounded math.fsum of
    count * log(base) for lambda, so neither depends on how the pairs are
    cut or ordered."""
    if kind.name == "tau":
        return sum(_table_dot(v, c) for v, c in parts)
    return math.fsum(chain.from_iterable(_lambda_terms(v, c) for v, c in parts))


def _table_windows(kind: Kind, x: int, table_top: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(f values, block counts) for the quotients q that blocks reach in
    the windows [lo, hi) of sieve.windows covering [1, table_top], where
    table_top >= isqrt(x), two pairs per window from one sieve_table.

    The count of q is the number of n with floor(x/n) = q: for
    q <= q_max = x // (r + 1), r = isqrt(x), that is x // q - x // (q + 1),
    all with n > r, a dense prefix of the window; above q_max, q = x // n
    for a single n <= r, read from the table by index with count 1. No
    window-sized count array is built: most q above q_max are reached by
    no block. Either pair may be empty.
    """
    r = math.isqrt(x)
    q_max = x // (r + 1)
    for lo, hi in windows(1, table_top + 1):
        values = sieve_table(kind, lo, hi).values
        top = max(lo, min(hi, q_max + 1))
        cum = x // np.arange(lo, top + 1, dtype=np.int64)
        yield values[: top - lo], cum[:-1] - cum[1:]
        # n <= r with lo <= x // n < hi; these quotients are distinct and above q_max
        n = np.arange(x // hi + 1, min(r, x // lo) + 1, dtype=np.int64)
        yield values[x // n - lo], np.ones_like(n)


def sum_blocked(kind: Kind, x: int, *, max_terms: int = DEFAULT_MAX_TERMS):
    """S_f(x) over the block decomposition: sum of f(q) * block count.

    Block counts are formed as arrays window by window (see
    _table_windows). With r = isqrt(x) and c = _TABLE_FACTOR (16 for
    Lambda, 4 for tau), f(q) for q <= T = min(x, c r) is read from one
    sieve_table per window of sieve.windows, and only the entries some
    block reaches, about 2 r of them, are reduced; the quotients x // n > T,
    about r / c of them, are evaluated by sieve.point_values, one window of
    n at a time. Both passes stream, so memory is O(window). tau sums are
    exact integers; Lambda sums collect every count * log(b) term and
    reduce them once with math.fsum, which is exactly rounded, so the
    result is bit-identical for any window size and order. The work, T
    sieved entries plus x // (T + 1) points, is charged to max_terms
    before any of it is done: 16062 for Lambda and 4249 for tau at
    x = 1e6, so the default budget of 10**9 stops sum_blocked above
    x ~ 3.9e15 for Lambda and x ~ 5.5e16 for tau.
    """
    _check_sum_kind(kind)
    _check_sum_x(x)
    table_top = min(x, _TABLE_FACTOR[kind.name] * math.isqrt(x))
    # x // n > table_top exactly for n <= x // (table_top + 1)
    point_count = x // (table_top + 1)
    charge(table_top + point_count, max_terms, f"table entries and points at x={x}")
    ns = (np.arange(lo, hi, dtype=np.int64) for lo, hi in windows(1, point_count + 1))
    points = ((point_values(kind, x // n), np.ones_like(n)) for n in ns)
    return _reduce(kind, chain(_table_windows(kind, x, table_top), points))


def _psi_form_excess(x: int, q, n_lo, N: int, count):
    """(num, den) with num/den = sawtooth form minus count for the tail
    block of x split at N with quotient q and first index n_lo, exact in
    integers, with den = q(q+1).

    Uses x/q - psi(x/q) - 1/2 = (x - x % q)/q. An interior block
    (n_lo > N) has the form x/q - x/(q+1) - psi(x/q) + psi(x/(q+1)); the
    block straddling N has x/q - psi(x/q) - 1/2 - N.

    q, n_lo and count are Python ints, or arrays of tail blocks taken
    elementwise: object arrays of Python ints, or int64 arrays when
    x(q+1) < 2**63 for every q. Then each product below lies in
    [0, x(q+1)] for a count of at most x/q, and as int64 arithmetic wraps
    modulo 2**64, num is exact whenever its true value fits int64: 0 for
    the right count, -den or den for one off by one.
    """
    den = q * (q + 1)
    lower = (n_lo > N) * (x - x % (q + 1)) * q + (n_lo <= N) * N * den
    return (x - x % q) * (q + 1) - lower - count * den, den


def _tail_blocks(x: int, N: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(q, n_lo, count) int64 arrays for the blocks of x with n_hi > N, a
    window of sieve.windows at a time, in the order of distinct_quotients.

    As in _table_windows, with r = isqrt(x): each n <= r is a block of its
    own with q = x // n, and the blocks with n > r have q = q_max ... 1,
    q_max = x // (r + 1), n_hi = x // q and n_lo = x // (q + 1) + 1. The
    count of a block is the number of its n above N, n_hi - max(n_lo - 1, N);
    only the first block can straddle N.
    """
    r = math.isqrt(x)
    for lo, hi in windows(N + 1, r + 1):
        n = np.arange(lo, hi, dtype=np.int64)
        yield x // n, n, np.ones_like(n)
    q_top = x // (max(r, N) + 1)
    for lo, hi in windows(0, q_top):
        q = np.arange(q_top - lo, q_top - hi, -1, dtype=np.int64)
        n_lo = x // (q + 1) + 1
        yield q, n_lo, x // q - np.maximum(n_lo - 1, N)


def _largest_excess(x: int, N: int, q: np.ndarray, n_lo: np.ndarray, count: np.ndarray) -> Fraction:
    """max |_psi_form_excess| over the tail blocks (q, n_lo, count): in
    int64 for the blocks with x(q+1) < 2**63, in Python ints (object
    arrays) for the others, which exist only for x above 2**32. The
    maximum is a Fraction of Python ints, 0 when the identity holds."""
    fits = q < (2**63 - 1) // x
    worst = Fraction(0)
    for part, dtype in ((fits, np.int64), (~fits, object)):
        if not part.any():
            continue
        q_part, n_lo_part, count_part = (
            a[part].astype(dtype, copy=False) for a in (q, n_lo, count))
        num, den = _psi_form_excess(x, q_part, n_lo_part, N, count_part)
        nz = np.flatnonzero(num)
        for a, b in zip(np.abs(num[nz]).tolist(), den[nz].tolist()):
            worst = max(worst, Fraction(a, b))
    return worst


def sum_dual(kind: Kind, x: int, N: int, *, max_terms: int = DEFAULT_MAX_TERMS) -> SplitSum:
    """S_f(x) as s1 (n <= N, direct) plus s2 (tail over quotient values).

    Both parts take f from sieve.point_values, a window at a time: the
    runs of the direct part (_quotient_runs), and the tail's quotients,
    built as int64 arrays by _tail_blocks. The tail count for quotient d
    is computed both by interval arithmetic and through the sawtooth
    expansion; the two are compared exactly over the denominator d(d+1),
    in int64 where x(d+1) < 2**63 and in Python ints elsewhere
    (_largest_excess), and the largest absolute difference is reported as
    a Fraction of Python ints (it must be 0).
    The block count (at most 2 isqrt(x) + 1) and the N direct terms are
    each checked against max_terms up front.
    """
    _check_sum_kind(kind)
    _check_sum_x(x)
    if not 1 <= N <= x:
        raise DomainError(f"split point N={N} must lie in [1, {x}]")
    charge(2 * math.isqrt(x) + 1, max_terms, f"blocks (at most) at x={x}")
    charge(N, max_terms, "direct part terms")
    s1 = _reduce(kind, _run_values(kind, *_quotient_runs(x, N)))
    excess = []

    def tail():
        for q, n_lo, count in _tail_blocks(x, N):
            excess.append(_largest_excess(x, N, q, n_lo, count))
            yield point_values(kind, q), count

    s2 = _reduce(kind, tail())
    return SplitSum(x, N, s1, s2, s1 + s2, max(excess, default=Fraction(0)))


def geometric_grid(lo: int = 10**4, hi: int = 10**8, ratio: int = 2) -> list[int]:
    """lo, lo*ratio, lo*ratio**2, ... capped at hi, with hi always included."""
    if lo < 1 or hi < lo or ratio < 2:
        raise DomainError("need 1 <= lo <= hi and ratio >= 2")
    xs = []
    v = lo
    while v <= hi:
        xs.append(v)
        v *= ratio
    if xs[-1] != hi:
        xs.append(hi)
    return xs


def error_series(
    kind: Kind,
    bracket: ConstantBracket,
    xs: Sequence[int],
    *,
    resolution: float | None = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ErrorSeries:
    """Tabulate E(x) = S_f(x) - C_f * x over xs with the constant bracket
    propagated: errors_lo/errors_hi use the bracket endpoints, errors the
    midpoint.

    When a resolution is requested, a bracket too wide to resolve it at
    max(xs) raises BracketTooWideError instead of silently proceeding.
    Each sum comes from sum_blocked, held to max_terms.
    """
    xs = list(xs)
    if any(b >= a for a, b in zip(xs[1:], xs)):
        raise DomainError("xs must be strictly increasing")
    if xs and resolution is not None:
        spread = bracket.width * max(xs)
        if spread > resolution:
            raise BracketTooWideError(
                f"bracket width {bracket.width!r} spans {spread!r} at x={max(xs)}, "
                f"above the requested resolution {resolution!r}"
            )
    mid = bracket.midpoint
    sums, errs, errs_lo, errs_hi = [], [], [], []
    for x in xs:
        s = float(sum_blocked(kind, x, max_terms=max_terms))
        sums.append(s)
        errs.append(s - mid * x)
        errs_lo.append(s - bracket.hi * x)
        errs_hi.append(s - bracket.lo * x)
    return ErrorSeries(kind, bracket, tuple(xs), tuple(sums), tuple(errs), tuple(errs_lo), tuple(errs_hi))


def fit_exponent(series: ErrorSeries) -> FitResult:
    """Least-squares line through (log x, log |E(x)|).

    Points with |E| < 1 would put log|E| on the wrong side of zero for a
    growth fit, so they are excluded and counted.
    """
    usable = [(x, abs(e)) for x, e in zip(series.xs, series.errors) if abs(e) >= 1.0]
    excluded = len(series.xs) - len(usable)
    if len(usable) < 3:
        raise DomainError(f"need at least 3 points with |E| >= 1, have {len(usable)}")
    lx = np.log([x for x, _ in usable])
    le = np.log([e for _, e in usable])
    slope, intercept = np.polyfit(lx, le, 1)
    resid = le - (slope * lx + intercept)
    return FitResult(
        float(slope),
        float(intercept),
        float(np.sqrt(np.mean(resid**2))),
        len(usable),
        excluded,
    )
