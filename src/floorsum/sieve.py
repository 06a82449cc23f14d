"""Sieves and pointwise evaluators for the von Mangoldt base, the Mobius
function, and the k-fold divisor functions.

The von Mangoldt function is handled through its prime base b(n)
(b(n) = p when n = p**a, otherwise 1), so tables stay integer-exact and a
logarithm only appears when a caller materializes Lambda(n) = log b(n).

Two evaluation routes are kept deliberately independent so they can
cross-check each other. Tables come from one segmented sieve (Bays and
Hudson, BIT 1977) over the primes p <= sqrt(hi - 1), split per window of
L entries at L // 64:
- the strided half walks the prime powers p**a < hi of the primes up to
  L // 64 and visits the multiples of each p**a in [lo, hi) by a strided
  slice;
- the bucketed half takes the larger primes, which have at most 64
  multiples in the window, as a bucket sieve does (Oliveira e Silva,
  Herzog and Pardi, Math. Comp. 2014): the offsets of all their multiples
  come from one vectorised pass (starts = -lo mod p, np.repeat, arange),
  and the exponent of p in each hit from vectorised division. The hits are
  built in groups of at most _BUCKET_GROUP = 2**14, about 1.3 MB of index
  arrays whatever the window size.
The primes 2 ... 13 mark one entry in every p, so when all six are strided
primes of a window their a = 1 marks and factors are copied from one
period of 30030 entries, built on first use, by a few doubling copies (the
pre-sieve of primesieve); the walk then skips their a = 1 and still takes
their higher powers. The base kind marks the odd multiples of each odd p
in a bitmap of the odd n only and takes the p**a lying in the window; what
stays unmarked is prime. Mobius and tau_k multiply the local factor
f(p**a) into each multiple and add a one-byte weight floor(4 log2 p) per
prime power found, and that sum alone tells whether n keeps one prime
above sqrt(hi - 1) (the lemma of _multiplicative_segment). Memory is
O(hi - lo + sqrt(hi)) for every kind, the second term for the base primes.

The walk runs over windows of at most _WINDOW entries, and windows(lo, hi)
is the one place that cuts a range into them: sieve_table, the partial
sums of main_constant and the floor-quotient sums all stream through it,
so one constant sets the working set of every pass. point_value goes
through factorization and the stars-and-bars formula
tau_k(p**a) = binomial(a + k - 1, k - 1).

point_values evaluates the lambda and tau kinds on a whole array of
arbitrary n <= 2**63 - 1: every f value of the floor_sums routes that
sum_blocked does not read from its table. It trial-divides the array at
once by the primes up to 1000 and splits what is left the way the P2 term
of Lagarias, Miller and Odlyzko (Math. Comp. 1985) and of Deleglise and
Rivat (Math. Comp. 1996) splits a number free of small primes: below
1009**2 it is prime, below 1009**3 it is a prime, p**2 or p*q. Both kinds
classify a cofactor by this one rule, once per distinct cofactor of a call:
is_prime tells a prime apart, and only the composite cofactors from 10**9
on are split by factor_pairs, one at a time. point_value stays the scalar
route the batch is tested against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DomainError, charge
from .primes import _trial_primes, factor_pairs, is_prime, prime_power_base, primes_upto

DEFAULT_MAX_ENTRIES = 1 << 27
# the term budget of floor_sums, expsum and the CLI, all of which import sieve
DEFAULT_MAX_TERMS = 10**9
# Every streaming pass (sieve_table, main_constant's partial sums, the sum
# routes) walks windows of at most _WINDOW entries. On a 2-core VM, 2**20
# ran as fast as 2**22 and held less: main_constant(tau(2), 5e6) peaked at
# 71 MB instead of 158 MB, sum_direct(LAMBDA, 1e7) at 46 MB instead of
# 126 MB, and sum_blocked at x = 1e12 at 104 MB instead of 260 MB.
_WINDOW = 1 << 20
# A window of L entries walks p <= L // _BUCKET_SPLIT by strided slices and
# buckets the larger primes, which have at most _BUCKET_SPLIT multiples in it.
# A few index entries per multiple cost less than ~2 us of numpy call per
# slice, but primes with many multiples run faster strided. Medians of 31
# interleaved runs on a 2-core VM, with 2 ... 13 pre-sieved (ms):
#   cut   main_constant(LAMBDA, 5e7)   mu, 1e6 at 1e12   Lambda, 1e6 at 1e12
#    32   125.0                        37.9              18.8
#    64   122.7                        34.7              18.4
#   128   134.9                        33.6              20.0
#   256   176.0                        34.3              20.1
# tau2 sum_blocked at 2.1e9, whose primes are strided at every cut, read
# 10.3-10.7 ms throughout. Above 148, the primes up to 7071 of
# main_constant's windows start to be bucketed.
_BUCKET_SPLIT = 64
# The bucketed hits of a window are built in groups of at most _BUCKET_GROUP
# hits, about 1.3 MB of index arrays, whatever the window size.
_BUCKET_GROUP = 1 << 14
# point_values tests _TRIAL_GROUP products (4 MB) of entry and prime at a time
_TRIAL_GROUP = 1 << 19
# The primes of _PRESIEVE each have one multiple in every p entries, so one
# period of _PERIOD = 2*3*5*7*11*13 entries holds all their a = 1 marks and
# factors (the pre-sieve of primesieve; Oliveira e Silva, Herzog and Pardi,
# Math. Comp. 2014). Over the odd n alone, 3 ... 13 repeat every
# _PERIOD // 2 entries.
_PRESIEVE = (2, 3, 5, 7, 11, 13)
_PERIOD = 30030


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


def _split_primes(primes: np.ndarray, length: int) -> tuple[np.ndarray, np.ndarray]:
    """(strided, bucketed): primes up to length // _BUCKET_SPLIT, which the
    strided walk visits, and the primes above, which have at most
    _BUCKET_SPLIT multiples in a window of length entries."""
    cut = int(primes.searchsorted(length // _BUCKET_SPLIT, side="right"))
    return primes[:cut], primes[cut:]


def _presieved(strided: np.ndarray) -> bool:
    """Whether every prime of _PRESIEVE is a strided prime of the window, so
    that their a = 1 marks come from a period and the walk skips them."""
    return len(strided) >= len(_PRESIEVE) and int(strided[len(_PRESIEVE) - 1]) == _PRESIEVE[-1]


def _tile(dst: np.ndarray, period: np.ndarray, start: int) -> None:
    """Fill dst with entries start, start + 1, ... of a periodic sequence;
    period holds two of its periods, and start is below one. Past the first
    period, dst doubles by copying its own head."""
    k = min(len(dst), len(period) // 2)
    dst[:k] = period[start : start + k]
    while k < len(dst):
        step = min(k, len(dst) - k)
        dst[k : k + step] = dst[:step]
        k += step


@functools.lru_cache(maxsize=1)
def _odd_period() -> np.ndarray:
    """Two periods of the odd n = 2j + 1, j = 0, 1, ...: True where no prime
    of _PRESIEVE divides n."""
    keep = np.ones(_PERIOD, dtype=bool)
    for p in _PRESIEVE[1:]:
        keep[p >> 1 :: p] = False  # 2j + 1 = p at j = p >> 1
    keep.setflags(write=False)  # every caller shares the cached array
    return keep


@functools.lru_cache(maxsize=8)
def _multiplicative_period(kind: Kind) -> tuple[np.ndarray, np.ndarray]:
    """Two periods of n = 0, 1, ... for mu or tau_k: f(p)**c and the weight
    sum of the c primes p of _PRESIEVE dividing n, an int64 and a uint8 array
    (see _multiplicative_segment). A tau_k entry can pass 2**63 and wrap, but
    an n of a table that reads it has tau_k(n) >= the entry, so below 2**63."""
    vals = np.ones(2 * _PERIOD, dtype=np.int64)
    acc = np.zeros(2 * _PERIOD, dtype=np.uint8)
    f = _local_factor(kind, 1)
    for p in _PRESIEVE:
        vals[::p] *= f
        acc[::p] += _weight(p)
    vals.setflags(write=False)
    acc.setflags(write=False)
    return vals, acc


def _weight(p: int) -> int:
    """floor(4 log2 p), exactly."""
    return (p**4).bit_length() - 1


@functools.lru_cache(maxsize=1)
def _weight_steps() -> np.ndarray:
    """steps[j], the least m with m**4 >= 2**j, for j < 128: _weight(p) is
    the number of steps up to p, less one, for every p < 2**32."""
    steps = []
    for j in range(128):
        m = math.isqrt(math.isqrt(1 << j))  # floor(2**(j/4))
        steps.append(m if m**4 == 1 << j else m + 1)
    table = np.array(steps, dtype=np.int64)
    table.setflags(write=False)
    return table


def _weights(p: np.ndarray) -> np.ndarray:
    """_weight of every p of an ascending int64 array of p < 2**32, as the
    number of steps passed: p[i] >= steps[j] iff i >= #(p < steps[j])."""
    below = p.searchsorted(_weight_steps())
    return np.bincount(below, minlength=len(p) + 1).cumsum()[: len(p)] - 1


def _exponents(n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The exponent of p[i] in n[i], for int64 arrays with every p[i]
    dividing n[i] and p[i]**2 < 2**63."""
    e = np.ones(len(n), dtype=np.int64)
    # few entries have p**2 | n; only those are divided further
    (sel,) = (n % (p * p) == 0).nonzero()
    p_sel = p[sel]
    q = n[sel] // p_sel
    while len(sel):
        e[sel] += 1
        q //= p_sel
        keep = q % p_sel == 0
        sel, p_sel, q = sel[keep], p_sel[keep], q[keep]
    return e


def _bucket_hits(lo: int, hi: int, primes: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(offsets, p, e): every multiple n = lo + offset in [lo, hi) of a prime
    p in primes, with e the exponent of p in n, as three int64 arrays.

    The hits run p ascending and, for one p, n ascending. They come in groups
    of whole primes with at most _BUCKET_GROUP hits, so the memory of a group
    stays bounded whatever the window; this needs every prime to have at most
    _BUCKET_GROUP hits, and the bucketed primes of _split_primes have at
    most _BUCKET_SPLIT.
    """
    if not len(primes):
        return
    starts = -lo % primes
    counts = (hi - lo - 1 - starts) // primes + 1
    ends = counts.cumsum()
    # hit h, counted over the whole window, of a prime p sits at offset
    # starts + (h - the index of p's first hit) * p
    bases = starts - (ends - counts) * primes
    i, first = 0, 0
    while first < ends[-1]:
        j = int(ends.searchsorted(first + _BUCKET_GROUP, side="right"))
        last = int(ends[j - 1])
        ps = primes[i:j].repeat(counts[i:j])
        offsets = bases[i:j].repeat(counts[i:j]) + np.arange(first, last) * ps
        yield offsets, ps, _exponents(offsets + lo, ps)
        i, first = j, last


def prime_powers(lo: int, hi: int, primes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, p) as two int64 arrays, one entry for every prime power
    n = p**a in [lo, hi); primes must reach sqrt(hi - 1).

    The powers of the given primes come first, ordered by p and then by a,
    then the remaining primes of the window in increasing order. The
    strided walk lists the powers of the primes up to (hi - lo) // 64, and
    the powers among the bucketed hits of the larger primes follow them.
    Callers hand it one window at a time (see windows).

    The remaining primes are read off a bitmap of the odd n of the window
    only: the even ones are powers of 2, which the walk or the buckets list,
    or n = 2 itself when primes lacks 2. When 3 ... 13 are strided primes,
    their marks come from a period of _PERIOD // 2 odd entries (see _tile)
    and the walk only lists their powers.
    """
    first = lo | 1
    # stays True for odd n > 1 with no factor in primes: a prime above them
    odd = np.empty((hi - first + 1) // 2, dtype=bool)
    strided, bucketed = _split_primes(primes, hi - lo)
    presieved = _presieved(strided)
    if presieved:
        _tile(odd, _odd_period(), (first >> 1) % (_PERIOD // 2))
    else:
        odd.fill(True)
    if first == 1 and len(odd):
        odd[0] = False  # 1 is not a prime power
    small_n, small_p = [], []
    for p, a, pa, start in _prime_power_walk(lo, hi, strided):
        if a == 1 and p != 2 and not (presieved and p <= _PRESIEVE[-1]):
            # the odd multiples of p sit p entries apart in odd
            n = lo + start if (lo + start) & 1 else lo + start + p
            odd[(n - first) >> 1 :: p] = False
        if pa >= lo:
            small_n.append(pa)
            small_p.append(p)
    ns, ps = [np.array(small_n, dtype=np.int64)], [np.array(small_p, dtype=np.int64)]
    for offsets, p, e in _bucket_hits(lo, hi, bucketed):
        n = offsets + lo
        odd[(n[(n & 1).astype(bool)] - first) >> 1] = False
        power = p**e == n
        ns.append(n[power])
        ps.append(p[power])
    big = np.flatnonzero(odd) * 2 + first
    if lo <= 2 < hi and not (len(primes) and primes[0] == 2):
        big = np.concatenate([np.array([2], dtype=np.int64), big])
    return np.concatenate(ns + [big]), np.concatenate(ps + [big])


def _local_factor(kind: Kind, a: int) -> int:
    """f(p**a) for the multiplicative kinds, mu and tau_k."""
    if kind.name == "mu":
        return (1, -1, 0)[min(a, 2)]
    return math.comb(a + kind.k - 1, kind.k - 1)


def _multiplicative_segment(kind: Kind, lo: int, hi: int, primes: np.ndarray, vals: np.ndarray) -> None:
    """Write mu or tau_k for n in [lo, hi) into vals, an int64 array of
    hi - lo entries; primes must reach sqrt(hi - 1).

    In the strided half each p**a swaps the local factor f(p**(a-1)) in vals
    for f(p**a); in the bucketed half each hit n of p multiplies in f(p**e)
    at once, e being the exponent of p in n. When 2 ... 13 are strided
    primes, vals starts from a period holding f(p)**c, c the number of them
    dividing n, and the walk skips their a = 1 (see _tile). Whatever n has
    left over is one prime above sqrt(hi - 1), with local factor f(p).

    The leftover is found with one byte per entry: acc[n] adds the weight
    w(p) = floor(4 log2 p) once per prime power p**a dividing n, p in
    primes. Write n = S P, S the part of n built from primes, which reach
    r = isqrt(hi - 1), and P the rest. Then

        P > 1 implies acc < 2 log2 n,  and  P = 1 implies acc >= 3 log2 n,

    so n keeps a prime above r iff acc < T for any integer T with
    2 log2 n <= T <= 3 log2 n, such as t(n) = (n*n - 1).bit_length() =
    ceil(2 log2 n). Proof: as w(p) <= 4 log2 p, acc <= 4 log2 S. If P > 1,
    then P is one prime, as n < hi <= (r + 1)**2, and P >= r + 1 > sqrt(n),
    so acc <= 4 log2 S < 2 log2 n. If P = 1 and n >= 2, then w(p) >
    4 log2 p - 1 gives acc > 4 log2 n - Omega(n) >= 3 log2 n; if n = 1,
    acc = 0. And acc <= 4 log2 n < 252 fits a uint8 for every n < 2**63.
    One T = floor(3 log2 a) = (a**3).bit_length() - 1 serves every n of
    [a, b] with b = isqrt(2**T), as b**2 <= 2**T <= a**3: the test is one
    slice comparison with a scalar per run, about ten runs from n = 1 to
    2**63, and one for a window of 2**20 entries from lo >= 2**21 on.
    """
    length = hi - lo
    # no p**a < hi has a >= hi.bit_length()
    local = [_local_factor(kind, a) for a in range(hi.bit_length())]
    strided, bucketed = _split_primes(primes, length)
    presieved = _presieved(strided)
    if presieved:
        period, weights = _multiplicative_period(kind)
        _tile(vals, period, lo % _PERIOD)
        acc = np.empty(length, dtype=np.uint8)
        _tile(acc, weights, lo % _PERIOD)
    else:
        vals.fill(1)
        acc = np.zeros(length, dtype=np.uint8)
    for p, a, pa, start in _prime_power_walk(lo, hi, strided):
        if a == 1 and presieved and p <= _PRESIEVE[-1]:
            continue
        acc[start::pa] += _weight(p)
        step = vals[start::pa]
        old, new = local[a - 1], local[a]
        if old == 0:  # mu past p**2 stays 0
            continue
        if new == 0:
            step.fill(0)
            continue
        if old != 1:
            step //= old
        step *= new
    for offsets, p, e in _bucket_hits(lo, hi, bucketed):
        np.multiply.at(vals, offsets, np.array(local[: int(e.max()) + 1], dtype=np.int64)[e])
        np.add.at(acc, offsets, (e * _weights(p)).astype(np.uint8))
    leftover = np.empty(length, dtype=bool)
    s = 0
    while s < length:
        t = ((lo + s) ** 3).bit_length() - 1
        e = min(length, math.isqrt(1 << t) + 1 - lo)
        np.less(acc[s:e], t, out=leftover[s:e])
        s = e
    # each n is multiplied by 1 + (f(p) - 1) * [leftover], a factor of one
    # byte when f(p) fits: a masked multiply costs several times more
    f = local[1]
    vals *= leftover * (np.int8(f - 1) if -128 <= f - 1 and f <= 127 else np.int64(f - 1)) + 1


_INT64_MAX = (1 << 63) - 1


@functools.lru_cache(maxsize=None)
def _tau_overflow_start(k: int) -> int:
    """The smallest n with tau_k(n) > 2**63 - 1, or 2**63 when no smaller n
    has one; a tau_k table fits int64 exactly when hi does not pass it.

    The bound is exact. Moving an exponent to a smaller prime keeps tau_k(n)
    and lowers n, so the smallest such n has non-increasing exponents on
    consecutive primes, and a depth-first search over those finds it. A
    branch stops once n reaches the best n found so far, and where even
    tau_k(p**e) <= k**e on every prime factor still to come cannot carry
    tau_k past 2**63 - 1.
    """
    # the product of these 16 primes passes 2**63, so no n < best uses more
    small = primes_upto(53).tolist()
    best = 1 << 63

    def search(i: int, n: int, t: int, cap: int) -> None:
        # n has exponents <= cap on small[:i]; t = tau_k(n)
        nonlocal best
        p = small[i]
        room, m = 0, n * p
        while m < best:
            room, m = room + 1, m * p
        if t * k**room <= _INT64_MAX:
            return
        m = n
        for e in range(1, cap + 1):
            m *= p
            if m >= best:
                return
            t_e = t * math.comb(e + k - 1, k - 1)
            if t_e > _INT64_MAX:
                best = m
                return
            search(i + 1, m, t_e, e)

    search(0, 1, 1, 63)
    return best


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
    base-prime sieve. A tau_k table is refused with DomainError, also
    before anything is allocated, when some n < hi has tau_k(n) > 2**63 - 1
    (see _tau_overflow_start); for tau_2 to tau_8 no n < 2**63 has. The
    base kind scatters the sparse prime powers of each window into b(n),
    and every window is written into one preallocated array.
    """
    if not 1 <= lo < hi:
        raise DomainError(f"need 1 <= lo < hi, got [{lo}, {hi})")
    if kind.name == "tau" and hi > (start := _tau_overflow_start(kind.k)):
        raise DomainError(
            f"{kind.label} table over [{lo}, {hi}) would not fit int64: "
            f"{kind.label} tables must end at hi <= {start}"
        )
    charge(max(hi - lo, math.isqrt(hi - 1)), max_entries,
           f"entries of the {kind.label} sieve over [{lo}, {hi})")
    primes = primes_upto(math.isqrt(hi - 1))
    values = np.empty(hi - lo, dtype=np.int64)
    for s, e in windows(lo, hi):
        part = values[s - lo : e - lo]
        if kind.name == "lambda":
            ns, ps = prime_powers(s, e, primes)
            part.fill(1)
            part[ns - s] = ps
        else:
            _multiplicative_segment(kind, s, e, primes, part)
    return ArithmeticTable(kind, lo, hi, values)


@functools.lru_cache(maxsize=1)
def _odd_trial_primes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(p, p**-1 mod 2**64, (2**64 - 1) // p) for the odd primes up to 1000,
    as arrays: an n >= 0 below 2**64 is a multiple of the odd p iff
    n * p**-1 mod 2**64 <= (2**64 - 1) // p (Granlund and Montgomery,
    PLDI 1994), one wrapping product where a remainder is a division."""
    odd = _trial_primes()[1:]
    return (
        np.array(odd, dtype=np.int64),
        np.array([pow(p, -1, 1 << 64) for p in odd], dtype=np.uint64),
        np.array([((1 << 64) - 1) // p for p in odd], dtype=np.uint64),
    )


def _strip_small_primes(m: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Divide every prime p <= min(1000, isqrt(max(m))) out of m, a
    non-empty array of positive int64, in place, yielding (at, p, e) in
    groups: one entry per such p dividing some m[at], with e the exponent
    of p in it.

    Once the groups are exhausted, what m keeps is 1, a prime, or a number
    with no prime factor below 1009; a kept entry of 10**6 or more is one
    of the last two. The divisibility of _TRIAL_GROUP // (number of odd
    primes) entries at a time by every odd prime comes from one product of
    arrays, so a call costs a fixed number of numpy calls however few
    entries it has, and the hits of one group take O(_TRIAL_GROUP) memory.
    """
    # 2 from the lowest set bit, which frexp reads exactly
    e2 = np.frexp((m & -m).astype(np.float64))[1] - 1
    m >>= e2
    (at,) = e2.nonzero()
    yield at, np.full(len(at), 2, dtype=np.int64), e2[at]
    odd, inverse, limit = _odd_trial_primes()
    cut = int(odd.searchsorted(math.isqrt(int(m.max())), side="right"))
    odd, inverse, limit = odd[:cut], inverse[:cut, None], limit[:cut, None]
    rows = _TRIAL_GROUP // max(1, cut)
    for s in range(0, len(m), rows):
        block = m[s : s + rows]
        hit = np.flatnonzero(inverse * block.view(np.uint64) <= limit)
        j, i = np.divmod(hit, len(block))
        p = odd[j]
        e = _exponents(block[i], p)
        np.floor_divide.at(block, i, p**e)
        yield i + s, p, e


def _split_cofactor(c: int) -> tuple[int, tuple[int, ...]]:
    """(b, exponents) for c >= 10**6 with no prime factor up to 1000: b is
    the prime base of c (1 unless c is a prime power), exponents those of
    the prime factors of c. c is prime when is_prime(c); otherwise, below
    10**9 (as 1009**3 > 10**9), p**2 or p*q as an exact square test tells;
    otherwise whatever factor_pairs(c) finds."""
    if is_prime(c):
        return c, (1,)
    if c < 10**9:
        r = math.isqrt(c)
        return (r, (2,)) if r * r == c else (1, (1, 1))
    pairs = factor_pairs(c)
    return pairs[0][0] if len(pairs) == 1 else 1, tuple(e for _, e in pairs)


def _per_cofactor(fn, cs: np.ndarray, dtype) -> np.ndarray:
    """fn(c) for every c of cs, as an array of dtype, calling fn once per
    distinct c: x // (p m) = (x // m) // p, so the quotients of one x often
    share a cofactor (about half of them do at x = 1e12 and 1e13)."""
    if not len(cs):
        return np.zeros(0, dtype=dtype)
    distinct, at = np.unique(cs, return_inverse=True)
    return np.array([fn(c) for c in distinct.tolist()], dtype=dtype)[at]


def point_values(kind: Kind, ns: np.ndarray) -> np.ndarray:
    """point_value(kind, n) for every n of ns, an int64 array of values in
    [1, 2**63 - 1], for the lambda and tau kinds: the one evaluator of f at
    arbitrary points for all three routes of floor_sums.

    The whole array is trial-divided at once by the primes up to 1000,
    which leaves a cofactor c with no prime factor up to 1000. One below
    10**6 (as 1009**2 > 10**6) is 1 or a prime; the larger ones are
    classified by _split_cofactor, once per distinct value (see
    _per_cofactor). lambda: n is a prime power iff it has one small prime
    factor and c = 1, or none and c is a prime power. tau_k multiplies the
    local factors C(e + k - 1, k - 1) of the small primes by those of c.

    tau values are int64, or Python ints in an object array when some n
    reaches _tau_overflow_start(k).
    """
    if kind.name not in ("lambda", "tau"):
        raise DomainError(f"point_values takes lambda or tau kinds, not {kind.label}")
    m = np.array(ns, dtype=np.int64)
    if not len(m):
        return m
    if int(m.min()) < 1:
        raise DomainError("point_values needs every n >= 1")
    if kind.name == "lambda":
        # how many small primes divide n, and one of them
        small = np.zeros(len(m), dtype=np.int64)
        base = np.ones(len(m), dtype=np.int64)
        for at, p, _ in _strip_small_primes(m):
            np.add.at(small, at, 1)
            base[at] = p
        base[(small != 1) | (m != 1)] = 1
        # an n > 1 with no small prime factor is prime below 10**6
        rest = (small == 0) & (m > 1)
        base[rest] = m[rest]
        (big,) = (rest & (m >= 10**6)).nonzero()
        base[big] = _per_cofactor(lambda c: _split_cofactor(c)[0], m[big], np.int64)
        return base
    top = int(m.max())
    dtype = np.int64 if top < _tau_overflow_start(kind.k) else object
    # no exponent reaches top.bit_length(); below it 2**e <= top, so when
    # top < _tau_overflow_start(k) every local factor tau_k(2**e) fits int64
    local = [_local_factor(kind, a) for a in range(top.bit_length())]
    table = np.array(local, dtype=dtype)
    out = np.ones(len(m), dtype=dtype)
    for at, _, e in _strip_small_primes(m):
        np.multiply.at(out, at, table[e])
    out[(m > 1) & (m < 10**6)] *= _local_factor(kind, 1)
    (big,) = (m >= 10**6).nonzero()
    out[big] *= _per_cofactor(lambda c: math.prod(local[a] for a in _split_cofactor(c)[1]), m[big], dtype)
    return out


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
