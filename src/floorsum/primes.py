"""Prime generation, deterministic primality testing, and factorization.

Everything here is deterministic: Miller-Rabin takes as bases the first
primes, as many as are proven enough for the size of n (see is_prime), and
the Pollard-Brent splitter walks a fixed sequence of polynomial offsets.
Factorizations are verified by re-multiplication before being returned.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_FACTOR_INPUT = 2**63 - 1

# The primes 2..37 are a proven witness set below 318665857834031151167461,
# about 3.2e23 (Sorenson and Webster, Math. Comp. 2017), so for every n < 2**63.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_TRIAL_LIMIT = 1000


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, ascending, as an int64 array."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mark = np.ones(n + 1, dtype=bool)
    mark[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = False
    return np.flatnonzero(mark).astype(np.int64)


@lru_cache(maxsize=1)
def _trial_primes() -> tuple[int, ...]:
    return tuple(int(p) for p in primes_upto(_TRIAL_LIMIT))


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for all n handled here (< 2**63).

    The bases are the first primes, as many as n's size needs. The smallest
    strong pseudoprime to the bases 2, 3, 5, 7 is 3215031751, and to the
    bases 2..17 it is 341550071728321 (Jaeschke, Math. Comp. 1993), so n
    below those takes 4 and 7 bases. Larger n take all 12 bases 2..37,
    proven below about 3.2e23 (Sorenson and Webster, Math. Comp. 2017).
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    bases = _MR_BASES[:4] if n < 3215031751 else _MR_BASES[:7] if n < 341550071728321 else _MR_BASES
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _brent_rho(n: int) -> int:
    """Nontrivial factor of an odd composite n, deterministic restarts."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        y, r, q = 2, 1, 1
        g = 1
        x = ys = y
        m = 128
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"cycle search failed to split {n}")


def _factor_into(n: int, out: dict[int, int]) -> None:
    if n == 1:
        return
    if is_prime(n):
        out[n] = out.get(n, 0) + 1
        return
    d = _brent_rho(n)
    _factor_into(d, out)
    _factor_into(n // d, out)


@lru_cache(maxsize=1 << 18)
def factor_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """(prime, exponent) pairs of n in increasing prime order.

    Trial division by primes below 1000, then Miller-Rabin plus
    Pollard-Brent on the remaining cofactor. The result is checked by
    re-multiplication.
    """
    if n == 0:
        raise DomainError("cannot factor 0")
    if n < 0 or n > MAX_FACTOR_INPUT:
        raise DomainError(f"factorization supports 1 <= n <= 2**63 - 1, got {n}")
    m = n
    fac: dict[int, int] = {}
    for p in _trial_primes():
        if p * p > m:
            break
        while m % p == 0:
            fac[p] = fac.get(p, 0) + 1
            m //= p
    if m > 1:
        _factor_into(m, fac)
    pairs = tuple(sorted(fac.items()))
    check = 1
    for p, e in pairs:
        check *= p**e
    if check != n:
        raise ArithmeticError(f"factorization of {n} failed verification")
    return pairs


def introot(n: int, k: int) -> int:
    """floor(n ** (1/k)) for n >= 0, k >= 1, computed exactly."""
    if n < 0 or k < 1:
        raise DomainError("introot needs n >= 0, k >= 1")
    if k == 1 or n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r > 1 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


@lru_cache(maxsize=1 << 18)
def prime_power_base(n: int) -> int:
    """p when n = p**a for a prime p and a >= 1, else 1 (including n = 1).

    Scans candidate exponents from the largest down, so a true prime power
    is recognized at its full exponent where the root is the prime itself.
    """
    if n < 1:
        raise DomainError("prime_power_base needs n >= 1")
    if n == 1:
        return 1
    for a in range(n.bit_length() - 1, 0, -1):
        r = introot(n, a)
        if r**a == n and is_prime(r):
            return r
    return 1
