import math
import random

import pytest

from floorsum.errors import DomainError
from floorsum.primes import (
    factor_pairs,
    introot,
    is_prime,
    prime_power_base,
    primes_upto,
)


def naive_is_prime(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primes_upto_matches_trial_division():
    got = list(primes_upto(500))
    want = [n for n in range(501) if naive_is_prime(n)]
    assert got == want


def test_primes_upto_tiny():
    assert list(primes_upto(1)) == []
    assert list(primes_upto(2)) == [2]


def test_is_prime_against_trial_division():
    for n in range(2000):
        assert is_prime(n) == naive_is_prime(n), n


@pytest.mark.parametrize("n,expected", [
    (561, False),          # Carmichael
    (10**9 + 7, True),
    (2**31 - 1, True),     # Mersenne
    (10**12 + 39, True),
    (10**12 + 37, False),
])
def test_is_prime_spot_values(n, expected):
    assert is_prime(n) == expected


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def twelve_base_is_prime(n):
    """Miller-Rabin with every base 2..37, a proven test for n < 2**63."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % p == 0 for p in bases):
        return False
    return all(strong_probable_prime(n, a) for a in bases)


# the smallest strong pseudoprimes to the first 4, 5, 6, 7 and 9 prime bases
STRONG_PSEUDOPRIMES = [3215031751, 2152302898747, 3474749660383, 341550071728321, 3825123056546413051]
BASE_CUTS = [3215031751, 341550071728321]


def nearest_primes(n):
    below, above = n - 1, n
    while not twelve_base_is_prime(below):
        below -= 1
    while not twelve_base_is_prime(above):
        above += 1
    return below, above


def test_is_prime_base_cuts_against_twelve_bases():
    assert strong_probable_prime(65359477, 2)  # = 2557 * 25561
    assert strong_probable_prime(3215031751, 7) and strong_probable_prime(341550071728321, 17)
    composites = STRONG_PSEUDOPRIMES + [65359477, 561, 41041, 825265, 1009**2, (10**6 + 3) ** 2]
    for n in composites:
        assert not twelve_base_is_prime(n) and not is_prime(n), n
    near = [n for cut in BASE_CUTS for n in nearest_primes(cut)]
    assert all(twelve_base_is_prime(n) and is_prime(n) for n in near), near
    rng = random.Random(17)
    for _ in range(10**4):
        n = rng.randrange(2**62)
        assert is_prime(n) == twelve_base_is_prime(n), n


def test_factor_pairs_examples():
    assert factor_pairs(1) == ()
    assert factor_pairs(60) == ((2, 2), (3, 1), (5, 1))
    assert factor_pairs(2**40) == ((2, 40),)
    assert factor_pairs(10**9 + 7) == ((10**9 + 7, 1),)


def test_factor_pairs_large_semiprime_uses_rho():
    p, q = 1000003, 1000033
    assert factor_pairs(p * q) == ((p, 1), (q, 1))


def test_factor_pairs_remultiplies_randomly():
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randrange(1, 10**12)
        prod = 1
        for p, e in factor_pairs(n):
            assert is_prime(p)
            prod *= p**e
        assert prod == n


def test_factor_pairs_rejects_zero_and_negative():
    with pytest.raises(DomainError):
        factor_pairs(0)
    with pytest.raises(DomainError):
        factor_pairs(-6)


def test_introot_exact():
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(0, 10**15)
        k = rng.randrange(1, 10)
        r = introot(n, k)
        assert r**k <= n < (r + 1) ** k


def test_prime_power_base_values():
    assert prime_power_base(1) == 1
    assert prime_power_base(8) == 2
    assert prime_power_base(64) == 2
    assert prime_power_base(36) == 1
    assert prime_power_base(97) == 97
    assert prime_power_base(6) == 1
    assert prime_power_base(3**7) == 3


def test_prime_power_base_against_factorization():
    for n in range(1, 3000):
        pairs = factor_pairs(n)
        want = pairs[0][0] if len(pairs) == 1 else 1
        assert prime_power_base(n) == want, n
