import itertools
import math
import random
import time

import numpy as np
import pytest

from floorsum import sieve
from floorsum.cache import load_table, save_table, sieve_table_cached
from floorsum.errors import BudgetExceededError, DomainError, FloorsumError
from floorsum.sieve import (
    LAMBDA,
    MU,
    Kind,
    factorize,
    point_value,
    prime_powers,
    sieve_table,
    tau,
)
from floorsum.primes import primes_upto

ALL_KINDS = [LAMBDA, MU, tau(2), tau(3)]
WALK_KINDS = ALL_KINDS + [tau(4)]


def brute_tau_k(k, n):
    """Count ordered k-tuples with product n by full enumeration."""
    count = 0
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    for combo in itertools.product(divisors, repeat=k - 1):
        prod = math.prod(combo)
        if n % prod == 0:
            count += 1
    return count


def test_lambda_base_first_values():
    table = sieve_table(LAMBDA, 1, 10)
    assert list(table.values) == [1, 2, 3, 2, 5, 1, 7, 2, 3]


def test_mu_first_values():
    table = sieve_table(MU, 1, 8)
    assert list(table.values) == [1, -1, -1, 0, -1, 1, -1]


def test_tau3_at_4_by_enumeration():
    table = sieve_table(tau(3), 4, 5)
    assert table.value(4) == brute_tau_k(3, 4) == 6


def test_tau2_small_values_by_enumeration():
    table = sieve_table(tau(2), 1, 50)
    for n in range(1, 50):
        assert table.value(n) == brute_tau_k(2, n), n


def test_kind_validation():
    with pytest.raises(DomainError):
        tau(1)
    with pytest.raises(DomainError):
        Kind("lambda", 3)
    with pytest.raises(DomainError):
        Kind("sigma")


def test_sieve_rejects_bad_ranges_and_budget():
    with pytest.raises(DomainError):
        sieve_table(MU, 5, 5)
    with pytest.raises(DomainError):
        sieve_table(MU, 0, 10)
    with pytest.raises(BudgetExceededError):
        sieve_table(MU, 1, 10**7, max_entries=100)
    # tau tables are windowed like every kind: the footprint is hi - lo
    lo = 10**6
    small = sieve_table(tau(2), lo, lo + 10, max_entries=1000)
    assert list(small.values) == [point_value(tau(2), n) for n in range(lo, lo + 10)]
    with pytest.raises(BudgetExceededError):
        sieve_table(tau(2), lo, lo + 1001, max_entries=1000)


def test_base_prime_sieve_counts_against_budget():
    # 10 table entries, but isqrt(hi - 1) = 1e8 base-prime entries: refused
    # before anything is allocated
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        sieve_table(MU, 10**16, 10**16 + 10, max_entries=100)
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(BudgetExceededError):
        sieve_table(MU, 10**14, 10**14 + 10, max_entries=100)
    # the larger of the two footprints is what counts
    assert len(sieve_table(MU, 10**4, 10**4 + 10, max_entries=100).values) == 10
    with pytest.raises(BudgetExceededError):
        sieve_table(MU, 10**4 + 1, 10**4 + 2, max_entries=99)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_segment_boundaries_do_not_matter(kind):
    rng = random.Random(42)
    lo, hi = 1, 5000
    whole = sieve_table(kind, lo, hi).values
    for _ in range(100):
        cuts = sorted(rng.sample(range(lo + 1, hi), 5))
        parts = []
        prev = lo
        for c in cuts + [hi]:
            parts.append(sieve_table(kind, prev, c).values)
            prev = c
        assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_internal_segment_size_does_not_matter(monkeypatch, kind):
    monkeypatch.setattr(sieve, "_WINDOW", 256)
    a = sieve_table(kind, 1, 3000)
    monkeypatch.setattr(sieve, "_WINDOW", 1 << 22)
    b = sieve_table(kind, 1, 3000)
    assert np.array_equal(a.values, b.values)


def test_segments_far_from_origin():
    for lo, hi in [(10**6 + 7, 10**6 + 500), (10**12, 10**12 + 2000)]:
        for kind in WALK_KINDS:
            table = sieve_table(kind, lo, hi)
            for n in range(lo, hi):
                assert table.value(n) == point_value(kind, n), (kind.label, n)


@pytest.mark.parametrize("kind", WALK_KINDS)
def test_every_small_window_matches_point_value(kind):
    # covers windows that start or end on a prime power p**a and those
    # with hi - 1 = p**2, where the walk's prime bound is exact
    top = 130
    expected = np.array([0] + [point_value(kind, n) for n in range(1, top)])
    for lo in range(1, top):
        for hi in range(lo + 1, top + 1):
            got = sieve_table(kind, lo, hi).values
            assert np.array_equal(got, expected[lo:hi]), (kind.label, lo, hi)


@pytest.mark.parametrize("window", [sieve._WINDOW, 97])
def test_prime_powers_lists_each_prime_power_once(monkeypatch, window):
    # main_constant sums these lists window by window, so a repeat would count twice
    monkeypatch.setattr(sieve, "_WINDOW", window)
    for lo, hi in [(1, 2000), (10**6, 10**6 + 3000), (10**12, 10**12 + 2000)]:
        primes = primes_upto(math.isqrt(hi - 1))
        parts = [prime_powers(s, e, primes) for s, e in sieve.windows(lo, hi)]
        ns, ps = (np.concatenate(column) for column in zip(*parts))
        bases = {n: point_value(LAMBDA, n) for n in range(lo, hi)}
        assert len(ns) == len(set(ns.tolist()))
        assert dict(zip(ns.tolist(), ps.tolist())) == {n: b for n, b in bases.items() if b > 1}


def test_mobius_dirichlet_identity():
    # sum_{d|n} mu(d) = [n == 1]
    top = 10**4
    mu = sieve_table(MU, 1, top + 1).values
    acc = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, top + 1):
        acc[d::d] += mu[d - 1]
    assert acc[1] == 1
    assert not acc[2:].any()


@pytest.mark.parametrize("k", [2, 3])
def test_tau_recursion_identity(k):
    # tau_{k+1}(n) = sum_{d|n} tau_k(d)
    top = 10**4
    tk = sieve_table(tau(k), 1, top + 1).values
    tk1 = sieve_table(tau(k + 1), 1, top + 1).values
    acc = np.zeros(top + 1, dtype=np.int64)
    for d in range(1, top + 1):
        acc[d::d] += tk[d - 1]
    assert np.array_equal(acc[1:], tk1)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_point_value_matches_sieve_to_1e5(kind):
    top = 10**5
    table = sieve_table(kind, 1, top + 1)
    for n in range(1, top + 1):
        assert point_value(kind, n) == table.value(n), (kind.label, n)


def test_point_value_examples():
    assert point_value(tau(2), 6) == len([d for d in range(1, 7) if 6 % d == 0]) == 4
    assert point_value(LAMBDA, 8) == 2
    assert point_value(tau(3), 4) == 6
    assert point_value(MU, 30) == -1
    with pytest.raises(DomainError):
        point_value(MU, 0)


def test_factorize_wrapper():
    f = factorize(60)
    assert f.n == 60 and f.factors == ((2, 2), (3, 1), (5, 1))
    assert factorize(1).factors == ()


def test_sums_restricted_to_table():
    table = sieve_table(MU, 5, 10)
    with pytest.raises(DomainError):
        table.value(4)
    with pytest.raises(DomainError):
        table.value(10)


def test_lambda_values_floats():
    table = sieve_table(LAMBDA, 1, 10)
    lam = table.lambda_values()
    assert lam[0] == 0.0
    assert lam[1] == pytest.approx(math.log(2))
    assert lam[5] == 0.0   # n = 6
    with pytest.raises(DomainError):
        sieve_table(MU, 1, 5).lambda_values()


def test_cache_round_trip(tmp_path):
    table = sieve_table(tau(3), 10, 300)
    path = save_table(table, tmp_path)
    assert path.exists()
    back = load_table(tau(3), 10, 300, tmp_path)
    assert back is not None
    assert np.array_equal(back.values, table.values)
    assert back.kind == table.kind and (back.lo, back.hi) == (10, 300)


def test_cache_header_layout(tmp_path):
    import struct

    table = sieve_table(MU, 3, 7)
    path = save_table(table, tmp_path)
    raw = path.read_bytes()
    kind_code, k, lo, hi, version = struct.unpack_from("<5Q", raw)
    assert (kind_code, k, lo, hi, version) == (1, 0, 3, 7, 1)
    entries = np.frombuffer(raw, dtype="<i8", offset=40)
    assert np.array_equal(entries, table.values)


def test_cache_env_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("FLOORSUM_CACHE", str(tmp_path))
    first = sieve_table_cached(LAMBDA, 1, 100)
    assert (tmp_path / "lambda_1_100.tbl").exists()
    second = sieve_table_cached(LAMBDA, 1, 100)
    assert np.array_equal(first.values, second.values)


def test_cache_missing_and_mismatch(tmp_path):
    assert load_table(MU, 1, 10, tmp_path) is None
    table = sieve_table(MU, 1, 10)
    path = save_table(table, tmp_path)
    # corrupt the header's hi field
    raw = bytearray(path.read_bytes())
    raw[24:32] = (99).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(FloorsumError):
        load_table(MU, 1, 10, tmp_path)
