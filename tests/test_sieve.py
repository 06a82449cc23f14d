import itertools
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from floorsum import floor_sums, primes, sieve
from floorsum.cache import load_table, save_table, sieve_table_cached
from floorsum.errors import BudgetExceededError, DomainError, FloorsumError
from floorsum.sieve import (
    LAMBDA,
    MU,
    Kind,
    point_value,
    point_values,
    prime_powers,
    sieve_table,
    tau,
)
from floorsum.primes import MAX_FACTOR_INPUT, primes_upto

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


def test_point_values_match_point_value_below_3e5():
    # n outer, so factor_pairs' cache serves all three tau kinds of one n
    top = 3 * 10**5
    kinds = (LAMBDA, tau(2), tau(3), tau(4))
    batch = [point_values(kind, np.arange(1, top, dtype=np.int64)).tolist() for kind in kinds]
    for n in range(1, top):
        for kind, values in zip(kinds, batch):
            assert values[n - 1] == point_value(kind, n), (kind.label, n)


# (n, factorization): each row reaches one branch of point_values
BUILT_POINTS = [
    (1, ()),
    (2**62, ((2, 62),)),  # small prime only
    (MAX_FACTOR_INPUT, ((7, 2), (73, 1), (127, 1), (337, 1), (92737, 1), (649657, 1))),
    (1009, ((1009, 1),)),  # cofactor prime below 10**6
    (6 * 1013, ((2, 1), (3, 1), (1013, 1))),
    (1000003, ((1000003, 1),)),  # cofactor of 10**6 or more, prime
    (2**63 - 25, ((2**63 - 25, 1),)),
    (2**10 * 1000033, ((2, 10), (1000033, 1))),
    (1009**2, ((1009, 2),)),  # p**2 below 10**9
    (31607**2, ((31607, 2),)),
    (1009 * 1013, ((1009, 1), (1013, 1))),  # p * q below 10**9
    (6 * 1009 * 31607, ((2, 1), (3, 1), (1009, 1), (31607, 1))),
    (31627**2, ((31627, 2),)),  # composite of 10**9 or more: factor_pairs
    (1000003 * 1000033, ((1000003, 1), (1000033, 1))),
    (5 * 31627 * 1000003, ((5, 1), (31627, 1), (1000003, 1))),
] + [(1009**a, ((1009, a),)) for a in range(3, 7)] + [(1000003**a, ((1000003, a),)) for a in (2, 3)]


def test_point_values_built_cases(monkeypatch):
    assert all(math.prod(p**e for p, e in pairs) == n for n, pairs in BUILT_POINTS)
    ns = np.array([n for n, _ in BUILT_POINTS], dtype=np.int64)
    factored = []
    monkeypatch.setattr(sieve, "factor_pairs", lambda c: factored.append(c) or primes.factor_pairs(c))
    monkeypatch.setattr(sieve, "prime_power_base", lambda n: pytest.fail("prime_power_base reached"))
    for k in (2, 3, 4):
        expected = [math.prod(math.comb(e + k - 1, k - 1) for _, e in pairs) for _, pairs in BUILT_POINTS]
        assert point_values(tau(k), ns).tolist() == expected, k
    assert point_values(LAMBDA, ns).tolist() == [
        pairs[0][0] if len(pairs) == 1 else 1 for _, pairs in BUILT_POINTS
    ]
    # both kinds factor only the composite cofactors of 10**9 or more
    big = {92737 * 649657, 31627**2, 1000003 * 1000033, 31627 * 1000003, 1000003**2, 1000003**3}
    big |= {1009**a for a in range(3, 7)}
    assert set(factored) == big


def test_point_values_classify_each_distinct_cofactor_once(monkeypatch):
    # cofactors of 10**6 or more with no prime factor up to 1000: primes and
    # semiprimes of 10**9 or more, and smaller ones, each repeated bare and
    # times small numbers
    cofactors = [10**9 + 7, 10**12 + 39, 1000003 * 1000033, 31627**2, 1000003, 1009 * 1013]
    multiples = [1, 1, 2, 6, 2**10 * 3**5, 997]
    ns = np.array([m * c for c in cofactors for m in multiples] + [1, 7, 2**62], dtype=np.int64)
    ns = ns[np.random.default_rng(5).permutation(len(ns))]
    calls, split = [], sieve._split_cofactor
    monkeypatch.setattr(sieve, "_split_cofactor", lambda c: calls.append(c) or split(c))
    for kind in (LAMBDA, tau(2), tau(100)):
        calls.clear()
        got = point_values(kind, ns)
        assert got.tolist() == [point_value(kind, int(n)) for n in ns], kind.label
        assert sorted(calls) == sorted(cofactors), kind.label
    assert got.dtype == object  # tau(100) of 2**62 passes int64


@pytest.mark.parametrize("x, ns", [
    (10**7 + 19, None),  # every distinct quotient, as sum_dual's tail and sum_direct's runs
    (10**12 + 39, range(1, 2001)),  # the largest quotients, as sum_blocked's points
], ids=["distinct-1e7", "largest-1e12"])
def test_point_values_on_the_routes_inputs(x, ns):
    if ns is None:
        qs = [q for q, _, _ in floor_sums.distinct_quotients(x).blocks]
        assert len(qs) == 6323
    else:
        qs = [x // n for n in ns]
    for kind in (LAMBDA, tau(2), tau(3)):
        got = point_values(kind, np.array(qs, dtype=np.int64)).tolist()
        assert got == [point_value(kind, q) for q in qs], kind.label


def test_point_values_past_int64_and_bad_input():
    first = 2**15 * 3**6 * 5**3 * 7  # the first n with tau_20(n) > 2**63 - 1
    ns = np.array([first - 1, first, 2**62], dtype=np.int64)
    assert point_values(tau(20), ns).tolist() == [point_value(tau(20), int(n)) for n in ns]
    assert point_values(tau(2), np.array([], dtype=np.int64)).tolist() == []
    with pytest.raises(DomainError):
        point_values(MU, np.array([6]))
    with pytest.raises(DomainError):
        point_values(tau(2), np.array([5, 0]))


def test_point_values_high_tau_orders():
    # from k = 22 on tau_k(2**62) passes 2**63 - 1, though tau_k of every n
    # below sieve._tau_overflow_start(k) (99532800 for k = 30) fits int64
    for k in (22, 30):
        start = sieve._tau_overflow_start(k)
        below = list(range(1, 3000)) + [n for n, _ in BUILT_POINTS if n < start] + [start - 1]
        for ns in (below, below + [start, 2**62]):
            got = point_values(tau(k), np.array(ns, dtype=np.int64)).tolist()
            assert got == [point_value(tau(k), n) for n in ns], k


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


def test_cache_without_a_directory_refuses_before_sieving(monkeypatch):
    monkeypatch.delenv("FLOORSUM_CACHE", raising=False)
    monkeypatch.setattr("floorsum.cache.sieve_table", lambda *a, **k: pytest.fail("sieved"))
    with pytest.raises(FloorsumError, match="no cache directory"):
        sieve_table_cached(LAMBDA, 1, 100)


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


def _prime_power_order(lo, hi):
    """prime_powers' documented order, built by brute force: p**a in [lo, hi)
    for the primes up to isqrt(hi - 1), by p and then a, then the primes of
    the window above them in increasing order."""
    primes = primes_upto(math.isqrt(hi - 1)).tolist()
    walk = []
    for p in primes:
        pa = p
        while pa < hi:
            if pa >= lo:
                walk.append((pa, p))
            pa *= p
    top = primes[-1] if primes else 1
    rest = [n for n in range(max(lo, top + 1), hi) if point_value(LAMBDA, n) == n]
    return [n for n, _ in walk] + rest, [p for _, p in walk] + rest


# Windows at the edges of the pre-sieve: lo = 1, 2, 3 with base primes that
# stop short of 13 or do not exist, n = 2 with 2 bucketed, the shortest
# windows near the origin that use the period, and windows of either parity
# that straddle a multiple of 30030, the period of 2 ... 13 (and of 3 ... 13
# over the odd n), or span more than two periods.
PRESIEVE_EDGES = [
    (1, 169), (2, 169), (3, 170), (1, 3), (2, 3), (2, 4), (1, 100), (1, 833), (2, 834),
    (30030 * 7 - 1000, 30030 * 7 + 1000),
    (30030 * 33 - 499, 30030 * 33 + 2000),
    (30030 * 40 - 7, 30030 * 42 + 5),
]


@pytest.mark.parametrize("lo, hi", [
    (1, 3000),                                 # primes 47 and 53 above the cut 46
    (1000003**2 - 500, 1000003**2 + 500),      # cut 15, p**2 of the largest base prime
    (2**40 - 25, 2**40 + 25),                  # 50 entries: every prime above the cut
] + PRESIEVE_EDGES)
def test_prime_powers_follow_the_documented_order(lo, hi):
    ns, ps = prime_powers(lo, hi, primes_upto(math.isqrt(hi - 1)))
    expected_n, expected_p = _prime_power_order(lo, hi)
    assert ns.tolist() == expected_n
    assert ps.tolist() == expected_p


@pytest.mark.parametrize("lo, hi", PRESIEVE_EDGES)
def test_windows_at_the_edges_of_the_presieve(lo, hi):
    strided = sieve._split_primes(primes_upto(math.isqrt(hi - 1)), hi - lo)[0]
    assert sieve._presieved(strided) == (hi - lo >= 64 * 13 and hi > 13**2)
    for kind in WALK_KINDS:
        values = sieve_table(kind, lo, hi).values.tolist()
        assert values == [point_value(kind, n) for n in range(lo, hi)], kind.label


def test_leftover_weights_tell_a_prime_above_the_sieving_primes():
    # _multiplicative_segment's lemma: acc, the weights floor(4 log2 p) of
    # the prime powers p**a | n with p <= r = isqrt(hi - 1), is below
    # 2 log2 n when n has a prime factor above r and at least 3 log2 n when
    # not, so below t(n) = ceil(2 log2 n) exactly in the first case
    rng = random.Random(2121)
    cases = [(n, hi) for n in range(1, 2 * 10**5 + 1) for hi in (n + 1, 2 * 10**5 + 1)]
    for top in (53, 62):
        for _ in range(1000):
            n = (1 << top) - rng.randrange(1, 1 << 40)
            cases.append((n, n + 1 + rng.randrange(1 << 20)))
    for n, hi in cases:
        r = math.isqrt(hi - 1)
        pairs = primes.factor_pairs(n)
        acc = sum(e * ((p**4).bit_length() - 1) for p, e in pairs if p <= r)
        leftover = any(p > r for p, _ in pairs)
        assert acc < 256
        assert (acc < (n * n - 1).bit_length()) == leftover, (n, hi)
        assert 2**acc < n * n if leftover else 2**acc >= n**3, (n, hi)
    # the strided walk and the bucketed hits take these weights
    ps = np.concatenate([primes_upto(10**5), [2**31 - 1, 3037000493, 2**32 - 5]]).tolist()
    weights = [(p**4).bit_length() - 1 for p in ps]
    assert [sieve._weight(p) for p in ps] == weights
    assert sieve._weights(np.array(ps, dtype=np.int64)).tolist() == weights


def test_import_builds_no_period():
    # the periods are built on first use: importing the package and its CLI
    # does no sieve work
    code = ("import floorsum, floorsum.cli, floorsum.cache\n"
            "from floorsum import sieve\n"
            "caches = (sieve._odd_period, sieve._multiplicative_period, sieve._weight_steps)\n"
            "print(*(f.cache_info().currsize for f in caches))")
    env = {**os.environ, "PYTHONPATH": str(Path(sieve.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]


@pytest.mark.parametrize("power", [2, 3])
@pytest.mark.parametrize("half", [50, 500])
def test_windows_around_a_power_of_a_bucketed_prime(power, half):
    p = 1009
    lo, hi = p**power - half, p**power + half
    assert p > (hi - lo) // 64  # fewer than 64 multiples: bucketed
    for kind in WALK_KINDS:
        values = sieve_table(kind, lo, hi).values.tolist()
        assert values == [point_value(kind, n) for n in range(lo, hi)], kind.label
    ns, ps = prime_powers(lo, hi, primes_upto(math.isqrt(hi - 1)))
    assert dict(zip(ns.tolist(), ps.tolist()))[p**power] == p


def test_window_shorter_than_64_entries_buckets_every_prime():
    # 2**40 has exponent 40 at the bucketed prime 2
    lo, hi = 2**40 - 25, 2**40 + 25
    strided, bucketed = sieve._split_primes(primes_upto(math.isqrt(hi - 1)), hi - lo)
    assert len(strided) == 0 and bucketed[0] == 2
    for kind in WALK_KINDS:
        values = sieve_table(kind, lo, hi).values.tolist()
        assert values == [point_value(kind, n) for n in range(lo, hi)], kind.label


def test_window_with_no_prime_above_the_cut():
    lo, hi = 10**6, 10**6 + 70000  # isqrt(hi - 1) = 1034 <= 70000 // 64
    primes = primes_upto(math.isqrt(hi - 1))
    assert len(sieve._split_primes(primes, hi - lo)[1]) == 0
    rng = random.Random(7)
    sample = rng.sample(range(lo, hi), 300)
    for kind in WALK_KINDS:
        table = sieve_table(kind, lo, hi)
        assert [table.value(n) for n in sample] == [point_value(kind, n) for n in sample]


@pytest.mark.parametrize("window", [97, 1 << 20])
def test_window_size_moves_primes_between_the_halves(monkeypatch, window):
    # with 97-entry windows every prime is bucketed; with one window the
    # primes up to 9 are walked strided
    monkeypatch.setattr(sieve, "_WINDOW", window)
    p = 1000003
    lo, hi = p**2 - 300, p**2 + 300
    for kind in WALK_KINDS:
        values = sieve_table(kind, lo, hi).values.tolist()
        assert values == [point_value(kind, n) for n in range(lo, hi)], kind.label


@pytest.mark.parametrize("length", [10**5, 64 * 1566, 64 * 1567])
def test_strided_walk_visits_only_primes_up_to_the_cut(monkeypatch, length):
    # 1567 is prime: it has 64 multiples in 64 * 1567 entries and is walked,
    # and 63 or 64 in 64 * 1566 entries, where it is bucketed
    walked = []
    walk = sieve._prime_power_walk

    def counting(lo, hi, primes):
        for item in walk(lo, hi, primes):
            walked.append(item[0])
            yield item

    monkeypatch.setattr(sieve, "_prime_power_walk", counting)
    lo = 10**12
    hi = lo + length
    sieve_table(MU, lo, hi)
    small = primes_upto(length // 64).tolist()
    powers = sum(1 for p in small for a in range(1, 64) if p**a < hi)
    assert sorted(set(walked)) == small
    assert len(walked) <= powers  # 78,498 primes and their powers without buckets


def _tau_of_shapes_below(k, bound):
    """tau_k(n) for every n < bound with non-increasing exponents on
    consecutive primes, the shapes that hold the maximum of tau_k below bound."""
    small = primes_upto(60).tolist()
    out = []

    def walk(i, n, t, cap):
        out.append(t)
        m = n
        for e in range(1, cap + 1):
            m *= small[i]
            if m >= bound:
                return
            walk(i + 1, m, t * math.comb(e + k - 1, k - 1), e)

    walk(0, 1, 1, 64)
    return out


def test_tau_tables_past_int64_are_refused_at_the_exact_boundary():
    first = 2**15 * 3**6 * 5**3 * 7  # 20901888000, the first n with tau_20(n) >= 2**63
    assert point_value(tau(20), first) > 2**63 - 1
    assert max(_tau_of_shapes_below(20, first)) <= 2**63 - 1
    # the largest accepted hi and the smallest refused one; 3 entries
    # bucket every prime, so the np.multiply.at path runs up to the boundary
    table = sieve_table(tau(20), first - 3, first)
    assert table.values.tolist() == [point_value(tau(20), n) for n in range(first - 3, first)]
    with pytest.raises(DomainError):
        sieve_table(tau(20), first - 3, first + 1)
    with pytest.raises(DomainError):
        sieve_table(tau(20), 10**12, 10**12 + 1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_low_order_tau_tables_are_never_refused_below_2_to_63(k):
    # the domain check passes, so only the base-prime budget refuses these
    with pytest.raises(BudgetExceededError):
        sieve_table(tau(k), 2**63 - 2, 2**63 - 1)
    with pytest.raises(DomainError):
        sieve_table(tau(k), 2**63, 2**63 + 1)
