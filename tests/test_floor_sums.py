import functools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from floorsum import constants, floor_sums, sieve
from floorsum.constants import ConstantBracket, main_constant
from floorsum.errors import BracketTooWideError, BudgetExceededError, DomainError
from floorsum.floor_sums import (
    _psi_form_excess,
    _quotient_runs,
    _window_quotients,
    distinct_quotients,
    error_series,
    fit_exponent,
    geometric_grid,
    psi,
    sum_blocked,
    sum_direct,
    sum_dual,
)
from floorsum.primes import introot
from floorsum.sieve import LAMBDA, MU, point_value, point_values, tau


def brute_sum(kind, x):
    """Oracle: literal python loop, fsum for the lambda kind."""
    qs = [x // n for n in range(1, x + 1)]
    if kind.name == "tau":
        return sum(point_value(kind, q) for q in qs)
    return math.fsum(math.log(b) for b in (point_value(LAMBDA, q) for q in qs) if b > 1)


def test_distinct_quotients_x1():
    dec = distinct_quotients(1)
    assert dec.blocks == ((1, 1, 1),)


def test_distinct_quotients_100_blocks():
    expected = len({100 // n for n in range(1, 101)})
    dec = distinct_quotients(100)
    assert dec.block_count == expected == 19


def test_distinct_quotients_rejects_zero():
    with pytest.raises(DomainError):
        distinct_quotients(0)


@pytest.mark.parametrize("x", [1, 2, 5, 17, 100, 999, 10**4, 123457])
def test_block_invariants(x):
    dec = distinct_quotients(x)
    prev_q = None
    covered = 0
    for q, n_lo, n_hi in dec.blocks:
        assert n_lo == x // (q + 1) + 1
        assert n_hi == x // q
        assert n_lo == covered + 1
        covered = n_hi
        if prev_q is not None:
            assert q < prev_q
        prev_q = q
    assert covered == x
    assert dec.block_count <= 2 * math.isqrt(x) + 1


def test_blocks_partition_brute_force_1e6():
    x = 10**6
    dec = distinct_quotients(x)
    q = x // np.arange(1, x + 1, dtype=np.int64)
    rebuilt = np.concatenate(
        [np.full(b.n_hi - b.n_lo + 1, b.q, dtype=np.int64) for b in dec.blocks]
    )
    assert np.array_equal(q, rebuilt)
    assert dec.block_count <= 2001


def test_sum_direct_examples():
    # floor(10/n) = 10,5,3,2,2,1,1,1,1,1 -> Lambda sums to log 5 + log 3 + 2 log 2
    assert sum_direct(LAMBDA, 10) == pytest.approx(math.log(60), rel=1e-14)
    assert sum_direct(tau(2), 4) == 7
    assert sum_direct(tau(2), 1) == 1


def test_sum_direct_matches_slow_oracle():
    rng = random.Random(7)
    xs = [1, 2, 3, 50, 997] + [rng.randrange(1, 20000) for _ in range(20)]
    for x in xs:
        assert sum_direct(tau(2), x) == brute_sum(tau(2), x)
        assert sum_direct(tau(3), x) == brute_sum(tau(3), x)
        got = sum_direct(LAMBDA, x)
        assert got == pytest.approx(brute_sum(LAMBDA, x), rel=1e-12, abs=1e-12)


def test_sum_direct_rejects_mu_and_bad_x():
    with pytest.raises(DomainError):
        sum_direct(MU, 10)
    with pytest.raises(DomainError):
        sum_direct(tau(2), 0)
    with pytest.raises(BudgetExceededError):
        sum_direct(tau(2), 10**6, max_terms=10**5)


def test_sum_direct_chunk_size_invariance(monkeypatch):
    x = 12345
    kinds = (LAMBDA, tau(2))
    baseline = [sum_direct(kind, x) for kind in kinds]
    for window in (1, 2, 3, 7, 100, 4096):
        monkeypatch.setattr(sieve, "_WINDOW", window)
        assert [sum_direct(kind, x) for kind in kinds] == baseline


def rle_quotients(x, n_max):
    """Oracle for _quotient_runs: run-length encode x // n over n = 1..n_max."""
    runs = []
    for q in (x // np.arange(1, n_max + 1, dtype=np.int64)).tolist():
        if runs and runs[-1][0] == q:
            runs[-1][1] += 1
        else:
            runs.append([q, 1])
    return [tuple(r) for r in runs]


@pytest.mark.parametrize("x, n_max", [(1, 1), (10, 10), (100, 7), (1000, 31), (1000, 1000),
                                      (12345, 12344), (99991, 5000), (10**6, 3000),
                                      # float64 quotients up to 2**52, int64 above
                                      (2**52 - 1, 3000), (2**52, 3000), (2**52 + 1, 3000),
                                      (10**18 + 9, 3000)])
def test_quotient_runs_brute_force(monkeypatch, x, n_max):
    expected = rle_quotients(x, n_max)
    # window 1 puts a border inside every run longer than one; the others
    # split some runs, e.g. q = 1 on (500, 1000] at x = 1000
    for window in (1, 2, 3, 7, 64, n_max, n_max + 5):
        monkeypatch.setattr(sieve, "_WINDOW", window)
        q, count = _quotient_runs(x, n_max)
        assert list(zip(q.tolist(), count.tolist())) == expected, (x, n_max, window)


def test_window_quotients_exact_below_2_52():
    x = 2**52 - 1
    r = math.isqrt(x)
    # the top 10^6 n below x (q = 1), n around sqrt(x), and the smallest n
    for lo, hi in ((x - 10**6 + 1, x + 1), (r - 5 * 10**5, r + 5 * 10**5), (1, 10**6)):
        q = _window_quotients(x, lo, hi)
        assert q.dtype == np.float64
        assert np.array_equal(q.astype(np.int64), x // np.arange(lo, hi, dtype=np.int64)), lo
    assert _window_quotients(2**52, 1, 10).dtype == np.float64
    assert _window_quotients(2**52 + 1, 1, 10).dtype == np.int64


def enumerated_blocks(x, pieces):
    """(q, count) pairs of floor_sums._blocks(x, q_lo, q_hi) over the
    pieces (q_lo, q_hi), each q checked to lie in its piece."""
    pairs = []
    for q_lo, q_hi in pieces:
        for q, count in floor_sums._blocks(x, q_lo, q_hi):
            assert q.dtype == count.dtype == np.int64
            assert ((q_lo <= q) & (q < q_hi)).all(), (x, q_lo, q_hi)
            pairs += zip(q.tolist(), count.tolist())
    return pairs


def test_blocks_match_distinct_quotients_all_x_to_2000(monkeypatch):
    # [1, x] cut where sum_blocked cuts it (its table top T for both kinds,
    # and the sieve windows of the tau table) and where sum_dual cuts it at
    # criterion 3's splits; window 1 puts every block in a window of its own
    for window in (sieve._WINDOW, 1, 2, 7):
        monkeypatch.setattr(sieve, "_WINDOW", window)
        for x in range(1, 2001):
            r = math.isqrt(x)
            cuts = {1, x + 1} | {min(x, c * r) + 1 for c in (16, 4)}
            cuts |= {hi for _, hi in sieve.windows(1, min(x, 4 * r) + 1)}
            cuts |= {x // (N + 1) + 1 for N in {max(1, introot(x**7, 15)), 1, r, x}}
            edges = sorted(cuts)
            pairs = enumerated_blocks(x, zip(edges, edges[1:]))
            assert len({q for q, _ in pairs}) == len(pairs), (window, x)
            assert sorted(pairs) == sorted(
                (b.q, b.n_hi - b.n_lo + 1) for b in distinct_quotients(x).blocks), (window, x)


@pytest.mark.parametrize("x", [2**52 + 1, 2**60 + 12345, 10**18])
def test_blocks_int64_quotients_match_python_ints(x):
    # above 2**52 _window_quotients divides in int64: the dense part at
    # q < 1001, and the single-n blocks of n near 1000, against Python ints
    assert _window_quotients(x, 1, 1002).tolist() == [x // n for n in range(1, 1002)]
    dense = [(q, x // q - x // (q + 1)) for q in range(1, 1001)]
    sparse = [(x // n, 1) for n in range(980, 1010) if x // 1000 <= x // n < x // 990]
    pairs = enumerated_blocks(x, [(1, 1001), (x // 1000, x // 990)])
    assert sorted(pairs) == sorted(dense + sparse)


def test_sum_blocked_equals_direct_small():
    for x in range(1, 2001):
        assert sum_blocked(tau(2), x) == sum_direct(tau(2), x), x
    # the table covers all of [1, x] where 6 isqrt(x) >= x for tau (x <= 36)
    # and 16 isqrt(x) >= x for Lambda (x <= 256); above, the largest
    # quotients go through point_values
    for x in range(1, 1101):
        for kind in (tau(3), tau(4)):
            assert sum_blocked(kind, x) == sum_direct(kind, x), (kind.label, x)
        d, b = sum_direct(LAMBDA, x), sum_blocked(LAMBDA, x)
        assert b == pytest.approx(d, rel=1e-12, abs=1e-12), x


def test_sum_blocked_high_tau_orders():
    # the table stops below x from x = 37 on, so the largest quotients go
    # through point_values, whose tau_k values stay int64 for these x
    for k in (22, 30):
        for x in (37, 1000):
            assert sum_blocked(tau(k), x) == sum_direct(tau(k), x), (k, x)


def test_sum_blocked_equals_direct_random_1e6():
    rng = random.Random(11)
    for _ in range(20):
        x = rng.randrange(1, 10**6)
        assert sum_blocked(tau(3), x) == sum_direct(tau(3), x)
        assert sum_blocked(LAMBDA, x) == pytest.approx(sum_direct(LAMBDA, x), rel=1e-11)


def test_table_dot_is_exact_past_int64():
    # true dot 11 * 2**61 > 2**63: an int64 dot would wrap
    values = np.array([3, 5, 7], dtype=np.int64)
    counts = np.array([2**62, 2**61, 0], dtype=np.int64)
    assert floor_sums._table_dot(values, counts) == 3 * 2**62 + 5 * 2**61
    # max(values) * sum(counts) >= 2**63, true dot below: still exact
    counts = np.array([1, 1, 2**61], dtype=np.int64)
    assert floor_sums._table_dot(values[::-1].copy(), counts) == 7 + 5 + 3 * 2**61
    assert floor_sums._table_dot(values, np.array([1, 2, 3], dtype=np.int64)) == 34


def test_reduce_takes_empty_pairs():
    empty = np.zeros(0, dtype=np.int64)
    assert floor_sums._table_dot(empty, empty) == 0
    assert floor_sums._table_dot(np.zeros(0, dtype=object), empty) == 0
    values, counts = np.array([4, 1, 9], dtype=np.int64), np.array([2, 5, 1], dtype=np.int64)
    pairs = [(empty, empty), (values, counts), (empty, empty)]
    assert floor_sums._reduce(tau(2), [(empty, empty)]) == 0
    assert floor_sums._reduce(tau(2), pairs) == 4 * 2 + 1 * 5 + 9
    assert floor_sums._reduce(LAMBDA, [(empty, empty)]) == 0.0
    assert floor_sums._reduce(LAMBDA, pairs) == math.fsum([2 * math.log(4), math.log(9)])


@pytest.mark.parametrize("r", [2, 3, 10, 31, 32, 33, 1000])
def test_sum_blocked_at_square_boundaries(r):
    # x around r**2 moves isqrt(x) and x // (isqrt(x) + 1), where the
    # large-quotient side meets the single-n side
    for x in (r * r - 1, r * r, r * r + r - 1, r * r + r, r * r + 2 * r):
        for kind in (tau(2), tau(3), tau(4)):
            assert sum_blocked(kind, x) == sum_direct(kind, x), (kind.label, x)
        assert sum_blocked(LAMBDA, x) == pytest.approx(sum_direct(LAMBDA, x), rel=1e-12), x


def test_sum_blocked_window_size_invariance(monkeypatch):
    x = 3 * 10**7
    kinds = (tau(2), tau(3), LAMBDA)
    whole = [sum_blocked(kind, x) for kind in kinds]
    # 997-entry windows: about 176 of them, with borders inside the
    # large-quotient side and inside the single-n side
    N = introot(x**7, 15)
    dual = [(s.total, s.psi_form_discrepancy) for s in (sum_dual(kind, x, N) for kind in kinds)]
    monkeypatch.setattr(sieve, "_WINDOW", 997)
    assert [sum_blocked(kind, x) for kind in kinds] == whole
    assert [(s.total, s.psi_form_discrepancy) for s in (sum_dual(kind, x, N) for kind in kinds)] == dual


@pytest.mark.parametrize("module, run, top", [
    (floor_sums, lambda: sum_blocked(tau(2), 10**6), 4 * 10**3),
    (constants, lambda: main_constant(tau(2), 10**4), 10**4),
], ids=["sum_blocked", "main_constant"])
def test_every_pass_sieves_in_windows_of_the_sieve(monkeypatch, module, run, top):
    # one window size, set in sieve, bounds every table the sums and the
    # constants ask for, and their tables tile [1, top] without gap or overlap
    calls = []

    def recorded(kind, lo, hi, **kw):
        calls.append((lo, hi))
        return sieve.sieve_table(kind, lo, hi, **kw)

    monkeypatch.setattr(sieve, "_WINDOW", 997)
    monkeypatch.setattr(module, "sieve_table", recorded)
    run()
    assert all(hi - lo <= 997 for lo, hi in calls), calls
    assert [lo for lo, _ in calls] == [1] + [hi for _, hi in calls[:-1]]
    assert calls[-1][1] == top + 1


def test_sum_blocked_factors_only_quotients_above_table(monkeypatch):
    x = 2_100_000_007
    r = math.isqrt(x)
    chunks = []

    def counted(kind, ns):
        chunks.append(ns.tolist())
        return point_values(kind, ns)

    monkeypatch.setattr(sieve, "_WINDOW", 997)
    monkeypatch.setattr(floor_sums, "point_values", counted)
    # no route reaches the scalar reference
    monkeypatch.setattr(sieve, "point_value", lambda *a: pytest.fail("scalar point"))
    for kind, factor in ((LAMBDA, 16), (tau(2), 4)):
        chunks.clear()
        sum_blocked(kind, x)
        # one call per window, x // n in order for n = 1 .. x // (factor r + 1)
        assert all(0 < len(c) <= 997 for c in chunks)
        quotients = [q for c in chunks for q in c]
        assert quotients == [x // n for n in range(1, x // (factor * r + 1) + 1)]
        assert 0 < len(quotients) <= r // factor + 1
        assert min(quotients) > factor * r
    for kind in (LAMBDA, tau(2)):
        sum_direct(kind, 10**5)
        sum_dual(kind, 10**5, 300)


@pytest.mark.parametrize("x", [36864, 73729])
def test_sums_past_int64_through_the_shared_reducer(x):
    # _tau_overflow_start(100) = 36864: from there on tau_100 values pass
    # 2**63 - 1, and at these x the sum has 65 bits
    kind = tau(100)
    assert sieve._tau_overflow_start(100) == 36864
    oracle = sum(point_value(kind, x // n) for n in range(1, x + 1))
    assert oracle.bit_length() == 65
    assert sum_direct(kind, x) == oracle
    assert sum_blocked(kind, x) == oracle
    assert sum_dual(kind, x, 100).total == oracle


# S_f(x) from the cut at 32 isqrt(x), with every quotient above it factored
# one at a time by point_value
PINNED_SUMS = {
    (1_050_000_000, "lambda"): 472336653.1047447,
    (1_050_000_000, "tau2"): 1974827577,
    (2_100_000_000, "lambda"): 944671937.4278734,
    (2_100_000_000, "tau2"): 3949653253,
    (10**10, "lambda"): 4498441383.456076,
    (10**10, "tau2"): 18807766261,
}


@pytest.mark.parametrize("x, label", sorted(PINNED_SUMS))
def test_sum_blocked_pinned_sums(x, label):
    got = sum_blocked(LAMBDA if label == "lambda" else tau(2), x)
    ref = PINNED_SUMS[x, label]
    if label == "lambda":
        # quotients that cross the cut have block count 1, so only the
        # rounding of np.log against math.log on one term each can move
        assert abs(got - ref) <= 2 * math.ulp(ref)
    else:
        assert got == ref


def test_psi_values():
    assert psi(0.25) == -0.25
    assert psi(3) == Fraction(-1, 2)
    assert psi(3.0) == -0.5
    assert psi(Fraction(7, 3)) == Fraction(-1, 6)
    assert isinstance(psi(Fraction(7, 3)), Fraction)
    assert isinstance(psi(0.3), float)


def test_psi_range_and_floor_identity():
    rng = random.Random(3)
    for _ in range(200):
        t = Fraction(rng.randrange(-10**6, 10**6), rng.randrange(1, 1000))
        v = psi(t)
        assert Fraction(-1, 2) <= v < Fraction(1, 2)
        # floor(t) = t - psi(t) - 1/2, the rearrangement the dual form uses
        assert t - v - Fraction(1, 2) == t.numerator // t.denominator


def test_psi_counting_identity_all_d_to_1e4():
    # floor(x/(d+delta)) == x/(d+delta) - psi(x/(d+delta)) - 1/2 exactly
    for x in (10**6 + 3, 99991):
        for d in range(1, 10**4 + 1):
            for delta in (0, 1):
                t = Fraction(x, d + delta)
                assert t - psi(t) - Fraction(1, 2) == x // (d + delta)


def test_sum_dual_examples():
    split = sum_dual(tau(2), 100, 10)
    assert split.total == sum_direct(tau(2), 100)
    assert split.psi_form_discrepancy == 0

    split = sum_dual(LAMBDA, 10, 10)
    assert split.s2 == 0.0
    assert split.total == pytest.approx(math.log(60), rel=1e-14)

    split = sum_dual(LAMBDA, 10**3, 31)
    assert split.total == pytest.approx(sum_direct(LAMBDA, 10**3), rel=1e-9)


def test_sum_dual_grid_both_branches():
    rng = random.Random(5)
    for _ in range(25):
        x = rng.randrange(50, 10**5)
        for N in {1, math.isqrt(x), x // 3 + 1, x}:
            split = sum_dual(tau(2), x, N)
            assert split.total == sum_direct(tau(2), x), (x, N)
            assert split.psi_form_discrepancy == 0
            assert split.s1 + split.s2 == split.total


def sawtooth_terms(x):
    """d -> x/d - psi(x/d) on exact Fractions, memoised per d."""

    @functools.cache
    def term(d):
        t = Fraction(x, d)
        return t - psi(t)

    return term


def psi_form_excess_oracle(x, q, n_lo, N, count, term=None):
    """The sawtooth form minus count, built from psi on exact Fractions:
    x/q - x/(q+1) - psi(x/q) + psi(x/(q+1)) for an interior block,
    x/q - psi(x/q) - 1/2 - N for the block straddling N."""
    term = term or sawtooth_terms(x)
    if n_lo > N:
        form = term(q) - term(q + 1)
    else:
        form = term(q) - Fraction(1, 2) - N
    return form - count


def tail_blocks(x, N):
    """(q, n_lo, count) for the tail blocks of x split at N, as sum_dual walks them."""
    for q, n_lo, n_hi in distinct_quotients(x).blocks:
        if n_hi > N:
            yield q, n_lo, n_hi - max(n_lo - 1, N)


def test_psi_form_excess_matches_psi_oracle_all_x_to_2000():
    branches = set()
    for x in range(1, 2001):
        term = sawtooth_terms(x)
        splits = {1, math.isqrt(x), math.floor(x ** (7 / 15)), x - 1} - {0}
        for N in splits:
            for q, n_lo, count in tail_blocks(x, N):
                num, den = _psi_form_excess(x, q, n_lo, N, count)
                assert Fraction(num, den) == psi_form_excess_oracle(x, q, n_lo, N, count, term)
                assert num == 0, (x, N, q)
                branches.add(n_lo > N)
    assert branches == {True, False}


def test_psi_form_excess_detects_count_off_by_one():
    for x in (2, 97, 1000, 123457):
        for N in {1, math.isqrt(x), x // 3 + 1, x - 1}:
            for q, n_lo, count in tail_blocks(x, N):
                for delta in (-1, 1):
                    num, den = _psi_form_excess(x, q, n_lo, N, count + delta)
                    assert Fraction(num, den) == -delta


def test_sum_dual_reports_miscounted_block(monkeypatch):
    exact = floor_sums._psi_form_excess
    for delta in (-1, 1):
        monkeypatch.setattr(
            floor_sums, "_psi_form_excess",
            lambda x, q, n_lo, N, count, d=delta: exact(x, q, n_lo, N, count + d),
        )
        assert sum_dual(tau(2), 10**4, 100).psi_form_discrepancy == 1


@pytest.mark.parametrize("x, N", [(4 * 10**9 + 7, 10**5), (10**10 + 7, 3)])
def test_sum_dual_tail_past_int64_products(monkeypatch, x, N):
    # at 1e10 + 7 the tail blocks n = 4..10 have x (q + 1) >= 2**63, so their
    # sawtooth excess is formed in Python ints; at 4e9 + 7 every tail block fits
    needs_python_ints = x * (x // (N + 1) + 1) >= 2**63
    assert needs_python_ints == (x > 2**32)
    for kind in (tau(2), tau(3), LAMBDA):
        split = sum_dual(kind, x, N)
        blocked = sum_blocked(kind, x)
        if kind.name == "tau":
            assert split.total == blocked
        else:
            assert split.total == pytest.approx(blocked, rel=1e-9)
        assert split.psi_form_discrepancy == 0
        # the CLI's dual JSON prints the numerator
        assert type(split.psi_form_discrepancy.numerator) is int
    exact = floor_sums._psi_form_excess
    dtypes = set()
    for delta in (-1, 1):
        def miscounted(x, q, n_lo, N, count, d=delta):
            dtypes.add(q.dtype)
            return exact(x, q, n_lo, N, count + d)

        monkeypatch.setattr(floor_sums, "_psi_form_excess", miscounted)
        split = sum_dual(tau(2), x, N)
        assert split.psi_form_discrepancy == 1
        assert type(split.psi_form_discrepancy.numerator) is int
    assert dtypes == ({np.dtype(np.int64), np.dtype(object)} if needs_python_ints
                      else {np.dtype(np.int64)})


def test_psi_form_excess_at_1e18():
    x = 10**18
    r = math.isqrt(x)
    for n in (1, 2, 3, 999, r - 1, r, r + 1, 10**12, x // 3, x - 1, x):
        q = x // n
        n_lo = x // (q + 1) + 1
        n_hi = x // q
        for N in {n_lo - 1, n_lo, n_hi - 1} - {0}:
            count = n_hi - max(n_lo - 1, N)
            num, den = _psi_form_excess(x, q, n_lo, N, count)
            assert num == 0 and den in (q, q * (q + 1))
            assert Fraction(num, den) == psi_form_excess_oracle(x, q, n_lo, N, count)
            num, den = _psi_form_excess(x, q, n_lo, N, count + 1)
            assert Fraction(num, den) == psi_form_excess_oracle(x, q, n_lo, N, count + 1) == -1


def test_block_sums_respect_term_budget():
    x = 10**18
    with pytest.raises(BudgetExceededError):
        sum_blocked(tau(2), x, max_terms=10**6)
    with pytest.raises(BudgetExceededError):
        sum_dual(LAMBDA, x, 1, max_terms=10**6)
    with pytest.raises(BudgetExceededError):
        sum_dual(tau(2), 10**6, 10**5, max_terms=10**4)
    # one charge for all of it: 1500 direct terms plus x // 1501 = 666 tail
    # blocks, though each part alone fits
    with pytest.raises(BudgetExceededError):
        sum_dual(tau(2), 10**6, 1500, max_terms=2001)
    assert sum_dual(tau(2), 10**6, 1500, max_terms=2166).total == sum_direct(tau(2), 10**6)
    # at x = 1e12 the tau table alone is 4e6 entries: refused before any work
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        sum_blocked(tau(2), 10**12, max_terms=2_000_001)
    assert time.perf_counter() - start < 0.1
    with pytest.raises(DomainError):
        sum_blocked(tau(2), 0)


@pytest.mark.parametrize("kind, charge", [
    # 16000 table entries plus 10**6 // 16001 = 62 points
    (LAMBDA, 16062),
    # 4000 table entries plus 10**6 // 4001 = 249 points
    (tau(2), 4249),
])
def test_sum_blocked_charge_is_allowed_exactly(kind, charge):
    got, direct = sum_blocked(kind, 10**6, max_terms=charge), sum_direct(kind, 10**6)
    assert got == (direct if kind.name == "tau" else pytest.approx(direct, rel=1e-12))
    with pytest.raises(BudgetExceededError):
        sum_blocked(kind, 10**6, max_terms=charge - 1)


def test_sum_dual_rejects_bad_split():
    with pytest.raises(DomainError):
        sum_dual(tau(2), 10, 11)
    with pytest.raises(DomainError):
        sum_dual(tau(2), 10, 0)


def test_error_series_composition():
    bracket = main_constant(LAMBDA, 10**4)
    series = error_series(LAMBDA, bracket, [10])
    s = sum_direct(LAMBDA, 10)
    assert series.sums[0] == pytest.approx(s)
    assert series.errors[0] == pytest.approx(s - bracket.midpoint * 10)
    assert series.errors_lo[0] <= series.errors[0] <= series.errors_hi[0]


def test_error_series_empty():
    bracket = main_constant(LAMBDA, 100)
    series = error_series(LAMBDA, bracket, [])
    assert series.xs == () and series.sums == ()


def test_error_series_validation():
    bracket = main_constant(LAMBDA, 100)
    with pytest.raises(DomainError):
        error_series(LAMBDA, bracket, [10, 10])
    wide = ConstantBracket(LAMBDA, 10, 0.0, 1.0)
    with pytest.raises(BracketTooWideError):
        error_series(LAMBDA, wide, [10**4], resolution=1.0)
    with pytest.raises(BudgetExceededError):
        error_series(LAMBDA, bracket, [10**6], max_terms=1000)


def test_geometric_grid():
    assert geometric_grid(10, 80, 2) == [10, 20, 40, 80]
    assert geometric_grid(10, 100, 2) == [10, 20, 40, 80, 100]
    with pytest.raises(DomainError):
        geometric_grid(10, 5)


def synthetic_series(values):
    xs = tuple(10**3 * 2**j for j in range(len(values)))
    bracket = ConstantBracket(LAMBDA, 10, 0.5, 0.5)
    return type(
        "S", (), {"xs": xs, "errors": tuple(values), "sums": tuple(values)}
    )()


def test_fit_exponent_exact_power_law():
    xs = [10**3 * 2**j for j in range(10)]
    series = synthetic_series([x**0.5 for x in xs])
    fit = fit_exponent(series)
    assert fit.slope == pytest.approx(0.5, abs=1e-9)
    assert fit.residual < 1e-12
    assert fit.points_excluded == 0


def test_fit_exponent_with_coefficient():
    xs = [10**3 * 2**j for j in range(10)]
    series = synthetic_series([3.0 * x**0.47 for x in xs])
    fit = fit_exponent(series)
    assert fit.slope == pytest.approx(0.47, abs=1e-9)
    assert fit.intercept == pytest.approx(math.log(3), abs=1e-9)


def test_fit_exponent_exclusions_and_errors():
    series = synthetic_series([0.5, 0.2, 10.0, 100.0, 1000.0])
    fit = fit_exponent(series)
    assert fit.points_excluded == 2 and fit.points_used == 3
    with pytest.raises(DomainError):
        fit_exponent(synthetic_series([0.1, 0.2, 0.3, 10.0]))
