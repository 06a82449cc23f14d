import math

import mpmath as mp
import pytest

from floorsum import sieve
from floorsum.constants import main_constant
from floorsum.errors import DomainError
from floorsum.sieve import LAMBDA, MU, point_value, tau


def mp_lambda_partial(n_terms, dps=40):
    """High-precision oracle for sum_{n<=N} Lambda(n)/(n(n+1))."""
    with mp.workdps(dps):
        total = mp.mpf(0)
        for n in range(2, n_terms + 1):
            b = point_value(LAMBDA, n)
            if b > 1:
                total += mp.log(b) / (n * (n + 1))
        return total


def test_lambda_bracket_contains_high_precision_partial():
    bracket = main_constant(LAMBDA, 2000)
    partial = mp_lambda_partial(2000)
    # the true constant exceeds every partial sum
    assert bracket.lo <= float(partial) <= bracket.hi
    # a much longer partial sum is still below hi
    assert float(mp_lambda_partial(20000)) <= bracket.hi


def test_lambda_partial_matches_oracle_closely():
    bracket = main_constant(LAMBDA, 10**4)
    partial = float(mp_lambda_partial(10**4))
    assert bracket.lo == pytest.approx(partial, rel=1e-12)


def test_lambda_lower_bound_hand_enumeration():
    # prime powers up to 10: 2, 3, 4, 5, 7, 8, 9
    lower = (
        math.log(2) * (1 / 6 + 1 / 20 + 1 / 72)
        + math.log(3) * (1 / 12 + 1 / 90)
        + math.log(5) / 30
        + math.log(7) / 56
    )
    bracket = main_constant(LAMBDA, 10)
    assert bracket.lo >= lower - 1e-12
    assert bracket.lo == pytest.approx(lower, rel=1e-13)


def test_lambda_tail_bound_dominates_true_tail():
    # sum_{N < n <= 20N} log n / n^2 must stay below the stated bound
    for N in (100, 1000):
        with mp.workdps(30):
            true_tail = sum(mp.log(n) / (n * n) for n in range(N + 1, 20 * N + 1))
        bound = (math.log(N) + 1) / N + math.log(N + 1) / (N + 1) ** 2
        assert float(true_tail) < bound


def test_brackets_nest_on_geometric_ladder():
    for kind in (LAMBDA, tau(2), tau(3)):
        ladder = [main_constant(kind, 10**j) for j in range(2, 7)]
        for small, big in zip(ladder, ladder[1:]):
            assert big.lo >= small.lo, kind.label
            assert big.hi <= small.hi, kind.label
            assert big.width < small.width


def test_evaluation_orders_overlap():
    for kind in (LAMBDA, tau(2)):
        a = main_constant(kind, 10**5, order="ascending")
        b = main_constant(kind, 10**5, order="blockwise")
        assert max(a.lo, b.lo) <= min(a.hi, b.hi)


def test_window_size_does_not_change_brackets(monkeypatch):
    # windows of 997 terms tile [1, 10**4] with 11 parts; the float parts
    # round differently from one window's, so tau agrees to a few ulp
    # (a gap or overlap of one term would move it by more than 1e-8)
    single = {k: main_constant(tau(k), 10**4) for k in (2, 3, 4)}
    monkeypatch.setattr(sieve, "_WINDOW", 997)
    for k, one in single.items():
        many = main_constant(tau(k), 10**4)
        assert many.lo == pytest.approx(one.lo, rel=1e-15, abs=0)
        assert many.hi == pytest.approx(one.hi, rel=1e-15, abs=0)
    bracket = main_constant(LAMBDA, 10**4)
    partial = float(mp_lambda_partial(10**4))
    assert bracket.lo <= partial <= bracket.hi
    assert bracket.lo == pytest.approx(partial, rel=1e-12)


# main_constant's brackets, pinned bit for bit: the sieve and the float
# operations of the partial sums may be rearranged, never changed
PINNED_BRACKETS = [
    (tau(2), 10**6, "0x1.e1792734cced1p+0", "0x1.e17a3322c8d45p+0"),
    (tau(2), 5 * 10**6, "0x1.e179f8262fcd2p+0", "0x1.e17a3322c0b3ap+0"),
    (tau(3), 10**6, "0x1.b38b6b189caccp+1", "0x1.b38fe95973192p+1"),
    (tau(3), 5 * 10**6, "0x1.b38ed4713ea4ap+1", "0x1.b38fe95951762p+1"),
    (LAMBDA, 5 * 10**7, "0x1.cca3fb7c0de0dp-2", "0x1.cca4149ec93d1p-2"),
]


@pytest.mark.parametrize("kind, n_terms, lo, hi", PINNED_BRACKETS)
def test_brackets_are_pinned(kind, n_terms, lo, hi):
    bracket = main_constant(kind, n_terms)
    assert (bracket.lo.hex(), bracket.hi.hex()) == (lo, hi)


def test_tau_width_is_zeta_tail():
    # hi - lo collapses to (zeta(2)^k - partial square sum) + padding
    b1 = main_constant(tau(2), 10**3)
    b2 = main_constant(tau(2), 10**4)
    assert 0 < b2.width < b1.width
    with mp.workdps(30):
        z2 = mp.zeta(2) ** 2
        partial_sq = sum(mp.mpf(point_value(tau(2), n)) / (n * n) for n in range(1, 10**3 + 1))
    assert b1.width == pytest.approx(float(z2 - partial_sq), rel=1e-6)


@pytest.mark.parametrize("k", [2, 3])
def test_tau_partial_square_sums_approach_zeta_power_from_below(k):
    zeta_k = (math.pi**2 / 6) ** k
    prev = 0.0
    for n_terms in (10, 10**2, 10**3, 10**4):
        bracket = main_constant(tau(k), n_terms)
        # hi = partial + (zeta(2)^k - partial_sq); partial_sq < zeta(2)^k always
        assert bracket.hi > bracket.lo
        implied_sq = zeta_k - (bracket.hi - bracket.lo)
        assert prev <= implied_sq + 1e-12 < zeta_k
        prev = implied_sq


def test_tau2_bracket_contains_oracle_value():
    bracket = main_constant(tau(2), 10**4)
    with mp.workdps(30):
        partial = sum(mp.mpf(point_value(tau(2), n)) / (n * (n + 1)) for n in range(1, 10**4 + 1))
    assert bracket.lo <= float(partial) <= bracket.hi
    better = main_constant(tau(2), 10**6)
    assert bracket.lo <= better.midpoint <= bracket.hi


def test_main_constant_validation():
    with pytest.raises(DomainError):
        main_constant(LAMBDA, 9)
    with pytest.raises(DomainError):
        main_constant(MU, 100)
    with pytest.raises(DomainError):
        main_constant(LAMBDA, 100, order="sideways")
