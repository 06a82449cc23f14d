import math

import numpy as np
import pytest

from floorsum.errors import DomainError
from floorsum.primes import introot
from floorsum.sieve import LAMBDA, sieve_table
from floorsum.vaughan import (
    c_coefficients,
    coefficient_bounds_report,
    decompose,
    w_values,
)


def direct_lambda_sum(D, D1, g_vals):
    """Oracle: term-by-term fsum over the base table."""
    base = sieve_table(LAMBDA, D + 1, D1 + 1).values
    re = math.fsum(
        math.log(b) * g_vals[i].real for i, b in enumerate(base) if b > 1
    )
    im = math.fsum(
        math.log(b) * g_vals[i].imag for i, b in enumerate(base) if b > 1
    )
    return complex(re, im)


def test_zero_weight_gives_zero_components():
    g = np.zeros(1000, dtype=np.complex128)
    dec = decompose(1000, g)
    assert dec.t1 == dec.t2 == dec.t3 == dec.direct == 0


def test_unit_weight_is_chebyshev_increment():
    D = 1000
    g = np.ones(D, dtype=np.complex128)
    dec = decompose(D, g)
    oracle = direct_lambda_sum(D, 2 * D, g)
    assert dec.direct == pytest.approx(oracle, rel=1e-12)
    assert abs(dec.combined - oracle) <= 1e-9 * abs(oracle)
    assert dec.rel_err <= 1e-9


def test_phase_weight_identity():
    D, x = 1000, 10**6
    d = np.arange(D + 1, 2 * D + 1, dtype=np.float64)
    g = np.exp(2j * np.pi * (x / d))
    dec = decompose(D, g)
    oracle = direct_lambda_sum(D, 2 * D, g)
    assert dec.combined.real == pytest.approx(oracle.real, abs=1e-9 * D)
    assert dec.combined.imag == pytest.approx(oracle.imag, abs=1e-9 * D)
    assert dec.rel_err <= 1e-9


def test_callable_weight_matches_array():
    D = 500
    arr = np.exp(2j * np.pi * (7.0 / np.arange(D + 1, 2 * D + 1, dtype=np.float64)))
    dec_arr = decompose(D, arr)
    dec_fn = decompose(D, lambda d: np.exp(2j * np.pi * (7.0 / d.astype(np.float64))))
    assert dec_arr.combined == dec_fn.combined


def test_random_unimodular_weights_many_d():
    rng = np.random.default_rng(0)
    for D in (200, 1000):
        for _ in range(10):
            g = np.exp(2j * np.pi * rng.random(D))
            dec = decompose(D, g)
            assert dec.rel_err <= 1e-9, D


def test_variable_upper_limit():
    D = 300
    rng = np.random.default_rng(2)
    for D1 in (D + 1, D + 157, 2 * D):
        g = np.exp(2j * np.pi * rng.random(D1 - D))
        dec = decompose(D, g, D1=D1)
        oracle = direct_lambda_sum(D, D1, g)
        assert abs(dec.combined - oracle) <= 1e-9 * max(1.0, abs(oracle))
        assert dec.D1 == D1
    with pytest.raises(DomainError):
        decompose(D, np.ones(D, dtype=np.complex128), D1=2 * D + 1)


def test_rejects_small_d_and_bad_weights():
    with pytest.raises(DomainError):
        decompose(100, np.ones(100, dtype=np.complex128))
    with pytest.raises(DomainError):
        decompose(101, np.ones(5, dtype=np.complex128))


def test_cutoff_and_type_ranges():
    D = 10**4
    dec = decompose(D, np.ones(D, dtype=np.complex128))
    assert dec.U == introot(D, 3) == 21


def test_c_coefficients_hand_values():
    U = 21
    table = c_coefficients(U)
    assert table[1] == {}
    # c(p) = mu(1) Lambda(p) = log p at primes
    for p in (2, 3, 5, 7, 11, 13, 17, 19):
        assert table[p] == {p: 1}
    # c(4) = Lambda(4) + mu(2) Lambda(2) = log 2 - log 2 = 0
    assert sum(table[4].values()) == 0
    # c(6) = Lambda(6)*mu(1) + mu(2)Lambda(3) + mu(3)Lambda(2) = -log3 - log2
    assert table[6] == {3: -1, 2: -1}


def test_c_bound_by_log():
    report = coefficient_bounds_report(10**4)
    assert report.max_c_ratio <= 1 + 1e-12
    # ratio 1 is attained at primes
    assert report.max_c_ratio == pytest.approx(1.0, abs=1e-12)


def test_w_values_support_and_bound():
    U = 10
    k_max = 500
    w = w_values(U, k_max)
    base = sieve_table(LAMBDA, 1, k_max + 1).values
    for k in range(1, k_max + 1):
        # oracle: sum of log p over prime-power divisors q > U
        oracle = math.fsum(
            math.log(base[q - 1]) for q in range(U + 1, k + 1) if k % q == 0 and base[q - 1] > 1
        )
        assert w[k] == pytest.approx(oracle, abs=1e-12), k
        assert w[k] <= math.log(k) + 1e-12 or k == 1
        small_only = all(not (k % q == 0 and base[q - 1] > 1) for q in range(U + 1, k + 1))
        if small_only:
            assert w[k] == 0.0


def test_w_report_ratio():
    report = coefficient_bounds_report(2000)
    assert report.max_w_ratio <= 1 + 1e-12
    # w(p) = log p for primes above the cutoff: ratio exactly 1 somewhere
    assert report.max_w_ratio == pytest.approx(1.0, abs=1e-12)


def test_mu_table_restricted_to_cutoff():
    D = 1331
    dec = decompose(D, np.ones(D, dtype=np.complex128))
    assert len(dec.mu_small) == dec.U
    assert list(dec.mu_small[:6]) == [1, -1, -1, 0, -1, 1]
