import cmath
import math
import random
from fractions import Fraction as F

import mpmath as mp
import numpy as np
import pytest

from floorsum.errors import BudgetExceededError, DomainError
from floorsum.expsum import (
    ExpSumScenario,
    bound_comparison,
    classify_factorization,
    compute_expsum,
)
from floorsum.exponent_pairs import pair
from floorsum.sieve import LAMBDA, point_value


def test_scenario_validation():
    with pytest.raises(DomainError):
        ExpSumScenario(shape="weird", x=1.0, n_lo=10)
    with pytest.raises(DomainError):
        ExpSumScenario(shape="monomial", x=1.0)          # missing n_lo
    with pytest.raises(DomainError):
        ExpSumScenario(shape="bilinear", x=1.0, n_lo=10) # missing m_lo
    with pytest.raises(DomainError):
        ExpSumScenario(shape="monomial", x=1.0, n_lo=10, delta=2)
    with pytest.raises(DomainError):
        ExpSumScenario(shape="monomial", x=1.0, n_lo=10, coeffs="nope")


def test_zero_phase_unit_coefficients_counts_terms():
    s = ExpSumScenario(shape="monomial", x=0.0, n_lo=500)
    r = compute_expsum(s)
    assert r.value == pytest.approx(500 + 0j)
    assert r.modulus == pytest.approx(500.0)
    assert r.terms == 500 and r.trivial_bound == pytest.approx(500.0)


def test_monomial_reordered_summation_oracle():
    s = ExpSumScenario(shape="monomial", x=10**6, h=1, n_lo=1000)
    r = compute_expsum(s)
    assert r.modulus <= 1000.0
    # oracle: fsum in descending order
    terms = [cmath.exp(2j * math.pi * (10**6 / n)) for n in range(1001, 2001)]
    re = math.fsum(t.real for t in reversed(terms))
    im = math.fsum(t.imag for t in reversed(terms))
    assert r.value.real == pytest.approx(re, abs=1e-9)
    assert r.value.imag == pytest.approx(im, abs=1e-9)


def test_lambda_weighted_against_mpmath_oracle():
    s = ExpSumScenario(shape="monomial", x=10**6, h=1, n_lo=1000, delta=1, coeffs="lambda")
    r = compute_expsum(s)
    norm = math.log(2000)
    with mp.workdps(40):
        total = mp.mpc(0)
        for d in range(1001, 2001):
            b = point_value(LAMBDA, d)
            if b > 1:
                total += (mp.log(b) / norm) * mp.e ** (2j * mp.pi * mp.mpf(10**6) / (d + 1))
        want_re, want_im = float(total.real), float(total.imag)
    assert r.value.real == pytest.approx(want_re, abs=1e-9)
    assert r.value.imag == pytest.approx(want_im, abs=1e-9)


def test_coefficient_arrays_bounded_by_one():
    for coeffs in ("unit", "mu", "lambda", "random"):
        s = ExpSumScenario(shape="monomial", x=123.0, n_lo=200, coeffs=coeffs)
        r = compute_expsum(s)
        assert r.trivial_bound <= 200 + 1e-9
        assert r.modulus <= r.trivial_bound + 1e-9


def test_bilinear_matches_brute_loop():
    from floorsum.sieve import MU

    s = ExpSumScenario(shape="bilinear", x=5000.0, h=2, m_lo=8, n_lo=16, delta=1, coeffs="mu")
    r = compute_expsum(s)
    total = 0j
    for m in range(9, 17):
        bm = point_value(MU, m)
        for n in range(17, 33):
            total += bm * cmath.exp(2j * math.pi * (2 * 5000.0 / (m * n + 1)))
    assert r.value.real == pytest.approx(total.real, abs=1e-10)
    assert r.value.imag == pytest.approx(total.imag, abs=1e-10)
    assert r.terms == 8 * 16


def test_triple_matches_brute_loop():
    s = ExpSumScenario(shape="triple", x=300.0, h_lo=2, m_lo=3, n_lo=4, coeffs="random", seed=3)
    r = compute_expsum(s)
    rng_m = np.random.default_rng(3)
    b_m = np.exp(2j * np.pi * rng_m.random(3))
    rng_a = np.random.default_rng(5)
    a_hn = np.exp(2j * np.pi * rng_a.random((2, 4)))
    total = 0j
    for hi, h in enumerate((3, 4)):
        for mi, m in enumerate((4, 5, 6)):
            for ni, n in enumerate((5, 6, 7, 8)):
                total += a_hn[hi, ni] * b_m[mi] * cmath.exp(2j * math.pi * (h * 300.0 / (m * n)))
    assert r.value == pytest.approx(total, abs=1e-10)
    assert r.terms == 2 * 3 * 4


def test_budget_enforced():
    s = ExpSumScenario(shape="triple", x=1.0, h_lo=100, m_lo=100, n_lo=100)
    with pytest.raises(BudgetExceededError):
        compute_expsum(s, max_terms=10**5)


def test_bound_comparison_monomial_vdc():
    s = ExpSumScenario(shape="monomial", x=10**6, h=1, n_lo=1000)
    report = bound_comparison(s, pair(F(1, 2), F(1, 2)))
    assert report.lemma == "VDC"
    assert report.measured <= report.trivial_bound + 1e-9
    assert math.isfinite(report.ratio) and report.ratio >= 0
    # derivative scale h x / X^2 = 10^6/10^6 = 1
    assert report.bound.inputs["Y"] == pytest.approx(1.0)


def test_bound_comparison_triple_lwy_and_rs():
    s = ExpSumScenario(shape="triple", x=10**6, h_lo=2, m_lo=30, n_lo=40, coeffs="random")
    lwy = bound_comparison(s, pair(F(1, 2), F(1, 2)), "LWY")
    rs = bound_comparison(s, None, "RS")
    for report in (lwy, rs):
        assert report.measured <= report.trivial_bound + 1e-9
        assert math.isfinite(report.ratio)
        assert not report.flagged


def test_bound_comparison_compatibility():
    mono = ExpSumScenario(shape="monomial", x=10.0, n_lo=16)
    with pytest.raises(DomainError):
        bound_comparison(mono, None, "LWY")
    with pytest.raises(DomainError):
        bound_comparison(mono, None, "VDC")    # pair required
    tri = ExpSumScenario(shape="triple", x=10.0, h_lo=2, m_lo=2, n_lo=2)
    with pytest.raises(DomainError):
        bound_comparison(tri, pair(0, 1), "VDC")


def test_bound_comparison_paper_regime_row():
    # x = 1e8, D = x^(8/15) ~ 18478, H = D^2 / x^(1 - 1/195) ~ 3.9
    x = 10**8
    d = round(x ** (8 / 15))
    h_lo = max(1, round(d * d / x ** (1 - 1 / 195) / 2))
    m_lo = round(math.sqrt(d) / 2)
    n_lo = round(math.sqrt(d))
    s = ExpSumScenario(shape="triple", x=float(x), h_lo=h_lo, m_lo=m_lo, n_lo=n_lo,
                       coeffs="random")
    report = bound_comparison(s, pair(F(1, 2), F(1, 2)), "LWY")
    assert report.measured <= report.trivial_bound + 1e-9
    assert math.isfinite(report.ratio)


def test_classify_examples():
    split = classify_factorization(2, 2**20, (2**6, 2**14))
    assert split.case == "I"
    split = classify_factorization(3, 2**30, (2**10, 2**10, 2**10))
    assert split.case == "II"            # boundary tie goes to II
    split = classify_factorization(4, 2**24, (2**4, 2**5, 2**7, 2**8))
    assert split.case == "II"            # D_k = D^(1/3) exactly
    split = classify_factorization(5, 2**20, (2**4,) * 5)
    assert split.case == "III"
    assert split.t == 2 and split.l1 == 2**8 and split.l2 == 2**12


def test_classify_case_iii_merge_invariant():
    split = classify_factorization(5, 2**25, (2**5,) * 5)
    assert split.case == "III"
    assert split.D <= split.l1**3 <= split.D**2
    assert split.l1 * split.l2 == 2**25


def test_classify_validation():
    with pytest.raises(DomainError):
        classify_factorization(2, 2**10, (2**6, 2**4))       # unordered
    with pytest.raises(DomainError):
        classify_factorization(3, 2**10, (2, 4))             # wrong count
    with pytest.raises(DomainError):
        classify_factorization(2, 2**20, (2, 2))             # product below D
    with pytest.raises(DomainError):
        classify_factorization(2, 4, (8, 8))                 # product >= 2^k D


def random_dyadic_case(rng):
    k = rng.randrange(2, 7)
    exps = sorted(rng.randrange(0, 12) for _ in range(k))
    factors = tuple(2**e for e in exps)
    product = math.prod(factors)
    j = rng.randrange(0, k)
    D = product // (2**j)
    return k, max(D, 1), factors


def test_classification_partitions_random_factorizations():
    rng = random.Random(123)
    seen = {"I": 0, "II": 0, "III": 0}
    for _ in range(2000):
        k, D, factors = random_dyadic_case(rng)
        if not D <= math.prod(factors) < 2**k * D:
            continue
        split = classify_factorization(k, D, factors)
        # exactly one of the three predicates holds
        cube = factors[-1] ** 3
        preds = [cube > D * D, D <= cube <= D * D, cube < D]
        assert sum(preds) == 1
        assert {"I": 0, "II": 1, "III": 2}[split.case] == preds.index(True)
        seen[split.case] += 1
        if split.case == "III":
            assert split.D <= split.l1**3 <= split.D**2
    assert all(seen.values()), seen
