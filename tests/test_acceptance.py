"""End-to-end acceptance gates.

Each test exercises one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line with the measured quantities, so running this
module doubles as the acceptance report:

    pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

import floorsum as fs


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_exponent_pair_regression():
    base = fs.pair(F(13, 84), F(55, 84))
    fs.eval_word("BA^5", base)          # warm up
    t0 = time.perf_counter()
    result = fs.eval_word("BA^5", base)
    elapsed = time.perf_counter() - t0
    exact = result.kappa == F(1653, 3494) and result.lambda_ == F(1760, 3494)
    report(
        "criterion 1 (exponent-pair regression)",
        exact and elapsed < 1e-3,
        f"BA^5(13/84, 55/84) = ({result.kappa}, {result.lambda_}), {elapsed*1e6:.0f} us",
    )


def test_criterion_02_balancing_regression():
    box = {"r": (F(0), F(1)), "w": (F(0), F(1))}
    main_forms = [fs.parse_form("7/15 + r"), fs.parse_form("11/24 + (7/12)w"),
                  fs.parse_form("1/2 - w - r")]
    variant_forms = [fs.parse_form("7/15 + (32/45)r"), fs.parse_form("11/24 + (7/12)w"),
                     fs.parse_form("1/2 - w - r")]
    t0 = time.perf_counter()
    sol = fs.minimize_max(main_forms, ["r", "w"], box)
    variant = fs.minimize_max(variant_forms, ["r", "w"], box)
    elapsed = time.perf_counter() - t0
    ok_main = (
        sol.assignment == {"r": F(1, 195), "w": F(3, 130)}
        and sol.value == F(92, 195) == F(7, 15) + F(1, 195)
        and len(sol.active) == 3
    )
    printed_w = F(205, 923)
    ok_variant = (
        variant.assignment["r"] == F(6, 923)
        and variant.value == F(435, 923) == F(7, 15) + F(64, 13845)
        and variant.assignment["w"] == F(41, 1846)
        and variant.assignment["w"] != printed_w
    )
    report(
        "criterion 2 (balancing regression)",
        ok_main and ok_variant and elapsed < 1e-2,
        f"main (r,w)=({sol.assignment['r']},{sol.assignment['w']}) value {sol.value}; "
        f"variant r={variant.assignment['r']} value {variant.value}, "
        f"computed w={variant.assignment['w']} vs printed {printed_w} (documented mismatch); "
        f"{elapsed*1e3:.2f} ms",
    )


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    kinds = (fs.tau(2), fs.tau(3), fs.LAMBDA)
    for x in range(1, 10**4 + 1):
        for kind in kinds:
            d = fs.sum_direct(kind, x)
            b = fs.sum_blocked(kind, x)
            if kind.name == "tau":
                assert b == d, (kind.label, x)
            else:
                assert abs(b - d) <= 1e-9 * max(1.0, abs(d)), x
    rng = random.Random(0)
    xs = [rng.randrange(1, 10**7) for _ in range(200)]
    direct = {}  # reused by the dual splits below
    for x in xs:
        for kind in kinds:
            d = direct[kind, x] = fs.sum_direct(kind, x)
            b = fs.sum_blocked(kind, x)
            if kind.name == "tau":
                assert b == d, (kind.label, x)
            else:
                assert abs(b - d) <= 1e-9 * max(1.0, abs(d)), x
    # dual split at N = floor(x^(7/15)) plus edge splits
    dual_checked = 0
    for x in xs[:60]:
        n_main = max(1, fs.introot(x**7, 15))    # floor(x^(7/15)), exact
        for N in {n_main, 1, math.isqrt(x), x}:
            split = fs.sum_dual(fs.tau(2), x, N)
            assert split.total == direct[fs.tau(2), x], (x, N)
            assert split.psi_form_discrepancy == 0
            lam = fs.sum_dual(fs.LAMBDA, x, N)
            d = direct[fs.LAMBDA, x]
            assert abs(lam.total - d) <= 1e-9 * max(1.0, abs(d)), (x, N)
            dual_checked += 1
    elapsed = time.perf_counter() - t0
    report(
        "criterion 3 (oracle equivalence)",
        elapsed < 300,
        f"blocked == direct for all x <= 1e4 and 200 random x <= 1e7 "
        f"(tau2, tau3 exact; lambda <= 1e-9 rel); {dual_checked} dual splits incl. "
        f"N = floor(x^(7/15)); {elapsed:.1f}s < 300s",
    )


def test_criterion_04_block_count_bound():
    for x in range(1, 10**4 + 1):
        dec = fs.distinct_quotients(x)
        assert dec.block_count <= 2 * math.isqrt(x) + 1, x
        covered = 0
        for q, n_lo, n_hi in dec.blocks:
            assert n_lo == covered + 1
            covered = n_hi
        assert covered == x
    # partition content, brute force on a sample
    for x in (1, 97, 10**4):
        q = x // np.arange(1, x + 1, dtype=np.int64)
        rebuilt = np.concatenate(
            [np.full(b.n_hi - b.n_lo + 1, b.q, dtype=np.int64)
             for b in fs.distinct_quotients(x).blocks]
        )
        assert np.array_equal(q, rebuilt)
    count_100 = fs.distinct_quotients(100).block_count
    report(
        "criterion 4 (block-count bound)",
        count_100 == 19,
        f"all x <= 1e4 partition with <= 2 sqrt(x) + 1 blocks; x=100 has {count_100} blocks",
    )


def test_criterion_05_vaaler_inequality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    rationals = np.array([p / q for q in range(1, 21) for p in range(q + 1)])
    grid = np.concatenate([
        np.linspace(-2.0, 3.0, 10**4),
        np.arange(-3.0, 4.0),
        rationals,
        rng.random(500) * 6 - 3,
    ])
    worst_violation = -math.inf
    worst_delta = math.inf
    for H in (1, 5, 10, 50):
        rep = fs.check_vaaler_inequality(H, grid)
        worst_violation = max(worst_violation, rep.max_violation)
        worst_delta = min(worst_delta, rep.min_delta)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5 (sawtooth approximation inequality)",
        worst_violation <= 1e-12 and worst_delta >= -1e-12 and elapsed < 30,
        f"max |psi*-psi| - delta = {worst_violation:.2e} over {grid.size}-point grid "
        f"incl. integers, H in (1,5,10,50); min delta = {worst_delta:.2e}; {elapsed:.1f}s",
    )


def test_criterion_06_vaughan_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0
    for D in (200, 10**3, 10**4):
        for _ in range(50):
            g = np.exp(2j * np.pi * rng.random(D))
            dec = fs.decompose(D, g)
            worst = max(worst, dec.rel_err)
    assert worst <= 1e-9
    coef = fs.coefficient_bounds_report(10**4)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 6 (type I/II identity)",
        worst <= 1e-9 and coef.max_c_ratio <= 1 + 1e-12 and elapsed < 120,
        f"worst relative identity error {worst:.2e} over 50 random unimodular g at "
        f"D in (200, 1e3, 1e4); max |c(m)|/log m = {coef.max_c_ratio:.12f} "
        f"for m <= {coef.U**2}; {elapsed:.1f}s",
    )


def test_criterion_07_main_term_constants():
    ladders = {}
    for kind in (fs.LAMBDA, fs.tau(2), fs.tau(3)):
        ladder = [fs.main_constant(kind, 10**j) for j in range(2, 7)]
        for small, big in zip(ladder, ladder[1:]):
            assert big.lo >= small.lo and big.hi <= small.hi, kind.label
        ladders[kind.label] = ladder[-1]
    lam_1e8 = fs.main_constant(fs.LAMBDA, 10**8)
    width_ok = lam_1e8.width < 4e-7
    # tau brackets certified through zeta(2)^k = (pi^2/6)^k
    zeta_ok = True
    for k in (2, 3):
        bracket = fs.main_constant(fs.tau(k), 10**5)
        implied_sq = (math.pi**2 / 6) ** k - bracket.width
        zeta_ok &= 0 < implied_sq < (math.pi**2 / 6) ** k
        zeta_ok &= bracket.lo <= ladders[f"tau{k}"].midpoint <= bracket.hi
    report(
        "criterion 7 (main-term constants)",
        width_ok and zeta_ok,
        f"brackets nest on the 1e2..1e6 ladder; lambda width at N=1e8 is "
        f"{lam_1e8.width:.3e} < 4e-7; tau brackets pinned to (pi^2/6)^k",
    )


def test_criterion_08_empirical_error_term():
    # KNOWN RED: the tau2 clause is unattainable as stated. S_tau2(1e4) =
    # 18970 (verified by two independent sieves) and C_tau2 is bracketed
    # within 2e-6, so |E(1e4)| = 162.3 +- 0.1 > 1e4**0.55 = 158.49, and
    # |E(2e4)| = 251.6 > 232.0. The bound holds from 4e4 up and holds for
    # lambda at every grid point (max ratio 0.27). The assertion below
    # states the criterion faithfully and fails on those two points; see
    # the decisions ledger.
    t0 = time.perf_counter()
    lam_bracket = fs.main_constant(fs.LAMBDA, 3 * 10**8)
    assert lam_bracket.width <= 1e-7, lam_bracket.width
    tau_bracket = fs.main_constant(fs.tau(2), 10**7)
    grid = fs.geometric_grid(10**4, 10**8, 2)
    results = {}
    violations = []
    for kind, bracket in ((fs.LAMBDA, lam_bracket), (fs.tau(2), tau_bracket)):
        series = fs.error_series(kind, bracket, grid)
        for x, e_lo, e_hi in zip(series.xs, series.errors_lo, series.errors_hi):
            worst = max(abs(e_lo), abs(e_hi))
            if worst > x**0.55:
                violations.append(f"{kind.label} x={x}: |E|={worst:.1f} > {x**0.55:.1f}")
        fit = fs.fit_exponent(series)
        results[kind.label] = fit
    elapsed = time.perf_counter() - t0
    detail = "; ".join(
        f"{label}: slope {fit.slope:.3f}, residual {fit.residual:.3f}, "
        f"{fit.points_used} pts ({fit.points_excluded} excluded)"
        for label, fit in results.items()
    )
    report(
        "criterion 8 (empirical error term)",
        not violations and elapsed < 600,
        f"|E(x)| <= x^0.55 on the 1e4..1e8 grid with C_lambda width "
        f"{lam_bracket.width:.2e} <= 1e-7; fitted {detail}; "
        f"violations: {violations if violations else 'none'}; {elapsed:.1f}s < 600s",
    )


def test_criterion_09_performance_and_windows(monkeypatch):
    fs.sum_blocked(fs.LAMBDA, 10**6)     # warm caches
    t0 = time.perf_counter()
    base = fs.sum_blocked(fs.LAMBDA, 10**8)
    elapsed = time.perf_counter() - t0
    same = True
    for window in (997, 1 << 16):
        monkeypatch.setattr(fs.sieve, "_WINDOW", window)
        same = same and fs.sum_blocked(fs.LAMBDA, 10**8) == base
    report(
        "criterion 9 (performance)",
        elapsed < 10 and same,
        f"sum_blocked(lambda, 1e8) = {base:.6f} in {elapsed:.2f}s < 10s; "
        f"bit-identical with windows of 2^20, 997 and 2^16 entries",
    )


def test_criterion_10_case_classification():
    rng = random.Random(42)
    counts = {"I": 0, "II": 0, "III": 0}
    checked = 0
    while checked < 10**4:
        k = rng.randrange(2, 7)
        exps = sorted(rng.randrange(0, 14) for _ in range(k))
        factors = tuple(2**e for e in exps)
        product = math.prod(factors)
        D = max(1, product // 2 ** rng.randrange(0, k))
        if not D <= product < 2**k * D:
            continue
        split = fs.classify_factorization(k, D, factors)
        cube = factors[-1] ** 3
        predicates = (cube > D * D, D <= cube <= D * D, cube < D)
        assert sum(predicates) == 1, (k, D, factors)
        assert ("I", "II", "III")[predicates.index(True)] == split.case
        if split.case == "III":
            assert split.D <= split.l1**3 <= split.D**2, (k, D, factors)
            assert split.l1 * split.l2 == product
            prefix = math.prod(factors[: split.t])
            assert prefix == split.l1
            assert math.prod(factors[: split.t - 1]) ** 3 <= D
        counts[split.case] += 1
        checked += 1
    report(
        "criterion 10 (case classification)",
        checked == 10**4 and all(counts.values()),
        f"10^4 random dyadic factorizations partitioned with no gaps/overlaps: {counts}; "
        f"case III merges land L1 in [D^(1/3), D^(2/3)]",
    )
