import cmath
import math
import tracemalloc

import numpy as np
import pytest

from floorsum import vaaler
from floorsum.errors import DomainError
from floorsum.vaaler import (
    build_approximation,
    check_vaaler_inequality,
    delta_majorant,
    kernel_w,
    psi_star,
)


def oracle_psi_star(x, H):
    """Independent evaluation of the defining two-sided complex sum,
    -sum_{1<=|h|<=H} (2 pi i h)^{-1} W(h/(H+1)) e(hx)."""
    total = 0j
    for h in range(-H, H + 1):
        if h == 0:
            continue
        w = kernel_w(abs(h) / (H + 1))
        total += w / (2j * math.pi * h) * cmath.exp(2j * math.pi * h * x)
    assert abs(total.imag) < 1e-15
    return -total.real


def oracle_delta(x, H):
    total = 0j
    for h in range(-H, H + 1):
        total += (1 - abs(h) / (H + 1)) * cmath.exp(2j * math.pi * h * x)
    assert abs(total.imag) < 1e-12
    return total.real / (2 * H + 2)


def test_kernel_w_half():
    # cot(pi/2) = 0, so W(1/2) = |1/2|
    assert kernel_w(0.5) == pytest.approx(0.5, abs=1e-15)


def test_kernel_w_even():
    for t in np.linspace(0.01, 0.99, 37):
        assert kernel_w(-t) == pytest.approx(kernel_w(t), rel=1e-15)


def test_kernel_w_near_zero_series():
    assert kernel_w(1e-8) == pytest.approx(1.0, abs=1e-8)
    assert kernel_w(0.0) == 1.0
    # series and cotangent branches agree where they meet
    for t in (9.9e-5, 1.01e-4, 5e-5):
        direct = math.pi * t * (1 - t) * (math.cos(math.pi * t) / math.sin(math.pi * t)) + t
        assert kernel_w(t) == pytest.approx(direct, rel=1e-12)


def test_kernel_w_domain():
    with pytest.raises(DomainError):
        kernel_w(1.0)
    with pytest.raises(DomainError):
        kernel_w(np.array([0.5, -1.2]))


def test_build_approximation_shapes():
    approx = build_approximation(7)
    assert len(approx.taper_weights) == 7
    assert len(approx.fejer_weights) == 8
    assert np.all((approx.fejer_weights >= 0) & (approx.fejer_weights <= 1))
    with pytest.raises(DomainError):
        build_approximation(0)


def test_psi_star_at_zero():
    for H in (1, 5, 10, 50):
        assert psi_star(0.0, H) == 0.0


def test_psi_star_periodicity():
    rng = np.random.default_rng(0)
    xs = rng.random(50) * 4 - 2
    for H in (1, 10, 50):
        a = psi_star(xs, H)
        b = psi_star(xs + 1.0, H)
        assert np.max(np.abs(a - b)) < 1e-12


def test_psi_star_odd():
    xs = np.linspace(0.01, 0.49, 25)
    for H in (3, 20):
        assert np.max(np.abs(psi_star(-xs, H) + psi_star(xs, H))) < 1e-12


def test_psi_star_matches_complex_oracle():
    for x, H in ((0.3, 10), (0.123, 5), (0.77, 50), (1.9, 7)):
        assert psi_star(x, H) == pytest.approx(oracle_psi_star(x, H), abs=1e-12)


def test_delta_at_integers_is_half():
    for H in (1, 5, 10, 50):
        assert delta_majorant(0.0, H) == pytest.approx(0.5, abs=1e-12)
        assert delta_majorant(7.0, H) == pytest.approx(0.5, abs=1e-12)


def test_delta_matches_complex_oracle():
    for x, H in ((0.3, 10), (0.123, 5), (0.6, 25)):
        assert delta_majorant(x, H) == pytest.approx(oracle_delta(x, H), abs=1e-12)


def test_delta_nonnegative_on_grids():
    grid = np.linspace(-1.0, 2.0, 10**4)
    for H in (1, 5, 10, 50):
        assert np.min(delta_majorant(grid, H)) >= -1e-12


def test_delta_mean_is_reciprocal():
    # trapezoid over one period: only the h = 0 term survives
    for H in (1, 5, 10):
        xs = np.linspace(0.0, 1.0, 100001)
        vals = delta_majorant(xs, H)
        integral = np.trapezoid(vals, xs)
        assert integral == pytest.approx(1.0 / (2 * H + 2), abs=1e-6)


def test_inequality_equality_case_at_integers():
    report = check_vaaler_inequality(5, np.array([-1.0, 0.0, 1.0, 2.0]))
    # |0 - (-1/2)| = 1/2 = delta: violations vanish to rounding
    assert np.max(np.abs(report.violations)) < 1e-12
    assert report.max_violation <= 1e-12


def test_inequality_random_and_rational_grids():
    rationals = np.array([p / q for q in range(1, 21) for p in range(q)])
    rng = np.random.default_rng(1)
    grid = np.concatenate([np.linspace(-2, 3, 101), rationals, rng.random(200) * 10 - 5])
    for H in (1, 50):
        report = check_vaaler_inequality(H, grid)
        assert report.max_violation <= 1e-12
        assert report.min_delta >= -1e-12


def test_truncation_error_decreases_with_H():
    grid = np.linspace(0.0, 1.0, 2001)
    psi_vals = grid - np.floor(grid) - 0.5
    errs = []
    H = 4
    while H <= 256:
        errs.append(np.max(np.abs(psi_star(grid, H) - psi_vals)))
        H *= 2
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-3


def test_check_rejects_bad_grid():
    with pytest.raises(DomainError):
        check_vaaler_inequality(5, np.zeros((2, 2)))
    with pytest.raises(DomainError):
        check_vaaler_inequality(5, np.array([]))



@pytest.mark.parametrize("series", [psi_star, delta_majorant])
def test_grid_memory_is_bounded_by_the_block(series):
    # 2e5 points at H = 50: one whole x-by-h table would be 80 MB
    xs = np.linspace(-2.0, 2.0, 2 * 10**5)
    tracemalloc.start()
    try:
        vals = series(xs, 50)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    oracle = oracle_psi_star if series is psi_star else oracle_delta
    for i in (0, vaaler._GRID_BLOCK - 1, vaaler._GRID_BLOCK, xs.size - 1):
        assert vals[i] == pytest.approx(oracle(xs[i], 50), abs=1e-12)
