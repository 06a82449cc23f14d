"""Vaaler's trigonometric approximation of the sawtooth, with its Fejer
majorant.

For a degree H >= 1 the approximation and majorant are

    psi_star(x) = -sum_{1 <= h <= H} W(h/(H+1)) sin(2 pi h x) / (pi h),
    delta(x)    = (1/(2H+2)) sum_{|h| <= H} (1 - |h|/(H+1)) e(h x),

with the taper W(t) = pi t (1 - |t|) cot(pi t) + |t| on (-1, 1). The
leading minus matches the sawtooth's own Fourier series
psi(x) = -sum_h sin(2 pi h x)/(pi h); without it the finite sum would
approximate -psi and the majorant inequality below could not hold.
delta is
a nonnegative Fejer average and dominates the error pointwise:
|psi_star(x) - psi(x)| <= delta(x), with equality 1/2 = 1/2 at integers.
check_vaaler_inequality measures the worst violation over a grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_SERIES_CUTOFF = 1e-4
# grid points per block of the x-by-h tables: memory O(_GRID_BLOCK * H).
# A multiple of the row groups of BLAS's matrix-vector kernel, so a row sums
# in the order of a single-threaded whole-grid product; a row at a partial
# group (the grid's last few, or one alone) may differ from it in the last bit.
_GRID_BLOCK = 4096


@dataclass(frozen=True)
class PsiApproximation:
    """Degree H with the taper weights W(h/(H+1)) (h = 1..H) and the
    Fejer weights 1 - h/(H+1) (h = 0..H)."""

    H: int
    taper_weights: np.ndarray
    fejer_weights: np.ndarray


@dataclass(frozen=True)
class VaalerCheck:
    """Grid evaluation of the inequality |psi_star - psi| <= delta."""

    H: int
    xs: np.ndarray
    psi_values: np.ndarray
    psi_star_values: np.ndarray
    delta_values: np.ndarray

    @property
    def violations(self) -> np.ndarray:
        return np.abs(self.psi_star_values - self.psi_values) - self.delta_values

    @property
    def max_violation(self) -> float:
        return float(np.max(self.violations))

    @property
    def min_delta(self) -> float:
        return float(np.min(self.delta_values))


def kernel_w(t):
    """The taper W(t) = pi t (1 - |t|) cot(pi t) + |t|, W(0) = 1, |t| < 1.

    Below |t| = 1e-4 the factor pi t cot(pi t) is evaluated by its series
    1 - z**2/3 - z**4/45 - 2 z**6/945 (z = pi t), avoiding the 0/0 of the
    cotangent while staying within one ulp.
    """
    arr = np.asarray(t, dtype=np.float64)
    if np.any(np.abs(arr) >= 1.0):
        raise DomainError("kernel_w needs |t| < 1")
    a = np.abs(arr)
    z = np.pi * arr
    zcot = np.empty_like(a)
    small = a < _SERIES_CUTOFF
    zs = z[small]
    z2 = zs * zs
    zcot[small] = 1.0 - z2 / 3.0 - z2 * z2 / 45.0 - 2.0 * z2 * z2 * z2 / 945.0
    zb = z[~small]
    zcot[~small] = zb * np.cos(zb) / np.sin(zb)
    out = (1.0 - a) * zcot + a
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def build_approximation(H: int) -> PsiApproximation:
    if H < 1:
        raise DomainError("need H >= 1")
    h = np.arange(1, H + 1, dtype=np.float64)
    taper = kernel_w(h / (H + 1))
    fejer = 1.0 - np.arange(0, H + 1, dtype=np.float64) / (H + 1)
    return PsiApproximation(H, taper, fejer)


def _frac(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    return arr - np.floor(arr)


def _harmonic_sum(frac: np.ndarray, wave, weights: np.ndarray) -> np.ndarray:
    """sum_{1 <= h <= H} weights[h - 1] wave(2 pi h x) at each x of frac,
    _GRID_BLOCK grid points at a time, so the x-by-h table is never whole."""
    h = np.arange(1, weights.size + 1, dtype=np.float64)
    rows = np.atleast_1d(frac)
    out = np.empty(rows.shape)
    for start in range(0, rows.size, _GRID_BLOCK):
        block = rows[start : start + _GRID_BLOCK]
        out[start : start + block.size] = wave(2.0 * np.pi * block[:, None] * h[None, :]) @ weights
    return out


def psi_star(x, H: int):
    """The degree-H approximation, real by conjugate pairing of the +-h
    terms; periodic with period 1 (the argument is reduced mod 1)."""
    approx = build_approximation(H)
    h = np.arange(1, H + 1, dtype=np.float64)
    vals = -_harmonic_sum(_frac(x), np.sin, approx.taper_weights / (np.pi * h))
    return float(vals[0]) if np.isscalar(x) or np.ndim(x) == 0 else vals


def delta_majorant(x, H: int):
    """The Fejer majorant; nonnegative, 1/2 at integers, mean 1/(2H+2)."""
    approx = build_approximation(H)
    table_sum = _harmonic_sum(_frac(x), np.cos, approx.fejer_weights[1:])
    vals = (1.0 + 2.0 * table_sum) / (2.0 * H + 2.0)
    return float(vals[0]) if np.isscalar(x) or np.ndim(x) == 0 else vals


def check_vaaler_inequality(H: int, grid) -> VaalerCheck:
    """Evaluate psi, psi_star, and delta over the grid and report the
    largest value of |psi_star - psi| - delta (must be <= 1e-12; integers
    sit exactly on the equality case)."""
    xs = np.asarray(grid, dtype=np.float64)
    if xs.ndim != 1 or xs.size == 0:
        raise DomainError("grid must be a nonempty 1-d array")
    psi_vals = xs - np.floor(xs) - 0.5
    return VaalerCheck(H, xs, psi_vals, psi_star(xs, H), delta_majorant(xs, H))
