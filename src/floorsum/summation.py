"""Deterministic compensated reductions shared by the exponential-sum and
Vaughan evaluators."""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 1 << 16


def compensated_sum(values) -> float:
    """Sum a float array with a fixed, input-independent reduction tree.

    Chunks of _CHUNK elements are reduced by numpy's pairwise sum and
    the chunk subtotals are combined with math.fsum, which is exactly
    rounded. The absolute error stays below
    eps * (log2(_CHUNK) + 2) * sum(|values|), far inside the
    1e-10 * n * max|term| accumulation contract, and the result does not
    depend on how callers arranged their work as long as the term order
    is fixed.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.size == 0:
        return 0.0
    parts = [float(a[i : i + _CHUNK].sum()) for i in range(0, a.size, _CHUNK)]
    return math.fsum(parts)


def compensated_complex_sum(values) -> complex:
    """Real and imaginary parts reduced independently by compensated_sum."""
    z = np.ascontiguousarray(values, dtype=np.complex128)
    return complex(compensated_sum(z.real), compensated_sum(z.imag))
