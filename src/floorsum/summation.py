"""Deterministic compensated reductions shared by the exponential-sum and
Vaughan evaluators."""

from __future__ import annotations

import math

import numpy as np

_CHUNK = 1 << 16


def compensated_sum(values) -> float | complex:
    """Sum a real or complex array with a fixed, input-independent reduction tree.

    Chunks of _CHUNK elements are reduced by numpy's pairwise sum and
    the chunk subtotals are combined with math.fsum, which is exactly
    rounded; a complex array has its real and imaginary parts reduced
    this way independently. The absolute error stays below
    eps * (log2(_CHUNK) + 2) * sum(|values|), far inside the
    1e-10 * n * max|term| accumulation contract, and the result does not
    depend on how callers arranged their work as long as the term order
    is fixed.
    """
    a = np.asarray(values)
    parts = (a.real, a.imag) if np.iscomplexobj(a) else (a,)
    sums = []
    for part in parts:
        part = np.ascontiguousarray(part, dtype=np.float64)
        sums.append(math.fsum([float(part[i : i + _CHUNK].sum())
                               for i in range(0, part.size, _CHUNK)]))
    return complex(*sums) if len(sums) == 2 else sums[0]
