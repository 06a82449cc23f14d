"""Empirical exponential-sum laboratory.

compute_expsum evaluates the concrete sums whose sizes the bound formulas
estimate: a single dyadic range with phase h*x/(n + delta), the bilinear
type-II shape over two dyadic ranges, or the full (h, m, n) triple; the
bilinear shape is the triple one with the single multiplier h. Terms are
always added in ascending index order (lexicographic for the multi-range
shapes) through a fixed compensated reduction, so the value is
deterministic.

Coefficient choices mirror the bound hypotheses, which require weights of
modulus at most 1: unit weights, Mobius weights, von Mangoldt weights
normalized by log(2 * lo) (the largest value on the dyadic range), or
seeded random unimodular weights.

classify_factorization reproduces the three-way split of dyadic divisor
factorizations by the size of the largest factor relative to D**(1/3)
and D**(2/3), using exact integer cube comparisons; boundary ties land
in the middle case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, charge
from .exponent_pairs import (
    BoundEvaluation,
    ExponentPair,
    eval_lwy_bound,
    eval_rs_bound,
    eval_vdc_bound,
)
from .sieve import DEFAULT_MAX_TERMS, LAMBDA, MU, sieve_table
from .summation import compensated_sum

SHAPES = ("monomial", "bilinear", "triple")
COEFF_SPECS = ("unit", "mu", "lambda", "random")
RATIO_FLAG_THRESHOLD = 1e3


@dataclass(frozen=True)
class ExpSumScenario:
    """One concrete sum: shape, dyadic ranges given by their lower
    endpoints (a range is (lo, 2*lo]), phase parameters, and the
    coefficient choice.

    The coefficient spec applies to the m-range weights of the bilinear
    and triple shapes and to the n-range of the monomial shape; remaining
    weight arrays are unit, except that "random" draws independent
    unimodular weights for every range (seeds seed, seed+1, seed+2).
    """

    shape: str
    x: float
    h: int = 1
    delta: int = 0
    n_lo: int | None = None
    m_lo: int | None = None
    h_lo: int | None = None
    coeffs: str = "unit"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise DomainError(f"unknown shape {self.shape!r}")
        if self.coeffs not in COEFF_SPECS:
            raise DomainError(f"unknown coefficient spec {self.coeffs!r}")
        if self.delta not in (0, 1):
            raise DomainError("delta must be 0 or 1")
        needed = {"monomial": ("n_lo",), "bilinear": ("m_lo", "n_lo"),
                  "triple": ("h_lo", "m_lo", "n_lo")}[self.shape]
        for name in needed:
            v = getattr(self, name)
            if v is None or v < 1:
                raise DomainError(f"shape {self.shape!r} needs {name} >= 1")
        if self.shape != "triple" and self.h < 1:
            raise DomainError("fixed multiplier h must be >= 1")

    @property
    def term_count(self) -> int:
        count = self.n_lo
        if self.shape in ("bilinear", "triple"):
            count *= self.m_lo
        if self.shape == "triple":
            count *= self.h_lo
        return count

    def ranges(self) -> dict[str, tuple[int, int]]:
        out = {"n": (self.n_lo, 2 * self.n_lo)}
        if self.m_lo is not None:
            out["m"] = (self.m_lo, 2 * self.m_lo)
        if self.h_lo is not None:
            out["h"] = (self.h_lo, 2 * self.h_lo)
        return out

    def describe(self) -> str:
        parts = [f"{name}({lo},{hi}]" for name, (lo, hi) in sorted(self.ranges().items())]
        return (
            f"{self.shape}|x={self.x}|h={self.h}|delta={self.delta}|"
            f"{'|'.join(parts)}|coeffs={self.coeffs}|seed={self.seed}"
        )


@dataclass(frozen=True)
class ExpSumResult:
    scenario: ExpSumScenario
    value: complex
    modulus: float
    terms: int
    trivial_bound: float


@dataclass(frozen=True)
class ComparisonReport:
    scenario: ExpSumScenario
    lemma: str
    measured: float
    trivial_bound: float
    bound: BoundEvaluation
    ratio: float
    flagged: bool


@dataclass(frozen=True)
class CaseSplit:
    """One dyadic factorization D_1 <= ... <= D_k with product near D,
    classified by the largest factor: case I when D_k > D**(2/3), case II
    when D**(1/3) <= D_k <= D**(2/3) (ties inclusive), case III when
    D_k < D**(1/3); case III also carries the least prefix t whose
    product L1 exceeds D**(1/3), and L2 the product of the rest."""

    k: int
    D: int
    factors: tuple[int, ...]
    case: str
    t: int | None = None
    l1: int | None = None
    l2: int | None = None


def _coeff_array(spec: str, lo: int, seed: int) -> np.ndarray:
    if spec == "unit":
        return np.ones(lo, dtype=np.complex128)
    if spec == "mu":
        return sieve_table(MU, lo + 1, 2 * lo + 1).values.astype(np.complex128)
    if spec == "lambda":
        lam = sieve_table(LAMBDA, lo + 1, 2 * lo + 1).lambda_values()
        return (lam / math.log(2 * lo)).astype(np.complex128)
    rng = np.random.default_rng(seed)
    return np.exp(2j * np.pi * rng.random(lo))


def _phase_values(x: float, h: int, base: np.ndarray, delta: int) -> np.ndarray:
    return np.exp(2j * np.pi * (h * x / (base + delta)))


def compute_expsum(scenario: ExpSumScenario, *, max_terms: int = DEFAULT_MAX_TERMS) -> ExpSumResult:
    """Evaluate the scenario's sum exactly as specified: terms in
    ascending index order, compensated accumulation, phase
    h * x / (index product + delta)."""
    charge(scenario.term_count, max_terms, "terms")
    x, delta = scenario.x, scenario.delta
    n_lo = scenario.n_lo
    n = np.arange(n_lo + 1, 2 * n_lo + 1, dtype=np.float64)
    if scenario.shape == "monomial":
        a_n = _coeff_array(scenario.coeffs, n_lo, scenario.seed)
        value = compensated_sum(a_n * _phase_values(x, scenario.h, n, delta))
        trivial = float(np.sum(np.abs(a_n)))
        return ExpSumResult(scenario, value, abs(value), scenario.term_count, trivial)

    m_lo = scenario.m_lo
    b_m = _coeff_array(scenario.coeffs, m_lo, scenario.seed)
    # the bilinear shape is the triple one over the single multiplier h
    if scenario.shape == "bilinear":
        hs, a_seed = [scenario.h], scenario.seed + 1
    else:
        hs, a_seed = range(scenario.h_lo + 1, 2 * scenario.h_lo + 1), scenario.seed + 2
    if scenario.coeffs == "random":
        rng = np.random.default_rng(a_seed)
        a_hn = np.exp(2j * np.pi * rng.random((len(hs), n_lo)))
    else:
        a_hn = np.ones((len(hs), n_lo), dtype=np.complex128)
    partials = []
    for hi, h in enumerate(hs):
        for mi, m in enumerate(range(m_lo + 1, 2 * m_lo + 1)):
            terms = a_hn[hi] * _phase_values(x, h, m * n, delta)
            partials.append(b_m[mi] * np.sum(terms))
    value = compensated_sum(np.array(partials, dtype=np.complex128))
    trivial = float(np.sum(np.abs(b_m)) * np.sum(np.abs(a_hn)))
    return ExpSumResult(scenario, value, abs(value), scenario.term_count, trivial)


def bound_comparison(
    scenario: ExpSumScenario,
    pair: ExponentPair | None = None,
    lemma: str | None = None,
    *,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> ComparisonReport:
    """Measured modulus against a bound formula; the ratio is recorded,
    never asserted (the formulas carry unspecified constants), but a
    ratio above 1e3 is flagged as a sanity failure.

    The monomial shape compares against the single-sum bound with
    derivative scale Y = h * x / X**2 on the range (X, 2X]; the
    multi-range shapes use phase size X = H * x / (M N).
    """
    result = compute_expsum(scenario, max_terms=max_terms)
    if lemma is None:
        lemma = "VDC" if scenario.shape == "monomial" else "RS"
    if scenario.shape == "monomial":
        if lemma != "VDC":
            raise DomainError("monomial scenarios compare against the VDC bound")
        if pair is None:
            raise DomainError("the VDC bound needs an exponent pair")
        X = float(scenario.n_lo)
        bound = eval_vdc_bound(pair, scenario.h * scenario.x / (X * X), X)
    elif lemma in ("LWY", "RS"):
        h_size = float(scenario.h_lo) if scenario.shape == "triple" else 1.0
        h_mult = h_size if scenario.shape == "triple" else scenario.h
        X = h_mult * scenario.x / (scenario.m_lo * scenario.n_lo)
        if lemma == "LWY":
            if pair is None:
                raise DomainError("the LWY bound needs an exponent pair")
            bound = eval_lwy_bound(pair, X, h_size, scenario.m_lo, scenario.n_lo)
        else:
            bound = eval_rs_bound(X, h_size, scenario.m_lo, scenario.n_lo)
    else:
        raise DomainError(f"shape {scenario.shape!r} is incompatible with lemma {lemma!r}")
    ratio = result.modulus / bound.value if bound.value > 0 else math.inf
    return ComparisonReport(
        scenario,
        lemma,
        result.modulus,
        result.trivial_bound,
        bound,
        ratio,
        ratio > RATIO_FLAG_THRESHOLD,
    )


def classify_factorization(k: int, D: int, factors) -> CaseSplit:
    """Classify an ordered dyadic factorization; see CaseSplit."""
    factors = tuple(int(f) for f in factors)
    if k < 2 or len(factors) != k:
        raise DomainError(f"need k >= 2 factors, got k={k} with {len(factors)}")
    if D < 1 or any(f < 1 for f in factors):
        raise DomainError("D and all factors must be >= 1")
    if any(a > b for a, b in zip(factors, factors[1:])):
        raise DomainError("factors must be ordered: D_1 <= ... <= D_k")
    product = math.prod(factors)
    if not D <= product < (1 << k) * D:
        raise DomainError(
            f"factor product {product} outside [D, 2^k D) = [{D}, {(1 << k) * D})"
        )
    dk = factors[-1]
    cube = dk**3
    if cube > D * D:
        return CaseSplit(k, D, factors, "I")
    if cube >= D:
        return CaseSplit(k, D, factors, "II")
    prefix = 1
    for t, f in enumerate(factors, start=1):
        prefix *= f
        if prefix**3 > D:
            l2 = product // prefix
            return CaseSplit(k, D, factors, "III", t, prefix, l2)
    raise DomainError("factor product below D**(1/3); product precondition violated")
