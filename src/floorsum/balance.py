"""Exact min-max balancing of affine exponent forms.

Given forms c0 + sum_i c_i * param_i over named rational parameters and a
rational box, minimize_max finds the assignment minimizing the largest
form value. With d parameters the optimum of such a program sits where d
independent constraints are tight, each either a pairwise equality of two
forms or a box face; enumerating every d-subset of those constraint
candidates, solving each small linear system in Fractions, and comparing
all feasible solutions gives a certified exact optimum with no solver
dependency. Ties are broken toward the lexicographically smallest
assignment in the given parameter order.

Boxes must be bounded rationals; over a bounded box the maximum of
finitely many affine forms can never be unbounded below, so an unbounded
program can only arise from an unbounded box, which is rejected up front.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Mapping, Sequence

from .errors import DomainError, InfeasibleBoxError

MAX_PARAMETERS = 3


@dataclass(frozen=True)
class LinearExponentForm:
    """label, constant term, and {parameter: coefficient} in Fractions."""

    label: str
    constant: Fraction
    coefficients: Mapping[str, Fraction] = field(default_factory=dict)

    def evaluate(self, assignment: Mapping[str, Fraction]) -> Fraction:
        total = Fraction(self.constant)
        for name, coef in self.coefficients.items():
            if name not in assignment:
                raise DomainError(f"form {self.label!r} needs parameter {name!r}")
            total += Fraction(coef) * Fraction(assignment[name])
        return total


@dataclass(frozen=True)
class BalanceSolution:
    assignment: dict[str, Fraction]
    value: Fraction
    active: tuple[str, ...]


_TERM_RE = re.compile(
    r"""
    (?P<sign>[+-])?\s*
    (?:
        \(\s*(?P<pnum>\d+)\s*(?:/\s*(?P<pden>\d+))?\s*\)\s*\*?\s*(?P<pname>[A-Za-z_]\w*)
      | (?P<num>\d+)\s*(?:/\s*(?P<den>\d+))?\s*(?:\*\s*)?(?P<name>[A-Za-z_]\w*)?
      | (?P<bare>[A-Za-z_]\w*)
    )
    \s*
    """,
    re.VERBOSE,
)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip().replace(" ", ""))
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse rational {text!r}") from exc


def parse_form(text: str) -> LinearExponentForm:
    """Parse forms like "7/15 + r", "11/24 + (7/12)w", "1/2 - w - r".

    Terms are rationals, parameter names, or rational coefficients times a
    name (the * is optional, parenthesized coefficients allowed). The
    form's label is the stripped text.
    """
    constant = Fraction(0)
    coeffs: dict[str, Fraction] = {}
    pos, n = 0, len(text)
    first = True
    while pos < n:
        m = _TERM_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise DomainError(f"cannot parse form {text!r} at position {pos}")
        sign = m.group("sign")
        if sign is None and not first:
            raise DomainError(f"missing +/- between terms in {text!r}")
        s = -1 if sign == "-" else 1
        if m.group("pname"):
            coef = Fraction(int(m.group("pnum")), int(m.group("pden") or 1))
            name = m.group("pname")
        elif m.group("bare"):
            coef, name = Fraction(1), m.group("bare")
        else:
            coef = Fraction(int(m.group("num")), int(m.group("den") or 1))
            name = m.group("name")
        if name is None:
            constant += s * coef
        else:
            coeffs[name] = coeffs.get(name, Fraction(0)) + s * coef
        pos = m.end()
        first = False
    return LinearExponentForm(text.strip(), constant, coeffs)


def _solve_fraction_system(matrix, rhs):
    """Gaussian elimination over Fractions; None when singular."""
    d = len(rhs)
    a = [list(row) + [r] for row, r in zip(matrix, rhs)]
    for col in range(d):
        piv = next((r for r in range(col, d) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [v / inv for v in a[col]]
        for r in range(d):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return [a[r][d] for r in range(d)]


def evaluate_at(
    forms: Sequence[LinearExponentForm], assignment: Mapping[str, Fraction]
) -> tuple[dict[str, Fraction], Fraction]:
    """Exact per-form values and their maximum at the assignment."""
    if not forms:
        raise DomainError("no forms to evaluate")
    values = {f.label: f.evaluate(assignment) for f in forms}
    return values, max(values.values())


def minimize_max(
    forms: Sequence[LinearExponentForm],
    parameters: Sequence[str],
    box: Mapping[str, tuple[Fraction, Fraction]],
) -> BalanceSolution:
    """Exact minimizer of max(forms) over the box; see the module docstring
    for the candidate-enumeration argument."""
    if not forms:
        raise DomainError("no forms to balance")
    parameters = list(parameters)
    if len(parameters) > MAX_PARAMETERS:
        raise DomainError(f"at most {MAX_PARAMETERS} parameters supported")
    if len(set(parameters)) != len(parameters):
        raise DomainError("duplicate parameter names")
    for f in forms:
        for name in f.coefficients:
            if name not in parameters:
                raise DomainError(f"form {f.label!r} uses undeclared parameter {name!r}")
    for name in box:
        if name not in parameters:
            raise DomainError(f"box for undeclared parameter {name!r}")
    bounds: dict[str, tuple[Fraction, Fraction]] = {}
    for name in parameters:
        if name not in box:
            raise DomainError(f"missing box constraint for parameter {name!r}")
        lo, hi = (Fraction(v) for v in box[name])
        if lo > hi:
            raise InfeasibleBoxError(f"box for {name!r} is empty: [{lo}, {hi}]")
        bounds[name] = (lo, hi)

    d = len(parameters)
    if d == 0:
        values, best = evaluate_at(forms, {})
        active = tuple(label for label, v in values.items() if v == best)
        return BalanceSolution({}, best, active)

    # constraints as (row of coefficients over parameters, rhs)
    constraints: list[tuple[list[Fraction], Fraction]] = []
    for i, j in combinations(range(len(forms)), 2):
        row = [
            forms[i].coefficients.get(p, Fraction(0)) - forms[j].coefficients.get(p, Fraction(0))
            for p in parameters
        ]
        constraints.append((row, forms[j].constant - forms[i].constant))
    for idx, name in enumerate(parameters):
        unit = [Fraction(0)] * d
        unit[idx] = Fraction(1)
        for endpoint in bounds[name]:
            constraints.append((unit, endpoint))

    candidates: set[tuple[Fraction, ...]] = set()
    for combo in combinations(constraints, d):
        point = _solve_fraction_system([c[0] for c in combo], [c[1] for c in combo])
        if point is None:
            continue
        if all(bounds[p][0] <= v <= bounds[p][1] for p, v in zip(parameters, point)):
            candidates.add(tuple(point))

    best_point: tuple[Fraction, ...] | None = None
    best_value: Fraction | None = None
    for point in sorted(candidates):
        value = max(f.evaluate(dict(zip(parameters, point))) for f in forms)
        if best_value is None or value < best_value:
            best_value, best_point = value, point
    assignment = dict(zip(parameters, best_point))
    values, _ = evaluate_at(forms, assignment)
    active = tuple(label for label, v in values.items() if v == best_value)
    return BalanceSolution(assignment, best_value, active)
