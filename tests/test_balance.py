import random
from fractions import Fraction as F

import pytest

from floorsum.balance import (
    LinearExponentForm,
    evaluate_at,
    minimize_max,
    parse_form,
    parse_rational,
)
from floorsum.errors import DomainError, InfeasibleBoxError

UNIT_BOX = {"r": (F(0), F(1)), "w": (F(0), F(1))}


def theorem_forms():
    return [
        parse_form("7/15 + r"),
        parse_form("11/24 + (7/12)w"),
        parse_form("1/2 - w - r"),
    ]


def variant_forms():
    return [
        parse_form("7/15 + (32/45)r"),
        parse_form("11/24 + (7/12)w"),
        parse_form("1/2 - w - r"),
    ]


def test_parse_form_syntax():
    f = parse_form("7/15 + r")
    assert f.constant == F(7, 15) and f.coefficients == {"r": F(1)}
    f = parse_form("11/24 + (7/12)*w")
    assert f.constant == F(11, 24) and f.coefficients == {"w": F(7, 12)}
    f = parse_form("11/24+(7/12)w")
    assert f.coefficients == {"w": F(7, 12)}
    f = parse_form("1/2 - w - r")
    assert f.constant == F(1, 2) and f.coefficients == {"w": F(-1), "r": F(-1)}
    f = parse_form("3 + 2*a - 1/3 b")
    assert f.constant == F(3) and f.coefficients == {"a": F(2), "b": F(-1, 3)}
    with pytest.raises(DomainError):
        parse_form("7/15 + $")
    with pytest.raises(DomainError):
        parse_form("1/2 w r")     # missing operator


def test_parse_rational():
    assert parse_rational("  7/15 ") == F(7, 15)
    with pytest.raises(DomainError):
        parse_rational("1/0")
    with pytest.raises(DomainError):
        parse_rational("x")


def test_theorem_balance():
    sol = minimize_max(theorem_forms(), ["r", "w"], UNIT_BOX)
    assert sol.assignment == {"r": F(1, 195), "w": F(3, 130)}
    assert sol.value == F(92, 195) == F(7, 15) + F(1, 195)
    assert len(sol.active) == 3


def test_remark_variant_balance():
    sol = minimize_max(variant_forms(), ["r", "w"], UNIT_BOX)
    assert sol.assignment["r"] == F(6, 923)
    assert sol.value == F(435, 923) == F(7, 15) + F(64, 13845)
    # the computed optimum; the printed value 205/923 elsewhere is 10x this
    assert sol.assignment["w"] == F(41, 1846)
    assert sol.assignment["w"] != F(205, 923)
    assert len(sol.active) == 3


def test_single_constant_form():
    sol = minimize_max([parse_form("3/7")], ["r", "w"], UNIT_BOX)
    assert sol.value == F(3, 7)
    # lexicographically smallest box point
    assert sol.assignment == {"r": F(0), "w": F(0)}
    assert sol.active == ("3/7",)


def test_single_affine_form_minimized_at_vertex():
    sol = minimize_max([parse_form("1 - r - 2w")], ["r", "w"], UNIT_BOX)
    assert sol.value == F(-2)
    assert sol.assignment == {"r": F(1), "w": F(1)}


def test_evaluate_at_examples():
    values, top = evaluate_at(theorem_forms(), {"r": F(1, 195), "w": F(3, 130)})
    assert set(values.values()) == {F(92, 195)}
    assert top == F(92, 195)
    values, top = evaluate_at(theorem_forms(), {"r": F(0), "w": F(0)})
    assert top == F(1, 2)
    with pytest.raises(DomainError):
        evaluate_at([], {})
    with pytest.raises(DomainError):
        evaluate_at(theorem_forms(), {"r": F(0)})


def test_exactness_types():
    sol = minimize_max(theorem_forms(), ["r", "w"], UNIT_BOX)
    assert all(isinstance(v, F) for v in sol.assignment.values())
    assert isinstance(sol.value, F)


def test_optimality_certificate_random_perturbations():
    sol = minimize_max(theorem_forms(), ["r", "w"], UNIT_BOX)
    rng = random.Random(0)
    for _ in range(100):
        point = {
            "r": F(rng.randrange(0, 10**6), 10**6),
            "w": F(rng.randrange(0, 10**6), 10**6),
        }
        _, top = evaluate_at(theorem_forms(), point)
        assert top >= sol.value


def test_box_constraints_bind():
    # force r to stay above the unconstrained optimum
    box = {"r": (F(1, 10), F(1)), "w": (F(0), F(1))}
    sol = minimize_max(theorem_forms(), ["r", "w"], box)
    assert sol.assignment["r"] == F(1, 10)
    assert sol.value > F(92, 195)


def test_three_parameters():
    forms = [parse_form("a"), parse_form("b"), parse_form("c"), parse_form("1 - a - b - c")]
    box = {p: (F(0), F(1)) for p in "abc"}
    sol = minimize_max(forms, ["a", "b", "c"], box)
    assert sol.value == F(1, 4)
    assert sol.assignment == {p: F(1, 4) for p in "abc"}


def test_validation_errors():
    with pytest.raises(DomainError):
        minimize_max([], ["r"], {"r": (F(0), F(1))})
    with pytest.raises(DomainError):
        minimize_max([parse_form("r")], ["r", "s", "t", "u"],
                     {p: (F(0), F(1)) for p in "rstu"})
    with pytest.raises(DomainError):
        minimize_max([parse_form("q + 1")], ["r"], {"r": (F(0), F(1))})
    with pytest.raises(DomainError):
        minimize_max([parse_form("r")], ["r"], {})
    with pytest.raises(DomainError, match="undeclared"):
        minimize_max([parse_form("r")], ["r"], {"r": (F(0), F(1)), "q": (F(0), F(1))})
    with pytest.raises(InfeasibleBoxError):
        minimize_max([parse_form("r")], ["r"], {"r": (F(1), F(0))})


def test_tie_break_lexicographic():
    # max(|r - w| style) symmetric: many optimal points, smallest wins
    forms = [parse_form("r"), parse_form("w")]
    sol = minimize_max(forms, ["r", "w"], UNIT_BOX)
    assert sol.assignment == {"r": F(0), "w": F(0)}


def test_form_evaluate_missing_parameter():
    f = LinearExponentForm("f", F(0), {"r": F(1)})
    with pytest.raises(DomainError):
        f.evaluate({})
