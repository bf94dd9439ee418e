"""Expression parser and evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmtlab.errors import ExpressionError
from gmtlab.expressions import Expression

P = np.array([[0.5, 0.25], [1.0, -2.0], [0.0, 0.0]])


def test_arithmetic():
    assert Expression("1 + 2*3 - 4/2")(P.T) == pytest.approx(5.0)


def test_variables():
    out = Expression("x + 2*y")(P.T)
    assert out == pytest.approx([1.0, -3.0, 0.0])


def test_trailing_whitespace_ends_the_input():
    assert np.array_equal(Expression("x ")(P.T), Expression("x")(P.T))


def test_radial_shorthand():
    out = Expression("r")(P.T)
    assert out == pytest.approx(np.linalg.norm(P, axis=1))


def test_functions():
    out = Expression("min(x, y) + max(x, y)")(P.T)
    assert out == pytest.approx(P.sum(axis=1))
    assert Expression("abs(0 - 3)")(P.T) == pytest.approx(3.0)
    assert Expression("exp(0)")(P.T) == pytest.approx(1.0)
    assert Expression("sqrt(4)")(P.T) == pytest.approx(2.0)


def test_power_and_unary_minus():
    out = Expression("-x^2")(P.T)
    assert out == pytest.approx(-(P[:, 0] ** 2))
    out2 = Expression("x**2")(P.T)
    assert out2 == pytest.approx(P[:, 0] ** 2)


def test_pi_constant():
    assert Expression("2*pi")(P.T) == pytest.approx(2 * math.pi)


def test_parentheses_and_precedence():
    assert Expression("(1 + 2) * (3 - 1)")(P.T) == pytest.approx(6.0)
    assert Expression("2 - 3 - 4")(P.T) == pytest.approx(-5.0)
    assert Expression("2 / 4 / 2")(P.T) == pytest.approx(0.25)


def test_three_dimensional_points():
    q = np.array([[1.0, 2.0, 2.0]])
    assert Expression("z")(q.T) == pytest.approx(2.0)
    assert Expression("r")(q.T) == pytest.approx(3.0)


def test_coordinates_broadcast():
    # one point as scalars, and a lattice of sparse axes
    assert Expression("r - x")([3.0, 4.0]) == 2.0
    grid = Expression("x + 10*y")([np.arange(3.0).reshape(3, 1), np.arange(2.0).reshape(1, 2)])
    assert grid.tolist() == [[0.0, 10.0], [1.0, 11.0], [2.0, 12.0]]


def test_z_unavailable_in_2d():
    with pytest.raises(ExpressionError):
        Expression("z")(P.T)


@pytest.mark.parametrize(
    "bad",
    ["1 +", "min(x)", "sqrt(1, 2)", "foo(3)", "((1)", "1 2", "x $ y", "nonsensename"],
)
def test_malformed_rejected(bad):
    with pytest.raises(ExpressionError):
        Expression(bad)


@pytest.mark.parametrize("nest", [
    lambda k: "(" * (k - 1) + "x" + ")" * (k - 1),
    lambda k: "-" * (k - 1) + "x",
    lambda k: "+" * (k - 1) + "x",
    lambda k: "+".join(["x"] * k),
    lambda k: "x^" * (k - 1) + "1",
    lambda k: "abs(" * (k - 1) + "x" + ")" * (k - 1),
], ids=["parentheses", "minus", "plus", "sum", "power", "call"])
def test_depth_limit(nest):
    # k levels: k - 1 nested constructs above the variable
    assert np.isfinite(Expression(nest(100))(P.T)).all()
    with pytest.raises(ExpressionError, match="deeper than 100 levels"):
        Expression(nest(101))


def test_parse_once_evaluate_many():
    expr = Expression("max(0, 1 - r*r)")
    a = expr(P.T)
    b = expr(np.array([[0.0, 0.0]]).T)
    assert b == pytest.approx(1.0)
    assert a[1] == 0.0  # |(1, -2)| > 1


@given(st.floats(-5, 5), st.floats(-5, 5))
@settings(max_examples=100)
def test_matches_python_eval(x, y):
    pts = np.array([[x, y]])
    got = Expression("x*x - 2*x*y + 3")(pts.T)
    assert got == pytest.approx(x * x - 2 * x * y + 3, rel=1e-12, abs=1e-12)
