from fractions import Fraction as F

import pytest

from tjspectra.errors import PolySyntaxError, TooManyVariables
from tjspectra.poly import Poly, jacobian, parse_poly


def test_parse_three_terms():
    f = parse_poly("x^7+y^7+x^5*y^5")
    assert f.terms == {(7, 0): 1, (0, 7): 1, (5, 5): 1}


def test_parse_binomial_expansion():
    f = parse_poly("(y^2-x^3)^2-x^5*y")
    assert f.terms == {(0, 4): 1, (3, 2): -2, (6, 0): 1, (5, 1): -1}


def test_parse_syntax_error_reports_position():
    with pytest.raises(PolySyntaxError) as exc:
        parse_poly("x^^2")
    assert exc.value.position == 2


def test_parse_coefficients_and_signs():
    f = parse_poly("-2*x + 3*y^2 - 1")
    assert f.terms == {(1, 0): -2, (0, 2): 3, (0, 0): -1}


def test_parse_nested_groups():
    f = parse_poly("(x+y)^2")
    assert f.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}


def test_parse_three_variables():
    f = parse_poly("x*y*z+z^3", nvars=3)
    assert f.terms == {(1, 1, 1): 1, (0, 0, 3): 1}


def test_variable_unavailable():
    with pytest.raises(PolySyntaxError):
        parse_poly("x+z", nvars=2)
    with pytest.raises(TooManyVariables):
        parse_poly("x", nvars=4)


def test_parse_rejects_trailing_garbage():
    with pytest.raises(PolySyntaxError):
        parse_poly("x^2)")


def test_jacobian_simple():
    f = parse_poly("x^3+y^3")
    fx, fy = jacobian(f)
    assert fx.terms == {(2, 0): 3}
    assert fy.terms == {(0, 2): 3}


def test_jacobian_constant():
    f = Poly.constant(5, 2)
    assert all(g.is_zero() for g in jacobian(f))


def test_jacobian_mixed_terms():
    f = parse_poly("x^5+y^4+x^3*y^2")
    fx, fy = jacobian(f)
    assert fx.terms == {(4, 0): 5, (2, 2): 3}
    assert fy.terms == {(0, 3): 4, (3, 1): 2}


def test_poly_arithmetic_cancellation():
    f = parse_poly("x^2+y")
    assert (f - f).is_zero()
    assert (f * Poly.zero(2)).is_zero()


def test_pow_zero_and_one():
    f = parse_poly("x+1")
    assert (f ** 0).terms == {(0, 0): F(1)}
    assert f ** 1 == f


INEXACT = [F(1, 2), F(3), 0.5, True]


@pytest.mark.parametrize("coeff", INEXACT, ids=repr)
@pytest.mark.parametrize("build", [
    lambda c: Poly({(1, 0): c}, 2),
    lambda c: Poly.constant(c, 2),
    lambda c: Poly.monomial((1, 2), c),
], ids=["Poly", "constant", "monomial"])
def test_non_int_coefficients_raise(build, coeff):
    with pytest.raises(TypeError):
        build(coeff)


@pytest.mark.parametrize("terms", [
    {(3,): 1, (0, 3): 1},
    {(1, -1): 1},
    {(1.0, 0): 1},
    {(2, 0): 0},
])
def test_malformed_terms_raise(terms):
    with pytest.raises(ValueError):
        Poly(terms, 2)


@pytest.mark.parametrize("nvars", [0, 4])
def test_nvars_out_of_range_raises(nvars):
    with pytest.raises(TooManyVariables, match=r"nvars must be in \[1, 3\]"):
        Poly({}, nvars)
