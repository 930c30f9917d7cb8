"""Scalar ring: rationals and Q[lambda]."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from polybern.polynomials import Polynomial
from polybern.ring import (
    LAMBDA,
    LambdaPoly,
    format_rational,
    lambda_eval,
    lambda_is_constant,
)
from polybern.series import Series

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
lambda_polys = st.lists(fractions, max_size=4).map(LambdaPoly)


def lp(*coeffs) -> LambdaPoly:
    return LambdaPoly([Fraction(c) for c in coeffs])


# -- rationals ----------------------------------------------------------------


def test_rationals_are_canonical():
    assert Fraction(2, 4) == Fraction(1, 2)
    assert Fraction(1, -2).denominator == 2
    assert Fraction(1, -2).numerator == -1
    assert Fraction(-6, -4) == Fraction(3, 2)


@given(fractions, fractions, fractions)
def test_rational_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0


def test_format_rational():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(2, 3)) == "2/3"


# -- lambda polynomials -------------------------------------------------------


def test_canonical_form_trims_trailing_zeros():
    assert lp(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))
    assert lp(0, 0).coeffs == ()
    assert lp().degree == -1
    assert lp(5).degree == 0
    assert LAMBDA.degree == 1


def test_canonical_form_is_idempotent():
    p = lp(1, 0, 3, 0)
    assert LambdaPoly(p.coeffs) == p


def test_arithmetic_basics():
    assert LAMBDA + 1 == lp(1, 1)
    assert 1 - LAMBDA == lp(1, -1)
    assert LAMBDA * LAMBDA == lp(0, 0, 1)
    assert LAMBDA**3 == LambdaPoly.monomial(3)
    assert (LAMBDA - LAMBDA) == lp()
    assert -lp(1, -2) == lp(-1, 2)
    assert lp(1, 2) / 2 == lp(Fraction(1, 2), 1)
    assert Fraction(1, 2) * LAMBDA == lp(0, Fraction(1, 2))


def test_equality_against_plain_rationals():
    assert lp(Fraction(-3, 4)) == Fraction(-3, 4)
    assert Fraction(-3, 4) == lp(Fraction(-3, 4))
    assert lp(0, 1) != Fraction(1)
    assert lp() == 0


@given(lambda_polys, lambda_polys, lambda_polys)
def test_lambda_poly_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert p + (-p) == LambdaPoly()


@given(lambda_polys, lambda_polys)
def test_degree_of_product_adds(p, q):
    if p and q:
        assert (p * q).degree == p.degree + q.degree


@given(lambda_polys, lambda_polys, fractions)
def test_evaluation_is_multiplicative(p, q, v):
    assert lambda_eval(p * q, v) == lambda_eval(p, v) * lambda_eval(q, v)
    assert lambda_eval(p + q, v) == lambda_eval(p, v) + lambda_eval(q, v)


def test_lambda_eval_examples():
    assert lambda_eval(LAMBDA, 0) == 0
    p = lp(Fraction(1, 6), 0, Fraction(-1, 6))  # 1/6 - (1/6) lambda^2
    assert lambda_eval(p, 0) == Fraction(1, 6)
    assert lambda_eval(p, 1) == 0
    assert lambda_eval(Fraction(2, 7), 5) == Fraction(2, 7)


def test_lambda_is_constant_examples():
    assert lambda_is_constant(lp(Fraction(-3, 4))) == (True, Fraction(-3, 4))
    assert lambda_is_constant(LAMBDA) == (False, 0)
    half = lp(Fraction(-1, 2), Fraction(1, 2))  # (lambda - 1)/2
    assert lambda_is_constant(half) == (False, Fraction(-1, 2))
    assert lambda_is_constant(Fraction(4)) == (True, 4)


def test_rendering_grammar():
    assert str(lp(Fraction(1, 6), 0, Fraction(-1, 6))) == "-1/6*lambda^2 + 1/6"
    assert str(lp(Fraction(-1, 2), Fraction(1, 2))) == "1/2*lambda - 1/2"
    assert str(LAMBDA) == "lambda"
    assert str(-LAMBDA) == "-lambda"
    assert str(2 * LAMBDA) == "2*lambda"
    assert str(LAMBDA**2 - LAMBDA) == "lambda^2 - lambda"
    assert str(lp()) == "0"
    assert str(lp(Fraction(5, 3))) == "5/3"
    assert str(lp(-2)) == "-2"
    assert str(LambdaPoly.monomial(2, Fraction(1, 2))) == "1/2*lambda^2"


def test_invalid_power():
    with pytest.raises(ValueError):
        LAMBDA ** (-1)


def test_first_power_is_the_value_itself():
    for x in (lp(1, 2), Polynomial((1, LAMBDA)), Series((0, 1, LAMBDA))):
        assert x ** 1 is x
