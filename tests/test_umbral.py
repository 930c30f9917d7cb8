"""Umbral pairing, operator action, the Bernoulli functional, Sheffer checks."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bernoulli_oracle, rand_polynomial, rand_series
from polybern import umbral
from polybern.errors import NotDelta, NotInvertible, PrecisionExceeded
from polybern.polynomials import Polynomial
from polybern.ring import LAMBDA, LambdaPoly
from polybern.series import Series
from polybern.umbral import (
    invariant_integral,
    op_apply,
    pair,
    sheffer_failure,
    sheffer_regenerate,
)

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
polys = st.lists(fractions, min_size=1, max_size=5).map(Polynomial)
serieses = st.lists(fractions, min_size=6, max_size=8).map(Series)


# -- pairing ------------------------------------------------------------------


def test_pair_monomial_orthogonality():
    for k in range(6):
        tk = Series.t(8) ** k
        for n in range(6):
            expected = factorial(n) if n == k else 0
            assert pair(tk, Polynomial.monomial(n)) == expected


def test_pair_exponential_evaluates():
    rng = random.Random(1)
    for y in (Fraction(2), Fraction(-1, 3), Fraction(0)):
        eyt = (Series.t(10) * y).exp()
        for _ in range(5):
            p = rand_polynomial(rng, 8)
            assert pair(eyt, p) == p(y)


def test_pair_constant_functional_reads_constant_term():
    p = Polynomial([Fraction(7, 2), 1, 4])
    assert pair(Series.one(4), p) == Fraction(7, 2)


def test_pair_precision_guard():
    with pytest.raises(PrecisionExceeded):
        pair(Series.one(3), Polynomial.monomial(3))


@settings(max_examples=30, deadline=None)
@given(serieses, serieses, polys, polys, fractions, fractions)
def test_pair_linearity(f, g, p, q, a, b):
    combo = f * a + g * b
    assert pair(combo, p) == a * pair(f, p) + b * pair(g, p)
    assert pair(f, p * a + q * b) == a * pair(f, p) + b * pair(f, q)


# -- operator action ------------------------------------------------------------


def test_op_apply_t_differentiates():
    assert op_apply(Series.t(5), Polynomial.monomial(3)) == Polynomial([0, 0, 3])


def test_op_apply_identity():
    p = Polynomial([1, Fraction(-2, 3), 0, 5])
    assert op_apply(Series.one(5), p) == p


def test_op_apply_exponential_shifts():
    rng = random.Random(2)
    for y in (Fraction(1), Fraction(-2), Fraction(3, 5)):
        eyt = (Series.t(10) * y).exp()
        for _ in range(5):
            p = rand_polynomial(rng, 8)
            assert op_apply(eyt, p) == p.shift(y)


def test_op_apply_degree_does_not_increase():
    rng = random.Random(3)
    f = rand_series(rng, 9)
    p = rand_polynomial(rng, 7)
    assert op_apply(f, p).degree <= p.degree


@settings(max_examples=30, deadline=None)
@given(serieses, serieses, polys)
def test_adjointness(f, g, p):
    assert pair(f * g, p) == pair(g, op_apply(f, p))
    assert pair(f * g, p) == pair(f, op_apply(g, p))


@settings(max_examples=30, deadline=None)
@given(serieses, serieses, polys)
def test_op_apply_is_multiplicative(f, g, p):
    assert op_apply(f, op_apply(g, p)) == op_apply(f * g, p)


def test_taylor_reconstruction():
    rng = random.Random(4)
    for _ in range(8):
        p = rand_polynomial(rng, 7)
        rebuilt = Polynomial(
            [pair(Series.t(9) ** k, p) / factorial(k) for k in range(p.degree + 1)]
        )
        assert rebuilt == p


def test_pair_tk_is_kth_derivative_at_zero():
    rng = random.Random(5)
    for _ in range(8):
        p = rand_polynomial(rng, 7)
        for k in range(p.degree + 2):
            assert pair(Series.t(9) ** k, p) == p.derivative(k)(0)


# -- shift ------------------------------------------------------------------------


def test_shift_examples():
    p = Polynomial([0, 0, 1])
    assert p.shift(0) == p
    assert p.shift(1) == Polynomial([1, 2, 1])


def test_shift_composes():
    rng = random.Random(6)
    for _ in range(6):
        p = rand_polynomial(rng, 7)
        a, b = Fraction(rng.randint(-4, 4), 3), Fraction(rng.randint(-4, 4), 5)
        assert p.shift(a).shift(b) == p.shift(a + b)


def test_shift_with_lambda_coefficients():
    p = Polynomial([LAMBDA, 1])
    assert p.shift(Fraction(1, 2)) == Polynomial([LAMBDA + Fraction(1, 2), 1])


# -- invariant integral -------------------------------------------------------------


def test_invariant_integral_examples():
    assert invariant_integral(Polynomial.constant(1)) == 1
    assert invariant_integral(Polynomial.x()) == Fraction(-1, 2)
    assert invariant_integral(Polynomial.monomial(2)) == Fraction(1, 6)


def test_invariant_integral_is_bernoulli():
    bs = bernoulli_oracle(12)
    for n in range(12):
        assert invariant_integral(Polynomial.monomial(n)) == bs[n]


def test_integral_of_expanded_polynomial_reads_zero():
    rng = random.Random(7)
    for _ in range(10):
        p = rand_polynomial(rng, 8)
        # (e^t - 1)/t applied first, then integrated: returns p(0)
        n = p.degree + 2
        expanded = op_apply((Series.t(n).exp() - 1).div(Series.t(n)), p)
        assert invariant_integral(expanded) == p(0)


def test_iterated_integral_of_expanded_polynomial_reads_zero():
    rng = random.Random(8)
    for r in (1, 2, 3):
        for _ in range(5):
            p = rand_polynomial(rng, 6)
            n = p.degree + 2
            e = (Series.t(n).exp() - 1).div(Series.t(n)) ** r
            assert invariant_integral(op_apply(e, p), r) == p(0)


def difference_sides(p):
    """(integral of p(x+1) minus integral of p, p'(0)); equal for every p."""
    return invariant_integral(p.shift(1)) - invariant_integral(p), p.derivative()(0)


def test_difference_property_examples():
    lhs, rhs = difference_sides(Polynomial.monomial(2))
    assert lhs == rhs == 0
    lhs, rhs = difference_sides(Polynomial.x())
    assert lhs == rhs == 1
    lhs, rhs = difference_sides(Polynomial.constant(1))
    assert lhs == rhs == 0


def test_difference_property_on_monomials():
    for n in range(17):
        lhs, rhs = difference_sides(Polynomial.monomial(n))
        assert lhs == rhs


# -- Sheffer orthogonality ------------------------------------------------------------


def test_monomials_are_sheffer_for_identity_pair():
    s = [Polynomial.monomial(n) for n in range(7)]
    assert sheffer_failure(Series.one(8), Series.t(8), s, 6) is None


def test_sheffer_regenerate_identity_pair():
    regen = sheffer_regenerate(Series.one(8), Series.t(8), 6)
    assert regen == [Polynomial.monomial(n) for n in range(6)]


def test_falling_factorials_are_sheffer_for_exp_minus_one():
    # x(x-1)...(x-n+1) pairs to n! delta against (e^t - 1)^k, and the
    # regeneration route goes through a genuine series reversion
    s = []
    p = Polynomial.constant(1)
    for i in range(8):
        s.append(p)
        p = p * Polynomial([-i, 1])
    assert sheffer_failure(Series.one(9), Series.t(9).exp() - 1, s, 7) is None


def test_abel_polynomials_are_sheffer_for_t_exp_t():
    def abel(n):
        if n == 0:
            return Polynomial.constant(1)
        return Polynomial.x() * Polynomial([-n, 1]) ** (n - 1)

    s = [abel(n) for n in range(7)]
    f = Series.t(10) * Series.t(10).exp()
    assert sheffer_failure(Series.one(10), f, s, 6) is None


def test_sheffer_detects_wrong_sequence():
    s = [Polynomial.monomial(n) for n in range(7)]
    s[3] = s[3] + Polynomial.constant(1)
    assert sheffer_failure(Series.one(8), Series.t(8), s, 6) is not None


def test_sheffer_witness_text(monkeypatch):
    s = [Polynomial.monomial(n) for n in range(7)]
    s[3] = s[3] + Polynomial.constant(LAMBDA)
    assert sheffer_failure(Series.one(8), Series.t(8), s, 6) == (3, "<g*f^0|s_3> = lambda", "0")
    # a regeneration failure prints both polynomials
    s = [Polynomial.monomial(n) for n in range(7)]
    monkeypatch.setattr(umbral, "sheffer_regenerate",
                        lambda g, f, count: s[:2] + [Polynomial([1, -2, 3])] + s[3:count])
    assert sheffer_failure(Series.one(8), Series.t(8), s, 6) == (2, "3*x^2 - 2*x + 1", "x^2")


def test_sheffer_preconditions():
    s = [Polynomial.monomial(n) for n in range(4)]
    with pytest.raises(NotDelta):
        sheffer_failure(Series.one(6), Series.one(6), s, 3)
    with pytest.raises(NotInvertible):
        sheffer_failure(Series.t(6), Series.t(6), s, 3)
    with pytest.raises(NotDelta):
        sheffer_failure(Series.one(6), Series([0, LAMBDA, 1], 6), s, 3)


# -- polynomial type ------------------------------------------------------------------


def test_polynomial_rendering():
    assert str(Polynomial.monomial(5)) == "x^5"
    assert str(Polynomial([Fraction(-3, 4), 1])) == "x - 3/4"
    assert str(Polynomial.constant(1)) == "1"
    assert str(Polynomial()) == "0"
    assert str(Polynomial([0, -1])) == "-x"
    assert str(Polynomial([1, 0, Fraction(1, 2)])) == "1/2*x^2 + 1"
    p = Polynomial([0, LambdaPoly([Fraction(-1, 2), Fraction(1, 2)])])
    assert str(p) == "(1/2*lambda - 1/2)*x"


def test_polynomial_mul_and_eval():
    p = Polynomial([1, 1])  # 1 + x
    assert p * p == Polynomial([1, 2, 1])
    assert (p * p)(3) == 16
    assert Polynomial([LAMBDA, 1])(Fraction(1, 2)) == LAMBDA + Fraction(1, 2)


@pytest.mark.parametrize("a, b", [
    ([1, 2], [Fraction(1, 2), LAMBDA, 3]),
    ([LAMBDA, 0, Fraction(1, 3)], [1]),
    ([Fraction(2), LambdaPoly([5])], [Fraction(2), LambdaPoly([5])]),
    ([], [LambdaPoly([0, 1]), Fraction(-1)]),
])
def test_polynomial_difference_is_the_sum_with_the_negation(a, b):
    p, q = Polynomial(a), Polynomial(b)
    for got, want in ((p - q, p + (-q)), (q - p, q + (-p)), (p - 3, p + Polynomial([-3]))):
        assert [(type(c), c) for c in got.coeffs] == [(type(c), c) for c in want.coeffs]
