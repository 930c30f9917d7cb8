"""Scalar ring: rationals and Q[lambda]."""

import random
import sys
from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, strategies as st

from conftest import render_reference
from polybern.polynomials import Polynomial
from polybern.ring import (
    LAMBDA,
    LambdaPoly,
    format_rational,
    format_scalar,
    lambda_eval,
)
from polybern.series import Series, invert_constant

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


def test_formatting_passes_the_int_str_digit_limit():
    # 7^6000 has 5071 digits, past Python's default limit of 4300
    big, limit = 7**6000, sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(0)
        want = str(big)
        sys.set_int_max_str_digits(4300)
        got = [format_rational(Fraction(big, 3)), format_rational(Fraction(3, -big)),
               format_rational(-big), format_scalar(big * LAMBDA - 1),
               str(Series([0, Fraction(big, 2)]))]
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) == 5071
    assert got == [f"{want}/3", f"-3/{want}", f"-{want}", f"{want}*lambda - 1",
                   f"{want}/2*t + O(t^2)"]


DENOMINATORS = (1, 2, 3, 7, 12, 3**20, 2**61)


def render_corpus(rng: random.Random, count: int):
    """Zero, units, degree-0 LambdaPolys and big denominators, then seeded
    rationals, LambdaPolys, and Polynomials and Series of mixed coefficients."""
    def q():
        n = rng.choice((0, 1, -1, rng.randint(-99, 99), rng.randint(-2**80, 2**80)))
        return Fraction(n, rng.choice(DENOMINATORS))

    def lam():
        return LambdaPoly([q() for _ in range(rng.randint(0, 4))])

    yield from (Fraction(0), Fraction(1), Fraction(-1), LambdaPoly(), lp(1), lp(-1),
                lp(Fraction(-5, 3**20)), Fraction(7, 2**61), LAMBDA, -LAMBDA)
    for _ in range(count):
        yield q()
        yield lam()
        yield Polynomial([rng.choice((q, lam))() for _ in range(rng.randint(0, 5))])
        yield Series([rng.choice((q, lam))() for _ in range(rng.randint(1, 5))])


def test_rendering_matches_the_fraction_route():
    for value in render_corpus(random.Random(19), 2000):
        want = render_reference(value)
        assert str(value) == want
        if not isinstance(value, (Polynomial, Series)):
            assert format_scalar(value) == want


def test_rendering_past_the_digit_limit_matches_the_fraction_route():
    big, limit = 7**6000, sys.get_int_max_str_digits()
    scalars = [lp(Fraction(big, 6), Fraction(-1, 3 * big), 5), Fraction(-big, 2**61)]
    composites = [Polynomial([Fraction(big, 3), lp(1, Fraction(-1, big))]),
                  Series([0, lp(big, 0, Fraction(1, 3)), Fraction(-1, big)])]
    try:
        sys.set_int_max_str_digits(4300)
        got = [format_scalar(v) for v in scalars] + [str(v) for v in (scalars[0], *composites)]
        want = [render_reference(v) for v in (*scalars, scalars[0], *composites)]
    finally:
        sys.set_int_max_str_digits(limit)
    assert got == want
    assert all(len(text) > 5000 for text in got)  # each writes a 5071-digit int


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


def test_monomial_is_canonical_as_built():
    for degree in (0, 1, 4):
        for coeff in (0, Fraction(0), 3, -7, Fraction(-4, 6), Fraction(5, 12)):
            got = LambdaPoly.monomial(degree, coeff)
            want = LambdaPoly((0,) * degree + (Fraction(coeff),))
            assert (got._num, got._den) == (want._num, want._den), (degree, coeff)
            assert got == want and hash(got) == hash(want)
            assert all(type(c) is int for c in (*got._num, got._den))
    assert LambdaPoly.monomial(3, 0)._num == () and LambdaPoly.monomial(3, 0)._den == 1
    assert LambdaPoly.monomial(2, Fraction(-4, 6))._num == (0, 0, -2)
    assert LambdaPoly.monomial(2, Fraction(-4, 6))._den == 3
    with pytest.raises(ValueError, match="monomial degree"):
        LambdaPoly.monomial(-1)


def test_polynomial_coefficient_is_zero_outside_its_degrees():
    p = Polynomial((1, 2, 3))
    assert [p.coefficient(n) for n in range(-4, 6)] == [0, 0, 0, 0, 1, 2, 3, 0, 0, 0]
    assert Polynomial(()).coefficient(-1) == 0 and Polynomial(()).coefficient(0) == 0


def test_polynomial_refuses_negative_degree_and_derivative_order():
    with pytest.raises(ValueError, match="^monomial degree must be >= 0$"):
        Polynomial.monomial(-1, 5)
    with pytest.raises(ValueError, match="^derivative order must be >= 0$"):
        Polynomial((1, 2, 3)).derivative(-2)
    assert Polynomial((1, 2, 3)).derivative(0) == Polynomial((1, 2, 3))
    assert Polynomial.monomial(0, 5) == Polynomial.constant(5)


def test_equality_against_plain_rationals():
    assert lp(Fraction(-3, 4)) == Fraction(-3, 4)
    assert Fraction(-3, 4) == lp(Fraction(-3, 4))
    assert lp(0, 1) != Fraction(1)
    assert lp() == 0
    assert lp(Fraction(3, 2)) != 3 and lp(3) != Fraction(3, 2)


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
    # only a nonzero lambda-free constant is invertible
    assert invert_constant(lp(Fraction(-3, 4))) == Fraction(-4, 3)
    assert invert_constant(LAMBDA) is None
    half = lp(Fraction(-1, 2), Fraction(1, 2))  # (lambda - 1)/2
    assert invert_constant(half) is None
    assert invert_constant(Fraction(4)) == Fraction(1, 4)


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


# -- the integer-row kernel against a Fraction-list reference ---------------

wide_fractions = st.fractions(min_value=-50, max_value=50, max_denominator=60)
rows = st.lists(wide_fractions, max_size=6)


def ref_trim(cs):
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def ref_add(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [Fraction(0)] * (n - len(a)), list(b) + [Fraction(0)] * (n - len(b))
    return ref_trim(x + y for x, y in zip(a, b))


def ref_mul(a, b):
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return ref_trim(out)


def assert_canonical(p: LambdaPoly):
    num, den = p._num, p._den
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in num)
    assert not num or num[-1] != 0
    assert gcd(den, *num) == 1
    if not num:
        assert (num, den) == ((), 1)


@given(rows, rows, wide_fractions)
def test_kernel_matches_fraction_reference(a, b, q):
    p, r = LambdaPoly(a), LambdaPoly(b)
    a, b = ref_trim(a), ref_trim(b)
    cases = [
        (p, a), (r, b),
        (p + r, ref_add(a, b)),
        (p - r, ref_add(a, [-y for y in b])),
        (-p, ref_trim(-x for x in a)),
        (p * r, ref_mul(a, b)),
        (p + q, ref_add(a, [q])),
        (q - p, ref_add([q], [-x for x in a])),
        (q * p, ref_trim(q * x for x in a)),
        (p ** 3, ref_mul(ref_mul(a, a), a)),
    ]
    if q:
        cases.append((p / q, ref_trim(x / q for x in a)))
    for got, want in cases:
        assert_canonical(got)
        assert got.coeffs == want
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got.degree == len(want) - 1
        assert got.constant_term == (want[0] if want else 0)
        assert got.evaluate(q) == sum(c * q**i for i, c in enumerate(want))


@given(rows, rows)
def test_divide_exact_matches_reference(a, b):
    p, r = LambdaPoly(a), LambdaPoly(b)
    if r:
        quotient = (p * r).divide_exact(r)
        assert_canonical(quotient)
        assert quotient.coeffs == ref_trim(a)
    else:
        assert p.divide_exact(r) is None
    if r.degree >= 1 and (p * r + 1).degree >= r.degree:
        assert (p * r + 1).divide_exact(r) is None


@given(st.one_of(wide_fractions, st.integers(min_value=-10**30, max_value=10**30)))
def test_constants_hash_and_compare_as_rationals(q):
    c = LambdaPoly.constant(q)
    assert_canonical(c)
    assert c == q and q == c
    assert hash(c) == hash(q)
    assert hash(c) == hash(LambdaPoly([q, 0, 0]))
    assert {c: 1}.get(q) == 1


def test_canonical_form_of_scaled_rows():
    p = LambdaPoly([Fraction(2, 6), Fraction(4, 6)])  # (1 + 2 lambda) / 3
    assert (p._num, p._den) == ((1, 2), 3)
    assert ((p * 6)._num, (p * 6)._den) == ((2, 4), 1)
    assert ((p / Fraction(-2, 3))._num, (p / Fraction(-2, 3))._den) == ((-1, -2), 2)
    zero = p - p
    assert (zero._num, zero._den) == ((), 1)
    assert ((p * 0)._num, (p * 0)._den) == ((), 1)
    assert (LambdaPoly()._num, LambdaPoly()._den) == ((), 1)


@pytest.mark.parametrize("m", [0, 1, -1, factorial(20), 2**70, -2**70, 3**25])
def test_int_scaling_matches_the_general_product(m):
    polys = [LambdaPoly(), LAMBDA, lp(Fraction(2, 6), Fraction(4, 6)), lp(Fraction(1, 3**20), 0, 5),
             lp(Fraction(-7, 2**61), Fraction(1, 6)), lp(Fraction(3**20, 2**61), Fraction(2**70, 3))]
    for p in polys:
        want = p * LambdaPoly.constant(m)
        for got in (m * p, p * m):
            assert (got._num, got._den) == (want._num, want._den)
        assert True * p == p


# numerators with zero and negative ones, over denominators from 1 to above 2^80
wide_dens = st.sampled_from([1, 2, 6, 7, 3**20, 2**61, 10**25, 3 * 2**89])
wide_qs = st.builds(Fraction, st.integers(-10**30, 10**30), wide_dens)
wide_rows = st.lists(st.one_of(st.just(Fraction(0)), wide_qs), max_size=5)
wide_ints = st.one_of(st.integers(-9, 9), st.integers(-2**90, 2**90), st.sampled_from([3**20, -(2**61)]))


def fraction_row(x) -> tuple:
    return x.coeffs if isinstance(x, LambdaPoly) else (Fraction(x),)


# equal denominators in both rows and the scalar, and a zero row
@example([Fraction(1, 6), Fraction(-5, 6), Fraction(7, 6)], [Fraction(5, 6)], Fraction(-1, 6))
@example([Fraction(3, 2**61), Fraction(0), Fraction(-1, 3 * 2**89)], [], 0)
@given(wide_rows, wide_rows, st.one_of(wide_qs, wide_ints))
def test_sums_and_differences_match_fraction_rows(a, b, q):
    p, r = LambdaPoly(a), LambdaPoly(b)
    same_den = LambdaPoly([c + 1 for c in a])  # each c + 1 keeps the denominator of c
    for x, y in ((p, r), (r, p), (p, q), (q, p), (p, p), (p, same_den), (same_den, p)):
        for sign, got in ((1, x + y), (-1, x - y)):
            # per coefficient over Fractions, rebuilt through LambdaPoly.__init__
            want = LambdaPoly(ref_add(fraction_row(x), [sign * c for c in fraction_row(y)]))
            assert type(got) is LambdaPoly
            assert_canonical(got)
            assert (got._num, got._den) == (want._num, want._den)


@given(wide_rows, st.one_of(wide_qs, wide_ints))
def test_scalar_fast_paths_match_the_general_route(a, q):
    p = LambdaPoly(a)
    lifted = LambdaPoly.constant(q)
    cases = [
        # a LambdaPoly factor takes the row-by-row product and its one gcd
        (p * q, p * lifted), (q * p, p * lifted),
    ]
    if q:
        cases.append((p / q, p * LambdaPoly.constant(1 / Fraction(q))))
    for got, want in cases:
        assert_canonical(got)
        assert (got._num, got._den) == (want._num, want._den)


def test_division_by_zero_raises():
    rows = (LAMBDA, LambdaPoly(), lp(Fraction(-7, 2**61), Fraction(1, 6)),
            Polynomial((1, LAMBDA)), Polynomial((Fraction(1, 2),)))
    for zero in (0, Fraction(0)):
        for p in rows:
            with pytest.raises(ZeroDivisionError):
                p / zero


@given(st.lists(st.one_of(wide_qs, wide_rows.map(LambdaPoly)), max_size=5), wide_ints.filter(bool))
def test_polynomial_division_by_an_int_matches_the_fraction_divisor(coeffs, m):
    p = Polynomial(coeffs)
    got, want = p / m, p / Fraction(m)
    assert got == want
    assert [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]


def test_first_power_is_the_value_itself():
    for x in (lp(1, 2), Polynomial((1, LAMBDA)), Series((0, 1, LAMBDA))):
        assert x ** 1 is x
