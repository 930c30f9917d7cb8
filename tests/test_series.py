"""Truncated series engine, checked against plain-list oracles."""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    bernoulli_oracle,
    compose_lists,
    convolve,
    divide_lists,
    rand_delta_series,
    rand_lambda_series,
    rand_series,
)
from polybern.errors import (
    ConstantTermNotOne,
    NonUnitLeadingCoefficient,
    NonzeroConstantTerm,
    NonzeroInnerConstant,
    NotDelta,
    PrecisionExceeded,
)
from polybern.families import _gf, elam
from polybern.ring import LAMBDA, LambdaPoly
from polybern.series import Series, stirling1_transform

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)


def series_st(min_size=2, max_size=8):
    return st.lists(fractions, min_size=min_size, max_size=max_size).map(Series)


def exp_list(n, sign=1):
    return [Fraction(sign**k, factorial(k)) for k in range(n)]


# -- multiplication ------------------------------------------------------------


def test_mul_difference_of_squares():
    one_plus = Series([1, 1], 4)
    one_minus = Series([1, -1], 4)
    assert one_plus * one_minus == Series([1, 0, -1], 4)


def test_mul_identity():
    f = Series([Fraction(3, 2), 0, Fraction(-1, 7), 5])
    assert f * Series.one(4) == f


def test_mul_exponentials_cancel():
    # brute-force Cauchy product of e^t and e^(-t) to order 8
    expected = convolve(exp_list(8), exp_list(8, -1), 8)
    assert expected == [1, 0, 0, 0, 0, 0, 0, 0]
    got = Series(exp_list(8)) * Series(exp_list(8, -1))
    assert list(got) == expected


@settings(max_examples=40, deadline=None)
@given(series_st(), series_st(), series_st())
def test_mul_associative_commutative(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f


def test_mul_associative_commutative_order_16():
    rng = random.Random(16)
    f, g, h = (rand_series(rng, 16) for _ in range(3))
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f


def test_mixed_ring_promotion():
    # Q series combine with Q[lambda] series without explicit coercion
    plain = Series([1, 1, Fraction(1, 2)])
    degen = Series([1, LAMBDA, LAMBDA**2])
    assert (plain * degen)[1] == LAMBDA + 1
    assert (plain + degen)[2] == LAMBDA**2 + Fraction(1, 2)
    assert (degen - 1)[0] == 0 and (degen - 1)[1]


def test_binary_precision_is_minimum():
    f, g = Series.one(5), Series.one(9)
    assert (f + g).precision == 5
    assert (f * g).precision == 5
    assert (f - g).precision == 5


# -- division -------------------------------------------------------------------


def test_div_t_by_t():
    assert Series.t(4).div(Series.t(4)) == Series.one(3)


def test_div_log_by_t_gives_alternating_harmonic():
    n = 6
    lg = (Series.one(n) + Series.t(n)).log()
    got = lg.div(Series.t(n))
    expected = [Fraction((-1) ** k, k + 1) for k in range(n - 1)]
    assert list(got) == expected
    assert got[2] == Fraction(1, 3)  # equals D_2 / 2!


def test_div_bernoulli_generating_function():
    n = 10
    got = Series.t(n).div(Series.t(n).exp() - 1)
    bs = bernoulli_oracle(n - 1)
    assert [factorial(k) * c for k, c in enumerate(got)] == bs
    assert got[1] == Fraction(-1, 2)
    assert got[2] == Fraction(1, 12)


def test_div_matches_long_division_oracle():
    rng = random.Random(7)
    for _ in range(10):
        f = rand_series(rng, 8)
        g = rand_series(rng, 8, constant=1)
        assert list(f.div(g)) == divide_lists(list(f), list(g), 8)


@settings(max_examples=40, deadline=None)
@given(series_st(min_size=3), series_st(min_size=3))
def test_div_mul_round_trip(f, g):
    if g[0]:
        q = f.div(g)
        assert q * g == f.truncate(q.precision)


def test_div_lambda_constant_denominator():
    got = Series([LAMBDA, 1]).div(Series([LambdaPoly.constant(2), 1]))
    assert got[0] == LAMBDA / 2


def test_div_rejects_non_unit_leading_coefficient():
    with pytest.raises(NonUnitLeadingCoefficient):
        Series.one(4).div(Series.t(4))
    with pytest.raises(NonUnitLeadingCoefficient):
        # both sides vanish to order 2: one cancellation is not enough
        (Series.t(5) * Series.t(5)).div(Series.t(5) * Series.t(5))
    with pytest.raises(NonUnitLeadingCoefficient):
        Series.one(4).div(Series([LAMBDA, 1]))


def test_div_cancellation_costs_one_order():
    q = Series.t(6).div(Series.t(6).exp() - 1)
    assert q.precision == 5


# -- composition ----------------------------------------------------------------


def test_compose_identity():
    f = Series([5, Fraction(1, 3), 0, 2])
    assert f.compose(Series.t(4)) == f


def test_compose_geometric_with_t():
    geometric = Series([1, 1, 1, 1])
    assert geometric.compose(Series.t(4)) == Series([1, 1, 1, 1])


def test_compose_exp_with_log():
    n = 8
    lg = (Series.one(n) + Series.t(n)).log()
    expected = compose_lists(exp_list(n), list(lg), n)
    assert expected == [1, 1] + [0] * (n - 2)
    got = Series(exp_list(n)).compose(lg)
    assert list(got) == expected


def test_compose_matches_brute_force_oracle():
    rng = random.Random(3)
    for _ in range(10):
        f = rand_series(rng, 7)
        g = rand_series(rng, 7, constant=0)
        assert list(f.compose(g)) == compose_lists(list(f), list(g), 7)


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(NonzeroInnerConstant):
        Series.t(4).compose(Series.one(4))


@settings(max_examples=25, deadline=None)
@given(series_st(min_size=4, max_size=7), series_st(min_size=4, max_size=7),
       series_st(min_size=4, max_size=7))
def test_compose_associative(f, g, h):
    g0 = g - g[0]
    h0 = h - h[0]
    assert f.compose(g0).compose(h0) == f.compose(g0.compose(h0))


def test_compose_associative_order_12():
    rng = random.Random(11)
    f = rand_series(rng, 12)
    g = rand_series(rng, 12, constant=0)
    h = rand_series(rng, 12, constant=0)
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


def test_chain_rule():
    rng = random.Random(5)
    for _ in range(5):
        f = rand_series(rng, 12)
        g = rand_series(rng, 12, constant=0)
        lhs = f.compose(g).derivative()
        rhs = f.derivative().compose(g) * g.derivative()
        assert lhs == rhs


# -- reversion -------------------------------------------------------------------


def test_revert_identity():
    assert Series.t(6).revert() == Series.t(6)


def test_revert_exp_minus_one():
    n = 10
    f = Series.t(n).exp() - 1
    fbar = f.revert()
    assert fbar == (Series.one(n) + Series.t(n)).log()
    assert f.compose(fbar) == Series.t(n)
    assert fbar.compose(f) == Series.t(n)


def test_revert_t_over_one_minus_t():
    n = 10
    f = Series([0] + [1] * (n - 1))  # t/(1-t)
    fbar = f.revert()
    assert list(fbar) == [Fraction(0)] + [Fraction((-1) ** (k - 1)) for k in range(1, n)]
    assert f.compose(fbar) == Series.t(n)
    assert fbar.compose(f) == Series.t(n)


def test_revert_round_trip_random():
    rng = random.Random(13)
    for _ in range(5):
        f = rand_delta_series(rng, 12)
        fbar = f.revert()
        assert f.compose(fbar) == Series.t(12)
        assert fbar.compose(f) == Series.t(12)


def test_revert_lambda_series():
    rng = random.Random(17)
    f = rand_lambda_series(rng, 8)
    f = Series([0, 1] + list(f.coeffs[2:]))
    fbar = f.revert()
    assert f.compose(fbar) == Series.t(8)


def test_revert_rejects_non_delta():
    with pytest.raises(NotDelta):
        Series.one(5).revert()
    with pytest.raises(NotDelta):
        (Series.t(5) * Series.t(5)).revert()
    with pytest.raises(NotDelta):
        Series([0, LAMBDA, 1]).revert()


# -- log / exp -------------------------------------------------------------------


def test_log_of_one_is_zero():
    assert Series.one(6).log() == Series.zero(6)


def test_log_defining_series():
    got = (Series.one(6) + Series.t(6)).log()
    assert list(got) == [0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4),
                         Fraction(1, 5)]


def test_log_of_one_plus_lambda_t():
    f = Series([1, LAMBDA], 5).log()
    assert f[3] == LAMBDA**3 / 3
    assert f[2] == -(LAMBDA**2) / 2


def test_exp_basics():
    assert Series.zero(6).exp() == Series.one(6)
    assert list(Series.t(6).exp()) == exp_list(6)


def test_exp_log_round_trip():
    f = Series([1, 1, 1], 8)
    assert f.log().exp() == f
    g = Series([0, Fraction(2, 3), 0, 1], 8)
    assert g.exp().log() == g


def test_log_exp_preconditions():
    with pytest.raises(ConstantTermNotOne):
        Series.t(4).log()
    with pytest.raises(NonzeroConstantTerm):
        Series.one(4).exp()


# -- specialize / misc -----------------------------------------------------------


def test_specialize_is_evaluation():
    f = Series([1, LAMBDA, LAMBDA**2])
    assert f.specialize(Fraction(1, 2)) == Series([1, Fraction(1, 2), Fraction(1, 4)])
    plain = Series([1, 2, 3])
    assert plain.specialize(7) == plain
    assert Series([1, LAMBDA], 3).specialize(Fraction(1, 2)) == Series([1, Fraction(1, 2)], 3)


@settings(max_examples=30, deadline=None)
@given(st.lists(fractions, min_size=2, max_size=5), st.lists(fractions, min_size=2, max_size=5),
       fractions)
def test_specialize_is_ring_homomorphism(a, b, v):
    f = Series([LambdaPoly([c, c]) for c in a])
    g = Series([LambdaPoly([c, 0, c]) for c in b])
    assert (f * g).specialize(v) == f.specialize(v) * g.specialize(v)
    assert (f + g).specialize(v) == f.specialize(v) + g.specialize(v)


def test_truncate_never_extends():
    f = Series([1, 2, 3])
    assert f.truncate(2) == Series([1, 2])
    with pytest.raises(PrecisionExceeded):
        f.truncate(4)


def test_pow_negative_is_inverse():
    f = Series([1, 1], 6) ** -1
    assert list(f) == [Fraction((-1) ** k) for k in range(6)]
    sq = Series([1, 1], 6) ** -2
    assert sq * Series([1, 1], 6) ** 2 == Series.one(6)


# -- Stirling-1 transform --------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 33, 128])
@pytest.mark.parametrize("c", [Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-3, 7)])
def test_stirling1_transform_of_an_exponential_is_elam(c, n):
    # e^(c x) has table c^m, and e^(c L) = (1 + lambda*t)^(c/lambda), which
    # elam builds by its falling product, not by Stirling numbers
    assert _gf(stirling1_transform([c**m for m in range(n)])) == elam(c, n)
