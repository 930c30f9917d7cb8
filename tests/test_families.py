"""Family constructors against independent oracles and frozen values."""

import importlib
import pkgutil
from fractions import Fraction
from math import comb, factorial

import pytest

import polybern
from conftest import bernoulli_oracle, divide_lists
from polybern import families
from polybern.errors import PolybernError, PrecisionExceeded
from polybern.polynomials import Polynomial
from polybern.ring import LambdaPoly, lambda_eval
from polybern.series import Series


def lp(*coeffs):
    return LambdaPoly([Fraction(c) for c in coeffs])


# -- elam ------------------------------------------------------------------------


def test_elam_product_formula_examples():
    e1 = families.elam(1, 6)
    assert e1[0] == 1
    assert e1[1] == 1
    assert e1[2] == lp(Fraction(1, 2), Fraction(-1, 2))  # (1 - lambda)/2
    assert families.elam(0, 6) == Series.one(6)
    em = families.elam(-1, 6)
    assert em[2] == lp(Fraction(1, 2), Fraction(1, 2))  # (1 + lambda)/2


def test_elam_alternative_construction():
    # exp(c * log(1 + lambda t)/lambda), with the lambda-division done
    # coefficient-wise: [t^n] log(1+lambda t)/lambda = (-1)^(n-1) lambda^(n-1)/n
    n = 10
    for c in (Fraction(1), Fraction(-1), Fraction(2, 3)):
        scaled = Series(
            [Fraction(0)]
            + [LambdaPoly.monomial(m - 1, Fraction((-1) ** (m - 1), m)) * c
               for m in range(1, n)]
        )
        assert scaled.exp() == families.elam(c, n)


def test_elam_reciprocal_relation():
    n = 12
    assert families.elam(1, n) * families.elam(-1, n) == Series.one(n)


def test_elam_specializes_to_exponential():
    n = 10
    expected = Series([Fraction(1, factorial(k)) for k in range(n)])
    assert families.elam(1, n).specialize(0) == expected


# -- daehee ------------------------------------------------------------------------


def test_daehee_closed_form():
    tbl = families.daehee(10)
    for n, value in tbl.rows():
        assert value == Fraction((-1) ** n * factorial(n), n + 1)
    assert tbl.value(0) == 1
    assert tbl.value(1) == Fraction(-1, 2)
    assert tbl.value(2) == Fraction(2, 3)
    assert tbl.value(3) == Fraction(-3, 2)


# -- carlitz -----------------------------------------------------------------------


def test_carlitz_low_order_values():
    tbl = families.carlitz_beta(6)
    assert tbl.value(0) == 1
    assert tbl.value(1) == lp(Fraction(-1, 2), Fraction(1, 2))
    assert tbl.value(2) == lp(Fraction(1, 6), 0, Fraction(-1, 6))
    # -lambda(1 - lambda^2)/4 = (lambda^3 - lambda)/4
    assert tbl.value(3) == lp(0, Fraction(-1, 4), 0, Fraction(1, 4))


def test_carlitz_against_reciprocal_series_oracle():
    n = 8
    denominator = [families.elam(1, n + 1)[m + 1] for m in range(n)]
    numerator = [Fraction(1)] + [Fraction(0)] * (n - 1)
    expected = divide_lists(numerator, denominator, n)
    got = families.carlitz_gf(n)
    assert list(got) == expected


def test_carlitz_specializes_to_bernoulli():
    n = 13
    bs = bernoulli_oracle(n)
    tbl = families.carlitz_beta(n)
    for m in range(n):
        assert lambda_eval(tbl.value(m), 0) == bs[m]


# -- polylog -----------------------------------------------------------------------


def test_polylog_k1_is_minus_log_one_minus_x():
    n = 8
    expected = -(Series.one(n) - Series.t(n)).log()
    assert families.polylog_series(1, n) == expected


def test_polylog_low_orders():
    assert list(families.polylog_series(0, 5)) == [0, 1, 1, 1, 1]
    assert list(families.polylog_series(-1, 5)) == [0, 1, 2, 3, 4]
    assert list(families.polylog_series(2, 4)) == [0, 1, Fraction(1, 4), Fraction(1, 9)]


# -- poly-Bernoulli ----------------------------------------------------------------


def test_poly_bernoulli_leading_value():
    for k in range(-2, 4):
        assert families.poly_bernoulli(k, 4).value(0) == 1


def test_poly_bernoulli_k1_is_classical():
    n = 12
    tbl = families.poly_bernoulli(1, n)
    assert list(v for _, v in tbl.rows()) == bernoulli_oracle(n)


def test_poly_bernoulli_k2_first_value():
    # Li_2(1 - e^(-t)) = t - t^2/4 + O(t^3); dividing by e^t - 1 leaves
    # 1 - (3/4) t + O(t^2).
    assert families.poly_bernoulli(2, 3).value(1) == Fraction(-3, 4)


# -- degenerate poly-Bernoulli -----------------------------------------------------


def test_dpb_k0_collapses_to_one():
    gf = families.dpb_gf(0, 12)
    assert gf == Series.one(12)
    tbl = families.dpb_numbers(0, 12)
    assert [v for _, v in tbl.rows()] == [1] + [0] * 11


def test_dpb_k2_first_values():
    tbl = families.dpb_numbers(2, 3)
    assert tbl.value(0) == 1
    assert tbl.value(1) == Fraction(-3, 4)  # lambda-free


def test_dpb_k1_specializes_to_bernoulli():
    n = 12
    got = families.dpb_gf(1, n).specialize(0)
    bs = bernoulli_oracle(n)
    assert [factorial(m) * got[m] for m in range(n)] == bs


def test_dpb_matches_classical_gf_at_lambda_zero():
    # at lambda = 0 the Stirling sum is the Kaneko table itself, so the
    # classical side is the series assembly, not poly_bernoulli_gf
    for k in range(-3, 4):
        degen = families.dpb_gf(k, 21).specialize(0)
        assert degen == series_poly_bernoulli(k, 21)


# -- closed-form tables against series assembly ------------------------------------


def series_poly_bernoulli(k, n):
    # Li_k(1 - e^(-t)) / (e^t - 1) by composition and division over Q
    m = n + 1
    z = 1 - (-Series.t(m)).exp()
    return families.polylog_series(k, m).compose(z).div(Series.t(m).exp() - 1)


def series_dpb(k, n):
    # Li_k(1 - elam(-1)) / (elam(1) - 1) by composition and division over Q[lambda]
    m = n + 1
    z = 1 - families.elam(-1, m)
    return families.polylog_series(k, m).compose(z).div(families.elam(1, m) - 1)


def series_table(gf):
    return tuple(factorial(n) * gf[n] for n in range(gf.precision))


def test_dpb_table_matches_series_assembly():
    for k in range(-3, 4):
        for n in (1, 2, 7, 20):
            assert families.dpb_numbers(k, n).values == series_table(series_dpb(k, n)), (k, n)


def test_dpb_higher_table_matches_series_assembly():
    for k in (-2, 1, 3):
        gf = series_dpb(k, 12)
        for r in (1, 2, 3):
            got = families.dpb_higher_numbers(k, r, 12).values
            assert got == series_table(gf ** r), (k, r)


def test_carlitz_table_matches_series_assembly():
    for n in (1, 2, 9, 20):
        gf = Series.t(n + 1).div(families.elam(1, n + 1) - 1)
        assert families.carlitz_beta(n).values == series_table(gf), n


def test_poly_bernoulli_table_matches_series_assembly():
    for k in range(-3, 4):
        got = families.poly_bernoulli(k, 64).values
        assert got == series_table(series_poly_bernoulli(k, 64)), k


def test_dpb_poly_examples():
    assert families.dpb_poly(2, 0, 4) == Polynomial.constant(1)
    assert families.dpb_poly(0, 7, 9) == Polynomial.monomial(7)
    p = families.dpb_poly(2, 1, 4)
    assert p == Polynomial([Fraction(-3, 4), 1])
    assert str(p) == "x - 3/4"


def test_dpb_higher_r1_equals_base():
    assert families.dpb_higher_gf(2, 1, 8) == families.dpb_gf(2, 8)


def test_dpb_higher_k0_is_one():
    for r in (1, 2, 3):
        assert families.dpb_higher_gf(0, r, 10) == Series.one(10)


def test_dpb_higher_k2_r2_value():
    # binomial convolution: sum_i C(1,i) b_i b_(1-i) = 2 * 1 * (-3/4)
    base = families.dpb_numbers(2, 4)
    expected = sum(comb(1, i) * base.value(i) * base.value(1 - i) for i in (0, 1))
    assert expected == Fraction(-3, 2)
    assert families.dpb_higher_numbers(2, 2, 4).value(1) == expected


def test_dpb_higher_power_equals_repeated_mul():
    for k in (-2, 1, 3):
        gf = families.dpb_gf(k, 9)
        prod = Series.one(9)
        for _ in range(3):
            prod = prod * gf
        assert families.dpb_higher_gf(k, 3, 9) == prod


# -- carlitz polynomial ------------------------------------------------------------


def test_carlitz_poly_lambda_zero_is_classical_bernoulli_poly():
    bs = bernoulli_oracle(6)
    for n in range(6):
        expected = Polynomial([comb(n, n - j) * bs[n - j] for j in range(n + 1)])
        assert families.carlitz_beta_poly(n, 8).specialize(0) == expected


def test_carlitz_poly_at_zero_gives_numbers():
    tbl = families.carlitz_beta(8)
    for n in range(8):
        assert families.carlitz_beta_poly(n, 8)(0) == tbl.value(n)


# -- tables, dispatch, errors -------------------------------------------------------


def test_table_dispatch_and_identifiers():
    assert families.FAMILY_IDS == (
        "bernoulli", "daehee", "carlitz", "poly-bernoulli", "dpb", "dpb-higher")
    assert families.table("bernoulli", 5).value(2) == Fraction(1, 6)
    assert families.table("dpb-higher", 4, k=2, r=2).value(1) == Fraction(-3, 2)


def test_table_value_precision_guard():
    tbl = families.daehee(4)
    with pytest.raises(PrecisionExceeded):
        tbl.value(4)
    with pytest.raises(PrecisionExceeded):
        tbl.value(-1)


def test_poly_constructor_precision_guard():
    with pytest.raises(PrecisionExceeded):
        families.dpb_poly(2, 5, 5)
    with pytest.raises(PrecisionExceeded):
        families.carlitz_beta_poly(9, 9)


def test_unknown_family_and_missing_k():
    with pytest.raises(PolybernError):
        families.table("fibonacci", 4)
    with pytest.raises(PolybernError):
        families.table("dpb", 4)
    with pytest.raises(PolybernError):
        families.table("dpb-higher", 4, k=1, r=0)
    with pytest.raises(PolybernError):
        families.polynomial("daehee", 3, 5)
    with pytest.raises(PolybernError):
        families.dpb_poly(None, 2, 4)
    with pytest.raises(PolybernError):
        families.table("poly-bernoulli", 3, k=families.MAX_ABS_K + 1)
    with pytest.raises(PolybernError):
        families.table("dpb", 3, k=-families.MAX_ABS_K - 1)
    assert families.table("dpb", 3, k=-families.MAX_ABS_K).value(0) == 1
    with pytest.raises(PolybernError):
        families.table("dpb-higher", 3, k=1, r=families.MAX_R + 1)
    with pytest.raises(PolybernError):
        families.table("bernoulli", families.MAX_PRECISION + 1)
    with pytest.raises(PolybernError):
        families.polynomial("carlitz", 2, families.MAX_PRECISION + 1)
    assert families.table("dpb-higher", 3, k=1, r=families.MAX_R).value(0) == 1
    assert len(families.table("bernoulli", families.MAX_PRECISION)) == families.MAX_PRECISION


def test_every_exported_name_resolves():
    for info in pkgutil.iter_modules(polybern.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"polybern.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"polybern.{info.name}.__all__ names {name}"
