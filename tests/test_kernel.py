"""The exact series kernel (integer rows over Q; the one triangular
recurrence behind a quotient, Miller's power, log and exp; the Stirling-1
transform; the Q[lambda] sum of products ``ring.dot``, with int weights,
under that recurrence and pairing, and its sliding form ``ring.correlate``
under operator action and translation) against the independent oracles of
conftest, over Q, Q[lambda] and mixed rows."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    EXPONENTS,
    convolve,
    divide_lists,
    dot_list,
    exp_list,
    log_list,
    op_apply_list,
    pair_list,
    shift_list,
    stirling1_reference,
)
from polybern.errors import NonUnitLeadingCoefficient, PrecisionExceeded
from polybern.families import _values, dpb_higher_gf, poly_bernoulli_gf
from polybern.polynomials import Polynomial
from polybern.ring import LAMBDA, LambdaPoly, correlate, dot, power
from polybern.series import Series, stirling1_transform
from polybern.umbral import op_apply, pair, sheffer_failure

fractions = st.fractions(min_value=-3, max_value=3, max_denominator=5)
lambda_polys = st.lists(fractions, max_size=3).map(LambdaPoly)
SCALARS = {"q": fractions, "lambda": lambda_polys, "mixed": st.one_of(fractions, lambda_polys)}
# denominators from 1 to beyond 2^80, so the common denominator of a row
# is far from each of its entries
wide = st.builds(Fraction, st.integers(-10**6, 10**6),
                 st.sampled_from([1, 2, 7, 3**20, 2**61, 10**25]))
WIDE = {"q": wide, "lambda": st.lists(wide, max_size=3).map(LambdaPoly)}
WIDE["mixed"] = st.one_of(WIDE["q"], WIDE["lambda"], st.integers(-4, 4))


def rows(ring: str, min_size: int = 1, max_size: int = 7):
    """Coefficient lists; about a quarter of them get a zero constant term."""
    return st.tuples(st.lists(SCALARS[ring], min_size=min_size, max_size=max_size),
                     st.booleans(), st.booleans()).map(
        lambda x: [Fraction(0)] + x[0][1:] if x[1] and x[2] else x[0])


def ring_rows(min_size: int, max_size: int, count: int = 1):
    """A ring name and ``count`` coefficient rows over it."""
    return st.sampled_from(sorted(SCALARS)).flatmap(lambda ring: st.tuples(
        st.just(ring), *[rows(ring, min_size, max_size)] * count))


def trimmed(cs: list) -> list:
    cs = list(cs)
    while cs and not cs[-1]:
        cs.pop()
    return cs


def invertible(c) -> bool:
    return bool(c) and (not isinstance(c, LambdaPoly) or c.degree == 0)


def assert_stays_in_q(ring: str, coeffs):
    if ring == "q":
        assert all(type(c) is Fraction for c in coeffs)


@settings(max_examples=80, deadline=None)
@given(ring_rows(1, 7, 2))
def test_products_match_the_convolution_oracle(case):
    ring, a, b = case
    n = min(len(a), len(b))
    got = Series(a) * Series(b)
    assert list(got) == convolve(a, b, n)
    assert_stays_in_q(ring, got)
    full = Polynomial(a) * Polynomial(b)
    assert list(full.coeffs) == trimmed(convolve(a, b, len(a) + len(b) - 1))
    assert_stays_in_q(ring, full.coeffs)


@settings(max_examples=60, deadline=None)
@given(ring_rows(1, 6), st.sampled_from(EXPONENTS))
def test_powers_match_repeated_multiplication(case, r):
    ring, f = case
    n = len(f)
    positive = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for _ in range(abs(r)):
        positive = convolve(positive, f, n)
    if r >= 0:
        want = positive
    elif invertible(f[0]):
        want = divide_lists([Fraction(1)], positive, n)
    else:
        with pytest.raises(NonUnitLeadingCoefficient):
            Series(f) ** r
        return
    got = Series(f) ** r
    assert list(got) == want
    assert_stays_in_q(ring, got)


@settings(max_examples=80, deadline=None)
@given(ring_rows(1, 7, 2))
def test_quotients_match_long_division(case):
    ring, f, g = case
    n = min(len(f), len(g))
    f, g = f[:n], g[:n]
    if not f[0] and not g[0]:
        f, g, n = f[1:], g[1:], n - 1  # one common factor of t cancels
        if n == 0:
            with pytest.raises(PrecisionExceeded):
                Series(f + [0]).div(Series(g + [0]))
            return
    if not invertible(g[0]):
        return  # a non-unit divisor takes the exact Q[lambda] route, tested in test_series
    got = Series(case[1]).div(Series(case[2]))
    assert list(got) == divide_lists(f, g, n)
    assert_stays_in_q(ring, got)


def check_log_and_exp(ring: str, f: list):
    unit, delta = [Fraction(1), *f[1:]], [Fraction(0), *f[1:]]
    got = Series(unit).log()
    assert list(got) == log_list(unit)
    assert_stays_in_q(ring, got)
    got = Series(delta).exp()
    assert list(got) == exp_list(delta)
    assert_stays_in_q(ring, got)


@settings(max_examples=60, deadline=None)
@given(ring_rows(1, 7))
def test_log_and_exp_match_the_power_sums(case):
    check_log_and_exp(*case)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(WIDE)).flatmap(lambda ring: st.tuples(
    st.just(ring), st.lists(WIDE[ring], min_size=1, max_size=7))))
def test_log_and_exp_of_wide_rows_match_the_power_sums(case):
    check_log_and_exp(*case)


def test_log_and_exp_read_a_zero_lambda_poly_as_dot_does():
    # a LambdaPoly among the coefficients an output reads makes it a
    # LambdaPoly, a zero one included
    got = Series([Fraction(0), LambdaPoly(), Fraction(1, 2)]).exp()
    assert exact(got) == exact([Fraction(1), LambdaPoly(), LambdaPoly([Fraction(1, 2)])])
    got = Series([Fraction(1), Fraction(0), LambdaPoly(), Fraction(1, 3)]).log()
    assert exact(got) == exact([Fraction(0), Fraction(0), LambdaPoly(),
                                LambdaPoly([Fraction(1, 3)])])


@pytest.mark.parametrize("c", [Fraction(3, 2), LambdaPoly([Fraction(-2, 3)]),
                               LambdaPoly([1, 1]), Fraction(0)])
def test_precision_one(c):
    f = Series([c])
    assert list(f * f) == [c * c]
    assert list((Polynomial([c]) * Polynomial([c])).coeffs) == trimmed([c * c])
    for r in EXPONENTS:
        if r >= 0:
            assert list(f ** r) == [power(c, r, Fraction(1))]
        elif invertible(c):
            assert list(f ** r) == divide_lists([Fraction(1)], [power(c, -r, Fraction(1))], 1)
        else:
            with pytest.raises(NonUnitLeadingCoefficient):
                f ** r
    if invertible(c):
        assert list(Series([Fraction(5, 7)]).div(f)) == divide_lists([Fraction(5, 7)], [c], 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(fractions, st.integers(-9, 9)), min_size=1, max_size=14))
def test_stirling1_transform_matches_the_fraction_loop(values):
    got = stirling1_transform(values)
    assert [list(c.coeffs) for c in got] == stirling1_reference(values)


@pytest.mark.parametrize("r", [2, 3, 40])
@pytest.mark.parametrize("k", [-2, 0, 2, 100])
def test_higher_order_gf_is_the_transform_of_the_squared_power(k, r):
    # Miller's recurrence against square-and-multiply for the same power
    n = 24
    plain = power(poly_bernoulli_gf(k, n), r, Series.one(n))
    assert dpb_higher_gf(k, r, n) == stirling1_transform(_values(plain))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SCALARS)).flatmap(lambda ring: st.tuples(*[st.lists(
    st.one_of(SCALARS[ring], st.integers(-4, 4)), max_size=6)] * 2)),
       st.lists(st.integers(-3, 3), max_size=6), st.integers(1, 6))
def test_dot_matches_the_sum_of_products(case, weights, divisor):
    xs, ys = case
    got = dot(xs, ys)
    assert got == dot_list(xs, ys)
    n = min(len(xs), len(ys))
    in_q = not any(isinstance(c, LambdaPoly) for c in xs[:n] + ys[:n])
    assert type(got) is (Fraction if in_q else LambdaPoly)
    # int weights, zero ones included, and a divisor change the value, never the type
    weighted = dot(xs, ys, weights, divisor)
    assert weighted == dot_list([w * x for w, x in zip(weights, xs)], ys) / divisor
    n = min(n, len(weights))
    in_q = not any(isinstance(c, LambdaPoly) for c in xs[:n] + ys[:n])
    assert type(weighted) is (Fraction if in_q else LambdaPoly)


@settings(max_examples=80, deadline=None)
@given(ring_rows(0, 7), st.lists(st.one_of(fractions, lambda_polys), min_size=8, max_size=9))
def test_pairing_and_operator_action_match_the_loops(case, f):
    ring, p = case
    if ring == "q":
        f = [c if type(c) is Fraction else c.constant_term for c in f]
    got = pair(Series(f), Polynomial(p))
    assert got == pair_list(f, p)
    action = op_apply(Series(f), Polynomial(p))
    assert action == Polynomial(op_apply_list(f, p))
    assert_stays_in_q(ring, [got, *action.coeffs])


@settings(max_examples=80, deadline=None)
@given(ring_rows(0, 7), st.one_of(fractions, lambda_polys))
def test_shift_matches_the_binomial_expansion(case, y):
    ring, p = case
    got = Polynomial(p).shift(y)
    assert got == Polynomial(shift_list(p, y))
    if not isinstance(y, LambdaPoly):
        assert_stays_in_q(ring, got.coeffs)


def exact(values) -> list:
    """Each value with its type, so that 1 and LambdaPoly 1 differ."""
    return [(type(v), v) for v in values]


def factorials(n: int) -> list:
    return [factorial(m) for m in range(n)]


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(SCALARS)).flatmap(lambda ring: st.tuples(*[st.lists(
    st.one_of(SCALARS[ring], WIDE[ring], st.just(LambdaPoly())), max_size=7)] * 2)),
    st.integers(0, 9))
def test_correlate_is_the_sliding_dot(case, count):
    xs, ys = case
    assert exact(correlate(xs, ys, count)) == exact(
        [dot(xs, ys[j:]) for j in range(count)])


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SCALARS)).flatmap(lambda ring: st.tuples(
    st.lists(st.one_of(SCALARS[ring], WIDE[ring]), min_size=8, max_size=8),
    st.lists(st.one_of(SCALARS[ring], WIDE[ring]), max_size=8),
    st.one_of(SCALARS[ring], WIDE[ring]))))
def test_factorial_weights_give_operator_action_and_translate(case):
    f, p, y = case
    n = len(p)
    got = correlate(f, p, n, factorials(n))
    assert got == op_apply_list(f, p)
    scaled = [factorial(m) * c for m, c in enumerate(p)]
    assert exact(got) == exact([dot(f, scaled[j:]) / factorial(j) for j in range(n)])
    ys = [Fraction(1)]
    for m in range(1, n):
        ys.append(ys[-1] * y / m)
    assert correlate(ys, p, n, factorials(n)) == shift_list(p, y)


@pytest.mark.parametrize("p", [[], [Fraction(3, 4)], [LambdaPoly([0, 2])], [LambdaPoly()],
                               [Fraction(0), LambdaPoly(), Fraction(5)]])
def test_correlate_takes_empty_and_degree_zero_rows(p):
    f = [LAMBDA, Fraction(1, 3), Fraction(2)]
    assert exact(correlate(f, p, len(p))) == exact([dot(f, p[j:]) for j in range(len(p))])
    scaled = [factorial(n) * c for n, c in enumerate(p)]
    assert exact(correlate(f, p, len(p), factorials(len(p)))) == exact(
        [dot(f, scaled[j:]) / factorial(j) for j in range(len(p))])


def test_a_q_window_stays_in_q_after_a_later_lambda_entry():
    # output j reads f[0..deg-j] only; the top coefficient never meets f[1]
    f = Series([Fraction(2), LAMBDA, Fraction(1, 2), Fraction(0)])
    p = Polynomial([Fraction(1), Fraction(-1, 3), Fraction(5, 7)])
    got = op_apply(f, p)
    assert [type(c) for c in got.coeffs] == [LambdaPoly, LambdaPoly, Fraction]
    assert got == Polynomial(op_apply_list(list(f), list(p.coeffs)))
    assert exact(correlate([Fraction(1), LAMBDA], [Fraction(2), Fraction(3)], 2)) == exact(
        [LambdaPoly([2, 3]), Fraction(3)])
    # a zero LambdaPoly in the window still makes the output a LambdaPoly, as in dot
    assert exact(correlate([Fraction(1), LambdaPoly()], [Fraction(2), Fraction(3)], 2)) == exact(
        [LambdaPoly([2]), Fraction(3)])
    shifted = Polynomial([Fraction(1), Fraction(2)]).shift(LAMBDA)
    assert [type(c) for c in shifted.coeffs] == [LambdaPoly, Fraction]


def test_the_sheffer_check_keeps_the_pairing_precision_error():
    s = [Polynomial.monomial(n) for n in range(5)]
    with pytest.raises(PrecisionExceeded, match=r"^pairing needs series precision > "
                       r"polynomial degree \(3 <= 3\)$"):
        sheffer_failure(Series.one(3), Series.t(6), s, 4)


@pytest.mark.parametrize("c", [Fraction(-1, 2), LAMBDA + 1])
def test_a_short_series_is_refused_before_any_sum(c):
    p, f = Polynomial([c, 0, c]), Series([c, c])
    with pytest.raises(PrecisionExceeded, match=r"^pairing needs series precision > "
                       r"polynomial degree \(2 <= 2\)$"):
        pair(f, p)
    with pytest.raises(PrecisionExceeded, match=r"^operator action needs series "
                       r"precision > polynomial degree \(2 <= 2\)$"):
        op_apply(f, p)


@settings(max_examples=60, deadline=None)
@given(ring_rows(1, 6), st.sampled_from([-40, -3, -2, -1]))
def test_negative_powers_equal_the_inverse_of_the_positive_power(case, r):
    ring, f = case
    if not invertible(f[0]):
        return  # the texts of that route are pinned below
    got = Series(f) ** r
    assert got == Series.one(len(f)).div(Series(f) ** -r)
    assert_stays_in_q(ring, got)


@pytest.mark.parametrize("f, c0", [((0, 1), None), ((0, 0, 1), None),
                                   ((LAMBDA, 1), LAMBDA), ((LAMBDA + 1, 1, 2), LAMBDA + 1)])
@pytest.mark.parametrize("r", [1, 2, 3, 40])
def test_a_non_invertible_constant_term_keeps_its_error(f, c0, r):
    with pytest.raises(NonUnitLeadingCoefficient) as err:
        Series(f) ** -r
    assert str(err.value) == ("divisor constant term 0 is not invertible" if c0 is None
                              else f"coefficient 1 is not divisible by {c0 ** r}")
