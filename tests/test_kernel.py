"""The exact series kernel (integer rows over Q; the one triangular
recurrence behind a quotient, Miller's power, log and exp; the Stirling-1
transform; the Q[lambda] sum of products ``ring.dot``, with int weights,
under that recurrence, pairing, operator action and translation) against
the independent oracles of conftest, over Q, Q[lambda] and mixed rows."""

from fractions import Fraction
from math import factorial, gcd

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
from polybern.families import _gf, _values, dpb_higher_gf, poly_bernoulli_gf
from polybern.polynomials import Polynomial
from polybern.ring import LAMBDA, LambdaPoly, dot, power
from polybern.series import Series, _stirling1_rows, stirling1_transform
from polybern import umbral
from polybern.umbral import op_apply, pair, sheffer_cases

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
    # a table grown from entry i computes entries i.. only
    assert all(stirling1_transform(values, i) == got[i:] for i in range(len(values) + 1))


def test_stirling1_rows_match_the_fraction_triangle():
    # at values all 1, entry n of the reference lists s(n, n - d) at lambda^d,
    # trimmed of the zeros s(n, 0) = 0 for n >= 1 leaves at the top
    reference = stirling1_reference([1] * 41)
    rows = _stirling1_rows(41)
    assert len(rows) == 41
    for n, (row, coeffs) in enumerate(zip(rows, reference)):
        assert {type(c) for c in row} == {int}, n
        assert list(row) == (coeffs + [0] * (n + 1 - len(coeffs)))[::-1], n
    assert _stirling1_rows(0) == ()


@pytest.mark.parametrize("r", [2, 3, 40])
@pytest.mark.parametrize("k", [-2, 0, 2, 100])
def test_higher_order_gf_is_the_transform_of_the_squared_power(k, r):
    # Miller's recurrence against square-and-multiply for the same power
    n = 24
    plain = power(poly_bernoulli_gf(k, n), r, Series.one(n))
    assert dpb_higher_gf(k, r, n) == _gf(stirling1_transform(_values(plain)))


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


def lifted(c) -> LambdaPoly:
    return c if isinstance(c, LambdaPoly) else LambdaPoly.constant(c)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(WIDE)).flatmap(lambda ring: st.tuples(*[st.lists(
    st.one_of(WIDE[ring], st.just(Fraction(0)), st.just(LambdaPoly())), max_size=6)] * 2)),
       st.lists(st.integers(-3, 3), max_size=6))
def test_dot_of_scalars_against_rows_matches_the_product_route(case, weights):
    # every scalar lifted to a LambdaPoly: row-by-row products summed by __add__
    xs, ys = case
    got = dot(xs, ys, weights)
    want = sum((lifted(w) * lifted(x) * lifted(y) for w, x, y in zip(weights, xs, ys)), LambdaPoly())
    n = min(len(xs), len(ys), len(weights))
    if any(isinstance(c, LambdaPoly) for c in xs[:n] + ys[:n]):
        assert type(got) is LambdaPoly
        assert (got._num, got._den) == (want._num, want._den)
        assert not got._num or (got._num[-1] and gcd(got._den, *got._num) == 1)
    else:
        assert type(got) is Fraction and got == want


@pytest.mark.parametrize("xs, ys", [([Fraction(1, 2)], [LambdaPoly()]), ([LambdaPoly()], [3]),
                                    ([LambdaPoly(), 3], [Fraction(2), Fraction(1, 3)]),
                                    ([0, Fraction(5, 7)], [LambdaPoly(), 2**90])])
def test_dot_with_only_a_zero_lambda_poly_is_a_lambda_poly(xs, ys):
    got = dot(xs, ys)
    assert type(got) is LambdaPoly
    assert got == sum((x * y for x, y in zip(xs, ys)), Fraction(0))


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


@pytest.mark.parametrize("big", [0, -1])
def test_operator_action_sums_from_the_smaller_end(big, monkeypatch):
    # one far larger coefficient of f and of p at the bottom or the top: the
    # action starts each dot at the other end, with the same exact result
    f = [Fraction(1, k + 2) for k in range(6)]
    p = [Fraction(k + 1, 3) for k in range(6)]
    f[big] = Fraction(3**200 + 1, 2**150)
    p[big] = LambdaPoly([Fraction(7**90, 5**80), Fraction(-1, 3)])
    firsts = []
    monkeypatch.setattr(umbral, "dot", lambda xs, ys, w: firsts.append(xs[0]) or dot(xs, ys, w))
    action = op_apply(Series(f), Polynomial(p))
    assert firsts[0] is f[-1 - big]
    assert exact(action.coeffs) == exact(Polynomial(op_apply_list(f, p)).coeffs)


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


def sliding(f, p) -> list:
    """Coefficient j of the action of f on p as (1/j!) sum_k f_k (j+k)! p_(j+k),
    one ``dot`` over the row n! p_n and one division per output, trimmed."""
    scaled = [factorial(n) * c for n, c in enumerate(p)]
    return trimmed([dot(f, scaled[j:]) / factorial(j) for j in range(len(p))])


def exp_row(y, n: int) -> list:
    """y^m/m! for m < n: the translate by y is the action of e^(y t)."""
    ys = [Fraction(1)]
    for m in range(1, n):
        ys.append(ys[-1] * y / m)
    return ys


def assert_action_and_translate_are_sliding_dots(f, p, y):
    """op_apply and shift against the loops, with the exact type of every
    coefficient pinned against the factorial-weighted sliding ``dot``."""
    f, p = Series(f), Polynomial(p)
    c = list(p.coeffs)
    action = op_apply(f, p)
    assert action == Polynomial(op_apply_list(list(f), c))
    assert exact(action.coeffs) == exact(sliding(list(f), c))
    shifted = p.shift(y)
    assert shifted == Polynomial(shift_list(c, y))
    if y:  # a zero y returns p as it is
        assert exact(shifted.coeffs) == exact(sliding(exp_row(y, len(c)), c))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(sorted(SCALARS)).flatmap(lambda ring: st.tuples(
    st.lists(st.one_of(SCALARS[ring], WIDE[ring]), min_size=8, max_size=8),
    st.lists(st.one_of(SCALARS[ring], WIDE[ring], st.just(LambdaPoly())), max_size=8),
    st.one_of(SCALARS[ring], WIDE[ring]))))
def test_operator_action_and_translate_are_the_weighted_sliding_dot(case):
    assert_action_and_translate_are_sliding_dots(*case)


@pytest.mark.parametrize("p", [[], [Fraction(3, 4)], [LambdaPoly([0, 2])], [LambdaPoly()],
                               [Fraction(0), LambdaPoly(), Fraction(5)]])
def test_action_and_translate_take_empty_and_degree_zero_rows(p):
    for y in (Fraction(-2, 3), LAMBDA):
        assert_action_and_translate_are_sliding_dots([LAMBDA, Fraction(1, 3), Fraction(2)], p, y)


def test_a_q_window_stays_in_q_after_a_later_lambda_entry():
    # output j reads f[0..deg-j] only; the top coefficient never meets f[1]
    f = Series([Fraction(2), LAMBDA, Fraction(1, 2), Fraction(0)])
    p = Polynomial([Fraction(1), Fraction(-1, 3), Fraction(5, 7)])
    got = op_apply(f, p)
    assert [type(c) for c in got.coeffs] == [LambdaPoly, LambdaPoly, Fraction]
    assert got == Polynomial(op_apply_list(list(f), list(p.coeffs)))
    p = Polynomial([Fraction(2), Fraction(3)])
    assert exact(op_apply(Series([Fraction(1), LAMBDA]), p).coeffs) == exact(
        [LambdaPoly([2, 3]), Fraction(3)])
    # a zero LambdaPoly in the window still makes the output a LambdaPoly, as in dot
    assert exact(op_apply(Series([Fraction(1), LambdaPoly()]), p).coeffs) == exact(
        [LambdaPoly([2]), Fraction(3)])
    assert exact(Polynomial([LambdaPoly(), Fraction(3)]).shift(Fraction(1, 2)).coeffs) == exact(
        [LambdaPoly([Fraction(3, 2)]), Fraction(3)])
    shifted = Polynomial([Fraction(1), Fraction(2)]).shift(LAMBDA)
    assert [type(c) for c in shifted.coeffs] == [LambdaPoly, Fraction]


def test_the_sheffer_check_keeps_the_pairing_precision_error():
    s = [Polynomial.monomial(n) for n in range(5)]
    with pytest.raises(PrecisionExceeded, match=r"^pairing needs series precision > "
                       r"polynomial degree \(3 <= 3\)$"):
        list(sheffer_cases(Series.one(3), Series.t(6), s, 4))


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


def coefficient_types(row) -> str:
    """F for each Fraction coefficient, L for each LambdaPoly."""
    return "".join({Fraction: "F", LambdaPoly: "L"}.get(type(c), "?") for c in row.coeffs)


@pytest.mark.parametrize("cls", [Series, Polynomial])
@pytest.mark.parametrize("row, kept, lambda_sum, derived", [
    ((Fraction(1, 2), Fraction(-3), Fraction(2, 7)), "FFF", "LFF", "FF"),
    ((LAMBDA, LAMBDA + 1, LambdaPoly([Fraction(1, 3)])), "LLL", "LLL", "LL"),
    ((Fraction(1, 2), LAMBDA, Fraction(-2)), "FLF", "LLF", "LF"),
], ids=["q", "lambda", "mixed"])
def test_scalar_arithmetic_keeps_each_coefficient_type(cls, row, kept, lambda_sum, derived):
    # a scalar sum or difference reads the constant term only, a Q scalar
    # product keeps every type, and a lambda product makes every one a LambdaPoly
    f = cls(row)
    assert coefficient_types(f) == kept
    for s in (3, Fraction(-1, 2)):
        for g in (f + s, s + f, f - s, s - f, f * s, s * f):
            assert coefficient_types(g) == kept
        assert list((f - s).coeffs) == [row[0] - s, *row[1:]]
        assert list((s - f).coeffs) == [s - row[0], *[-c for c in row[1:]]]
    for g in (f + LAMBDA, LAMBDA + f, f - LAMBDA, LAMBDA - f):
        assert coefficient_types(g) == lambda_sum
    # a series lifts a zero scalar to the row (0,), a polynomial trims it away
    zero = LambdaPoly()
    for g in (f + zero, zero + f, f - zero, zero - f):
        assert coefficient_types(g) == (lambda_sum if cls is Series else kept)
    assert coefficient_types(f * LAMBDA) == coefficient_types(LAMBDA * f) == "LLL"
    assert coefficient_types(-f) == kept
    assert coefficient_types(f.specialize(Fraction(1, 2))) == "FFF"
    assert coefficient_types(f.derivative()) == derived


@pytest.mark.parametrize("op", [lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b],
                         ids=["add", "sub", "mul"])
def test_a_series_and_a_polynomial_do_not_mix(op):
    f, p = Series([1, LAMBDA]), Polynomial([1, LAMBDA])
    for a, b in ((f, p), (p, f)):
        with pytest.raises(TypeError, match=r"^not a Q or Q\[lambda\] coefficient: "):
            op(a, b)


def test_a_polynomial_equals_a_scalar_and_a_series_does_not():
    assert Polynomial.constant(3) == 3 and 3 == Polynomial.constant(3)
    assert Polynomial.constant(LAMBDA) == LAMBDA
    assert not Series.t(3) == 3 and Series.t(3) != 3
    assert not Series.one(1) == 1
