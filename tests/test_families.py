"""Family constructors against independent oracles and frozen values."""

import ast
import importlib
import pkgutil
import re
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

import polybern
from conftest import bernoulli_oracle, divide_lists, fresh_python
from polybern import families, identities, series
from polybern.errors import PolybernError, PrecisionExceeded
from polybern.polynomials import Polynomial
from polybern.ring import LambdaPoly, lambda_eval
from polybern.series import Series, stirling1_transform


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
    tbl = families.table("daehee", 10)
    for n, value in enumerate(tbl.values):
        assert value == Fraction((-1) ** n * factorial(n), n + 1)
    assert tbl.value(0) == 1
    assert tbl.value(1) == Fraction(-1, 2)
    assert tbl.value(2) == Fraction(2, 3)
    assert tbl.value(3) == Fraction(-3, 2)


# -- carlitz -----------------------------------------------------------------------


def test_carlitz_low_order_values():
    tbl = families.table("carlitz", 6)
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
    tbl = families.table("carlitz", n)
    for m in range(n):
        assert lambda_eval(tbl.value(m), 0) == bs[m]


def test_cauchy_numbers_equal_the_integral_of_the_falling_factorial():
    # C_n = n! [t^n] t/log(1 + t) is the lambda^n coefficient of Carlitz entry
    # n, and C_n = integral over [0, 1] of x(x - 1)...(x - n + 1) dx
    tbl = families.table("carlitz", 41)
    falling, cauchy = Polynomial.constant(1), []
    for n in range(41):
        cauchy.append(sum(c / (i + 1) for i, c in enumerate(falling.coeffs)))
        falling = falling * Polynomial((-n, 1))
    assert cauchy[:5] == [1, Fraction(1, 2), Fraction(-1, 6), Fraction(1, 4), Fraction(-19, 30)]
    assert tbl.value(0) == cauchy[0] and type(tbl.value(0)) is Fraction
    for n in range(1, 41):
        assert tbl.value(n).degree == n, n
        assert tbl.value(n).coeffs[n] == cauchy[n], n


def _carlitz_by_series_division(n: int) -> list:
    """The Carlitz table by its former route: t/log(1 + t) by one series
    division over Q, plus n times the Stirling-1 transform of B_(m+1)/(m + 1)."""
    bern = bernoulli_oracle(n + 1)
    f = stirling1_transform([bern[m + 1] / (m + 1) for m in range(n)])
    g = Series.one(n).div(Series([Fraction((-1) ** m, m + 1) for m in range(n)]))
    return [g[0]] + [LambdaPoly.monomial(m, factorial(m) * g[m]) + m * f[m - 1]
                     for m in range(1, n)]


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 128])
def test_carlitz_table_equals_the_series_division_route(n):
    got = families.table("carlitz", n).values
    want = _carlitz_by_series_division(n)
    assert [(type(v), str(v)) for v in got] == [(type(v), str(v)) for v in want]
    assert list(got) == want


def test_carlitz_table_runs_no_triangular_recurrence(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Carlitz table ran a triangular recurrence")

    monkeypatch.setattr(series, "_recurrence", refuse)
    for module in (series, families):
        for fn in vars(module).values():
            if getattr(fn, "__module__", None) == module.__name__ and hasattr(fn, "cache_clear"):
                fn.cache_clear()
    assert len(families.table("carlitz", 32)) == 32


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
        assert families.table("poly-bernoulli", 4, k=k).value(0) == 1


def test_poly_bernoulli_k1_is_classical():
    n = 12
    tbl = families.table("poly-bernoulli", n, k=1)
    assert list(tbl.values) == bernoulli_oracle(n)


def test_poly_bernoulli_k2_first_value():
    # Li_2(1 - e^(-t)) = t - t^2/4 + O(t^3); dividing by e^t - 1 leaves
    # 1 - (3/4) t + O(t^2).
    assert families.table("poly-bernoulli", 3, k=2).value(1) == Fraction(-3, 4)


# -- degenerate poly-Bernoulli -----------------------------------------------------


def test_dpb_k0_collapses_to_one():
    gf = families.dpb_gf(0, 12)
    assert gf == Series.one(12)
    tbl = families.table("dpb", 12, k=0)
    assert list(tbl.values) == [1] + [0] * 11


def test_dpb_k2_first_values():
    tbl = families.table("dpb", 3, k=2)
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
            assert families.table("dpb", n, k=k).values == series_table(series_dpb(k, n)), (k, n)


def test_dpb_higher_table_matches_series_assembly():
    for k in (-2, 1, 3):
        gf = series_dpb(k, 12)
        for r in (1, 2, 3):
            got = families.table("dpb-higher", 12, k=k, r=r).values
            assert got == series_table(gf ** r), (k, r)


def test_carlitz_table_matches_series_assembly():
    for n in (1, 2, 9, 20):
        gf = Series.t(n + 1).div(families.elam(1, n + 1) - 1)
        assert families.table("carlitz", n).values == series_table(gf), n


def test_poly_bernoulli_table_matches_series_assembly():
    for k in range(-3, 4):
        got = families.table("poly-bernoulli", 64, k=k).values
        assert got == series_table(series_poly_bernoulli(k, 64)), k


def test_bernoulli_tangent_route_equals_kaneko_and_the_recurrence():
    for n in range(1, families.MAX_PRECISION + 3):
        got = families._values(families.bernoulli_gf(n))
        kaneko, triangular = families._kaneko(1, n), identities.bernoulli_numbers_triangular(n)
        assert got == kaneko == triangular, n
        assert {type(v) for v in got + kaneko + triangular} == {Fraction}, n
    assert families.poly_bernoulli_gf(1, 40) == families.bernoulli_gf(40)
    bern = families.table("bernoulli", 40).values
    assert families.table("poly-bernoulli", 40, k=1).values == bern


def _stirling2_explicit(n: int, m: int) -> Fraction:
    """S(n, m) = (1/m!) sum_j (-1)^j C(m, j) (m - j)^n."""
    return Fraction(sum((-1) ** j * comb(m, j) * (m - j) ** n for j in range(m + 1)),
                    factorial(m))


def test_poly_bernoulli_table_matches_kanekos_explicit_sum():
    # PB_n = (-1)^n sum_m (-1)^m m! S(n+1, m+1)/(m + 1)^k, with every S from
    # the explicit sum, so no recurrence of the production route is shared
    stirling2 = [[_stirling2_explicit(n + 1, m + 1) for m in range(n + 1)] for n in range(41)]

    def kaneko(k, count):
        return [(-1) ** n * sum((-1) ** m * factorial(m) * s / Fraction(m + 1) ** k
                                for m, s in enumerate(stirling2[n]))
                for n in range(count)]

    for k, count in [(k, 41) for k in range(-3, 4)] + [(-100, 16), (100, 16)]:
        want = kaneko(k, count)
        families._table.cache_clear()
        got = families.table("poly-bernoulli", count, k=k).values
        assert list(got) == want, k
        assert {type(v) for v in got} == {Fraction}, k
        assert families._kaneko(k, count) == want, k  # at k = 1 too, where table reads bernoulli
        assert families._kaneko(k, count, 5) == want[5:], k
    assert families._kaneko(2, 0) == families._kaneko(2, 3, 3) == []


_TABLE_DIGEST = ("import hashlib\nfrom polybern import families\n"
                 "def digest(family, n, k, r):\n"
                 "    values = families.table(family, n, k=k, r=r).values\n"
                 "    text = repr([(type(v).__name__, str(v)) for v in values])\n"
                 "    return hashlib.sha256(text.encode()).hexdigest()\n")


def test_tables_do_not_depend_on_what_the_row_caches_hold():
    # one session grows, truncates and regrows the cached Stirling-1 rows,
    # the only rows a table reads (a poly-Bernoulli table reads none); the
    # table cache is cleared before each build, so every build reads the
    # rows the earlier ones left
    builds = [("poly-bernoulli", n, k, 1) for n in (8, 64, 96, 64) for k in (-2, 0, 3)]
    builds += [("dpb-higher", 24, 2, 3), ("dpb-higher", 16, 2, 3)]
    session = fresh_python(
        _TABLE_DIGEST + f"for args in {builds!r}:\n"
        "    families._table.cache_clear()\n    print(digest(*args))\n"
        "from polybern import series\n"
        "print(series._stirling1_rows.cache_info().misses)")
    assert session.returncode == 0, session.stderr
    *digests, misses = session.stdout.splitlines()
    assert misses == "1"  # Stirling-1 rows at 24
    for args, got in zip(builds, digests, strict=True):
        alone = fresh_python(_TABLE_DIGEST + f"print(digest(*{args!r}))")
        assert alone.returncode == 0, alone.stderr
        assert alone.stdout == got + "\n", args


@pytest.mark.parametrize("n", [1, 2, 33, 128])
def test_closed_forms_equal_the_series_routes(n):
    t = Series.t(n + 1)  # each division cancels one t
    assert families.bernoulli_gf(n) == t.div(t.exp() - 1)
    assert families.daehee_gf(n) == (1 + t).log().div(t)
    for y in identities.DEFAULT_YS:
        assert identities._expm1_over_t(y, n) == ((t * y).exp() - 1).div(t), y


def test_families_compose_no_series_through_log_exp_or_compose():
    tree = ast.parse(Path(families.__file__).read_text())
    calls = {node.func.attr for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)}
    assert not calls & {"log", "exp", "compose"}


def test_dpb_poly_examples():
    assert families.polynomial("dpb", 0, 4, k=2) == Polynomial.constant(1)
    assert families.polynomial("dpb", 7, 9, k=0) == Polynomial.monomial(7)
    p = families.polynomial("dpb", 1, 4, k=2)
    assert p == Polynomial([Fraction(-3, 4), 1])
    assert str(p) == "x - 3/4"


def test_dpb_higher_r1_equals_base():
    assert families.dpb_higher_gf(2, 1, 8) == families.dpb_gf(2, 8)


def test_dpb_higher_k0_is_one():
    for r in (1, 2, 3):
        assert families.dpb_higher_gf(0, r, 10) == Series.one(10)


def test_dpb_higher_k2_r2_value():
    # binomial convolution: sum_i C(1,i) b_i b_(1-i) = 2 * 1 * (-3/4)
    base = families.table("dpb", 4, k=2)
    expected = sum(comb(1, i) * base.value(i) * base.value(1 - i) for i in (0, 1))
    assert expected == Fraction(-3, 2)
    assert families.table("dpb-higher", 4, k=2, r=2).value(1) == expected


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
        assert families.polynomial("carlitz", n, 8).specialize(0) == expected


def test_carlitz_poly_at_zero_gives_numbers():
    tbl = families.table("carlitz", 8)
    for n in range(8):
        assert families.polynomial("carlitz", n, 8)(0) == tbl.value(n)


# -- tables, dispatch, errors -------------------------------------------------------


def test_table_dispatch_and_identifiers():
    assert families.FAMILY_IDS == (
        "bernoulli", "daehee", "carlitz", "poly-bernoulli", "dpb", "dpb-higher")
    assert families.table("bernoulli", 5).value(2) == Fraction(1, 6)
    assert families.table("dpb-higher", 4, k=2, r=2).value(1) == Fraction(-3, 2)


def test_table_value_precision_guard():
    tbl = families.table("daehee", 4)
    with pytest.raises(PrecisionExceeded):
        tbl.value(4)
    with pytest.raises(PrecisionExceeded):
        tbl.value(-1)


def test_sequence_table_is_a_value():
    tbl = families.table("daehee", 5)
    assert len(tbl) == len(tbl.values) == 5
    assert tbl == families.table("daehee", 5) and hash(tbl) == hash(families.table("daehee", 5))
    assert tbl != families.table("daehee", 6)
    assert tbl != families.SequenceTable("bernoulli", None, 1, tbl.values)
    assert len({tbl, families.table("daehee", 5), families.table("bernoulli", 5)}) == 2


def test_poly_constructor_precision_guard():
    with pytest.raises(PrecisionExceeded):
        families.polynomial("dpb", 5, 5, k=2)
    with pytest.raises(PrecisionExceeded):
        families.polynomial("carlitz", 9, 9)


def test_truncate_refuses_what_it_cannot_give():
    gf, tbl = families.dpb_gf(2, 3), families.table("dpb", 3, k=2)
    for p in (0, -1, -3):
        for value in (gf, tbl):
            with pytest.raises(PrecisionExceeded, match=f"^precision must be >= 1, got {p}$"):
                value.truncate(p)
    with pytest.raises(PrecisionExceeded, match="^cannot extend a series of precision 3 to 5$"):
        gf.truncate(5)
    with pytest.raises(PrecisionExceeded, match="^cannot extend a table of precision 3 to 5$"):
        tbl.truncate(5)
    assert gf.truncate(3) is gf and gf.truncate(2) == Series(gf.coeffs[:2])
    assert tbl.truncate(3) == tbl and tbl.truncate(2).values == tbl.values[:2]


@pytest.mark.parametrize("precision", [0, -2])
def test_every_builder_refuses_precision_below_one(precision):
    for build in (lambda: families.elam(1, precision),
                  lambda: families.polylog_series(2, precision),
                  lambda: families.table("dpb", precision, k=2),
                  lambda: families.table("carlitz", precision),
                  lambda: families.polynomial("dpb", 0, precision, k=2),
                  lambda: families.polynomial("bernoulli", 0, precision)):
        with pytest.raises(PrecisionExceeded, match=f"^precision must be >= 1, got {precision}$"):
            build()
    for build in (lambda: families.bernoulli_gf(precision), lambda: families.daehee_gf(precision),
                  lambda: families.carlitz_gf(precision),
                  lambda: families.poly_bernoulli_gf(2, precision),
                  lambda: families.dpb_higher_gf(2, 2, precision)):
        with pytest.raises(PrecisionExceeded):
            build()


def test_a_table_builds_no_gf(monkeypatch):
    def refuse(*args):
        raise AssertionError(f"a table built a gf: {args}")

    # dpb-higher at r >= 2 takes its power on poly_bernoulli_gf; no other
    # table reads a gf
    for name in ("bernoulli_gf", "daehee_gf", "carlitz_gf", "dpb_gf", "dpb_higher_gf"):
        monkeypatch.setattr(families, name, refuse)
    families._table.cache_clear()
    for family in families.FAMILY_IDS:
        for r in (1, 2):
            assert len(families.table(family, 64, k=2, r=r)) == 64, (family, r)
    monkeypatch.setattr(families, "poly_bernoulli_gf", refuse)
    families._table.cache_clear()
    for k in (-3, 1, 5):
        assert len(families.table("poly-bernoulli", 64, k=k)) == 64, k
    families._table.cache_clear()


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
        families.polynomial("dpb", 2, 4, k=None)
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
    for family, k in (("dpb", 2), ("bernoulli", None), ("carlitz", None)):
        with pytest.raises(PrecisionExceeded):
            families.polynomial(family, -1, 4, k=k)


def test_gf_builders_check_k_and_r():
    over = families.MAX_ABS_K + 1
    for build in (lambda: families.polylog_series(over, 3),
                  lambda: families.poly_bernoulli_gf(-over, 3),
                  lambda: families.dpb_gf(over, 3),
                  lambda: families.dpb_gf(99999999, 3),
                  lambda: families.dpb_higher_gf(-over, 2, 3)):
        with pytest.raises(PolybernError, match="polylog order"):
            build()
    with pytest.raises(PolybernError, match="order r must satisfy"):
        families.dpb_higher_gf(1, families.MAX_R + 1, 3)
    assert families.polylog_series(families.MAX_ABS_K, 3)[2] == Fraction(1, 2**100)
    assert families.poly_bernoulli_gf(-families.MAX_ABS_K, 3)[0] == 1
    assert families.dpb_higher_gf(1, families.MAX_R, 3)[0] == 1


@pytest.mark.parametrize("build, name", [
    (lambda: families.table("dpb", 4, k=2.5), "polylog order k"),
    (lambda: families.table("dpb", 4, k=True), "polylog order k"),
    (lambda: families.table("dpb-higher", 4, k=2, r=2.0), "order r"),
    (lambda: families.table("dpb-higher", 4, k=2, r=True), "order r"),
    (lambda: families.table("carlitz", 1.5), "precision"),
    (lambda: families.table("carlitz", False), "precision"),
    (lambda: families.polynomial("dpb", 1.0, 4, k=2), "n"),
    (lambda: families.polynomial("carlitz", True, 4), "n"),
    (lambda: identities.verify("eq5", nmax=2.5), "nmax"),
    (lambda: identities.verify("eq5", nmax=True), "nmax"),
    (lambda: identities.verify("thm2", max_degree=True), "max_degree"),
    (lambda: identities.verify("thm2", n_random=2.5), "n_random"),
    (lambda: identities.verify("eq5", lam="x"), "lam"),
    (lambda: identities.verify("eq5", lam=float("nan")), "lam"),
    (lambda: identities.verify("eq5", lam=True), "lam"),
    (lambda: identities.verify("eq18", ys=("a",)), r"ys\[0\]"),
    (lambda: identities.verify("eq18", ys=(1, Fraction(1, 2), 0.5)), r"ys\[2\]"),
    (lambda: identities.verify("eq18", ys=5), "ys"),
    (lambda: identities.verify("k0", order="3"), "order"),
    (lambda: identities.verify("k0", order=3.0), "order"),
    (lambda: identities.verify("eq18", seed=[1]), "seed"),
    (lambda: identities.verify("eq18", seed=2.5), "seed"),
    (lambda: identities.verify("eq18", seed="abc"), "seed"),
    (lambda: identities.verify(["x"]), "identity"),
    (lambda: families.polylog_series(2, 2.5), "precision"),
    # a cached builder keys (2.0,) and (True,) as (2,) and (1,): each call
    # is checked after an equal key was built, and a float never reaches
    # the cache lookup
    (lambda: [families.elam(1, p) for p in (8, 2.5)], "precision"),
    (lambda: [families.dpb_gf(k, 4) for k in (2, 2.0)], "polylog order k"),
    (lambda: [families.dpb_gf(k, 4) for k in (1, True)], "polylog order k"),
    (lambda: [families.poly_bernoulli_gf(k, 4) for k in (2, 2.0)], "polylog order k"),
    (lambda: [families.dpb_higher_gf(2, r, 4) for r in (2, 2.0)], "order r"),
    (lambda: [families.dpb_gf(2, p) for p in (8, 4.5)], "precision"),
    (lambda: [families.carlitz_gf(p) for p in (8, 4.0)], "precision"),
    (lambda: [families.bernoulli_gf(p) for p in (8, True)], "precision"),
    # c of elam: each equal key is cached first, and none other reaches the lookup
    (lambda: families.elam(0.1, 3), "c"),
    (lambda: [families.elam(c, 3) for c in (Fraction(1, 2), 0.5)], "c"),
    (lambda: [families.elam(c, 3) for c in (Fraction(1, 2), "1/2")], "c"),
    (lambda: [families.elam(c, 3) for c in (1, True)], "c"),
    (lambda: [families.elam(c, 3) for c in (2, 2.0)], "c"),
    (lambda: families.elam(None, 3), "c"),
], ids=["k-float", "k-bool", "r-float", "r-bool", "precision-float",
        "precision-bool", "n-float", "n-bool", "verify-nmax-float", "verify-nmax-bool",
        "verify-max_degree-bool", "verify-n_random-float", "verify-lam-str", "verify-lam-nan",
        "verify-lam-bool", "verify-ys-str", "verify-ys-float", "verify-ys-int",
        "verify-order-str", "verify-order-float", "verify-seed-list", "verify-seed-float",
        "verify-seed-str", "verify-id-list",
        "polylog-precision-float", "elam-precision-float", "gf-k-float", "gf-k-bool",
        "plain-gf-k-float", "gf-r-float", "gf-precision-float", "carlitz-gf-precision-float",
        "gf-precision-bool", "elam-c-float", "elam-c-equal-float", "elam-c-str", "elam-c-bool", "elam-c-integral-float",
        "elam-c-none"])
def test_library_refuses_a_non_integer_argument(build, name):
    if name == "identity":  # an unhashable id is an unknown one
        match = r"^unknown identity '\['x'\]'$"
    elif name == "ys":
        match = "^ys must be a sequence of rationals, got 5$"
    else:
        kind = ("an integer or a Fraction" if name.startswith(("lam", "ys")) or name == "c"
                else "an integer")
        match = f"^{name} must be {kind}, got "
    with pytest.raises(PolybernError, match=match):
        build()


@pytest.mark.parametrize("build, name", [
    (lambda: families.polylog_series(None, 4), "polylog_series"),
    (lambda: families.poly_bernoulli_gf(None, 4), "family 'poly-bernoulli'"),
    (lambda: families.dpb_gf(None, 4), "family 'dpb'"),
    (lambda: families.dpb_higher_gf(None, 2, 4), "family 'dpb-higher'"),
], ids=["polylog_series", "poly_bernoulli_gf", "dpb_gf", "dpb_higher_gf"])
def test_gf_builders_refuse_a_missing_k(build, name):
    with pytest.raises(PolybernError, match=f"^{name} needs a polylog order --k$"):
        build()


def test_every_exported_name_resolves():
    assert polybern.__all__
    assert set(polybern.__all__) <= set(dir(polybern))
    modules = [polybern] + [importlib.import_module(f"polybern.{info.name}")
                            for info in pkgutil.iter_modules(polybern.__path__)
                            if info.name != "__main__"]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names {name}"


@pytest.mark.parametrize("code, expected", [
    ("from polybern import *\nimport polybern\n"
     "print([name for name in polybern.__all__ if name not in globals()])", "[]"),
    *((f"import polybern\nprint(polybern.{name}.__name__)", f"polybern.{name}")
      for name in ("ring", "series", "polynomials", "families", "umbral", "identities",
                   "parser")),
    ("import polybern\ntry:\n    polybern.nosuch\nexcept AttributeError as err:\n"
     "    print(err)", "module 'polybern' has no attribute 'nosuch'"),
])
def test_lazy_package_resolves_names_on_first_use(code, expected):
    proc = fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected + "\n"


def test_readme_quick_tour_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
