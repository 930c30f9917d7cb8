"""Executable catalog of the library's exact identities.

Each entry compares a left and right side computed through disjoint code
paths (table-plus-combinatorics vs direct series assembly, one-step vs
two-step operator action, and so on) and reports the first failing index
as a witness. All comparisons are exact in Q[lambda] unless a numeric
lambda is requested, in which case both sides are specialized first.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from fractions import Fraction
from math import comb, factorial
from types import SimpleNamespace
from typing import NamedTuple

from . import families
from .errors import PolybernError, PrecisionExceeded, UnknownIdentity
from .polynomials import Polynomial
from .ring import LambdaPoly, format_scalar, lambda_eval, power
from .series import Series, precision_cache
from .umbral import (
    bernoulli_operator,
    invariant_integral,
    op_apply,
    pair,
    sheffer_failure,
)

__all__ = ["CATALOG_IDS", "Witness", "IdentityReport", "verify"]

DEFAULT_YS = (Fraction(1), Fraction(-2), Fraction(3, 5))

# Largest count of random test polynomials a check draws. Each costs series
# actions on a polynomial of degree up to max_degree: on a 2-vCPU VM thm3 at
# |k| = 100, r = 40 and max_degree 30 takes 2 s with one and 8 s with 100.
MAX_RANDOM = 100


class Witness(NamedTuple):
    n: int
    lhs: str
    rhs: str


class IdentityReport(NamedTuple):
    id: str
    params: dict
    status: str
    witness: Witness | None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        w = self.witness
        return dict(self._asdict(), witness=None if w is None else w._asdict())


# -- shared helpers ----------------------------------------------------------


def _first_failure(cases, lam) -> Witness | None:
    """Witness for the first ``(n, lhs, rhs)`` whose sides differ, or None.

    Both sides are specialized at a numeric ``lam`` first. ``cases`` is
    consumed lazily, so a check stops at its first failure and builds, or
    draws from its rng, nothing past it. Polynomials render with ``str``,
    scalars with ``format_scalar``.
    """
    for n, lhs, rhs in cases:
        poly = isinstance(lhs, Polynomial)
        if lam is not None:
            if poly:
                lhs, rhs = lhs.specialize(lam), rhs.specialize(lam)
            else:
                lhs, rhs = lambda_eval(lhs, lam), lambda_eval(rhs, lam)
        if lhs != rhs:
            fmt = str if poly else format_scalar
            return Witness(n, fmt(lhs), fmt(rhs))
    return None


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_polynomial(rng: random.Random, max_degree: int) -> Polynomial:
    coeffs = [_random_rational(rng) for _ in range(rng.randint(0, max_degree) + 1)]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    return Polynomial(coeffs)


def bernoulli_numbers_triangular(count: int) -> list[Fraction]:
    """B_0..B_(count-1) by the triangular recurrence, flipped to B_1 = -1/2.

    Independent of the series engine on purpose: this is the second route
    for everything that expands an integral termwise.
    """
    row: list[Fraction] = []
    out: list[Fraction] = []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if count > 1:
        out[1] = -out[1]
    return out


def _integrate_termwise(p: Polynomial, bvals: list[Fraction]) -> Polynomial:
    """Termwise-expanded integral of p(x + y) over y: sum_j B_j p^(j)(x)/j!."""
    acc = Polynomial()
    d = p
    for j in range(p.degree + 1):
        acc = acc + d * (bvals[j] / factorial(j))
        d = d.derivative()
    return acc


@precision_cache
def _dpb_series(k: int, precision: int) -> Series:
    """Li_k(1 - elam(-1)) / (elam(1) - 1) by series composition and division
    over Q[lambda], not by the Stirling sums of the families module."""
    n = precision + 1
    z = 1 - families.elam(-1, n)
    return families.polylog_series(k, n).compose(z).div(families.elam(1, n) - 1)


@precision_cache
def _a_series(k: int, precision: int) -> Series:
    """((e^t - 1)/t) * Li_k(1 - elam(-1)) / (elam(1) - 1), assembled here
    rather than taken from the families module."""
    return _expm1_over_t(1, precision) * _dpb_series(k, precision)


@precision_cache
def _expm1_over_t(y, precision: int) -> Series:
    """(e^(y t) - 1)/t, whose t^n coefficient is y^(n+1)/(n+1)!."""
    return Series([Fraction(y) ** (n + 1) / factorial(n + 1) for n in range(precision)])


def _poly_from_product_series(s: Series, n: int) -> Polynomial:
    # n! [t^n] (s * e^(x t)) with x an indeterminate: the coefficient of
    # x^i is n!/i! * [t^(n-i)] s.
    return Polynomial([Fraction(factorial(n), factorial(i)) * s[n - i] for i in range(n + 1)])


def _table_cases(tbl: families.SequenceTable, gf: Series, nmax: int):
    """Each table entry n <= nmax against n! [t^n] gf."""
    return ((n, tbl.value(n), factorial(n) * gf[n]) for n in range(nmax + 1))


# -- checkers (table-injectable so mutation tests can perturb inputs) --------


def check_eq5(dpb1: families.SequenceTable, dh: families.SequenceTable,
              cz: families.SequenceTable, nmax: int, lam=None) -> Witness | None:
    """Daehee convolution at x = 0 against the k = 1 table."""
    def rhs(n):
        return sum((LambdaPoly.monomial(n - l) * (comb(n, l) * dh.value(n - l) * cz.value(l))
                    for l in range(n + 1)), Fraction(0))
    return _first_failure(((n, dpb1.value(n), rhs(n)) for n in range(nmax + 1)), lam)


def check_eq17(tbl: families.SequenceTable, k: int, nmax: int, precision: int,
               lam=None) -> Witness | None:
    """Binomial polynomials from the table vs the product-series route."""
    s = _a_series(k, precision) * bernoulli_operator(1, precision)
    return _first_failure(((n, families.binomial_poly(tbl, n), _poly_from_product_series(s, n))
                           for n in range(nmax + 1)), lam)


def check_eq18(tbl: families.SequenceTable, nmax: int, ys, lam=None) -> Witness | None:
    """Difference/integral identity: operator action vs explicit translate."""
    def cases():
        polys = [families.binomial_poly(tbl, n) for n in range(nmax + 2)]
        for y in ys:
            op = _expm1_over_t(Fraction(y), nmax + 2)
            for n in range(nmax + 1):
                q = polys[n + 1]
                yield n, op_apply(op, polys[n]), (q.shift(y) - q) / (n + 1)
    return _first_failure(cases(), lam)


def check_thm3(k: int, r: int, precision: int, rng: random.Random, n_random: int,
               max_degree: int, lam=None) -> Witness | None:
    a_r = _a_series(k, precision) ** r
    gf_r = families.dpb_higher_gf(k, r, precision)
    bop_r = bernoulli_operator(r, precision)
    bvals = bernoulli_numbers_triangular(max_degree + 1)

    def cases():
        for i in range(n_random):
            p = _random_polynomial(rng, max_degree)
            q = p
            for _ in range(r):
                q = _integrate_termwise(q, bvals)
            yield i, q, op_apply(bop_r, p)
            yield i, op_apply(a_r, q), op_apply(gf_r, p)
    return _first_failure(cases(), lam)


def check_thm4(tbl: families.SequenceTable, k: int, r: int, nmax: int,
               precision: int, rng: random.Random, n_random: int,
               max_degree: int, lam=None) -> Witness | None:
    a_r = _a_series(k, precision) ** r

    def cases():
        s = a_r * bernoulli_operator(r, precision)
        for n in range(nmax + 1):
            yield n, pair(s, Polynomial.monomial(n)), tbl.value(n)
        gf_r = families.dpb_higher_gf(k, r, precision)
        expm1_r = _expm1_over_t(1, precision) ** r
        for i in range(n_random):
            p = _random_polynomial(rng, max_degree)
            yield i, pair(gf_r, p), invariant_integral(op_apply(a_r, p), r)
            # h(t) = 1 particular case of the r-fold functional.
            yield i, invariant_integral(op_apply(expm1_r, p), r), p(0)
    return _first_failure(cases(), lam)


def check_remark(higher: families.SequenceTable, base: families.SequenceTable,
                 r: int, nmax: int, lam=None) -> Witness | None:
    """Multinomial convolution; the right side uses only the r = 1 table.

    The sum over compositions n = n_1 + ... + n_r of n!/(n_1!...n_r!) times
    the product of base values is the r-fold binomial convolution of the
    base table with itself: the table of b^r, with b the exponential series
    of the base table. b^r is taken by square-and-multiply (``ring.power``)
    over series products, not by ``**``, whose Miller recurrence is the
    production route of the higher-order table.
    """
    b = Series([base.value(n) / factorial(n) for n in range(nmax + 1)])
    return _first_failure(_table_cases(higher, power(b, r, Series.one(nmax + 1)), nmax), lam)


def check_sheffer(k: int, r: int, nmax: int, precision: int, lam=None) -> Witness | None:
    """Orthogonality and regeneration for the degenerate family of order r."""
    g = _dpb_series(k, precision) ** -r
    f = Series.t(precision)
    s = [families.polynomial("dpb-higher", m, precision, k=k, r=r) for m in range(nmax + 1)]
    if lam is not None:
        g = g.specialize(lam)
        f = f.specialize(lam)
        s = [p.specialize(lam) for p in s]
    failure = sheffer_failure(g, f, s, nmax)
    return None if failure is None else Witness(*failure)


def check_k0(nmax: int, precision: int, lam=None) -> Witness | None:
    """Weight-0 collapse: the polynomials reduce to plain monomials."""
    return _first_failure(((n, families.polynomial("dpb", n, precision, k=0),
                            Polynomial.monomial(n)) for n in range(nmax + 1)), lam)


def check_lambda0(k: int, nmax: int, precision: int, lam=None) -> Witness | None:
    """lambda -> 0 specialization of the series-route gf agrees with the
    classical gf coefficients (Kaneko's sum, in the families module)."""
    if nmax >= precision:
        raise PrecisionExceeded(f"n = {nmax} exceeds precision {precision}")
    degen = _dpb_series(k, precision).specialize(0)
    plain = families.poly_bernoulli_gf(k, precision)
    return _first_failure(((n, degen[n], plain[n]) for n in range(nmax + 1)), None)


def check_stirling1(higher: families.SequenceTable, cz: families.SequenceTable,
                    dh: families.SequenceTable, k: int, r: int, nmax: int,
                    precision: int, lam=None) -> Witness | None:
    """The Stirling-transform and closed-form tables against the series
    routes: dpb-higher against the r-th power of the composed-and-divided
    gf, Carlitz against t/(elam(1) - 1) by series division, and Daehee
    against log(1 + t)/t by Series.log and division."""
    n = precision + 1
    carlitz = Series.t(n).div(families.elam(1, n) - 1)
    daehee = (Series.one(n) + Series.t(n)).log().div(Series.t(n))
    return (_first_failure(_table_cases(higher, _dpb_series(k, precision) ** r, nmax), lam)
            or _first_failure(_table_cases(cz, carlitz, nmax), lam)
            or _first_failure(_table_cases(dh, daehee, nmax), lam))


def check_kaneko(tbl: families.SequenceTable, k: int, nmax: int, precision: int,
                 lam=None) -> Witness | None:
    """Kaneko's sum against Li_k(1 - e^(-t))/(e^t - 1) by series
    composition and division over Q. At k = 1 the series side is
    t/(e^t - 1) by division, the series route that bernoulli_gf's closed
    form replaced, so this id also checks bernoulli_gf."""
    n = precision + 1
    z = 1 - (-Series.t(n)).exp()
    gf = families.polylog_series(k, n).compose(z).div(Series.t(n).exp() - 1)
    return _first_failure(_table_cases(tbl, gf, nmax), lam)


# -- dispatcher ---------------------------------------------------------------


class _Entry(NamedTuple):
    """One catalog id: ``params`` names the arguments its report lists after
    ``lambda``, in order; the default precision is ``slack`` plus the largest
    index range among them (nmax, max_degree); ``run`` calls the checker on
    the resolved arguments; ``fixed`` sets arguments whatever was passed."""

    slack: int
    params: tuple[str, ...]
    run: Callable[[SimpleNamespace], Witness | None]
    fixed: tuple = ()


_RANDOM = ("n_random", "max_degree", "seed")

_CATALOG = {
    "eq5": _Entry(1, ("k", "nmax"), lambda a: check_eq5(
        families.table("dpb", a.p, k=a.k), families.table("daehee", a.p),
        families.table("carlitz", a.p), a.nmax, a.lam), fixed=(("k", 1),)),
    "eq17": _Entry(2, ("k", "nmax"), lambda a: check_eq17(
        families.table("dpb", a.p, k=a.k), a.k, a.nmax, a.p, a.lam)),
    "eq18": _Entry(2, ("k", "nmax", "seed", "ys"), lambda a: check_eq18(
        families.table("dpb", a.p, k=a.k), a.nmax, a.ys, a.lam)),
    # thm1 and thm2 are Theorems 4 and 3 at r = 1.
    "thm1": _Entry(2, ("k", "nmax") + _RANDOM, lambda a: check_thm4(
        families.table("dpb", a.p, k=a.k), a.k, 1, a.nmax, a.p, a.rng, a.n_random,
        a.max_degree, a.lam)),
    "thm2": _Entry(2, ("k",) + _RANDOM, lambda a: check_thm3(
        a.k, 1, a.p, a.rng, a.n_random, a.max_degree, a.lam)),
    "thm3": _Entry(2, ("k", "r") + _RANDOM, lambda a: check_thm3(
        a.k, a.r, a.p, a.rng, a.n_random, a.max_degree, a.lam)),
    "thm4": _Entry(2, ("k", "r", "nmax") + _RANDOM, lambda a: check_thm4(
        families.table("dpb-higher", a.p, k=a.k, r=a.r), a.k, a.r, a.nmax, a.p, a.rng,
        a.n_random, a.max_degree, a.lam)),
    "remark": _Entry(1, ("k", "r", "nmax"), lambda a: check_remark(
        families.table("dpb-higher", a.p, k=a.k, r=a.r), families.table("dpb", a.p, k=a.k),
        a.r, a.nmax, a.lam)),
    "sheffer16": _Entry(2, ("k", "r", "nmax"), lambda a: check_sheffer(
        a.k, a.r, a.nmax, a.p, a.lam), fixed=(("r", 1),)),
    "sheffer23": _Entry(2, ("k", "r", "nmax"), lambda a: check_sheffer(
        a.k, a.r, a.nmax, a.p, a.lam)),
    "k0": _Entry(1, ("nmax",), lambda a: check_k0(a.nmax, a.p, a.lam)),
    "lambda0": _Entry(1, ("k", "nmax"), lambda a: check_lambda0(a.k, a.nmax, a.p, a.lam)),
    "stirling1": _Entry(1, ("k", "r", "nmax"), lambda a: check_stirling1(
        families.table("dpb-higher", a.p, k=a.k, r=a.r), families.table("carlitz", a.p),
        families.table("daehee", a.p), a.k, a.r, a.nmax, a.p, a.lam)),
    "kaneko": _Entry(1, ("k", "nmax"), lambda a: check_kaneko(
        families.table("poly-bernoulli", a.p, k=a.k), a.k, a.nmax, a.p, a.lam)),
}

CATALOG_IDS = tuple(_CATALOG)


def verify(ident: str, *, k: int | None = None, r: int | None = None,
           nmax: int | None = None, order: int | None = None, ys=None,
           lam=None, seed: int = 0, n_random: int | None = None,
           max_degree: int | None = None) -> IdentityReport:
    """Run one catalog entry and return its exact pass/fail report."""
    entry = _CATALOG.get(ident)
    if entry is None:
        raise UnknownIdentity(f"unknown identity '{ident}'")
    nmax = 8 if nmax is None else nmax
    if nmax < 0:
        raise PolybernError(f"nmax must be >= 0, got {nmax}")
    n_random = 3 if n_random is None else n_random
    if not 1 <= n_random <= MAX_RANDOM:
        raise PolybernError(f"n_random must satisfy 1 <= n_random <= {MAX_RANDOM}, got {n_random}")
    max_degree = 8 if max_degree is None else max_degree
    if max_degree < 0:
        raise PolybernError(f"max_degree must be >= 0, got {max_degree}")
    limit = families.MAX_CHECK_PRECISION
    families.check_precision(nmax + 2, "nmax + 2", limit)
    families.check_precision(max_degree + 2, "max_degree + 2", limit)
    if order is not None:
        if order < 1:
            raise PrecisionExceeded(f"order must be >= 1, got {order}")
        families.check_precision(order, "order", limit)
    families.check_k(k)
    r = 1 if r is None else r
    families.check_r(r)
    lam = None if lam is None else Fraction(lam)

    a = SimpleNamespace(k=2 if k is None else k, r=r, nmax=nmax, rng=random.Random(seed),
                        n_random=n_random, max_degree=max_degree, seed=seed, lam=lam, ys=None)
    vars(a).update(entry.fixed)
    a.p = order or entry.slack + max(getattr(a, name) for name in ("nmax", "max_degree")
                                     if name in entry.params)
    if "ys" in entry.params:
        # drawn before any test polynomial
        a.ys = tuple(ys) if ys is not None else DEFAULT_YS + (_random_rational(a.rng),)
    witness = entry.run(a)
    params = {"lambda": "symbolic" if lam is None else format_scalar(lam)}
    params.update((name, getattr(a, name)) for name in entry.params)
    if a.ys is not None:
        params["ys"] = [format_scalar(Fraction(y)) for y in a.ys]
    status = "pass" if witness is None else "fail"
    return IdentityReport(ident, params, status, witness)
