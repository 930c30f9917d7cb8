"""Executable catalog of the library's exact identities.

Each entry is one generator of ``(n, lhs, rhs)`` cases, read from the
arguments ``verify`` resolves, whose two sides come through disjoint code
paths (table-plus-combinatorics vs direct series assembly, one-step vs
two-step operator action, and so on). ``verify`` hands them to the one
loop, ``_first_failure``, which reports the first failing index as a
witness and refuses a check that compared no case. All comparisons are
exact in Q[lambda] unless a numeric lambda is requested, in which case
both sides are specialized first.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import chain
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
    sheffer_cases,
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
    scalars with ``format_scalar``. No case at all is refused, not passed.
    """
    compared = 0
    for compared, (n, lhs, rhs) in enumerate(cases, 1):
        poly = isinstance(lhs, Polynomial)
        if lam is not None:
            if poly:
                lhs, rhs = lhs.specialize(lam), rhs.specialize(lam)
            else:
                lhs, rhs = lambda_eval(lhs, lam), lambda_eval(rhs, lam)
        if lhs != rhs:
            fmt = str if poly else format_scalar
            return Witness(n, fmt(lhs), fmt(rhs))
    if not compared:
        raise PolybernError("the check compared no case")
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


# -- case generators: one per catalog id, each reading the resolved arguments --


def _eq5(a):
    """Daehee convolution at x = 0 against the k = 1 table."""
    dpb1, dh = families.table("dpb", a.p, k=a.k), families.table("daehee", a.p)
    cz = families.table("carlitz", a.p)
    for n in range(a.nmax + 1):
        terms = (LambdaPoly.monomial(n - l) * (comb(n, l) * dh.value(n - l) * cz.value(l))
                 for l in range(n + 1))
        yield n, dpb1.value(n), sum(terms, Fraction(0))


def _eq17(a):
    """Binomial polynomials from the table vs the product-series route."""
    tbl = families.table("dpb", a.p, k=a.k)
    s = _a_series(a.k, a.p) * bernoulli_operator(1, a.p)
    for n in range(a.nmax + 1):
        yield n, families.binomial_poly(tbl, n), _poly_from_product_series(s, n)


def _eq18(a):
    """Difference/integral identity: operator action vs explicit translate."""
    tbl = families.table("dpb", a.p, k=a.k)
    polys = [families.binomial_poly(tbl, n) for n in range(a.nmax + 2)]
    for y in a.ys:
        op = _expm1_over_t(Fraction(y), a.nmax + 2)
        for n in range(a.nmax + 1):
            q = polys[n + 1]
            yield n, op_apply(op, polys[n]), (q.shift(y) - q) / (n + 1)


def _thm3(a):
    a_r = _a_series(a.k, a.p) ** a.r
    gf_r = families.dpb_higher_gf(a.k, a.r, a.p)
    bop_r = bernoulli_operator(a.r, a.p)
    bvals = bernoulli_numbers_triangular(a.max_degree + 1)
    for i in range(a.n_random):
        p = _random_polynomial(a.rng, a.max_degree)
        q = p
        for _ in range(a.r):
            q = _integrate_termwise(q, bvals)
        yield i, q, op_apply(bop_r, p)
        yield i, op_apply(a_r, q), op_apply(gf_r, p)


def _thm4(a):
    # thm1, at r = 1, reads the dpb table
    tbl = families.table("dpb" if a.r == 1 else "dpb-higher", a.p, k=a.k, r=a.r)
    a_r = _a_series(a.k, a.p) ** a.r
    s = a_r * bernoulli_operator(a.r, a.p)
    for n in range(a.nmax + 1):
        yield n, pair(s, Polynomial.monomial(n)), tbl.value(n)
    gf_r = families.dpb_higher_gf(a.k, a.r, a.p)
    expm1_r = _expm1_over_t(1, a.p) ** a.r
    for i in range(a.n_random):
        p = _random_polynomial(a.rng, a.max_degree)
        yield i, pair(gf_r, p), invariant_integral(op_apply(a_r, p), a.r)
        # h(t) = 1 particular case of the r-fold functional.
        yield i, invariant_integral(op_apply(expm1_r, p), a.r), p(0)


def _remark(a):
    """Multinomial convolution; the right side uses only the r = 1 table.

    The sum over compositions n = n_1 + ... + n_r of n!/(n_1!...n_r!) times
    the product of base values is the r-fold binomial convolution of the
    base table with itself: the table of b^r, with b the exponential series
    of the base table. b^r is taken by square-and-multiply (``ring.power``)
    over series products, not by ``**``, whose Miller recurrence is the
    production route of the higher-order table.
    """
    higher = families.table("dpb-higher", a.p, k=a.k, r=a.r)
    base = families.table("dpb", a.p, k=a.k)
    b = Series([base.value(n) / factorial(n) for n in range(a.nmax + 1)])
    return _table_cases(higher, power(b, a.r, Series.one(a.nmax + 1)), a.nmax)


def _sheffer(a):
    """Orthogonality and regeneration for the degenerate family of order r."""
    g = _dpb_series(a.k, a.p) ** -a.r
    f = Series.t(a.p)
    s = [families.polynomial("dpb-higher", m, a.p, k=a.k, r=a.r) for m in range(a.nmax + 1)]
    if a.lam is not None:
        g = g.specialize(a.lam)
        f = f.specialize(a.lam)
        s = [p.specialize(a.lam) for p in s]
    return sheffer_cases(g, f, s, a.nmax)


def _k0(a):
    """Weight-0 collapse: the polynomials reduce to plain monomials."""
    return ((n, families.polynomial("dpb", n, a.p, k=0), Polynomial.monomial(n))
            for n in range(a.nmax + 1))


def _lambda0(a):
    """lambda -> 0 specialization of the series-route gf agrees with the
    classical gf coefficients (Kaneko's sum, or at k = 1 the tangent numbers,
    in the families module)."""
    if a.nmax >= a.p:
        raise PrecisionExceeded(f"n = {a.nmax} exceeds precision {a.p}")
    degen = _dpb_series(a.k, a.p).specialize(0)
    plain = families.poly_bernoulli_gf(a.k, a.p)
    return ((n, degen[n], plain[n]) for n in range(a.nmax + 1))


def _stirling1(a):
    """The Stirling-transform and closed-form tables against the series
    routes: dpb-higher against the r-th power of the composed-and-divided
    gf, Carlitz against t/(elam(1) - 1) by series division, and Daehee
    against log(1 + t)/t by Series.log and division."""
    higher = families.table("dpb-higher", a.p, k=a.k, r=a.r)
    cz, dh = families.table("carlitz", a.p), families.table("daehee", a.p)
    n = a.p + 1
    carlitz = Series.t(n).div(families.elam(1, n) - 1)
    daehee = (Series.one(n) + Series.t(n)).log().div(Series.t(n))
    return chain(_table_cases(higher, _dpb_series(a.k, a.p) ** a.r, a.nmax),
                 _table_cases(cz, carlitz, a.nmax), _table_cases(dh, daehee, a.nmax))


def _kaneko(a):
    """Kaneko's sum against Li_k(1 - e^(-t))/(e^t - 1) by series
    composition and division over Q. At k = 1 the series side is
    t/(e^t - 1) by division, the series route that the bernoulli table's
    closed form, from tangent numbers, replaced; the k = 1 table is the
    bernoulli one, so this id also checks it."""
    tbl = families.table("poly-bernoulli", a.p, k=a.k)
    n = a.p + 1
    z = 1 - (-Series.t(n)).exp()
    gf = families.polylog_series(a.k, n).compose(z).div(Series.t(n).exp() - 1)
    return _table_cases(tbl, gf, a.nmax)


# -- dispatcher ---------------------------------------------------------------


class _Entry(NamedTuple):
    """One catalog id: ``params`` names the arguments its report lists after
    ``lambda``, in order; the default precision is ``slack`` plus the largest
    index range among them (nmax, max_degree); ``cases`` yields the
    ``(n, lhs, rhs)`` it compares from the resolved arguments; ``fixed`` sets
    arguments whatever was passed."""

    slack: int
    params: tuple[str, ...]
    cases: Callable[[SimpleNamespace], Iterable[tuple]]
    fixed: tuple = ()


_RANDOM = ("n_random", "max_degree", "seed")

_CATALOG = {
    "eq5": _Entry(1, ("k", "nmax"), _eq5, fixed=(("k", 1),)),
    "eq17": _Entry(2, ("k", "nmax"), _eq17),
    "eq18": _Entry(2, ("k", "nmax", "seed", "ys"), _eq18),
    # thm1 and thm2 are Theorems 4 and 3 at r = 1.
    "thm1": _Entry(2, ("k", "nmax") + _RANDOM, _thm4, fixed=(("r", 1),)),
    "thm2": _Entry(2, ("k",) + _RANDOM, _thm3, fixed=(("r", 1),)),
    "thm3": _Entry(2, ("k", "r") + _RANDOM, _thm3),
    "thm4": _Entry(2, ("k", "r", "nmax") + _RANDOM, _thm4),
    "remark": _Entry(1, ("k", "r", "nmax"), _remark),
    "sheffer16": _Entry(2, ("k", "r", "nmax"), _sheffer, fixed=(("r", 1),)),
    "sheffer23": _Entry(2, ("k", "r", "nmax"), _sheffer),
    "k0": _Entry(1, ("nmax",), _k0),
    "lambda0": _Entry(1, ("k", "nmax"), _lambda0),
    "stirling1": _Entry(1, ("k", "r", "nmax"), _stirling1),
    "kaneko": _Entry(1, ("k", "nmax"), _kaneko),
}

CATALOG_IDS = tuple(_CATALOG)


def _check_rational(value, name: str):
    """``value`` if it is an int (not a bool) or a Fraction, else refused."""
    if type(value) not in (int, Fraction):
        raise PolybernError(f"{name} must be an integer or a Fraction, got {value!r}")
    return value


def verify(ident: str, *, k: int | None = None, r: int | None = None,
           nmax: int | None = None, order: int | None = None, ys=None,
           lam=None, seed: int = 0, n_random: int | None = None,
           max_degree: int | None = None) -> IdentityReport:
    """Run one catalog entry and return its exact pass/fail report."""
    entry = _CATALOG.get(ident) if isinstance(ident, str) else None
    if entry is None:
        raise UnknownIdentity(f"unknown identity '{ident}'")
    nmax = 8 if nmax is None else nmax
    families._check_int(nmax, "nmax")
    if nmax < 0:
        raise PolybernError(f"nmax must be >= 0, got {nmax}")
    n_random = 3 if n_random is None else n_random
    families._check_int(n_random, "n_random")
    if not 1 <= n_random <= MAX_RANDOM:
        raise PolybernError(f"n_random must satisfy 1 <= n_random <= {MAX_RANDOM}, got {n_random}")
    max_degree = 8 if max_degree is None else max_degree
    families._check_int(max_degree, "max_degree")
    if max_degree < 0:
        raise PolybernError(f"max_degree must be >= 0, got {max_degree}")
    limit = families.MAX_CHECK_PRECISION
    families.check_precision(nmax + 2, "nmax + 2", limit)
    families.check_precision(max_degree + 2, "max_degree + 2", limit)
    if order is not None:
        families.check_precision(order, "order", limit)
        if order < 1:
            raise PrecisionExceeded(f"order must be >= 1, got {order}")
    families.check_k(k)
    r = 1 if r is None else r
    families.check_r(r)
    families._check_int(seed, "seed")
    lam = None if lam is None else Fraction(_check_rational(lam, "lam"))
    if ys is not None:
        if not isinstance(ys, Sequence):
            raise PolybernError(f"ys must be a sequence of rationals, got {ys!r}")
        ys = tuple(_check_rational(y, f"ys[{i}]") for i, y in enumerate(ys))

    a = SimpleNamespace(k=2 if k is None else k, r=r, nmax=nmax, rng=random.Random(seed),
                        n_random=n_random, max_degree=max_degree, seed=seed, lam=lam, ys=None)
    vars(a).update(entry.fixed)
    a.p = order or entry.slack + max(getattr(a, name) for name in ("nmax", "max_degree")
                                     if name in entry.params)
    if "ys" in entry.params:
        # drawn before any test polynomial
        a.ys = ys if ys is not None else DEFAULT_YS + (_random_rational(a.rng),)
    witness = _first_failure(entry.cases(a), lam)
    params = {"lambda": "symbolic" if lam is None else format_scalar(lam)}
    params.update((name, getattr(a, name)) for name in entry.params)
    if a.ys is not None:
        params["ys"] = [format_scalar(Fraction(y)) for y in a.ys]
    status = "pass" if witness is None else "fail"
    return IdentityReport(ident, params, status, witness)
