"""Executable catalog of the library's exact identities.

Each entry compares a left and right side computed through disjoint code
paths (table-plus-combinatorics vs direct series assembly, one-step vs
two-step operator action, and so on) and reports the first failing index
as a witness. All comparisons are exact in Q[lambda] unless a numeric
lambda is requested, in which case both sides are specialized first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import families
from .errors import PolybernError, PrecisionExceeded, UnknownIdentity
from .polynomials import Polynomial
from .ring import LambdaPoly, format_scalar, lambda_eval
from .series import Series
from .umbral import (
    bernoulli_operator,
    invariant_integral,
    op_apply,
    pair,
    sheffer_failure,
)

__all__ = ["CATALOG_IDS", "Witness", "IdentityReport", "verify"]

CATALOG_IDS = (
    "eq5",
    "eq17",
    "eq18",
    "thm1",
    "thm2",
    "thm3",
    "thm4",
    "remark",
    "sheffer16",
    "sheffer23",
    "k0",
    "lambda0",
    "stirling1",
    "kaneko",
)

DEFAULT_YS = (Fraction(1), Fraction(-2), Fraction(3, 5))


@dataclass(frozen=True)
class Witness:
    n: int
    lhs: str
    rhs: str


@dataclass(frozen=True)
class IdentityReport:
    id: str
    params: dict
    status: str
    witness: Witness | None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json_dict(self) -> dict:
        w = None
        if self.witness is not None:
            w = {"n": self.witness.n, "lhs": self.witness.lhs, "rhs": self.witness.rhs}
        return {"id": self.id, "params": self.params, "status": self.status, "witness": w}

    @classmethod
    def from_json_dict(cls, d: dict) -> IdentityReport:
        w = d.get("witness")
        witness = None if w is None else Witness(w["n"], w["lhs"], w["rhs"])
        return cls(d["id"], dict(d["params"]), d["status"], witness)


# -- shared helpers ----------------------------------------------------------


def _cmp_scalars(lhs, rhs, lam):
    if lam is not None:
        lhs = lambda_eval(lhs, lam)
        rhs = lambda_eval(rhs, lam)
    return lhs == rhs, format_scalar(lhs), format_scalar(rhs)


def _cmp_polys(lhs: Polynomial, rhs: Polynomial, lam):
    if lam is not None:
        lhs = lhs.specialize(lam)
        rhs = rhs.specialize(lam)
    return lhs == rhs, str(lhs), str(rhs)


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


@lru_cache(maxsize=None)
def _dpb_series(k: int, precision: int) -> Series:
    """Li_k(1 - elam(-1)) / (elam(1) - 1) by series composition and division
    over Q[lambda], not by the Stirling sums of the families module."""
    n = precision + 1
    z = 1 - families.elam(-1, n)
    return families.polylog_series(k, n).compose(z).div(families.elam(1, n) - 1)


@lru_cache(maxsize=None)
def _a_series(k: int, precision: int) -> Series:
    """((e^t - 1)/t) * Li_k(1 - elam(-1)) / (elam(1) - 1), assembled here
    rather than taken from the families module."""
    return _expm1_over_t(precision) * _dpb_series(k, precision)


@lru_cache(maxsize=None)
def _expm1_over_t(precision: int) -> Series:
    """(e^t - 1)/t."""
    n = precision + 1
    return (families._exp_t(n) - 1).div(Series.t(n))


def _shift_operator(y: Fraction, precision: int) -> Series:
    """(e^(y t) - 1)/t."""
    n = precision + 1
    return ((Series.t(n) * y).exp() - 1).div(Series.t(n))


def _poly_from_product_series(s: Series, n: int) -> Polynomial:
    # n! [t^n] (s * e^(x t)) with x an indeterminate: the coefficient of
    # x^(n-j) is n!/(n-j)! * [t^j] s.
    coeffs = [None] * (n + 1)
    for j in range(n + 1):
        coeffs[n - j] = Fraction(factorial(n), factorial(n - j)) * s[j]
    return Polynomial(coeffs)


# -- checkers (table-injectable so mutation tests can perturb inputs) --------


def check_eq5(dpb1: families.SequenceTable, dh: families.SequenceTable,
              cz: families.SequenceTable, nmax: int, lam=None) -> Witness | None:
    """Daehee convolution at x = 0 against the k = 1 table."""
    for n in range(nmax + 1):
        rhs = Fraction(0)
        for l in range(n + 1):
            term = comb(n, l) * dh.value(n - l) * cz.value(l)
            rhs = rhs + LambdaPoly.monomial(n - l) * term
        ok, ls, rs = _cmp_scalars(dpb1.value(n), rhs, lam)
        if not ok:
            return Witness(n, ls, rs)
    return None


def check_eq17(tbl: families.SequenceTable, k: int, nmax: int, precision: int,
               lam=None) -> Witness | None:
    """Binomial polynomials from the table vs the product-series route."""
    s = _a_series(k, precision) * bernoulli_operator(precision)
    for n in range(nmax + 1):
        lhs = families.binomial_poly(tbl, n)
        rhs = _poly_from_product_series(s, n)
        ok, ls, rs = _cmp_polys(lhs, rhs, lam)
        if not ok:
            return Witness(n, ls, rs)
    return None


def check_eq18(tbl: families.SequenceTable, nmax: int, ys, lam=None) -> Witness | None:
    """Difference/integral identity: operator action vs explicit translate."""
    for y in ys:
        op = _shift_operator(Fraction(y), nmax + 2)
        for n in range(nmax + 1):
            p = families.binomial_poly(tbl, n)
            q = families.binomial_poly(tbl, n + 1)
            lhs = op_apply(op, p)
            rhs = (q.shift(y) - q) / (n + 1)
            ok, ls, rs = _cmp_polys(lhs, rhs, lam)
            if not ok:
                return Witness(n, ls, rs)
    return None


def check_thm3(k: int, r: int, precision: int, rng: random.Random, n_random: int,
               max_degree: int, lam=None) -> Witness | None:
    a_r = _a_series(k, precision) ** r
    gf_r = families.dpb_higher_gf(k, r, precision)
    bop_r = bernoulli_operator(precision, r)
    bvals = bernoulli_numbers_triangular(max_degree + 1)
    for i in range(n_random):
        p = _random_polynomial(rng, max_degree)
        q = p
        for _ in range(r):
            q = _integrate_termwise(q, bvals)
        ok, ls, rs = _cmp_polys(q, op_apply(bop_r, p), lam)
        if not ok:
            return Witness(i, ls, rs)
        lhs = op_apply(a_r, q)
        rhs = op_apply(gf_r, p)
        ok, ls, rs = _cmp_polys(lhs, rhs, lam)
        if not ok:
            return Witness(i, ls, rs)
    return None


def check_thm4(tbl: families.SequenceTable, k: int, r: int, nmax: int,
               precision: int, rng: random.Random, n_random: int,
               max_degree: int, lam=None) -> Witness | None:
    a_r = _a_series(k, precision) ** r
    s = a_r * bernoulli_operator(precision, r)
    for n in range(nmax + 1):
        lhs = pair(s, Polynomial.monomial(n))
        ok, ls, rs = _cmp_scalars(lhs, tbl.value(n), lam)
        if not ok:
            return Witness(n, ls, rs)
    gf_r = families.dpb_higher_gf(k, r, precision)
    expm1_r = _expm1_over_t(precision) ** r
    for i in range(n_random):
        p = _random_polynomial(rng, max_degree)
        lhs = pair(gf_r, p)
        rhs = invariant_integral(op_apply(a_r, p), r)
        ok, ls, rs = _cmp_scalars(lhs, rhs, lam)
        if not ok:
            return Witness(i, ls, rs)
        # h(t) = 1 particular case of the r-fold functional.
        at_zero = invariant_integral(op_apply(expm1_r, p), r)
        ok, ls, rs = _cmp_scalars(at_zero, p(0), lam)
        if not ok:
            return Witness(i, ls, rs)
    return None


def check_remark(higher: families.SequenceTable, base: families.SequenceTable,
                 r: int, nmax: int, lam=None) -> Witness | None:
    """Multinomial convolution; the right side uses only the r = 1 table.

    The sum over compositions n = n_1 + ... + n_r of n!/(n_1!...n_r!) times
    the product of base values is the r-fold binomial convolution of the
    base table with itself, built one factor at a time.
    """
    b = [base.value(n) for n in range(nmax + 1)]
    rhs = b
    for _ in range(r - 1):
        rhs = [sum(comb(n, i) * rhs[i] * b[n - i] for i in range(n + 1))
               for n in range(nmax + 1)]
    for n in range(nmax + 1):
        ok, ls, rs = _cmp_scalars(higher.value(n), rhs[n], lam)
        if not ok:
            return Witness(n, ls, rs)
    return None


def check_sheffer(k: int, r: int, nmax: int, precision: int, lam=None) -> Witness | None:
    """Orthogonality and regeneration for the degenerate family of order r."""
    n = precision + 1
    z = 1 - families.elam(-1, n)
    num = families.elam(1, n) - 1
    den = families.polylog_series(k, n).compose(z)
    g = num.div(den) ** r
    f = Series.t(precision)
    s = [families.dpb_higher_poly(k, r, m, precision) for m in range(nmax + 1)]
    if lam is not None:
        g = g.specialize(lam)
        f = f.specialize(lam)
        s = [p.specialize(lam) for p in s]
    failure = sheffer_failure(g, f, s, nmax)
    if failure is None:
        return None
    if failure[0] == "pair":
        _, n_bad, k_bad, got, want = failure
        return Witness(n_bad, f"<g*f^{k_bad}|s_{n_bad}> = {format_scalar(got)}",
                       format_scalar(want))
    _, n_bad, got, want = failure
    return Witness(n_bad, str(got), str(want))


def check_k0(nmax: int, precision: int, lam=None) -> Witness | None:
    """Weight-0 collapse: the polynomials reduce to plain monomials."""
    for n in range(nmax + 1):
        lhs = families.dpb_poly(0, n, precision)
        ok, ls, rs = _cmp_polys(lhs, Polynomial.monomial(n), lam)
        if not ok:
            return Witness(n, ls, rs)
    return None


def check_lambda0(k: int, nmax: int, precision: int, lam=None) -> Witness | None:
    """lambda -> 0 specialization of the series-route gf agrees with the
    classical gf coefficients (Kaneko's sum, in the families module)."""
    if nmax >= precision:
        raise PrecisionExceeded(f"n = {nmax} exceeds precision {precision}")
    degen = _dpb_series(k, precision).specialize(0)
    plain = families.poly_bernoulli_gf(k, precision)
    for n in range(nmax + 1):
        ok, ls, rs = _cmp_scalars(degen[n], plain[n], None)
        if not ok:
            return Witness(n, ls, rs)
    return None


def _cmp_table(tbl: families.SequenceTable, gf: Series, nmax: int,
               lam) -> Witness | None:
    """First n <= nmax at which the table entry is not n! [t^n] gf."""
    for n in range(nmax + 1):
        ok, ls, rs = _cmp_scalars(tbl.value(n), factorial(n) * gf[n], lam)
        if not ok:
            return Witness(n, ls, rs)
    return None


def check_stirling1(higher: families.SequenceTable, cz: families.SequenceTable,
                    k: int, r: int, nmax: int, precision: int,
                    lam=None) -> Witness | None:
    """The Stirling-sum tables against the series routes: dpb-higher against
    the r-th power of the composed-and-divided gf, Carlitz against
    t/(elam(1) - 1) by series division."""
    n = precision + 1
    carlitz = Series.t(n).div(families.elam(1, n) - 1)
    return (_cmp_table(higher, _dpb_series(k, precision) ** r, nmax, lam)
            or _cmp_table(cz, carlitz, nmax, lam))


def check_kaneko(tbl: families.SequenceTable, k: int, nmax: int, precision: int,
                 lam=None) -> Witness | None:
    """Kaneko's sum against Li_k(1 - e^(-t))/(e^t - 1) by series
    composition and division over Q."""
    n = precision + 1
    z = 1 - (-Series.t(n)).exp()
    gf = families.polylog_series(k, n).compose(z).div(families._exp_t(n) - 1)
    return _cmp_table(tbl, gf, nmax, lam)


# -- dispatcher ---------------------------------------------------------------


def verify(ident: str, *, k: int | None = None, r: int | None = None,
           nmax: int | None = None, order: int | None = None, ys=None,
           lam=None, seed: int = 0, n_random: int | None = None,
           max_degree: int | None = None) -> IdentityReport:
    """Run one catalog entry and return its exact pass/fail report."""
    if ident not in CATALOG_IDS:
        raise UnknownIdentity(f"unknown identity '{ident}'")
    nmax = 8 if nmax is None else nmax
    if nmax < 0:
        raise PolybernError(f"nmax must be >= 0, got {nmax}")
    limit = families.MAX_CHECK_PRECISION
    families.check_precision(nmax + 2, "nmax + 2", limit)
    if order is not None:
        families.check_precision(order, "order", limit)
    if k is not None:
        families.check_k(k)
    r = 1 if r is None else r
    families.check_r(r)
    n_random = 3 if n_random is None else n_random
    max_degree = 8 if max_degree is None else max_degree
    rng = random.Random(seed)
    ys_used = None

    params: dict = {"lambda": "symbolic" if lam is None else format_scalar(Fraction(lam))}
    if lam is not None:
        lam = Fraction(lam)

    if ident == "eq5":
        p = order or (nmax + 1)
        witness = check_eq5(families.dpb_numbers(1, p), families.daehee(p),
                            families.carlitz_beta(p), nmax, lam)
        params.update(k=1, nmax=nmax)
    elif ident == "eq17":
        k = 2 if k is None else k
        p = order or (nmax + 2)
        witness = check_eq17(families.dpb_numbers(k, p), k, nmax, p, lam)
        params.update(k=k, nmax=nmax)
    elif ident == "eq18":
        k = 2 if k is None else k
        p = order or (nmax + 2)
        ys_used = tuple(ys) if ys is not None else DEFAULT_YS + (_random_rational(rng),)
        witness = check_eq18(families.dpb_numbers(k, p), nmax, ys_used, lam)
        params.update(k=k, nmax=nmax, seed=seed)
    elif ident == "thm1":  # Theorem 4 at r = 1
        k = 2 if k is None else k
        p = order or (max(nmax, max_degree) + 2)
        witness = check_thm4(families.dpb_numbers(k, p), k, 1, nmax, p, rng,
                             n_random, max_degree, lam)
        params.update(k=k, nmax=nmax, n_random=n_random, max_degree=max_degree, seed=seed)
    elif ident == "thm2":  # Theorem 3 at r = 1
        k = 2 if k is None else k
        p = order or (max_degree + 2)
        witness = check_thm3(k, 1, p, rng, n_random, max_degree, lam)
        params.update(k=k, n_random=n_random, max_degree=max_degree, seed=seed)
    elif ident == "thm3":
        k = 2 if k is None else k
        p = order or (max_degree + 2)
        witness = check_thm3(k, r, p, rng, n_random, max_degree, lam)
        params.update(k=k, r=r, n_random=n_random, max_degree=max_degree, seed=seed)
    elif ident == "thm4":
        k = 2 if k is None else k
        p = order or (max(nmax, max_degree) + 2)
        witness = check_thm4(families.dpb_higher_numbers(k, r, p), k, r, nmax,
                             p, rng, n_random, max_degree, lam)
        params.update(k=k, r=r, nmax=nmax, n_random=n_random,
                      max_degree=max_degree, seed=seed)
    elif ident == "remark":
        k = 2 if k is None else k
        p = order or (nmax + 1)
        witness = check_remark(families.dpb_higher_numbers(k, r, p),
                               families.dpb_numbers(k, p), r, nmax, lam)
        params.update(k=k, r=r, nmax=nmax)
    elif ident in ("sheffer16", "sheffer23"):
        k = 2 if k is None else k
        if ident == "sheffer16":
            r = 1
        p = order or (nmax + 2)
        witness = check_sheffer(k, r, nmax, p, lam)
        params.update(k=k, r=r, nmax=nmax)
    elif ident == "k0":
        p = order or (nmax + 1)
        witness = check_k0(nmax, p, lam)
        params.update(nmax=nmax)
    elif ident == "lambda0":
        k = 2 if k is None else k
        p = order or (nmax + 1)
        witness = check_lambda0(k, nmax, p, lam)
        params.update(k=k, nmax=nmax)
    elif ident == "stirling1":
        k = 2 if k is None else k
        p = order or (nmax + 1)
        witness = check_stirling1(families.dpb_higher_numbers(k, r, p),
                                  families.carlitz_beta(p), k, r, nmax, p, lam)
        params.update(k=k, r=r, nmax=nmax)
    else:  # kaneko
        k = 2 if k is None else k
        p = order or (nmax + 1)
        witness = check_kaneko(families.poly_bernoulli(k, p), k, nmax, p, lam)
        params.update(k=k, nmax=nmax)

    if ys_used is not None:
        params["ys"] = [format_scalar(Fraction(y)) for y in ys_used]
    status = "pass" if witness is None else "fail"
    return IdentityReport(ident, params, status, witness)
