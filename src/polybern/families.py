"""Named sequence families and their generating functions.

Every family is exact: generating functions are truncated series over Q or
Q[lambda], and table entry n is n! times the coefficient of t^n. The
(1 + lambda*t)^(c/lambda) building block is never represented with a
symbolic exponent; its t^n coefficient is the product
c(c - lambda)...(c - (n-1)lambda)/n!, which stays inside Q[lambda].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import PolybernError, PrecisionExceeded
from .polynomials import Polynomial
from .ring import LambdaPoly
from .series import Series

__all__ = [
    "DEFAULT_PRECISION",
    "FAMILY_IDS",
    "SequenceTable",
    "elam",
    "polylog_series",
    "bernoulli_gf",
    "bernoulli",
    "daehee",
    "carlitz_gf",
    "carlitz_beta",
    "carlitz_beta_poly",
    "poly_bernoulli_gf",
    "poly_bernoulli",
    "poly_bernoulli_poly",
    "dpb_gf",
    "dpb_numbers",
    "dpb_poly",
    "dpb_higher_gf",
    "dpb_higher_numbers",
    "dpb_higher_poly",
    "binomial_poly",
    "table",
    "polynomial",
    "canonical_expression",
]

DEFAULT_PRECISION = 32

FAMILY_IDS = ("bernoulli", "daehee", "carlitz", "poly-bernoulli", "dpb", "dpb-higher")


@dataclass(frozen=True)
class SequenceTable:
    """Exact values of one family: entry n is n! * [t^n] of its gf."""

    family: str
    k: int | None
    r: int
    values: tuple

    @classmethod
    def from_series(cls, family: str, gf: Series, k: int | None = None, r: int = 1):
        vals = tuple(factorial(n) * gf[n] for n in range(gf.precision))
        return cls(family, k, r, vals)

    def __len__(self) -> int:
        return len(self.values)

    def value(self, n: int):
        if n < 0 or n >= len(self.values):
            raise PrecisionExceeded(
                f"table '{self.family}' holds n < {len(self.values)}, got n = {n}"
            )
        return self.values[n]

    def rows(self):
        return list(enumerate(self.values))


@lru_cache(maxsize=None)
def elam(c, precision: int = DEFAULT_PRECISION) -> Series:
    """(1 + lambda*t)^(c/lambda) as a series over Q[lambda].

    Coefficient of t^n is c(c - lambda)...(c - (n-1)lambda)/n!.
    """
    c = Fraction(c)
    coeffs: list = [LambdaPoly.constant(1)]
    prod = LambdaPoly.constant(1)
    for n in range(1, precision):
        prod = prod * LambdaPoly((c, -(n - 1)))
        coeffs.append(prod / factorial(n))
    return Series(coeffs)


@lru_cache(maxsize=None)
def polylog_series(k: int, precision: int = DEFAULT_PRECISION) -> Series:
    """Sum over n >= 1 of x^n / n^k; for k <= 0 the weights are integers."""
    coeffs = [Fraction(0)]
    for n in range(1, precision):
        coeffs.append(Fraction(1, n**k) if k >= 0 else Fraction(n ** (-k)))
    return Series(coeffs)


@lru_cache(maxsize=None)
def _exp_t(precision: int) -> Series:
    return Series.t(precision).exp()


@lru_cache(maxsize=None)
def bernoulli_gf(precision: int = DEFAULT_PRECISION) -> Series:
    """t/(e^t - 1); entry n of the table is the Bernoulli number B_n."""
    n = precision + 1
    return Series.t(n).div(_exp_t(n) - 1)


def bernoulli(precision: int = DEFAULT_PRECISION) -> SequenceTable:
    return SequenceTable.from_series("bernoulli", bernoulli_gf(precision))


@lru_cache(maxsize=None)
def daehee_gf(precision: int = DEFAULT_PRECISION) -> Series:
    """log(1 + t)/t."""
    n = precision + 1
    return (Series.one(n) + Series.t(n)).log().div(Series.t(n))


def daehee(precision: int = DEFAULT_PRECISION) -> SequenceTable:
    return SequenceTable.from_series("daehee", daehee_gf(precision))


@lru_cache(maxsize=None)
def carlitz_gf(precision: int = DEFAULT_PRECISION) -> Series:
    """t/((1 + lambda*t)^(1/lambda) - 1)."""
    n = precision + 1
    return Series.t(n).div(elam(1, n) - 1)


def carlitz_beta(precision: int = DEFAULT_PRECISION) -> SequenceTable:
    return SequenceTable.from_series("carlitz", carlitz_gf(precision))


def binomial_poly(tbl: SequenceTable, n: int) -> Polynomial:
    # sum over l of C(n, l) * value(l) * x^(n-l)
    out = [None] * (n + 1)
    for l in range(n + 1):
        out[n - l] = comb(n, l) * tbl.value(l)
    return Polynomial(out)


def carlitz_beta_poly(n: int, precision: int = DEFAULT_PRECISION) -> Polynomial:
    """Degenerate Bernoulli polynomial in x, via the finite expansion in the
    degenerate falling-factorial basis x(x - lambda)...(x - (m-1)lambda)."""
    if n >= precision:
        raise PrecisionExceeded(f"n = {n} exceeds precision {precision}")
    tbl = carlitz_beta(precision)
    basis = Polynomial.constant(1)
    acc = Polynomial.constant(comb(n, n) * tbl.value(n))
    for m in range(1, n + 1):
        basis = basis * Polynomial((LambdaPoly((0, -(m - 1))), 1))
        acc = acc + basis * (comb(n, n - m) * tbl.value(n - m))
    return acc


@lru_cache(maxsize=None)
def poly_bernoulli_gf(k: int, precision: int = DEFAULT_PRECISION) -> Series:
    """Li_k(1 - e^(-t)) / (e^t - 1), over Q."""
    n = precision + 1
    z = 1 - (-Series.t(n)).exp()
    return polylog_series(k, n).compose(z).div(_exp_t(n) - 1)


def poly_bernoulli(k: int, precision: int = DEFAULT_PRECISION) -> SequenceTable:
    return SequenceTable.from_series("poly-bernoulli", poly_bernoulli_gf(k, precision), k=k)


def poly_bernoulli_poly(k: int, n: int, precision: int = DEFAULT_PRECISION) -> Polynomial:
    if n >= precision:
        raise PrecisionExceeded(f"n = {n} exceeds precision {precision}")
    return binomial_poly(poly_bernoulli(k, precision), n)


@lru_cache(maxsize=None)
def dpb_gf(k: int, precision: int = DEFAULT_PRECISION) -> Series:
    """Li_k(1 - (1+lambda*t)^(-1/lambda)) / ((1+lambda*t)^(1/lambda) - 1)."""
    n = precision + 1
    z = 1 - elam(-1, n)
    return polylog_series(k, n).compose(z).div(elam(1, n) - 1)


def dpb_numbers(k: int, precision: int = DEFAULT_PRECISION) -> SequenceTable:
    return SequenceTable.from_series("dpb", dpb_gf(k, precision), k=k)


def dpb_poly(k: int, n: int, precision: int = DEFAULT_PRECISION) -> Polynomial:
    if n >= precision:
        raise PrecisionExceeded(f"n = {n} exceeds precision {precision}")
    return binomial_poly(dpb_numbers(k, precision), n)


@lru_cache(maxsize=None)
def dpb_higher_gf(k: int, r: int, precision: int = DEFAULT_PRECISION) -> Series:
    if r < 1:
        raise PolybernError(f"order r must be >= 1, got {r}")
    return dpb_gf(k, precision) ** r


def dpb_higher_numbers(k: int, r: int, precision: int = DEFAULT_PRECISION) -> SequenceTable:
    return SequenceTable.from_series("dpb-higher", dpb_higher_gf(k, r, precision), k=k, r=r)


def dpb_higher_poly(k: int, r: int, n: int, precision: int = DEFAULT_PRECISION) -> Polynomial:
    if n >= precision:
        raise PrecisionExceeded(f"n = {n} exceeds precision {precision}")
    return binomial_poly(dpb_higher_numbers(k, r, precision), n)


def _validate(family: str, k: int | None, r: int):
    if family not in FAMILY_IDS:
        raise PolybernError(
            f"unknown family '{family}' (expected one of {', '.join(FAMILY_IDS)})"
        )
    if family in ("poly-bernoulli", "dpb", "dpb-higher") and k is None:
        raise PolybernError(f"family '{family}' needs a polylog order --k")
    if r < 1:
        raise PolybernError(f"order r must be >= 1, got {r}")


def table(family: str, precision: int = DEFAULT_PRECISION, k: int | None = None,
          r: int = 1) -> SequenceTable:
    """SequenceTable for a family identifier (the CLI entry point)."""
    _validate(family, k, r)
    if family == "bernoulli":
        return bernoulli(precision)
    if family == "daehee":
        return daehee(precision)
    if family == "carlitz":
        return carlitz_beta(precision)
    if family == "poly-bernoulli":
        return poly_bernoulli(k, precision)
    if family == "dpb":
        return dpb_numbers(k, precision)
    return dpb_higher_numbers(k, r, precision)


def polynomial(family: str, n: int, precision: int = DEFAULT_PRECISION,
               k: int | None = None, r: int = 1) -> Polynomial:
    """Polynomial-in-x form of a family, where the family defines one."""
    _validate(family, k, r)
    if family == "bernoulli":
        if n >= precision:
            raise PrecisionExceeded(f"n = {n} exceeds precision {precision}")
        return binomial_poly(bernoulli(precision), n)
    if family == "carlitz":
        return carlitz_beta_poly(n, precision)
    if family == "poly-bernoulli":
        return poly_bernoulli_poly(k, n, precision)
    if family == "dpb":
        return dpb_poly(k, n, precision)
    if family == "dpb-higher":
        return dpb_higher_poly(k, r, n, precision)
    raise PolybernError(f"family '{family}' has no polynomial form")


def canonical_expression(family: str, k: int | None = None, r: int = 1) -> str:
    """Expression-language text whose evaluation equals the family's gf."""
    _validate(family, k, r)
    if family == "bernoulli":
        return "t/(exp(t)-1)"
    if family == "daehee":
        return "log(1+t)/t"
    if family == "carlitz":
        return "t/(elam(1)-1)"
    if family == "poly-bernoulli":
        return f"li({k}, 1-exp(-t))/(exp(t)-1)"
    if family == "dpb":
        return f"li({k}, 1-elam(-1))/(elam(1)-1)"
    return f"(li({k}, 1-elam(-1))/(elam(1)-1))^{r}"
