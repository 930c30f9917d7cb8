"""Named sequence families and their generating functions.

Every family is exact: generating functions are truncated series over Q or
Q[lambda], and table entry n is n! times the coefficient of t^n. The
(1 + lambda*t)^(c/lambda) building block is never represented with a
symbolic exponent; its t^n coefficient is the product
c(c - lambda)...(c - (n-1)lambda)/n!, which stays inside Q[lambda].

Every table is a closed form: the poly-Bernoulli table is Kaneko's finite
sum, bernoulli is its k = 1 case and daehee's t^n coefficient is
(-1)^n/(n + 1). Since (1 + lambda*t)^(c/lambda) = e^(c*L) with
L = log(1 + lambda*t)/lambda, each degenerate gf is a classical one
composed with L: one ``series.stirling1_transform`` of the classical
table. The only series operations left are carlitz's one division and
dpb-higher's ``** r``, both over Q. The series routes these sums replace
are kept in ``identities`` as independent oracles.

``table`` and ``polynomial`` are the checked routes to every family: one
``_FAMILIES`` record per family id, and every bound enforced. The
``*_gf`` builders are raw building blocks: they check k and r, not the
precision.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from math import comb, factorial, lcm
from typing import NamedTuple

from .errors import PolybernError, PrecisionExceeded
from .polynomials import Polynomial
from .ring import LambdaPoly
from .series import Series, precision_cache, stirling1_transform

__all__ = [
    "DEFAULT_PRECISION",
    "MAX_ABS_K",
    "MAX_R",
    "MAX_PRECISION",
    "MAX_CHECK_PRECISION",
    "FAMILY_IDS",
    "SequenceTable",
    "elam",
    "polylog_series",
    "bernoulli_gf",
    "carlitz_gf",
    "poly_bernoulli_gf",
    "dpb_gf",
    "dpb_higher_gf",
    "binomial_poly",
    "check_k",
    "check_r",
    "check_precision",
    "table",
    "polynomial",
    "canonical_expression",
]

DEFAULT_PRECISION = 32

# Largest |k| accepted for the polylog order. Table entries carry
# (m + 1)^|k| for every m below the precision, so their size grows with |k|
# and an unbounded k never finishes; at |k| = 100 a 64-entry dpb-higher
# table of order 40 takes about 0.6 s on a 2-vCPU VM, a 128-entry one 9 s.
MAX_ABS_K = 100

# Largest order r of the higher-order families and identities. The order-r
# table is an r-th power and `remark` an r-fold convolution, so the work and
# the size of the entries grow with r; an unbounded r never finishes.
MAX_R = 40

# Largest working precision of a table, a polynomial or an evaluated
# expression. The closed-form tables cost O(N^2) big-number terms and a
# series composition O(N^3) Q[lambda] products, so an unbounded N never
# finishes.
MAX_PRECISION = 128

# Largest working precision of a catalog identity check; the widest checks
# run at precision n + 2. The checks pair, shift and invert series and
# polynomials over Q[lambda] at O(N^4) and more, so they get a lower bound
# than the tables.
MAX_CHECK_PRECISION = 32

class SequenceTable:
    """Exact values of one family: entry n is n! * [t^n] of its gf."""

    __slots__ = ("family", "k", "r", "values")

    def __init__(self, family: str, k: int | None, r: int, values: tuple):
        self.family, self.k, self.r, self.values = family, k, r, values

    def _key(self) -> tuple:
        return self.family, self.k, self.r, self.values

    def __eq__(self, other):
        return isinstance(other, SequenceTable) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __len__(self) -> int:
        return len(self.values)

    precision = property(__len__)

    def truncate(self, precision: int) -> SequenceTable:
        return SequenceTable(self.family, self.k, self.r, self.values[:precision])

    def value(self, n: int):
        if n < 0 or n >= len(self.values):
            raise PrecisionExceeded(
                f"table '{self.family}' holds n < {len(self.values)}, got n = {n}"
            )
        return self.values[n]


def _values(gf: Series) -> list:
    """The table of a gf: entry n is n! [t^n] gf."""
    return [factorial(n) * c for n, c in enumerate(gf)]


def _kaneko(k: int, count: int) -> list[Fraction]:
    """PB_0..PB_(count-1), the table of Li_k(1 - e^(-t))/(e^t - 1).

    Kaneko's sum B_n^(k) = (-1)^n sum_m (-1)^m m! S(n, m)/(m + 1)^k is the
    table of Li_k(1 - e^(-t))/(1 - e^(-t)), with S the Stirling numbers of
    the second kind. The gf here is that one times e^(-t), and
    e^(-t)(1 - e^(-t))^m = (1 - e^(-t))^m - (1 - e^(-t))^(m+1), which turns
    m! S(n, m) into m! S(n+1, m+1):
    PB_n = (-1)^n sum_m (-1)^m m! S(n+1, m+1)/(m + 1)^k.
    Every sum is taken in integers over one common denominator, so each
    entry reduces once.
    """
    if k > 0:
        den = lcm(*range(1, count + 1)) ** k
        weights = [den // (m + 1) ** k for m in range(count)]
    else:
        den = 1
        weights = [(m + 1) ** -k for m in range(count)]
    out = []
    row = [1]  # (-1)^m m! S(n+1, m+1) for m = 0..n
    for n in range(count):
        num = sum(c * w for c, w in zip(row, weights))
        out.append(Fraction(num if n % 2 == 0 else -num, den))
        # S(n+2, m+1) = (m+1) S(n+1, m+1) + S(n+1, m), scaled by (-1)^m m!
        row = [(m + 1) * c - m * prev
               for m, (c, prev) in enumerate(zip(row + [0], [0] + row))]
    return out


def check_k(k: int | None):
    """Reject a polylog order outside -MAX_ABS_K..MAX_ABS_K; None passes."""
    if k is not None and abs(k) > MAX_ABS_K:
        raise PolybernError(f"polylog order k must satisfy |k| <= {MAX_ABS_K}, got {k}")


def check_r(r: int):
    """Reject a family order r outside 1..MAX_R."""
    if r < 1:
        raise PolybernError(f"order r must be >= 1, got {r}")
    if r > MAX_R:
        raise PolybernError(f"order r must satisfy r <= {MAX_R}, got {r}")


def check_precision(n: int, name: str = "precision", limit: int = MAX_PRECISION):
    """Reject a precision, order or index range ``name`` above ``limit``."""
    if n > limit:
        raise PolybernError(f"{name} must satisfy {name} <= {limit}, got {n}")


@precision_cache
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


def polylog_series(k: int, precision: int = DEFAULT_PRECISION) -> Series:
    """Sum over n >= 1 of x^n / n^k; for k <= 0 the weights are integers."""
    check_k(k)
    return Series([Fraction(0)] + [Fraction(n) ** -k for n in range(1, precision)])


@precision_cache
def bernoulli_gf(precision: int = DEFAULT_PRECISION) -> Series:
    """t/(e^t - 1); entry n of the table is the Bernoulli number B_n.

    Li_1(1 - e^(-t)) = t, so this is Kaneko's sum at k = 1.
    """
    return poly_bernoulli_gf(1, precision)


@precision_cache
def daehee_gf(precision: int = DEFAULT_PRECISION) -> Series:
    """log(1 + t)/t, whose t^n coefficient is (-1)^n/(n + 1)."""
    return Series([Fraction((-1) ** n, n + 1) for n in range(precision)])


@precision_cache
def carlitz_gf(precision: int = DEFAULT_PRECISION) -> Series:
    """t/((1 + lambda*t)^(1/lambda) - 1).

    This is (t/L) * B(L), with B = bernoulli_gf, and it splits as
    G(lambda*t) + t*F(L). The first term is t/L, with
    G = t/log(1 + t) = 1/daehee_gf a series over Q. The second has
    F = (B(x) - 1)/x, whose table is B_(m+1)/(m + 1), so F(L) is one
    Stirling-1 transform.
    """
    bern = _values(bernoulli_gf(precision + 1))
    f = stirling1_transform([bern[m + 1] / (m + 1) for m in range(precision)])
    g = Series.one(precision).div(daehee_gf(precision))
    return Series([g[0]] + [g[n] * LambdaPoly.monomial(n) + f[n - 1]
                            for n in range(1, precision)])


@precision_cache
def poly_bernoulli_gf(k: int, precision: int = DEFAULT_PRECISION) -> Series:
    """Li_k(1 - e^(-t)) / (e^t - 1), over Q, from Kaneko's sum."""
    check_k(k)
    return Series([v / factorial(n) for n, v in enumerate(_kaneko(k, precision))])


@precision_cache
def dpb_gf(k: int, precision: int = DEFAULT_PRECISION) -> Series:
    """Li_k(1 - (1+lambda*t)^(-1/lambda)) / ((1+lambda*t)^(1/lambda) - 1)."""
    return dpb_higher_gf(k, 1, precision)


@precision_cache
def dpb_higher_gf(k: int, r: int, precision: int = DEFAULT_PRECISION) -> Series:
    """dpb_gf(k)^r. dpb_gf is poly_bernoulli_gf(k) composed with
    L = log(1 + lambda*t)/lambda, so its r-th power is the Stirling-1
    transform of poly_bernoulli_gf(k)^r, a power over Q."""
    check_r(r)
    return stirling1_transform(_values(poly_bernoulli_gf(k, precision) ** r))


def binomial_poly(tbl: SequenceTable, n: int) -> Polynomial:
    # sum over l of C(n, l) * value(l) * x^(n-l)
    out = [None] * (n + 1)
    for l in range(n + 1):
        out[n - l] = comb(n, l) * tbl.value(l)
    return Polynomial(out)


def _carlitz_poly(tbl: SequenceTable, n: int) -> Polynomial:
    """Degenerate Bernoulli polynomial in x, via the finite expansion in the
    degenerate falling-factorial basis x(x - lambda)...(x - (m-1)lambda)."""
    basis = Polynomial.constant(1)
    acc = Polynomial.constant(tbl.value(n))
    for m in range(1, n + 1):
        basis = basis * Polynomial((LambdaPoly((0, -(m - 1))), 1))
        acc = acc + basis * (comb(n, n - m) * tbl.value(n - m))
    return acc


class _Family(NamedTuple):
    """One family id: ``gf(k, r, precision)`` calls its builder through the
    module global; ``reads`` names which of k and r the family takes (see
    ``_read_params``); ``expression`` is its expression-language text,
    formatted with k and r; ``poly(table, n)`` builds polynomial n, and is
    None for a family without one."""

    gf: Callable[[int | None, int, int], Series]
    reads: str
    expression: str
    poly: Callable[[SequenceTable, int], Polynomial] | None


_FAMILIES = {
    "bernoulli": _Family(lambda k, r, n: bernoulli_gf(n), "", "t/(exp(t)-1)", binomial_poly),
    "daehee": _Family(lambda k, r, n: daehee_gf(n), "", "log(1+t)/t", None),
    "carlitz": _Family(lambda k, r, n: carlitz_gf(n), "", "t/(elam(1)-1)", _carlitz_poly),
    "poly-bernoulli": _Family(lambda k, r, n: poly_bernoulli_gf(k, n), "k",
                              "li({k}, 1-exp(-t))/(exp(t)-1)", binomial_poly),
    "dpb": _Family(lambda k, r, n: dpb_gf(k, n), "k",
                   "li({k}, 1-elam(-1))/(elam(1)-1)", binomial_poly),
    "dpb-higher": _Family(lambda k, r, n: dpb_higher_gf(k, r, n), "kr",
                          "(li({k}, 1-elam(-1))/(elam(1)-1))^{r}", binomial_poly),
}

FAMILY_IDS = tuple(_FAMILIES)


def _validate(family: str, k: int | None, r: int, precision: int = DEFAULT_PRECISION) -> _Family:
    spec = _FAMILIES.get(family)
    if spec is None:
        raise PolybernError(
            f"unknown family '{family}' (expected one of {', '.join(FAMILY_IDS)})"
        )
    if "k" in spec.reads and k is None:
        raise PolybernError(f"family '{family}' needs a polylog order --k")
    check_k(k)
    check_r(r)
    check_precision(precision)
    return spec


def _read_params(family: str, k: int | None, r: int) -> tuple[int | None, int]:
    """The k and r a valid family id reads: k = None and r = 1 for those it ignores."""
    reads = _FAMILIES[family].reads
    return (k if "k" in reads else None), (r if "r" in reads else 1)


def table(family: str, precision: int = DEFAULT_PRECISION, k: int | None = None,
          r: int = 1) -> SequenceTable:
    """The first ``precision`` entries of a family id, every bound checked."""
    _validate(family, k, r, precision)
    return _table(family, *_read_params(family, k, r), precision)


@precision_cache
def _table(family: str, k: int | None, r: int, precision: int) -> SequenceTable:
    return SequenceTable(family, k, r, tuple(_values(_FAMILIES[family].gf(k, r, precision))))


def polynomial(family: str, n: int, precision: int = DEFAULT_PRECISION,
               k: int | None = None, r: int = 1) -> Polynomial:
    """Polynomial n in x of a family id, built from its table.

    Carlitz's polynomial uses the degenerate falling-factorial basis; the
    others are Appell sequences, ``binomial_poly`` of the family's table.
    """
    if family in _FAMILIES and _FAMILIES[family].poly is None:
        raise PolybernError(f"family '{family}' has no polynomial form")
    spec = _validate(family, k, r, precision)
    if not 0 <= n < precision:
        bound = f"exceeds precision {precision}" if n >= 0 else "is negative"
        raise PrecisionExceeded(f"n = {n} {bound}")
    return spec.poly(table(family, precision, k, r), n)


def canonical_expression(family: str, k: int | None = None, r: int = 1) -> str:
    """Expression-language text whose evaluation equals the family's gf."""
    return _validate(family, k, r).expression.format(k=k, r=r)
