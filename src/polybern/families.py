"""Named sequence families, their tables and their generating functions.

Every family is exact: table entry n is n! times the coefficient of t^n of
the family's gf, over Q or Q[lambda]. The (1 + lambda*t)^(c/lambda) building
block is never represented with a symbolic exponent; its t^n coefficient is
the product c(c - lambda)...(c - (n-1)lambda)/n!, which stays inside
Q[lambda].

The table is built first, straight from a closed form: bernoulli from
tangent numbers, daehee as (-1)^n n!/(n + 1), poly-Bernoulli (bernoulli
at k = 1) by Kaneko's finite sum (Kaneko, J. Theor. Nombres Bordeaux 9,
1997), run as the Akiyama-Tanigawa recurrence on its weights (Kaneko,
J. Integer Sequences 3, 2000), so no Stirling-2 number is formed. Since
(1 + lambda*t)^(c/lambda) = e^(c*L) with L = log(1 + lambda*t)/lambda,
each degenerate table is the ``series.stirling1_transform`` of a classical
one; carlitz reads the same Stirling-1 rows for the transform of
B_(m+1)/(m + 1) and for the Cauchy numbers. The Stirling-1 triangle
depends on neither k nor r, so it is built once per session by a cached
row builder and shared by every table. A table, like the triangle, grows:
asked for more entries than its cache holds, it computes only the ones
past them (bernoulli, from tangent numbers, poly-Bernoulli, whose
recurrence starts at entry 0, and the power below run from the start
again, and keep only the new entries). The only series operation
left is dpb-higher's ``** r``, over Q. Each ``*_gf`` builder, uncached, is
its family's cached table over n!; it checks k, r and the precision (an
int >= 1, unbounded) on every call.
The series routes these sums replace are kept in ``identities`` as
independent oracles.

``table`` and ``polynomial`` are the checked routes to every family: one
``_FAMILIES`` record per family id, and every bound enforced.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from math import comb, factorial, lcm
from operator import mul, sub
from typing import NamedTuple

from .errors import PolybernError, PrecisionExceeded
from .polynomials import Polynomial
from .ring import FractionRow, LambdaPoly, _normalised
from .series import (
    Series,
    _stirling1_rows,
    check_truncation,
    precision_cache,
    stirling1_transform,
)

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
# and an unbounded k never finishes; at k = 100 a 64-entry dpb-higher
# table of order 40 takes about 0.4 s on a 2-vCPU VM, a 128-entry one 5 to 6 s.
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
        check_truncation(len(self.values), precision, "table")
        return SequenceTable(self.family, self.k, self.r, self.values[:precision])

    def value(self, n: int):
        if n < 0 or n >= len(self.values):
            raise PrecisionExceeded(
                f"table '{self.family}' holds n < {len(self.values)}, got n = {n}"
            )
        return self.values[n]


def _values(coeffs) -> list:
    """The row n! c_n of a coefficient row: the table of a gf, or the row of
    a polynomial on which ``umbral``'s t^k acts as a shift by k."""
    return [factorial(n) * c for n, c in enumerate(coeffs)]


def _gf(values) -> Series:
    """The gf of a table: coefficient n is entry n / n!."""
    return Series._of([v / factorial(n) for n, v in enumerate(values)])


def _family_gf(family: str, k: int | None, r: int, precision: int) -> Series:
    """The gf of a family id, its cached table over n!, every argument checked
    but the precision unbounded."""
    _validate(family, k, r)
    _check_int(precision, "precision")
    if precision < 1:
        raise PrecisionExceeded(f"precision must be >= 1, got {precision}")
    return _gf(_table(family, k, r, precision).values)


def _kaneko(k: int, count: int, start: int = 0) -> list[Fraction]:
    """PB_start..PB_(count-1) of the table of Li_k(1 - e^(-t))/(e^t - 1).

    Kaneko's sum B_n^(k) = (-1)^n sum_m (-1)^m m! S(n, m)/(m + 1)^k is the
    table of Li_k(1 - e^(-t))/(1 - e^(-t)), with S the Stirling numbers of
    the second kind (Kaneko, J. Theor. Nombres Bordeaux 9, 1997). The gf
    here is that one times e^(-t), and
    e^(-t)(1 - e^(-t))^m = (1 - e^(-t))^m - (1 - e^(-t))^(m+1), which turns
    m! S(n, m) into m! S(n+1, m+1): PB_n = (-1)^n sum_m R[n][m] w_m, with
    R[n][m] = (-1)^m m! S(n+1, m+1) and w_m = 1/(m + 1)^k.

    The rows obey R[n][m] = (m+1) R[n-1][m] - m R[n-1][m-1], so
    sum_m R[n][m] w_m = sum_m R[n-1][m] (m+1)(w_m - w_(m+1)): the sum is
    never formed. n steps of w_m <- (m+1)(w_m - w_(m+1)) leave it in w_0,
    as in the Akiyama-Tanigawa algorithm (Kaneko, J. Integer Sequences 3,
    2000), and each step is one pass of products by small ints. The weights are
    integers over one common denominator, so each entry reduces once. Every
    call runs from entry 0; those below ``start`` are not returned.
    """
    if k > 0:
        den = lcm(*range(1, count + 1)) ** k
        w = [den // (m + 1) ** k for m in range(count)]
    else:
        den = 1
        w = [(m + 1) ** -k for m in range(count)]
    out = []
    for n in range(count):
        if n >= start:
            out.append(Fraction(w[0] if n % 2 == 0 else -w[0], den))
        w = list(map(mul, range(1, len(w)), map(sub, w, w[1:])))
    return out


def _check_int(value, name: str):
    """Refuse a ``name`` that is not an int; a bool or an integral float is
    refused too, before any comparison can let it through."""
    if type(value) is not int:
        raise PolybernError(f"{name} must be an integer, got {value!r}")


def check_k(k: int | None):
    """Reject a polylog order outside -MAX_ABS_K..MAX_ABS_K; None passes."""
    if k is None:
        return
    _check_int(k, "polylog order k")
    if abs(k) > MAX_ABS_K:
        raise PolybernError(f"polylog order k must satisfy |k| <= {MAX_ABS_K}, got {k}")


def check_r(r: int):
    """Reject a family order r outside 1..MAX_R."""
    _check_int(r, "order r")
    if r < 1:
        raise PolybernError(f"order r must be >= 1, got {r}")
    if r > MAX_R:
        raise PolybernError(f"order r must satisfy r <= {MAX_R}, got {r}")


def check_precision(n: int, name: str = "precision", limit: int = MAX_PRECISION):
    """Reject a precision, order or index range ``name`` above ``limit``."""
    _check_int(n, name)
    if n > limit:
        raise PolybernError(f"{name} must satisfy {name} <= {limit}, got {n}")


@precision_cache
def elam(c, precision: int = DEFAULT_PRECISION) -> Series:
    """(1 + lambda*t)^(c/lambda) as a series over Q[lambda].

    Coefficient of t^n is c(c - lambda)...(c - (n-1)lambda)/n!.
    """
    _check_int(precision, "precision")
    if type(c) not in (int, Fraction):
        raise PolybernError(f"c must be an integer or a Fraction, got {c!r}")
    c = Fraction(c)
    coeffs: list = [LambdaPoly.constant(1)]
    prod = LambdaPoly.constant(1)
    for n in range(1, precision):
        prod = prod * LambdaPoly((c, -(n - 1)))
        coeffs.append(prod / factorial(n))
    return Series(coeffs, precision)


def polylog_series(k: int, precision: int = DEFAULT_PRECISION) -> Series:
    """Sum over n >= 1 of x^n / n^k; for k <= 0 the weights are integers."""
    if k is None:
        raise PolybernError("polylog_series needs a polylog order --k")
    check_k(k)
    _check_int(precision, "precision")
    return Series([Fraction(0)] + [Fraction(n) ** -k for n in range(1, precision)], precision)


def _bernoulli(precision: int) -> list[Fraction]:
    """B_0..B_(precision-1), from the tangent numbers T_n, built in place by
    integer multiply-adds by small ints (Brent and Harvey, 2013):
    B_2n = (-1)^(n-1) 2n T_n/(4^n (4^n - 1)), one reduction each."""
    m = (precision - 1) // 2
    tan = [0, 1] + [0] * (m - 1)  # tan[j] = T_j for j = 1..m
    for k in range(2, m + 1):
        tan[k] = (k - 1) * tan[k - 1]
    for k in range(2, m + 1):
        for j in range(k, m + 1):
            tan[j] = (j - k) * tan[j - 1] + (j - k + 2) * tan[j]
    out = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * (precision - 2)
    for n in range(1, m + 1):
        out[2 * n] = Fraction((-1) ** (n - 1) * 2 * n * tan[n], 4 ** n * (4 ** n - 1))
    return out[:precision]


def _carlitz(precision: int, start: int = 0) -> list:
    """Entries ``start`` to ``precision - 1`` of the table of
    t/((1 + lambda*t)^(1/lambda) - 1) = (t/L) * B(L), with B = bernoulli_gf.
    It splits as G(lambda*t) + t*F(L).

    The first term is t/L, with G = t/log(1 + t), whose table is the Cauchy
    numbers C_n = sum_m s(n, m)/(m + 1) (Comtet, *Advanced Combinatorics*,
    1974, ch. 5; Merlini, Sprugnoli and Verri, Discrete Math. 306, 2006).
    The second has F = (B(x) - 1)/x, whose table is b_m = B_(m+1)/(m + 1),
    so entry n of t*F(L) is n times entry n - 1 of its Stirling-1 transform.
    Entry n >= 1 is thus n sum_m s(n-1, m) b_m lambda^(n-1-m) + C_n lambda^n.
    Both sums read the cached rows s(n, 0..n): the first over the running
    denominator of the b_m, the second over D = lcm(1..precision), as
    (sum_m s(n, m) D/(m + 1))/D. Each entry is one integer row, reduced once.
    The running row of the b_m is read from b_0 whatever ``start`` is.
    """
    bern = _table("bernoulli", None, 1, precision).values
    rows = _stirling1_rows(precision)
    d = lcm(*range(1, precision + 1))
    weights = [d // (m + 1) for m in range(precision)]
    b = FractionRow()  # entry n reads b_0..b_(n-1) only, so b grows with n
    out = [Fraction(1)][start:]
    for n in range(1, precision):
        b.append(bern[n] / n)
        if n < start:
            continue
        den = lcm(b.den, d)
        scale = n * (den // b.den)
        num = [scale * c for c in map(mul, reversed(rows[n - 1]), reversed(b.nums))]
        num.append(den // d * sum(map(mul, rows[n], weights)))
        out.append(_normalised(num, den))
    return out


def bernoulli_gf(precision: int = DEFAULT_PRECISION) -> Series:
    """t/(e^t - 1); entry n of the table is the Bernoulli number B_n."""
    return _family_gf("bernoulli", None, 1, precision)


def daehee_gf(precision: int = DEFAULT_PRECISION) -> Series:
    """log(1 + t)/t, whose t^n coefficient is (-1)^n/(n + 1)."""
    return _family_gf("daehee", None, 1, precision)


def carlitz_gf(precision: int = DEFAULT_PRECISION) -> Series:
    """t/((1 + lambda*t)^(1/lambda) - 1), the Carlitz degenerate Bernoulli gf."""
    return _family_gf("carlitz", None, 1, precision)


def poly_bernoulli_gf(k: int, precision: int = DEFAULT_PRECISION) -> Series:
    """Li_k(1 - e^(-t)) / (e^t - 1), over Q, from Kaneko's sum; at k = 1,
    where Li_1(1 - e^(-t)) = t, it is bernoulli_gf."""
    return _family_gf("poly-bernoulli", k, 1, precision)


def dpb_gf(k: int, precision: int = DEFAULT_PRECISION) -> Series:
    """Li_k(1 - (1+lambda*t)^(-1/lambda)) / ((1+lambda*t)^(1/lambda) - 1),
    dpb_higher_gf at r = 1, whose table the dpb table is."""
    return _family_gf("dpb", k, 1, precision)


def dpb_higher_gf(k: int, r: int, precision: int = DEFAULT_PRECISION) -> Series:
    """dpb_gf(k)^r. dpb_gf is poly_bernoulli_gf(k) composed with
    L = log(1 + lambda*t)/lambda, so the table of its r-th power is the
    Stirling-1 transform of the table of poly_bernoulli_gf(k)^r, a power over Q."""
    return _family_gf("dpb-higher", k, r, precision)


def binomial_poly(tbl: SequenceTable, n: int) -> Polynomial:
    # sum over l of C(n, l) * value(l) * x^(n-l)
    return Polynomial._of([comb(n, l) * tbl.value(l) for l in range(n + 1)][::-1])


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
    """One family id: ``values(k, r, precision, start)`` builds entries
    ``start`` to ``precision - 1`` of its table from its closed form, through
    module globals (bernoulli and poly-bernoulli compute their whole table,
    and dpb-higher at r >= 2 its whole power, before keeping those entries);
    ``reads`` names which of k and r the family takes (see ``_read_params``);
    ``expression`` is its expression-language text, formatted with k and r;
    ``poly(table, n)`` builds polynomial n, and is None for a family without
    one."""

    values: Callable[[int | None, int, int, int], Sequence]
    reads: str
    expression: str
    poly: Callable[[SequenceTable, int], Polynomial] | None


_FAMILIES = {
    "bernoulli": _Family(lambda k, r, n, i: _bernoulli(n)[i:], "", "t/(exp(t)-1)", binomial_poly),
    "daehee": _Family(lambda k, r, n, i: [Fraction((-1) ** m * factorial(m), m + 1)
                                          for m in range(i, n)], "", "log(1+t)/t", None),
    "carlitz": _Family(lambda k, r, n, i: _carlitz(n, i), "", "t/(elam(1)-1)", _carlitz_poly),
    "poly-bernoulli": _Family(lambda k, r, n, i: _table("bernoulli", None, 1, n).values[i:]
                              if k == 1 else _kaneko(k, n, i), "k",
                              "li({k}, 1-exp(-t))/(exp(t)-1)", binomial_poly),
    "dpb": _Family(lambda k, r, n, i: _table("dpb-higher", k, 1, n).values[i:], "k",
                   "li({k}, 1-elam(-1))/(elam(1)-1)", binomial_poly),
    "dpb-higher": _Family(lambda k, r, n, i: stirling1_transform(
        _table("poly-bernoulli", k, 1, n).values if r == 1
        else _values(poly_bernoulli_gf(k, n) ** r), i), "kr",
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
    if precision < 1:
        raise PrecisionExceeded(f"precision must be >= 1, got {precision}")
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
def _table(family: str, k: int | None, r: int, precision: int, *, prior=()) -> SequenceTable:
    """The table of a family id, grown from the ``prior`` table's entries."""
    values = prior.values if prior else ()
    new = _FAMILIES[family].values(k, r, precision, len(values))
    return SequenceTable(family, k, r, values + tuple(new))


def polynomial(family: str, n: int, precision: int = DEFAULT_PRECISION,
               k: int | None = None, r: int = 1) -> Polynomial:
    """Polynomial n in x of a family id, built from its table.

    Carlitz's polynomial uses the degenerate falling-factorial basis; the
    others are Appell sequences, ``binomial_poly`` of the family's table.
    """
    if family in _FAMILIES and _FAMILIES[family].poly is None:
        raise PolybernError(f"family '{family}' has no polynomial form")
    spec = _validate(family, k, r, precision)
    _check_int(n, "n")
    if not 0 <= n < precision:
        bound = f"exceeds precision {precision}" if n >= 0 else "is negative"
        raise PrecisionExceeded(f"n = {n} {bound}")
    return spec.poly(table(family, precision, k, r), n)


def canonical_expression(family: str, k: int | None = None, r: int = 1) -> str:
    """Expression-language text whose evaluation equals the family's gf."""
    return _validate(family, k, r).expression.format(k=k, r=r)
