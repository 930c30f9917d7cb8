"""Truncated formal power series in t over Q or Q[lambda].

A series is a ``ring.DenseRow`` of exactly ``precision`` coefficients
(that of t^0 through t^(precision-1)). Its length rule: the sums and
products the row defines return the minimum of the operand precisions and
never extend silently. Coefficients are Fractions or LambdaPolys; the two
mix freely (Q embeds into Q[lambda]). A quotient by a unit, a power, log
and exp are one triangular recurrence, ``_recurrence``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from operator import mul
from types import SimpleNamespace

from .errors import (
    ConstantTermNotOne,
    NonUnitLeadingCoefficient,
    NonzeroConstantTerm,
    NonzeroInnerConstant,
    NotDelta,
    PrecisionExceeded,
)
from .ring import (
    _ZERO,
    DenseRow,
    FractionRow,
    LambdaPoly,
    _normalised,
    coerce_scalar,
    dot,
    format_scalar,
    format_terms,
    mul_coeffs,
    power,
)

__all__ = ["Series", "invert_constant", "precision_cache", "stirling1_transform"]


def check_truncation(size: int, precision: int, what: str = "series"):
    """Refuse to truncate ``what`` of ``size`` coefficients to ``precision``
    below 1 or past its end."""
    if precision < 1:
        raise PrecisionExceeded(f"precision must be >= 1, got {precision}")
    if precision > size:
        raise PrecisionExceeded(f"cannot extend a {what} of precision {size} to {precision}")


def invert_constant(c):
    """Multiplicative inverse of an invertible ring constant, else None.

    Invertible means: a nonzero rational, or a degree-0 nonzero LambdaPoly.
    """
    if isinstance(c, LambdaPoly):
        if c.degree > 0 or not c.constant_term:
            return None
        return 1 / c.constant_term
    c = Fraction(c)
    if not c:
        return None
    return 1 / c


class Series(DenseRow):
    """Formal power series in t, truncated to a fixed precision."""

    __slots__ = ()

    def __init__(self, coeffs, precision: int | None = None):
        cs = [coerce_scalar(c) for c in coeffs]
        if precision is not None:
            if precision < 1:
                raise PrecisionExceeded(f"precision must be >= 1, got {precision}")
            if len(cs) < precision:
                cs.extend([_ZERO] * (precision - len(cs)))
            else:
                del cs[precision:]
        if not cs:
            raise PrecisionExceeded("a series needs at least one coefficient")
        self._coeffs = tuple(cs)

    @classmethod
    def zero(cls, precision: int) -> Series:
        return cls((), precision)

    @classmethod
    def one(cls, precision: int) -> Series:
        return cls((Fraction(1),), precision)

    @classmethod
    def t(cls, precision: int) -> Series:
        return cls((_ZERO, Fraction(1)), precision)

    @classmethod
    def constant(cls, value, precision: int) -> Series:
        return cls((coerce_scalar(value),), precision)

    @property
    def precision(self) -> int:
        return len(self._coeffs)

    def __getitem__(self, n: int):
        return self._coeffs[n]

    def __iter__(self):
        return iter(self._coeffs)

    def truncate(self, precision: int) -> Series:
        check_truncation(self.precision, precision)
        return self if precision == self.precision else Series._of(self._coeffs[:precision])

    # -- ring operations: DenseRow's, under the shorter precision ----------

    _fit = tuple

    _sum_length = _product_length = min

    # bench/tracer.py patches this name in the class's own namespace
    __mul__ = DenseRow.__mul__

    def __pow__(self, n: int) -> Series:
        if not isinstance(n, int):
            raise TypeError("series powers take an integer exponent")
        inv = invert_constant(self._coeffs[0])
        if inv is not None and abs(n) >= 2:  # Miller's recurrence
            f = self._coeffs
            g0 = f[0] ** n if n > 0 else inv ** -n  # a LambdaPoly takes no negative power
            return Series._of(_recurrence(f, len(f), g0, n + 1, -1, None, inv))
        if n < 0:
            return Series.one(self.precision).div(self.__pow__(-n))
        return power(self, n, Series.one(self.precision))

    def div(self, other: Series) -> Series:
        """Quotient truncated to the result precision.

        If both operands have zero constant term, one common factor of t is
        cancelled first (the shape of every t/(e^t - 1)-style quotient);
        needing deeper cancellation is an error. A non-unit constant term in
        the divisor (such as plain lambda) is allowed as long as every
        quotient coefficient divides exactly in Q[lambda].
        """
        if not isinstance(other, Series):
            raise TypeError("div expects a series divisor")
        n = min(self.precision, other.precision)
        f = list(self._coeffs[:n])
        g = list(other._coeffs[:n])
        if not f[0] and not g[0]:
            f.pop(0)
            g.pop(0)
            n -= 1
            if n == 0:
                raise PrecisionExceeded("division leaves no coefficients")
        g0 = g[0]
        inv = invert_constant(g0)
        if inv is not None:
            return Series._of(_recurrence(g, n, f[0] * inv, 0, -1, f, inv))
        if not (isinstance(g0, LambdaPoly) and g0):
            raise NonUnitLeadingCoefficient(
                f"divisor constant term {format_scalar(g0)} is not invertible"
            )
        out: list = []
        for i in range(n):  # out_i = (f_i - sum_(j=1..i) g_j out_(i-j)) / g0, divided exactly
            acc = dot((f[i], *g[1:i + 1]), (1, *reversed(out)), (1, *[-1] * i))
            num = acc if isinstance(acc, LambdaPoly) else LambdaPoly.constant(acc)
            q = num.divide_exact(g0)
            if q is None:
                raise NonUnitLeadingCoefficient(
                    f"coefficient {format_scalar(acc)} is not divisible by {format_scalar(g0)}"
                )
            out.append(q)
        return Series._of(out)

    __truediv__ = div

    # -- composition -------------------------------------------------------

    def compose(self, inner: Series) -> Series:
        """self(inner(t)), truncated to the minimum precision."""
        if inner._coeffs[0]:
            raise NonzeroInnerConstant(
                f"inner series has constant term {format_scalar(inner._coeffs[0])}"
            )
        n = min(self.precision, inner.precision)
        acc = [_ZERO] * n
        acc[0] = self._coeffs[0]
        inner_i = list(inner._coeffs[:n])
        for i in range(1, n):
            fi = self._coeffs[i]
            if fi:
                for m in range(i, n):
                    pm = inner_i[m]
                    if pm:
                        acc[m] = acc[m] + fi * pm
            if i + 1 < n:
                inner_i = mul_coeffs(inner_i, inner._coeffs, n)
        return Series._of(acc)

    def revert(self) -> Series:
        """Compositional inverse g with self(g(t)) = g(self(t)) = t."""
        if self._coeffs[0]:
            raise NotDelta("series to revert must have zero constant term")
        if self.precision < 2 or invert_constant(self._coeffs[1]) is None:
            raise NotDelta("series to revert must have an invertible t coefficient")
        n = self.precision
        # Lagrange inversion: n-th coefficient is [t^(n-1)] (t/f)^n / n.
        u = Series.t(n).div(self)
        out = [_ZERO] * n
        out[1] = u[0]
        u_m = u
        for m in range(2, n):
            u_m = u_m * u
            out[m] = u_m[m - 1] / m
        return Series._of(out)

    # -- transcendental maps -----------------------------------------------

    def log(self) -> Series:
        """Formal logarithm; needs constant term 1."""
        if self._coeffs[0] != 1:
            raise ConstantTermNotOne(
                f"log needs constant term 1, got {format_scalar(self._coeffs[0])}"
            )
        f = self._coeffs
        return Series._of(_recurrence(f, len(f), _ZERO, 1, -1, f, 1))

    def exp(self) -> Series:
        """Formal exponential; needs constant term 0."""
        if self._coeffs[0]:
            raise NonzeroConstantTerm(
                f"exp needs constant term 0, got {format_scalar(self._coeffs[0])}"
            )
        f = self._coeffs
        return Series._of(_recurrence(f, len(f), Fraction(1), 1, 0, None, 1))

    # -- misc ---------------------------------------------------------------

    def derivative(self) -> Series:
        """Coefficient-shift derivative d/dt; precision drops by one."""
        if self.precision < 2:
            raise PrecisionExceeded("cannot differentiate a precision-1 series")
        return super().derivative()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __str__(self) -> str:
        return f"{format_terms(self._coeffs, 't')} + O(t^{self.precision})"


def _recurrence(f, n: int, g0, a: int, b: int, head, scale) -> list:
    """g_0 = ``g0`` and g_m = (scale/m) (m head_m + sum_(j=1..m) (a j + b m)
    f_j g_(m-j)) for m < n, no head term if ``head`` is None; f_0 is unread.
    From f g' = r f' g and its kin (Knuth, TAOCP vol. 2, 4.7): h/f is a = 0,
    b = -1, head h, scale 1/f_0; f^r is a = r + 1, b = -1, scale 1/f_0; log f
    is a = 1, b = -1, head f; exp f is a = 1, b = 0. Each g_m is reduced
    once: over Q one Fraction of integer rows that grow with m, else one dot."""
    head = head or (_ZERO,) * n
    p, q = scale.numerator, scale.denominator
    g = [g0]
    if not all(type(c) is Fraction for c in (g0, *f[1:n], *head[1:n])):
        for m in range(1, n):
            w = [p * (a * j + b * m) for j in range(1, m + 1)]
            g.append(dot((head[m], *f[1:m + 1]), (m, *reversed(g)), (p, *w), q * m))
        return g
    # g_m reads f_1..f_m and g_0..g_(m-1) only, so both rows grow with m
    fr, gr = FractionRow(), FractionRow([g0])
    for m in range(1, n):
        fr.append(f[m])
        h, d = head[m], fr.den * gr.den
        if a:
            w = [(a * j + b * m) * c for j, c in enumerate(fr.nums, 1)]
            s = sum(map(mul, w, reversed(gr.nums)))
        else:  # every weight is b m, which factors out of the sum
            s = b * m * sum(map(mul, fr.nums, reversed(gr.nums)))
        s = m * h.numerator * d + h.denominator * s
        g.append(Fraction(s * p, h.denominator * d * q * m))
        gr.append(g[-1])
    return g


_KEY_TYPES = frozenset((int, Fraction, str, type(None)))


def precision_cache(build):
    """Cache a builder whose last positional argument is the precision, and
    whose result (a series, a table or a ``Triangle`` of rows) has a
    ``precision`` and a ``truncate``.

    Each tuple of the other arguments keeps one result, at the largest
    precision asked for; a smaller request is its exact ``truncate``, as
    entry n of every cached builder depends on n only. A larger request is a
    miss. A builder with a keyword-only ``prior`` grows: on that miss it gets
    the cached shorter result as ``prior`` and computes only the entries past
    it, a cold build being the same extension of an empty ``prior``. The
    others rebuild. Calls that omit the precision, pass keywords, ask for a
    precision below 1 or pass an argument not of the exact type int,
    Fraction, str or None (so a bool or a float never meets the entry of an
    equal int or Fraction) are uncached, left to the builder to refuse.
    """
    entries, counts = {}, {"hits": 0, "misses": 0}
    arity = build.__code__.co_argcount
    grows = "prior" in (build.__kwdefaults__ or {})

    @wraps(build)
    def cached(*args, **kwargs):
        if (kwargs or len(args) != arity or not _KEY_TYPES.issuperset(map(type, args))
                or type(args[-1]) is not int or args[-1] < 1):
            return build(*args, **kwargs)
        key, precision = args[:-1], args[-1]
        entry = entries.get(key)
        if entry is None or entry.precision < precision:
            counts["misses"] += 1
            entry = build(*args, prior=entry) if grows and entry is not None else build(*args)
            entries[key] = entry
        else:
            counts["hits"] += 1
        return entry.truncate(precision)

    def cache_clear():
        entries.clear()
        counts.update(hits=0, misses=0)

    cached.cache_info = lambda: SimpleNamespace(currsize=len(entries), **counts)
    cached.cache_clear = cache_clear
    return cached


class Triangle(tuple):
    """Rows 0..n-1 of a triangle of ints, row i of length i + 1: what a
    cached row builder returns, truncated by rows as a series is by terms."""

    __slots__ = ()

    precision = property(tuple.__len__)

    def truncate(self, precision: int) -> Triangle:
        check_truncation(len(self), precision, "triangle")
        return self if precision == len(self) else Triangle(self[:precision])


@precision_cache
def _stirling1_rows(count: int, *, prior=()) -> Triangle:
    """Rows 0..count-1 of the signed Stirling numbers of the first kind:
    row n is s(n, 0..n). They do not depend on the values transformed, so
    every ``stirling1_transform`` and Carlitz table of a session reads one
    build, grown from the ``prior`` rows."""
    rows = list(prior) or [(1,)][:count]
    for n in range(len(rows), count):
        row = rows[-1]  # s(n, m) = s(n-1, m-1) - (n-1) s(n-1, m)
        rows.append(tuple(prev - (n - 1) * c for c, prev in zip(row + (0,), (0,) + row)))
    return Triangle(rows)


def stirling1_transform(values, start: int = 0) -> list:
    """The table of f(L) over Q[lambda], with L = log(1 + lambda*t)/lambda,
    from the table of f over Q (``values[m]`` is m! [x^m] f): its entries
    ``start`` to ``len(values) - 1``.

    n! [t^n] L^m = m! s(n, m) lambda^(n-m), with s the signed Stirling
    numbers of the first kind, so entry n is the LambdaPoly
    sum_m s(n, m) values[m] lambda^(n-m). The rows s(n, 0..n) come from the
    cached ``_stirling1_rows``; only the products with ``values`` are taken
    here.
    """
    v = FractionRow()  # entry n reads values[0..n] only, so v grows with n
    out = []
    for n, (value, row) in enumerate(zip(values, _stirling1_rows(len(values)))):
        v.append(value)
        if n >= start:
            out.append(_normalised(list(map(mul, reversed(row), reversed(v.nums))), v.den))
    return out
