"""Truncated formal power series in t over Q or Q[lambda].

A series stores exactly ``precision`` coefficients (that of t^0 through
t^(precision-1)); binary operations return the minimum of the operand
precisions and never extend silently. Coefficients are Fractions or
LambdaPolys; the two mix freely (Q embeds into Q[lambda]).
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import factorial
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
    LambdaPoly,
    coerce_scalar,
    format_scalar,
    format_terms,
    lambda_eval,
    mul_coeffs,
    power,
)

__all__ = ["Series", "invert_constant", "precision_cache", "stirling1_transform"]


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


class Series:
    """Formal power series in t, truncated to a fixed precision."""

    __slots__ = ("_coeffs",)

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

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def __getitem__(self, n: int):
        return self._coeffs[n]

    def __iter__(self):
        return iter(self._coeffs)

    def truncate(self, precision: int) -> Series:
        if precision > self.precision:
            raise PrecisionExceeded(
                f"cannot extend a series of precision {self.precision} to {precision}"
            )
        return self if precision == self.precision else Series(self._coeffs[:precision])

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Series):
            n = min(self.precision, other.precision)
            return Series([self._coeffs[i] + other._coeffs[i] for i in range(n)])
        c = coerce_scalar(other)
        out = list(self._coeffs)
        out[0] = out[0] + c
        return Series(out)

    __radd__ = __add__

    def __neg__(self) -> Series:
        return Series([-c for c in self._coeffs])

    def __sub__(self, other):
        if isinstance(other, Series):
            n = min(self.precision, other.precision)
            return Series([self._coeffs[i] - other._coeffs[i] for i in range(n)])
        return self + (-coerce_scalar(other))

    def __rsub__(self, other):
        return (-self) + coerce_scalar(other)

    def __mul__(self, other):
        if isinstance(other, Series):
            n = min(self.precision, other.precision)
            return Series(mul_coeffs(self._coeffs, other._coeffs, n))
        c = coerce_scalar(other)
        return Series([c * x for x in self._coeffs])

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n: int) -> Series:
        if not isinstance(n, int):
            raise TypeError("series powers take an integer exponent")
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
        if inv is None and not (isinstance(g0, LambdaPoly) and g0):
            raise NonUnitLeadingCoefficient(
                f"divisor constant term {format_scalar(g0)} is not invertible"
            )
        out: list = []
        for i in range(n):
            acc = f[i]
            for j in range(1, i + 1):
                gj = g[j]
                if gj:
                    acc = acc - gj * out[i - j]
            if inv is not None:
                out.append(acc * inv)
            else:
                num = acc if isinstance(acc, LambdaPoly) else LambdaPoly.constant(acc)
                q = num.divide_exact(g0)
                if q is None:
                    raise NonUnitLeadingCoefficient(
                        f"coefficient {format_scalar(acc)} is not divisible by "
                        f"{format_scalar(g0)}"
                    )
                out.append(q)
        return Series(out)

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
        return Series(acc)

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
        return Series(out)

    # -- transcendental maps -----------------------------------------------

    def log(self) -> Series:
        """Formal logarithm; needs constant term 1."""
        if self._coeffs[0] != 1:
            raise ConstantTermNotOne(
                f"log needs constant term 1, got {format_scalar(self._coeffs[0])}"
            )
        n = self.precision
        out: list = [_ZERO]
        for m in range(1, n):
            acc = m * self._coeffs[m]
            for j in range(1, m):
                fm = self._coeffs[m - j]
                if fm:
                    acc = acc - j * out[j] * fm
            out.append(acc / m)
        return Series(out)

    def exp(self) -> Series:
        """Formal exponential; needs constant term 0."""
        if self._coeffs[0]:
            raise NonzeroConstantTerm(
                f"exp needs constant term 0, got {format_scalar(self._coeffs[0])}"
            )
        n = self.precision
        out: list = [Fraction(1)]
        for m in range(1, n):
            acc = _ZERO
            for j in range(1, m + 1):
                fj = self._coeffs[j]
                if fj:
                    acc = acc + j * fj * out[m - j]
            out.append(acc / m)
        return Series(out)

    # -- misc ---------------------------------------------------------------

    def derivative(self) -> Series:
        """Coefficient-shift derivative d/dt; precision drops by one."""
        if self.precision < 2:
            raise PrecisionExceeded("cannot differentiate a precision-1 series")
        return Series([(i + 1) * self._coeffs[i + 1] for i in range(self.precision - 1)])

    def specialize(self, v) -> Series:
        """Substitute lambda := v in every coefficient (exact)."""
        return Series([lambda_eval(c, v) for c in self._coeffs])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._coeffs == other._coeffs

    __hash__ = None

    def __str__(self) -> str:
        return f"{format_terms(self._coeffs, 't')} + O(t^{self.precision})"

    def __repr__(self) -> str:
        return f"Series({self})"


def stirling1_transform(values) -> Series:
    """f(L) over Q[lambda], with L = log(1 + lambda*t)/lambda, from the
    table of f over Q (``values[m]`` is m! [x^m] f).

    n! [t^n] L^m = m! s(n, m) lambda^(n-m), with s the signed Stirling
    numbers of the first kind, so table entry n of f(L) is
    sum_m s(n, m) values[m] lambda^(n-m). The precision is len(values).
    """
    out, row = [], [1]  # row n is s(n, 0..n)
    for n in range(len(values)):
        out.append(LambdaPoly([row[m] * values[m] for m in range(n, -1, -1)]) / factorial(n))
        # s(n+1, m) = s(n, m-1) - n s(n, m)
        row = [prev - n * c for c, prev in zip(row + [0], [0] + row)]
    return Series(out)


def precision_cache(build):
    """Cache a series builder whose last positional argument is the precision.

    Each tuple of the other arguments keeps one series, at the largest
    precision asked for; a smaller request is its exact ``truncate``, as
    coefficient n of every cached builder depends on n only. Calls that
    omit the precision, pass keywords or ask for precision < 1 are uncached.
    """
    entries, counts = {}, {"hits": 0, "misses": 0}
    arity = build.__code__.co_argcount

    @wraps(build)
    def cached(*args, **kwargs):
        if kwargs or len(args) != arity or args[-1] < 1:
            return build(*args, **kwargs)
        key, precision = args[:-1], args[-1]
        entry = entries.get(key)
        if entry is None or entry.precision < precision:
            counts["misses"] += 1
            entries[key] = entry = build(*args)
        else:
            counts["hits"] += 1
        return entry.truncate(precision)

    def cache_clear():
        entries.clear()
        counts.update(hits=0, misses=0)

    cached.cache_info = lambda: SimpleNamespace(currsize=len(entries), **counts)
    cached.cache_clear = cache_clear
    return cached
