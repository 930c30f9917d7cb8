"""Truncated formal power series in t over Q or Q[lambda].

A series stores exactly ``precision`` coefficients (that of t^0 through
t^(precision-1)); binary operations return the minimum of the operand
precisions and never extend silently. Coefficients are Fractions or
LambdaPolys; the two mix freely (Q embeds into Q[lambda]). A quotient by a
unit, a power, log and exp are one triangular recurrence, ``_recurrence``.
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
    FractionRow,
    LambdaPoly,
    _normalised,
    coerce_scalar,
    dot,
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
        inv = invert_constant(self._coeffs[0])
        if inv is not None and abs(n) >= 2:
            return Series(_miller_power(self._coeffs, n, inv))
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
            return Series(_recurrence(g, n, f[0] * inv, 0, -1, f, inv))
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
        f = self._coeffs
        return Series(_recurrence(f, len(f), _ZERO, 1, -1, f, 1))

    def exp(self) -> Series:
        """Formal exponential; needs constant term 0."""
        if self._coeffs[0]:
            raise NonzeroConstantTerm(
                f"exp needs constant term 0, got {format_scalar(self._coeffs[0])}"
            )
        f = self._coeffs
        return Series(_recurrence(f, len(f), Fraction(1), 1, 0, None, 1))

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


def _miller_power(f, r: int, inv) -> list:
    """Coefficients of f^r for an integer r with |r| >= 2 and ``inv`` = 1/f_0,
    by Miller's recurrence: g_m = (inv/m) sum_(j=1..m) ((r+1) j - m) f_j g_(m-j)."""
    g0 = f[0] ** r if r > 0 else inv ** -r  # a LambdaPoly takes no negative power
    return _recurrence(f, len(f), g0, r + 1, -1, None, inv)


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


def stirling1_transform(values) -> Series:
    """f(L) over Q[lambda], with L = log(1 + lambda*t)/lambda, from the
    table of f over Q (``values[m]`` is m! [x^m] f).

    n! [t^n] L^m = m! s(n, m) lambda^(n-m), with s the signed Stirling
    numbers of the first kind, so table entry n of f(L) is
    sum_m s(n, m) values[m] lambda^(n-m). The precision is len(values).
    """
    v = FractionRow()  # entry n reads values[0..n] only, so v grows with n
    out, row, fact = [], [1], 1  # row n is s(n, 0..n); fact is n!
    for n, value in enumerate(values):
        v.append(value)
        out.append(_normalised([row[m] * v.nums[m] for m in range(n, -1, -1)], v.den * fact))
        fact *= n + 1
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
