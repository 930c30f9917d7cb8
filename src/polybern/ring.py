"""Exact scalars, the ring Q[lambda], and the dense coefficient kernel.

Rationals are stdlib ``fractions.Fraction`` values, which are always stored
fully reduced with a positive denominator, so equality is structural.
``LambdaPoly`` is a dense polynomial in the indeterminate ``lambda`` over Q,
stored as a row of integer numerators over one positive common denominator
and kept canonical (no trailing zero, the gcd of the denominator and all
numerators is 1). Its arithmetic runs on the integer rows and divides out
one gcd per operation, not one Fraction reduction per coefficient. Plain
rationals embed implicitly as degree-0 polynomials, so mixed arithmetic
needs no explicit coercion at call sites.

This module also owns the dense coefficient kernel that ``Polynomial``
(Q[lambda][x]) and ``Series`` (truncated series in t) share over their
Fraction or LambdaPoly coefficients: coefficient lists stored low degree
first, with trimming, addition, truncated multiplication, Horner evaluation
and powers defined once here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Rational = Fraction

_ZERO = Fraction(0)

__all__ = [
    "Rational",
    "LambdaPoly",
    "LAMBDA",
    "lambda_eval",
    "format_rational",
    "format_scalar",
]


def format_rational(q: Fraction) -> str:
    """Render a rational as ``p/q``, omitting the ``/1`` of integers."""
    if type(q) is not Fraction:
        q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def trim(cs: list) -> list:
    """Drop trailing zero coefficients from ``cs`` in place; return it."""
    while cs and not cs[-1]:
        cs.pop()
    return cs


def add_coeffs(a, b) -> list:
    """Coefficient-wise sum of two dense coefficient sequences."""
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def mul_coeffs(a, b, n: int) -> list:
    """The first ``n`` coefficients of the product of ``a`` and ``b``;
    ``n = len(a) + len(b) - 1`` gives the full product."""
    out = [_ZERO] * n
    for i, ca in enumerate(a[:n]):
        if ca:
            for j, cb in enumerate(b[:n - i]):
                if cb:
                    out[i + j] += ca * cb
    return out


def horner(coeffs, v):
    """Value of the dense polynomial ``coeffs`` at ``v``."""
    acc = _ZERO
    for c in reversed(coeffs):
        acc = acc * v + c
    return acc


def power(base, n: int, one):
    """``base`` to the integer power ``n >= 0`` by square-and-multiply;
    ``one`` is the unit of base's ring, returned only for ``n == 0``. The
    first factor is taken as it is, so ``power(base, 1, one) is base``."""
    out = None
    while n:
        if n & 1:
            out = base if out is None else out * base
        n >>= 1
        if n:
            base = base * base
    return one if out is None else out


def format_terms(coeffs, var: str) -> str:
    """Render dense coefficients highest degree first, as ``-3/4*x^2 + x - 1``.

    A coefficient that is not a rational constant (a LambdaPoly of degree
    >= 1) prints in parentheses after a ``+``, as ``(lambda + 1)*x``.
    """
    parts: list[str] = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        xs = "" if d == 0 else (var if d == 1 else f"{var}^{d}")
        if isinstance(c, LambdaPoly):
            if c.degree > 0:
                body = f"({c})*{xs}" if xs else f"({c})"
                parts.append(f"+ {body}" if parts else body)
                continue
            c = c.constant_term
        mag = abs(c)
        if not xs:
            body = format_rational(mag)
        else:
            body = xs if mag == 1 else f"{format_rational(mag)}*{xs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def coerce_scalar(value):
    """A Q or Q[lambda] coefficient: Fractions and LambdaPolys pass as they
    are, ints become Fractions, anything else is a TypeError."""
    if isinstance(value, (Fraction, LambdaPoly)):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not a Q or Q[lambda] coefficient: {value!r}")


def _as_fraction(value) -> Fraction | None:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    return None


def _lp(num: tuple, den: int) -> LambdaPoly:
    """A LambdaPoly of a row already in canonical form."""
    p = object.__new__(LambdaPoly)
    p._num = num
    p._den = den
    return p


def _normalised(num: list, den: int) -> LambdaPoly:
    """The LambdaPoly ``num / den`` for an integer row and ``den > 0``: trims
    ``num`` in place and divides out one gcd."""
    trim(num)
    g = gcd(den, *num)
    if g != 1:
        num = [c // g for c in num]
        den //= g
    return _lp(tuple(num), den)


class LambdaPoly:
    """Polynomial in lambda over Q: integer numerators over one denominator.

    The value ``(n_0 + n_1*lambda + ... + n_d*lambda^d) / den`` is stored as
    the tuple ``_num = (n_0, ..., n_d)`` of ints and one int ``_den``.
    Values are immutable and kept canonical, so equality is structural:
    ``_den > 0``, ``_num`` has no trailing zero, ``gcd(_den, *_num) == 1``,
    and the zero polynomial is ``((), 1)``. Every operation works on the
    integer rows and divides out one gcd at the end. The constructor takes
    Fractions or ints, and ``coeffs`` and ``constant_term`` build Fractions
    on demand.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        # Fraction(c) costs a Python call even when c is already a Fraction.
        cs = trim([c if type(c) is Fraction else Fraction(c) for c in coeffs])
        # With den the lcm of the reduced denominators, some prime power of
        # den divides no numerator, so the row is canonical as built.
        den = lcm(*[c.denominator for c in cs])
        self._num = tuple([c.numerator * (den // c.denominator) for c in cs])
        self._den = den

    @classmethod
    def constant(cls, value) -> LambdaPoly:
        return cls((Fraction(value),))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> LambdaPoly:
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls((0,) * degree + (Fraction(coeff),))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self._den
        return tuple([Fraction(c, den) for c in self._num])

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._num) - 1

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self._num[0], self._den) if self._num else _ZERO

    def __bool__(self) -> bool:
        return bool(self._num)

    @staticmethod
    def _coerce(other):
        if isinstance(other, LambdaPoly):
            return other
        # isinstance(other, Fraction) goes through the numbers ABCs; the
        # exact type test is the fast path for the two common scalars.
        q = other if type(other) in (Fraction, int) else _as_fraction(other)
        if q is None:
            return None
        return _lp((q.numerator,) if q else (), q.denominator)

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._num, rhs._num
        if not b:
            return self
        if not a:
            return rhs
        da, db = self._den, rhs._den
        if da != db:
            g = gcd(da, db)
            sa, sb = db // g, da // g
            a = [c * sa for c in a]
            b = [c * sb for c in b]
            da *= sa
        return _normalised(add_coeffs(a, b), da)

    __radd__ = __add__

    def __neg__(self) -> LambdaPoly:
        return _lp(tuple([-c for c in self._num]), self._den)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self + (-rhs)

    def __rsub__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return lhs + (-self)

    def __mul__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        a, b = self._num, rhs._num
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return _normalised(out, self._den * rhs._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = _as_fraction(other)
        if q is None:
            return NotImplemented
        inv = 1 / q  # a reduced Fraction with positive denominator
        return _normalised([c * inv.numerator for c in self._num], self._den * inv.denominator)

    def __pow__(self, n: int) -> LambdaPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("LambdaPoly powers take a non-negative integer")
        return power(self, n, LambdaPoly.constant(1))

    def __eq__(self, other) -> bool:
        if isinstance(other, LambdaPoly):
            return self._num == other._num and self._den == other._den
        q = _as_fraction(other)
        if q is None:
            return NotImplemented
        if not self._num:
            return not q
        return (len(self._num) == 1 and self._num[0] == q.numerator
                and self._den == q.denominator)

    def __hash__(self):
        if len(self._num) <= 1:
            return hash(self.constant_term)
        return hash((self._num, self._den))

    def divide_exact(self, other: LambdaPoly) -> LambdaPoly | None:
        """Exact polynomial quotient self/other, or None if it does not divide."""
        if not other:
            return None
        if not self:
            return LambdaPoly()
        if self.degree < other.degree:
            return None
        rem = list(self.coeffs)
        dc = other.coeffs
        dd = other.degree
        lead = dc[-1]
        out = [_ZERO] * (len(rem) - dd)
        for i in range(len(out) - 1, -1, -1):
            c = rem[i + dd] / lead
            out[i] = c
            if c:
                for j, dcj in enumerate(dc):
                    rem[i + j] -= c * dcj
        if any(rem[:dd]):
            return None
        return LambdaPoly(out)

    def evaluate(self, v) -> Fraction:
        """Substitute lambda := v exactly: Horner over the integers, with
        v = p/q, and one division at the end."""
        v = Fraction(v)
        p, q = v.numerator, v.denominator
        acc, qk = 0, 1
        for c in reversed(self._num):
            acc = acc * p + c * qk
            qk *= q
        # qk is now q^(d+1); the value is acc / (den * q^d).
        return Fraction(acc * q, self._den * qk)

    def __str__(self) -> str:
        return format_terms(self.coeffs, "lambda")

    def __repr__(self) -> str:
        return f"LambdaPoly({self})"


LAMBDA = LambdaPoly.monomial(1)


def lambda_eval(p, v) -> Fraction:
    """Evaluate p at lambda := v; plain rationals pass through."""
    if isinstance(p, LambdaPoly):
        return p.evaluate(v)
    return Fraction(p)


def format_scalar(value) -> str:
    """Canonical string for a Q or Q[lambda] scalar (the table/JSON grammar)."""
    if isinstance(value, LambdaPoly):
        return str(value)
    return format_rational(value)
