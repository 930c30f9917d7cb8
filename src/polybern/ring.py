"""Exact scalars, the ring Q[lambda], and the dense coefficient kernel.

Rationals are stdlib ``fractions.Fraction`` values, which are always stored
fully reduced with a positive denominator, so equality is structural.
``LambdaPoly`` is a dense polynomial in the indeterminate ``lambda`` with
Fraction coefficients; plain rationals embed implicitly as degree-0
polynomials, so mixed arithmetic needs no explicit coercion at call sites.

This module also owns the dense coefficient kernel that ``LambdaPoly``,
``Polynomial`` (Q[lambda][x]) and ``Series`` (truncated series in t) share:
coefficient lists stored low degree first, with trimming, addition,
truncated multiplication, Horner evaluation and powers defined once here.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

_ZERO = Fraction(0)

__all__ = [
    "Rational",
    "LambdaPoly",
    "LAMBDA",
    "lambda_eval",
    "lambda_is_constant",
    "format_rational",
    "format_scalar",
]


def format_rational(q: Fraction) -> str:
    """Render a rational as ``p/q``, omitting the ``/1`` of integers."""
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
    ``one`` is the unit of base's ring."""
    out = one
    while n:
        if n & 1:
            out = out * base
        n >>= 1
        if n:
            base = base * base
    return out


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


class LambdaPoly:
    """Polynomial in lambda over Q, stored dense, low degree first.

    Values are immutable and kept canonical: the stored coefficient tuple
    never has a zero in the highest slot (the zero polynomial stores
    nothing at all).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        # Fraction(c) costs a Python call even when c is already a Fraction,
        # and kernel results always are.
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        object.__setattr__(self, "_coeffs", tuple(trim(cs)))

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
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def constant_term(self) -> Fraction:
        return self._coeffs[0] if self._coeffs else _ZERO

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def _coerce(self, other):
        if isinstance(other, LambdaPoly):
            return other
        q = _as_fraction(other)
        if q is None:
            return None
        return LambdaPoly((q,))

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return LambdaPoly(add_coeffs(self._coeffs, rhs._coeffs))

    __radd__ = __add__

    def __neg__(self) -> LambdaPoly:
        return LambdaPoly(tuple(-c for c in self._coeffs))

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
        a, b = self._coeffs, rhs._coeffs
        return LambdaPoly(mul_coeffs(a, b, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = _as_fraction(other)
        if q is None:
            return NotImplemented
        return LambdaPoly(tuple(c / q for c in self._coeffs))

    def __pow__(self, n: int) -> LambdaPoly:
        if not isinstance(n, int) or n < 0:
            raise ValueError("LambdaPoly powers take a non-negative integer")
        return power(self, n, LambdaPoly.constant(1))

    def __eq__(self, other) -> bool:
        if isinstance(other, LambdaPoly):
            return self._coeffs == other._coeffs
        q = _as_fraction(other)
        if q is None:
            return NotImplemented
        return self.degree <= 0 and self.constant_term == q

    def __hash__(self):
        if self.degree <= 0:
            return hash(self.constant_term)
        return hash(self._coeffs)

    def divide_exact(self, other: LambdaPoly) -> LambdaPoly | None:
        """Exact polynomial quotient self/other, or None if it does not divide."""
        if not other:
            return None
        if not self:
            return LambdaPoly()
        if self.degree < other.degree:
            return None
        rem = list(self._coeffs)
        dc = other._coeffs
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
        """Substitute lambda := v exactly (Horner)."""
        return horner(self._coeffs, Fraction(v))

    def is_constant(self) -> tuple[bool, Fraction]:
        """Whether degree <= 0, together with the constant term."""
        return (self.degree <= 0, self.constant_term)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts: list[str] = []
        for d in range(self.degree, -1, -1):
            c = self._coeffs[d]
            if not c:
                continue
            mag = abs(c)
            if d == 0:
                body = format_rational(mag)
            else:
                lam = "lambda" if d == 1 else f"lambda^{d}"
                body = lam if mag == 1 else f"{format_rational(mag)}*{lam}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LambdaPoly({self})"


LAMBDA = LambdaPoly.monomial(1)


def lambda_eval(p, v) -> Fraction:
    """Evaluate p at lambda := v; plain rationals pass through."""
    if isinstance(p, LambdaPoly):
        return p.evaluate(v)
    return Fraction(p)


def lambda_is_constant(p) -> tuple[bool, Fraction]:
    """(degree <= 0, constant term) for LambdaPoly or plain rationals."""
    if isinstance(p, LambdaPoly):
        return p.is_constant()
    return (True, Fraction(p))


def format_scalar(value) -> str:
    """Canonical string for a Q or Q[lambda] scalar (the table/JSON grammar)."""
    if isinstance(value, LambdaPoly):
        return str(value)
    return format_rational(value)
