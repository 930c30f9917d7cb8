"""Exact scalars, the ring Q[lambda], and the dense coefficient kernel.

Rationals are stdlib ``fractions.Fraction`` values, which are always stored
fully reduced with a positive denominator, so equality is structural.
``LambdaPoly`` is a dense polynomial in the indeterminate ``lambda`` over Q,
stored as a row of integer numerators over one positive common denominator and
kept canonical (no trailing zero, the gcd of the denominator and all
numerators is 1). Its arithmetic runs on the integer rows, one gcd per
operation (none to scale by an int), and it renders from them: no Fraction per
coefficient. Plain rationals embed implicitly as degree-0 polynomials, so
mixed arithmetic needs no explicit coercion at call sites.

This module also owns the dense coefficient kernel that ``Polynomial``
(Q[lambda][x]) and ``Series`` (truncated series in t) share over their
Fraction or LambdaPoly coefficients: coefficient lists stored low degree
first, with trimming, addition, truncated multiplication, Horner evaluation
and powers defined once here. Over Q, as in ``LambdaPoly``, a product (and
the one recurrence and the Stirling-1 transform of ``series``) runs on
``FractionRow``s of integers and reduces each output coefficient once.
Over Q[lambda] and mixed rows, each sum of products behind an output
coefficient (of a product, a pairing or that recurrence) is one ``dot``:
weighted integer rows summed over a running common denominator and reduced
once, not once per term. The sliding sums of an operator action or a
translate are one ``correlate``: the polynomial lifted to integer rows
once, n! folded in, and each output, its divisor j! too, reduced once.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import mul

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


def _ratio(p: int, q: int) -> str:
    """``p``, or ``p/q`` for q > 1; past the int/str digit limit, Decimal's exact str."""
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:
        return str(Decimal(p)) if q == 1 else f"{Decimal(p)}/{Decimal(q)}"


def format_rational(q: Fraction) -> str:
    """Render a rational as ``p/q``, omitting the ``/1`` of integers."""
    if type(q) is not Fraction:
        q = Fraction(q)
    return _ratio(q.numerator, q.denominator)


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


class FractionRow:
    """Rationals as integer ``nums`` over ``den``, the lcm of the denominators
    appended so far: a row that grows one coefficient at a time keeps its
    integers as small as the coefficients read so far allow."""

    __slots__ = ("nums", "den")

    def __init__(self, values=()):
        self.nums, self.den = [], 1
        for q in values:
            self.append(q)

    def append(self, q):
        d = q.denominator
        scale = d // gcd(self.den, d)
        if scale != 1:
            self.nums = [c * scale for c in self.nums]
            self.den *= scale
        self.nums.append(q.numerator * (self.den // d))


def dot(xs, ys, weights=None, divisor: int = 1):
    """``sum_i weights[i] * xs[i] * ys[i] / divisor`` over Fractions, ints and
    LambdaPolys (int weights, all 1 if None; a positive int divisor), summed
    as integer rows over a running common denominator and reduced once: a
    Fraction when every input is a Q scalar, else a LambdaPoly."""
    acc, den, in_q = [], 1, True
    for x, y, w in zip(xs, ys, repeat(1) if weights is None else weights):
        if type(x) is LambdaPoly:
            a, da, in_q = x._num, x._den, False
        else:
            a, da = (x.numerator,) if x else (), x.denominator
        if type(y) is LambdaPoly:
            b, db, in_q = y._num, y._den, False
        else:
            b, db = (y.numerator,) if y else (), y.denominator
        if not (a and b and w):
            continue
        if len(a) > len(b):
            a, b = b, a
        d = da * db
        if den % d:
            s = d // gcd(den, d)
            acc = [c * s for c in acc]
            den *= s
        s = den // d * w
        acc += [0] * (len(a) + len(b) - 1 - len(acc))
        for i, u in enumerate(a):
            if u:
                u *= s
                for j, v in enumerate(b, i):
                    acc[j] += u * v
    den *= divisor
    if in_q:
        return Fraction(acc[0], den) if acc else _ZERO
    return _normalised(acc, den)


def correlate(xs, ys, count: int, weights=None) -> list:
    """``[dot(xs, ys[j:]) for j in range(count)]``, values and result types
    alike: ys lifted once to integer rows over one common denominator, xs
    (whose denominators can grow along the row) over a running one as in
    ``dot``. With positive int ``weights``, one per entry of ys and count <=
    len(ys), output j is ``sum_k xs[k] * weights[j+k] * ys[j+k] / weights[j]``."""
    dy = lcm(*[y._den if type(y) is LambdaPoly else y.denominator for y in ys])
    w = [1] * max(count, len(ys)) if weights is None else weights
    yr = [[c * (wn * (dy // y._den)) for c in y._num] if type(y) is LambdaPoly
          else [y.numerator * (wn * (dy // y.denominator))] if y else [] for y, wn in zip(ys, w)]
    out = []
    for j in range(count):
        acc, den = [], 1
        for x, b in zip(xs, yr[j:]):
            a, d = ((x._num, x._den) if type(x) is LambdaPoly
                    else ((x.numerator,) if x else (), x.denominator))
            if den % d:
                s = d // gcd(den, d)
                acc, den = [c * s for c in acc], den * s
            s = den // d
            if len(a) > len(b):
                a, b = b, a
            acc += [0] * (len(a) + len(b) - 1 - len(acc))
            for i, u in enumerate(a):
                if u:
                    u *= s
                    for l, v in enumerate(b, i):
                        acc[l] += u * v
        n = max(0, min(len(xs), len(ys) - j))  # dot(xs, ys[j:]) reads n pairs
        den *= dy * w[j]
        lam = any(type(v) is LambdaPoly for v in (*xs[:n], *ys[j:j + n]))
        out.append(_normalised(acc, den) if lam else Fraction(acc[0], den) if acc else _ZERO)
    return out


def mul_coeffs(a, b, n: int) -> list:
    """The first ``n`` coefficients of the product of ``a`` and ``b``;
    ``n = len(a) + len(b) - 1`` gives the full product."""
    if all(type(c) is Fraction for c in (*a, *b)):  # an exact type test, as in _coerce
        # coefficient k reads a[:k+1] and b[:k+1] only, so both rows grow with k
        ra, rb, out = FractionRow(), FractionRow(), []
        for k in range(n):
            ra.append(a[k] if k < len(a) else _ZERO)
            rb.append(b[k] if k < len(b) else _ZERO)
            out.append(Fraction(sum(map(mul, ra.nums, reversed(rb.nums))), ra.den * rb.den))
        return out
    # coefficient k is a[lo..k] against b[k-lo..0], lo the first index b reaches
    return [dot(a[max(0, k - len(b) + 1):k + 1], b[min(k, len(b) - 1)::-1]) for k in range(n)]


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


def format_terms(coeffs, var: str, den: int = 1) -> str:
    """Render dense coefficients highest degree first, as ``-3/4*x^2 + x - 1``.

    Coefficients are Fractions, LambdaPolys, or ints over the common positive
    denominator ``den``, each reduced by one gcd; every term is written from
    its integer numerator and denominator. A LambdaPoly of degree >= 1 prints
    in parentheses after a ``+``, as ``(lambda + 1)*x``.
    """
    parts: list[str] = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        xs = "" if d == 0 else (var if d == 1 else f"{var}^{d}")
        if type(c) is int:
            g = gcd(c, den)
            p, q = c // g, den // g
        elif type(c) is LambdaPoly:
            if len(c._num) > 1:
                body = f"({c})*{xs}" if xs else f"({c})"
                parts.append(f"+ {body}" if parts else body)
                continue
            p, q = c._num[0], c._den
        else:
            p, q = c.numerator, c.denominator
        mag = p if p > 0 else -p
        if not xs:
            body = _ratio(mag, q)
        else:
            body = xs if mag == 1 and q == 1 else f"{_ratio(mag, q)}*{xs}"
        sign = ("" if p > 0 else "-") if not parts else ("+ " if p > 0 else "- ")
        parts.append(sign + body)
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
    integer rows and divides out one gcd at the end; ``m * p`` for an int m
    scales the row by m/gcd(den, m), which stays canonical, and ``str``
    writes each n_i/den from ints. ``coeffs`` and ``constant_term`` build
    Fractions on demand, off every hot path.
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
        q = Fraction(coeff)  # reduced, so canonical over its own denominator
        return _lp((0,) * degree + (q.numerator,), q.denominator) if q else _lp((), 1)

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
        if type(other) is int:
            # with g = gcd(den, m), m * num / den is canonical over den // g as it is
            g = gcd(self._den, other)
            s = other // g
            return _lp(tuple([c * s for c in self._num]) if s else (), self._den // g)
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
        return format_terms(self._num, "lambda", self._den)

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
