"""Exact scalars, the ring Q[lambda], and the dense coefficient kernel.

Rationals are stdlib ``fractions.Fraction`` values, which are always stored
fully reduced with a positive denominator, so equality is structural.
``LambdaPoly`` is a dense polynomial in the indeterminate ``lambda`` over Q,
stored as a row of integer numerators over one positive common denominator and
kept canonical (no trailing zero, the gcd of the denominator and all
numerators is 1). Its arithmetic runs on the integer rows and renders from
them, with no Fraction per coefficient except in ``divide_exact``, which
divides over ``coeffs``. ``str`` is one loop of its own over the row: one
gcd per nonzero entry, a precomputed suffix per power of lambda, and no
call or type test per term; only a term past the int/str digit limit goes
through ``_ratio``, which holds the one ``Decimal`` fallback. A sum or
difference (one signed pass) or a product of two rows divides out one gcd
of the whole result; scaling by a rational p/q (an int, a Fraction, or a
division) divides out only the cross gcds gcd(den, p) and gcd(q, *num), as
the row is canonical already. Plain
rationals embed implicitly as degree-0 polynomials, so mixed arithmetic needs
no explicit coercion at call sites.

This module also owns the dense coefficient kernel that ``Polynomial``
(Q[lambda][x]) and ``Series`` (truncated series in t) share over their
Fraction or LambdaPoly coefficients: trimming, addition, truncated
multiplication, Horner evaluation and powers of rows stored low degree
first, and ``DenseRow``, which defines both classes' sums, differences,
negation, scalar and row products, derivative and ``specialize`` once,
each class giving only its length rule. Over Q, as in ``LambdaPoly``, a
product (and the one recurrence and the Stirling-1 transform of
``series``) runs on ``FractionRow``s of integers and reduces each output
coefficient once. Over Q[lambda] and mixed rows, each sum of products
behind an output coefficient (of a product, a pairing, an operator action,
a translate or that recurrence) is one ``dot``: weighted integer rows
summed over a running common denominator and reduced once, not once per
term. ``dot`` and every ``LambdaPoly`` product share one inner loop, the
integer-row multiply-accumulate ``_mac``; ``dot`` adds a Q scalar against a
row straight into its accumulator.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from itertools import repeat, zip_longest
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


def _mac(acc: list, a, b, s: int) -> list:
    """``acc += s * (a convolved with b)`` for integer rows, ``acc`` grown in
    place and returned: the one inner loop of every product and sum of
    products over Q[lambda]."""
    if len(a) > len(b):
        a, b = b, a
    acc += [0] * (len(a) + len(b) - 1 - len(acc))
    for i, u in enumerate(a):
        if u:
            u *= s
            for j, v in enumerate(b, i):
                acc[j] += u * v
    return acc


def dot(xs, ys, weights=None, divisor: int = 1):
    """``sum_i weights[i] * xs[i] * ys[i] / divisor`` over Fractions, ints and
    LambdaPolys (int weights, all 1 if None; a positive int divisor), summed
    as integer rows over a running common denominator and reduced once: a
    Fraction when every input is a Q scalar, else a LambdaPoly."""
    acc, den, in_q = [], 1, True
    for x, y, w in zip(xs, ys, repeat(1) if weights is None else weights):
        # a LambdaPoly gives its integer row, a Q scalar one int numerator
        if type(x) is LambdaPoly:
            a, da, in_q = x._num, x._den, False
        else:
            a, da = x.numerator, x.denominator
        if type(y) is LambdaPoly:
            b, db, in_q = y._num, y._den, False
        else:
            b, db = y.numerator, y.denominator
        if not (a and b and w):
            continue
        d = da * db
        if den % d:
            s = d // gcd(den, d)
            acc = [c * s for c in acc]
            den *= s
        s = den // d * w
        if type(a) is int:
            a, b = b, a
        if type(b) is not int:
            _mac(acc, a, b, s)
            continue
        # a Q scalar against a row or a scalar: added straight into acc
        s *= b
        if type(a) is int:
            a = (a,)
        if len(acc) < len(a):
            acc += [0] * (len(a) - len(acc))
        for j, v in enumerate(a):
            acc[j] += s * v
    den *= divisor
    if in_q:
        return Fraction(acc[0], den) if acc else _ZERO
    return _normalised(acc, den)


def mul_coeffs(a, b, n: int) -> list:
    """The first ``n`` coefficients of the product of ``a`` and ``b``;
    ``n = len(a) + len(b) - 1`` gives the full product."""
    if all(type(c) is Fraction for c in (*a, *b)):  # an exact type test, as in _as_fraction
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


def format_terms(coeffs, var: str) -> str:
    """Render dense coefficients highest degree first, as ``-3/4*x^2 + x - 1``.

    Coefficients are Fractions or LambdaPolys; every term is written from its
    integer numerator and denominator. A LambdaPoly of degree >= 1 prints in
    parentheses after a ``+``, as ``(lambda + 1)*x``.
    """
    parts: list[str] = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        xs = "" if d == 0 else (var if d == 1 else f"{var}^{d}")
        if type(c) is LambdaPoly:
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
    # the exact types first: isinstance against Fraction goes through the numbers ABCs
    if type(value) in (Fraction, LambdaPoly):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, LambdaPoly)):
        return value
    raise TypeError(f"not a Q or Q[lambda] coefficient: {value!r}")


class DenseRow:
    """Fraction or LambdaPoly coefficients, low degree first, with the
    arithmetic ``Series`` and ``Polynomial`` share. A subclass gives its
    length rule: ``_fit`` stores a built row (a scalar c is ``_fit([c])``),
    and ``_sum_length`` and ``_product_length`` map the lengths of two rows
    to that of their sum and product. A row of the other subclass is no
    scalar: ``coerce_scalar`` refuses it."""

    __slots__ = ("_coeffs",)

    @classmethod
    def _of(cls, coeffs):
        """Fractions and LambdaPolys the kernel built, stored uncoerced."""
        row = object.__new__(cls)
        row._coeffs = cls._fit(coeffs)
        return row

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def __add__(self, other):
        a = self._coeffs
        if isinstance(other, type(self)):
            n = self._sum_length(len(a), len(other._coeffs))
            return self._of(add_coeffs(a[:n], other._coeffs[:n]))
        return self._of(add_coeffs(a, self._fit([coerce_scalar(other)])))

    __radd__ = __add__

    def __neg__(self):
        return self._of([-c for c in self._coeffs])

    def __sub__(self, other):
        a = self._coeffs
        if isinstance(other, type(self)):
            n = self._sum_length(len(a), len(other._coeffs))
            return self._of([x - y for x, y in zip_longest(a[:n], other._coeffs[:n],
                                                           fillvalue=_ZERO)])
        return self + -coerce_scalar(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a = self._coeffs
        if isinstance(other, type(self)):
            b = other._coeffs
            return self._of(mul_coeffs(a, b, self._product_length(len(a), len(b))))
        c = coerce_scalar(other)
        return self._of([c * x for x in a])

    def __rmul__(self, other):
        return self * other

    def derivative(self):
        """One derivative: coefficient i is (i + 1) c_(i+1), one row shorter."""
        return self._of([i * c for i, c in enumerate(self._coeffs[1:], 1)])

    def specialize(self, v):
        """Substitute lambda := v in every coefficient (exact)."""
        return self._of([lambda_eval(c, v) for c in self._coeffs])

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


def _as_fraction(value) -> Fraction | int | None:
    """A Q scalar as it is, read through ``numerator`` and ``denominator``
    (a Fraction or an int), or None."""
    # the exact types first: isinstance against Fraction goes through the numbers ABCs
    if type(value) in (Fraction, int) or isinstance(value, (int, Fraction)):
        return value
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


def _combine(p: LambdaPoly, q: LambdaPoly, sign: int) -> LambdaPoly:
    """``p + sign*q`` for sign 1 or -1: one pass over both rows, one gcd."""
    a, b = p._num, q._num
    if not b:
        return p
    if not a:
        return q if sign == 1 else -q
    g = gcd(p._den, q._den)
    sa, sb = q._den // g, p._den // g * sign
    if len(a) < len(b):  # the longer row, scaled, takes the shorter one in place
        a, b, sa, sb = b, a, sb, sa
    out = list(a) if sa == 1 else [x * sa for x in a]
    for i, y in enumerate(b):
        out[i] += y * sb
    return _normalised(out, p._den // g * q._den)


def _scaled(x: LambdaPoly, p: int, q: int) -> LambdaPoly:
    """``x * p/q`` for coprime ints p and q > 0, canonical as built: with
    g1 = gcd(den, p) and g2 = gcd(q, *num), the row num/g2 * p/g1 over
    den/g1 * q/g2 keeps, for each prime of its denominator, an entry that
    the prime does not divide, because gcd(den, *num) = 1."""
    if not p:
        return _lp((), 1)
    num, den = x._num, x._den
    g1 = gcd(den, p)
    g2 = gcd(q, *num) if q != 1 else 1
    s = p // g1
    if g2 != 1:
        num = tuple([c // g2 * s for c in num])
    elif s != 1:
        num = tuple([c * s for c in num])
    return _lp(num, den // g1 * (q // g2))


class LambdaPoly:
    """Polynomial in lambda over Q: integer numerators over one denominator.

    The value ``(n_0 + n_1*lambda + ... + n_d*lambda^d) / den`` is stored as
    the tuple ``_num = (n_0, ..., n_d)`` of ints and one int ``_den``.
    Values are immutable and kept canonical, so equality is structural:
    ``_den > 0``, ``_num`` has no trailing zero, ``gcd(_den, *_num) == 1``,
    and the zero polynomial is ``((), 1)``. Every operation but
    ``divide_exact`` works on the integer rows. A sum or difference (one
    signed pass over both rows) or a product of two rows divides out one gcd
    at the end. A scalar p/q (an int or a Fraction factor, an int or a
    Fraction divisor, taken as its inverse) needs no gcd over the result:
    with g1 = gcd(den, p) and g2 = gcd(q, *num), the row num/g2 * p/g1 over
    den/g1 * q/g2 is canonical as built. ``str`` writes each n_i/den from ints. ``coeffs``
    and ``constant_term`` build Fractions on demand, off every hot path.
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
        q = _as_fraction(other)
        if q is None:
            return None
        return _lp((q.numerator,) if q else (), q.denominator)

    def __add__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(self, rhs, 1)

    __radd__ = __add__

    def __neg__(self) -> LambdaPoly:
        return _lp(tuple([-c for c in self._num]), self._den)

    def __sub__(self, other):
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _combine(self, rhs, -1)

    def __rsub__(self, other):
        lhs = self._coerce(other)
        if lhs is None:
            return NotImplemented
        return _combine(lhs, self, -1)

    def __mul__(self, other):
        if type(other) is int:
            return _scaled(self, other, 1)
        if type(other) is Fraction:
            return _scaled(self, other.numerator, other.denominator)
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return _normalised(_mac([], self._num, rhs._num, 1), self._den * rhs._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        q = _as_fraction(other)
        if q is None:
            return NotImplemented
        m, d = q.numerator, q.denominator  # self / (m/d) is self * d/m
        if not m:
            raise ZeroDivisionError("Fraction(1, 0)")  # as inverting a zero Fraction does
        return _scaled(self, -d, -m) if m < 0 else _scaled(self, d, m)

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
        """The row in ``format_terms``' grammar, written in one pass: each
        nonzero n_d/den reduced by one gcd and written with the precomputed
        suffix of lambda^d, the signs joined as they go and the first one
        fixed at the end. A term past the int/str digit limit is written in
        place by ``_ratio``'s ``Decimal`` fallback."""
        num, den = self._num, self._den
        if not num:
            return "0"
        suffix = _LAMBDA_POWERS
        while len(suffix) < len(num):
            suffix.append(f"*lambda^{len(suffix)}")
        parts = []
        for d in range(len(num) - 1, -1, -1):
            c = num[d]
            if not c:
                continue
            g = gcd(c, den)
            q = den // g
            if c > 0:
                sign, p = " + ", c // g
            else:
                sign, p = " - ", -c // g
            if q == 1 and p == 1 and d:  # a unit coefficient: lambda^d alone
                parts.append(sign + suffix[d][1:])
                continue
            try:
                parts.append(f"{sign}{p}/{q}{suffix[d]}" if q != 1 else f"{sign}{p}{suffix[d]}")
            except ValueError:  # past the int/str digit limit
                parts.append(f"{sign}{_ratio(p, q)}{suffix[d]}")
        text = "".join(parts)
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __repr__(self) -> str:
        return f"LambdaPoly({self})"


LAMBDA = LambdaPoly.monomial(1)

# the suffix of the term of lambda^d in ``LambdaPoly.__str__``, grown on demand
_LAMBDA_POWERS = ["", "*lambda"]


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
