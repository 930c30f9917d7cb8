"""Polynomials in a single variable x over Q or Q[lambda], on the dense
coefficient kernel of ``ring``; each coefficient of a translate is one
``ring.dot``."""

from __future__ import annotations

from itertools import zip_longest
from math import comb

from .ring import (
    _ZERO,
    add_coeffs,
    coerce_scalar,
    dot,
    format_terms,
    horner,
    lambda_eval,
    mul_coeffs,
    power,
    trim,
)

__all__ = ["Polynomial"]


class Polynomial:
    """Dense polynomial in x, low degree first, trailing zeros trimmed."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs=()):
        self._coeffs = tuple(trim([coerce_scalar(c) for c in coeffs]))

    @classmethod
    def _of(cls, coeffs: list) -> Polynomial:
        """Fractions and LambdaPolys the kernel built, trimmed and stored uncoerced."""
        p = object.__new__(cls)
        p._coeffs = tuple(trim(coeffs))
        return p

    @classmethod
    def constant(cls, value) -> Polynomial:
        return cls((coerce_scalar(value),))

    @classmethod
    def monomial(cls, degree: int, coeff=1) -> Polynomial:
        if degree < 0:
            raise ValueError("monomial degree must be >= 0")
        return cls((0,) * degree + (coerce_scalar(coeff),))

    @classmethod
    def x(cls) -> Polynomial:
        return cls((0, 1))

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    @property
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int):
        return self._coeffs[n] if n <= self.degree else _ZERO

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return Polynomial._of(add_coeffs(self._coeffs, other._coeffs))

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial._of([-c for c in self._coeffs])

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return Polynomial._of([a - b for a, b in zip_longest(self._coeffs, other._coeffs,
                                                             fillvalue=_ZERO)])

    def __rsub__(self, other):
        return Polynomial.constant(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            c = coerce_scalar(other)
            return Polynomial._of([c * x for x in self._coeffs])
        a, b = self._coeffs, other._coeffs
        return Polynomial._of(mul_coeffs(a, b, len(a) + len(b) - 1))

    def __rmul__(self, other):
        return self * other

    def __truediv__(self, other):
        c = coerce_scalar(other)
        return Polynomial._of([x / c for x in self._coeffs])

    def __pow__(self, n: int) -> Polynomial:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take a non-negative integer")
        return power(self, n, Polynomial.constant(1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self._coeffs == other._coeffs

    __hash__ = None

    def derivative(self, k: int = 1) -> Polynomial:
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(k):
            p = Polynomial._of([(i + 1) * p._coeffs[i + 1] for i in range(len(p._coeffs) - 1)])
        return p

    def __call__(self, y):
        """Evaluate at a scalar (Horner)."""
        return horner(self._coeffs, coerce_scalar(y))

    def shift(self, y) -> Polynomial:
        """The polynomial q with q(x) = p(x + y), by binomial re-expansion:
        q_j = sum_m C(m+j, j) y^m p_(m+j), one ``dot`` of the powers y^m with
        p under small int weights."""
        y = coerce_scalar(y)
        if not y:
            return self
        p = self._coeffs
        ys = [1] + [y ** m for m in range(1, len(p))]
        return Polynomial._of([dot(ys, p[j:], [comb(m + j, j) for m in range(len(p) - j)])
                               for j in range(len(p))])

    def specialize(self, v) -> Polynomial:
        """Substitute lambda := v in every coefficient."""
        return Polynomial._of([lambda_eval(c, v) for c in self._coeffs])

    def __str__(self) -> str:
        return format_terms(self._coeffs, "x")

    def __repr__(self) -> str:
        return f"Polynomial({self})"
