"""Polynomials in a single variable x over Q or Q[lambda]: a ``ring.DenseRow``
whose sums keep the longer row and whose products keep every term, trimmed
of trailing zeros. Each coefficient of a translate is one ``ring.dot``."""

from __future__ import annotations

from math import comb

from .ring import (
    _ZERO,
    DenseRow,
    coerce_scalar,
    dot,
    format_terms,
    horner,
    power,
    trim,
)

__all__ = ["Polynomial"]


class Polynomial(DenseRow):
    """Dense polynomial in x, low degree first, trailing zeros trimmed."""

    __slots__ = ()

    def __init__(self, coeffs=()):
        self._coeffs = self._fit([coerce_scalar(c) for c in coeffs])

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
    def degree(self) -> int:
        return len(self._coeffs) - 1

    def coefficient(self, n: int):
        return self._coeffs[n] if n <= self.degree else _ZERO

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- ring operations: DenseRow's, trimmed and at full length ------------

    @staticmethod
    def _fit(coeffs: list) -> tuple:
        return tuple(trim(coeffs))

    _sum_length = max

    @staticmethod
    def _product_length(m: int, n: int) -> int:
        return m + n - 1

    # bench/tracer.py patches these names in the class's own namespace
    __mul__ = DenseRow.__mul__
    specialize = DenseRow.specialize

    def __truediv__(self, other):
        # a nonzero int divides each coefficient as it is, with no Fraction built
        c = other if type(other) is int and other else coerce_scalar(other)
        return Polynomial._of([x / c for x in self._coeffs])

    def __pow__(self, n: int) -> Polynomial:
        if not isinstance(n, int) or n < 0:
            raise ValueError("polynomial powers take a non-negative integer")
        return power(self, n, Polynomial.constant(1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        return self._coeffs == other._coeffs

    def derivative(self, k: int = 1) -> Polynomial:
        if k < 0:
            raise ValueError("derivative order must be >= 0")
        p = self
        for _ in range(k):
            p = DenseRow.derivative(p)
        return p

    def __call__(self, y):
        """Evaluate at a scalar (Horner)."""
        return horner(self._coeffs, coerce_scalar(y))

    def shift(self, y) -> Polynomial:
        """The polynomial q with q(x) = p(x + y), by binomial re-expansion:
        q_j = sum_m C(m+j, j) y^m p_(m+j), one ``dot`` of the powers y^m with
        p under small int weights, from the top degree down: the denominators
        of an Appell row fall with the degree, so ``dot``'s common denominator
        grows only at the end."""
        y = coerce_scalar(y)
        if not y:
            return self
        n = len(self._coeffs)
        top = self._coeffs[::-1]
        ys = [y ** m for m in range(n - 1, 0, -1)] + [1]  # y^(n-1), ..., y, 1
        return Polynomial._of([dot(ys[j:], top, [comb(m + j, j) for m in range(n - 1 - j, -1, -1)])
                               for j in range(n)])

    def __str__(self) -> str:
        return format_terms(self._coeffs, "x")
