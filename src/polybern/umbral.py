"""Umbral pairing <f(t)|p(x)>, operator action, and the Bernoulli functional.

A series f acts on polynomials two ways: as a linear functional via
<f|p> = sum_n p_n * n! * [t^n]f, and as an operator via t^k p = p^(k).
A pairing is one ``ring.dot`` over the row n! p_n (``families._values``),
on which t^k is a shift by k; each coefficient of an action is one
``ring.dot`` too, reduced once, its pairs summed from the end of the rows
that holds the smaller coefficients.
The measure-style integral on polynomials is realized exactly as the
pairing against (t/(e^t - 1))^r, which takes x^n to the Bernoulli number
B_n when r = 1.
The Sheffer check, like every catalog entry, yields ``(n, lhs, rhs)``
cases for ``identities._first_failure`` to compare.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from . import families
from .errors import NotDelta, NotInvertible, PolybernError, PrecisionExceeded
from .polynomials import Polynomial
from .ring import LambdaPoly, dot
from .series import Series, invert_constant, precision_cache

__all__ = [
    "pair",
    "op_apply",
    "bernoulli_operator",
    "invariant_integral",
    "sheffer_regenerate",
    "sheffer_cases",
]


def _check_precision(f: Series, p: Polynomial, what: str):
    if p.degree >= f.precision:
        raise PrecisionExceeded(
            f"{what} needs series precision > polynomial degree "
            f"({f.precision} <= {p.degree})"
        )


def pair(f: Series, p: Polynomial):
    """<f(t)|p(x)> = sum_n p_n * n! * [t^n] f."""
    _check_precision(f, p, "pairing")
    return dot(families._values(p.coeffs), f)


def op_apply(f: Series, p: Polynomial) -> Polynomial:
    """f(t) acting on p: sum_k ([t^k]f) * (k-th derivative of p), whose x^j
    coefficient is sum_k f_k (j+k)!/j! p_(j+k), one ``dot`` of f with p."""
    _check_precision(f, p, "operator action")
    c = p.coeffs
    n = len(c)
    # each dot starts at the end of the rows with the smaller entries: the
    # larger ones come last, so the running denominator that scales every
    # term stays small until then
    if n > 1 and _height(f[n - 1]) + _height(c[-1]) < _height(f[0]) + _height(c[0]):
        fr, cr = f.coeffs[n - 1::-1], c[::-1]
        return Polynomial._of([dot(fr[j:], cr[:n - j], [perm(j + k, k) for k in range(n - 1 - j, -1, -1)])
                               for j in range(n)])
    return Polynomial._of([dot(f.coeffs, c[j:], [perm(j + k, k) for k in range(n - j)])
                           for j in range(n)])


def _height(x) -> int:
    """Bits of the denominator and of the largest numerator of a coefficient."""
    if type(x) is LambdaPoly:
        return x._den.bit_length() + max([c.bit_length() for c in x._num], default=0)
    return x.denominator.bit_length() + x.numerator.bit_length()


@precision_cache
def bernoulli_operator(r: int, precision: int) -> Series:
    """(t/(e^t - 1))^r at the given precision."""
    return families.bernoulli_gf(precision) ** r


def invariant_integral(p: Polynomial, r: int = 1):
    """Pairing of p against (t/(e^t - 1))^r; x^n with r = 1 gives B_n."""
    families.check_r(r)
    return pair(bernoulli_operator(r, p.degree + 1), p)


def _sheffer_preconditions(g: Series, f: Series):
    if f[0] or f.precision < 2 or invert_constant(f[1]) is None:
        raise NotDelta("f must be a delta series (order exactly 1)")
    if invert_constant(g[0]) is None:
        raise NotInvertible("g must have an invertible constant term")


def sheffer_regenerate(g: Series, f: Series, count: int) -> list[Polynomial]:
    """First ``count`` polynomials generated by (1/g(fbar(t))) e^{x fbar(t)}.

    fbar is the compositional inverse of f; the coefficient of x^m in the
    n-th polynomial is n!/m! times [t^n] of (1/g(fbar)) * fbar^m.
    """
    _sheffer_preconditions(g, f)
    if count > min(g.precision, f.precision):
        raise PrecisionExceeded("not enough series precision to regenerate")
    fbar = f.revert()
    h = Series.one(g.precision).div(g.compose(fbar))
    rows = [h]  # row m is h * fbar^m
    for _ in range(1, count):
        rows.append(rows[-1] * fbar)
    return [Polynomial([Fraction(factorial(n), factorial(m)) * rows[m][n] for m in range(n + 1)])
            for n in range(count)]


def sheffer_cases(g: Series, f: Series, s: list[Polynomial], nmax: int):
    """The ``(n, lhs, rhs)`` cases of the Sheffer check for s_0..s_nmax:
    (<g f^k | s_n>, n! delta_{n,k}) for orthogonality, then (s_n regenerated
    from g and f, s_n). The preconditions are checked at the call."""
    _sheffer_preconditions(g, f)
    if len(s) <= nmax:
        raise PolybernError(f"need polynomials up to index {nmax}, got {len(s)}")
    for n in range(nmax + 1):
        if s[n].degree != n:
            raise PolybernError(f"s_{n} must have degree {n}, got {s[n].degree}")
    rows = [families._values(p.coeffs) for p in s[:nmax + 1]]

    def cases():
        gfk = g
        for k in range(nmax + 1):
            for n in range(nmax + 1):
                _check_precision(gfk, s[n], "pairing")
                yield n, dot(rows[n], gfk), Fraction(factorial(n)) if n == k else Fraction(0)
            if k < nmax:
                gfk = gfk * f
        regen = sheffer_regenerate(g, f, nmax + 1)
        for n in range(nmax + 1):
            yield n, regen[n], s[n]
    return cases()
