"""Independent routes for the benchmark's golden references.

None of this touches the series kernel: numbers come from closed forms
and recurrences over plain ``Fraction``. A value in Q[lambda] is a list of
Fractions indexed by lambda-degree with trailing zeros trimmed, so it can
be compared with any scalar the library returns via ``as_lambda_list``.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def trim(coeffs) -> list:
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def as_lambda_list(value) -> list:
    """A library scalar (Fraction or LambdaPoly) as a trimmed lambda-list."""
    coeffs = getattr(value, "coeffs", None)
    return trim([value] if coeffs is None else coeffs)


def _lmul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _ladd(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, y in enumerate(b):
        out[i] += y
    return out


def stirling2(count: int) -> list[list[int]]:
    """S(n, m) for 0 <= m <= n < count."""
    s = [[0] * count for _ in range(count)]
    s[0][0] = 1
    for n in range(1, count):
        for m in range(1, n + 1):
            s[n][m] = m * s[n - 1][m] + s[n - 1][m - 1]
    return s


def stirling1(count: int) -> list[list[int]]:
    """Signed Stirling numbers of the first kind s(n, m)."""
    s = [[0] * count for _ in range(count)]
    s[0][0] = 1
    for n in range(1, count):
        for m in range(1, n + 1):
            s[n][m] = s[n - 1][m - 1] - (n - 1) * s[n - 1][m]
    return s


def bernoulli_triangular(count: int) -> list[Fraction]:
    """B_0..B_(count-1) from sum_j C(m+1, j) B_j = 0, so B_1 = -1/2."""
    out: list[Fraction] = []
    for m in range(count):
        if m == 0:
            out.append(Fraction(1))
            continue
        acc = sum(comb(m + 1, j) * out[j] for j in range(m))
        out.append(-acc / (m + 1))
    return out


def daehee_closed(count: int) -> list[Fraction]:
    """n! [t^n] log(1+t)/t = (-1)^n n!/(n+1)."""
    return [Fraction((-1) ** n * factorial(n), n + 1) for n in range(count)]


def kaneko(k: int, count: int) -> list[Fraction]:
    """Kaneko's B_n^(k) = (-1)^n sum_m (-1)^m m! S(n,m)/(m+1)^k, shifted by -1.

    Kaneko's generating function is Li_k(1-e^-t)/(1-e^-t); the library's
    is that times e^-t, hence the binomial shift sum_j C(n,j)(-1)^(n-j) B_j.
    """
    s2 = stirling2(count)
    weight = [Fraction(m + 1) ** -k for m in range(count)]
    b = [
        (-1) ** n * sum((-1) ** m * factorial(m) * s2[n][m] * weight[m] for m in range(n + 1))
        for n in range(count)
    ]
    return [sum(comb(n, j) * (-1) ** (n - j) * b[j] for j in range(n + 1)) for n in range(count)]


def dpb_stirling(k: int, count: int) -> list[list]:
    """D_n^(k)(lambda) = sum_m s(n,m) lambda^(n-m) PB_m^(k), as lambda-lists.

    dpb_gf is poly_bernoulli_gf composed with log(1+lambda*t)/lambda, and the
    t^n coefficient of that inner series' m-th power is one lambda monomial.
    """
    s1 = stirling1(count)
    pb = kaneko(k, count)
    out = []
    for n in range(count):
        row = [Fraction(0)] * (n + 1)
        for m in range(n + 1):
            row[n - m] = s1[n][m] * pb[m]
        out.append(trim(row))
    return out


def exp_convolution_power(values: list[list], r: int) -> list[list]:
    """Entries of (sum_n v_n t^n/n!)^r, each a lambda-list."""
    out = values
    for _ in range(r - 1):
        out = [
            trim(
                _sum_lists(
                    [[comb(n, j) * c for c in _lmul(out[j], values[n - j])] for j in range(n + 1)]
                )
            )
            for n in range(len(values))
        ]
    return out


def _sum_lists(rows: list[list]) -> list:
    acc: list = []
    for row in rows:
        acc = _ladd(acc, row)
    return acc


def binomial_poly_coeffs(values: list[list], n: int) -> list[list]:
    """Coefficients in x (low degree first) of sum_l C(n,l) v_l x^(n-l)."""
    return [trim([comb(n, n - d) * c for c in values[n - d]]) for d in range(n + 1)]
