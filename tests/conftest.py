"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library: plain-list
convolution, long division and composition, logarithm and exponential as
power sums, scalar-by-scalar sums of products, derivative-sum operator
action, binomial translation, the triangular Bernoulli recurrence, and
rendering through one reduced Fraction per coefficient.
Library results are checked against these, never against themselves.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

from polybern import families
from polybern.polynomials import Polynomial
from polybern.ring import LambdaPoly
from polybern.series import Series

# The CLI tests run ``python -m polybern`` in a subprocess; point it at this
# checkout's src/, as pyproject's ``pythonpath`` does for pytest itself.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))

# integer exponents for series powers: both signs, both sides of |r| >= 2
EXPONENTS = [-40, -3, -2, -1, 0, 1, 2, 3, 40]


_TABLE = families.table


def perturb_table(monkeypatch, family: str, n0: int, k: int | None = None, r: int = 1):
    """Patch ``families.table`` so that the table of ``family`` at (k, r),
    as the table itself records them, comes back with entry n0 raised by 1.
    Every catalog check, and ``families.polynomial``, reads its tables
    through that name; a later call replaces the earlier patch."""
    def table(*args, **kwargs):
        tbl = _TABLE(*args, **kwargs)
        if (tbl.family, tbl.k, tbl.r) != (family, k, r):
            return tbl
        values = list(tbl.values)
        values[n0] += 1
        return families.SequenceTable(tbl.family, tbl.k, tbl.r, tuple(values))

    monkeypatch.setattr(families, "table", table)


def fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new ``python -S`` process that imports polybern from src/."""
    return subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {_SRC!r})\n{code}"],
        capture_output=True, text=True, timeout=60,
    )


def bernoulli_oracle(count: int) -> list[Fraction]:
    """B_0..B_(count-1), B_1 = -1/2 convention, by Akiyama-Tanigawa."""
    row: list[Fraction] = []
    out: list[Fraction] = []
    for m in range(count):
        row.append(Fraction(1, m + 1))
        for j in range(m, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(row[0])
    if count > 1:
        out[1] = -out[1]  # the recurrence produces the +1/2 convention
    return out


def convolve(a: list, b: list, n: int) -> list:
    """Truncated Cauchy product of plain coefficient lists."""
    out = [Fraction(0)] * n
    for i, ai in enumerate(a[:n]):
        for j in range(min(len(b), n - i)):
            out[i + j] = out[i + j] + ai * b[j]
    return out


def divide_lists(f: list, g: list, n: int) -> list:
    """Long division of coefficient lists; g[0] must be invertible."""
    out: list = []
    for i in range(n):
        acc = f[i] if i < len(f) else Fraction(0)
        for j in range(1, i + 1):
            gj = g[j] if j < len(g) else Fraction(0)
            acc = acc - gj * out[i - j]
        out.append(acc * (1 / Fraction(g[0])) if not isinstance(g[0], LambdaPoly)
                   else acc * (1 / g[0].constant_term))
    return out


def dot_list(xs: list, ys: list):
    """sum_i xs[i] * ys[i], one scalar product and sum at a time."""
    return sum((x * y for x, y in zip(xs, ys)), Fraction(0))


def log_list(f: list) -> list:
    """log f for f_0 = 1 as the power sum sum_k (-1)^(k+1) u^k / k, u = f - 1."""
    return _power_sum(f, lambda k: Fraction((-1) ** (k + 1), k), Fraction(0))


def exp_list(f: list) -> list:
    """exp f for f_0 = 0 as the power sum sum_k f^k / k!."""
    return _power_sum(f, lambda k: Fraction(1, factorial(k)), Fraction(1))


def _power_sum(f: list, weight, constant) -> list:
    """constant + sum_(k>=1) weight(k) u^k with u = f less its constant term;
    u^k vanishes to order k, so k < len(f) suffices."""
    n = len(f)
    u = [Fraction(0)] + list(f[1:])
    out = [constant] + [Fraction(0)] * (n - 1)
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for k in range(1, n):
        power = convolve(power, u, n)
        out = [a + weight(k) * b for a, b in zip(out, power)]
    return out


def pair_list(f: list, p: list):
    """<f|p> = sum_n n! p_n f_n on plain coefficient lists."""
    return sum((factorial(n) * c * f[n] for n, c in enumerate(p)), Fraction(0))


def op_apply_list(f: list, p: list) -> list:
    """f(t) acting on p: sum_k f_k times the k-th derivative of p, one
    derivative and one partial sum at a time."""
    out = [Fraction(0)] * len(p)
    d = list(p)
    for k in range(len(p)):
        for i, c in enumerate(d):
            out[i] = out[i] + f[k] * c
        d = [i * c for i, c in enumerate(d)][1:]
    return out


def shift_list(p: list, y) -> list:
    """p(x + y) by expanding every (x + y)^n binomially."""
    out = [Fraction(0)] * len(p)
    for n, c in enumerate(p):
        for j in range(n + 1):
            out[j] = out[j] + comb(n, j) * y ** (n - j) * c
    return out


def compose_lists(f: list, g: list, n: int) -> list:
    """Brute-force composition of coefficient lists; g[0] must be 0."""
    out = [Fraction(0)] * n
    out[0] = out[0] + f[0]
    power = [Fraction(1)] + [Fraction(0)] * (n - 1)
    for i in range(1, min(len(f), n)):
        power = convolve(power, g, n)
        for m in range(n):
            out[m] = out[m] + f[i] * power[m]
    return out


def rand_fraction(rng: random.Random, span: int = 5) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_series(rng: random.Random, precision: int, *, constant=None) -> Series:
    coeffs = [rand_fraction(rng) for _ in range(precision)]
    if constant is not None:
        coeffs[0] = Fraction(constant)
    return Series(coeffs)


def rand_delta_series(rng: random.Random, precision: int) -> Series:
    coeffs = [Fraction(0)] + [rand_fraction(rng) for _ in range(precision - 1)]
    if not coeffs[1]:
        coeffs[1] = Fraction(1)
    return Series(coeffs)


def rand_lambda_poly(rng: random.Random, max_degree: int = 2) -> LambdaPoly:
    return LambdaPoly([rand_fraction(rng) for _ in range(rng.randint(0, max_degree) + 1)])


def rand_lambda_series(rng: random.Random, precision: int) -> Series:
    return Series([rand_lambda_poly(rng) for _ in range(precision)])


def rand_polynomial(rng: random.Random, max_degree: int = 6) -> Polynomial:
    coeffs = [rand_fraction(rng) for _ in range(rng.randint(0, max_degree) + 1)]
    if not any(coeffs):
        coeffs[0] = Fraction(1)
    return Polynomial(coeffs)


def stirling1_reference(values: list) -> list[list]:
    """Table entry n of f(L), L = log(1 + lambda*t)/lambda, from the table of
    f, as its trimmed lambda coefficient list: [lambda^(n-m)] is
    s(n, m) values[m], with the signed Stirling numbers of the first kind
    s(n, m) = s(n-1, m-1) - (n-1) s(n-1, m) tabulated in Fractions."""
    count = len(values)
    s = [[Fraction(0)] * (count + 1) for _ in range(count + 1)]
    s[0][0] = Fraction(1)
    for n in range(1, count):
        for m in range(1, n + 1):
            s[n][m] = s[n - 1][m - 1] - (n - 1) * s[n - 1][m]
    out = []
    for n in range(count):
        coeffs = [Fraction(0)] * (n + 1)
        for m in range(n + 1):
            coeffs[n - m] = coeffs[n - m] + s[n][m] * Fraction(values[m])
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        out.append(coeffs)
    return out


def _rational_reference(q: Fraction) -> str:
    p, d = q.numerator, q.denominator
    try:
        return str(p) if d == 1 else f"{p}/{d}"
    except ValueError:  # past sys.get_int_max_str_digits()
        return str(Decimal(p)) if d == 1 else f"{Decimal(p)}/{Decimal(d)}"


def _terms_reference(coeffs, var: str) -> str:
    parts = []
    for d in range(len(coeffs) - 1, -1, -1):
        c = coeffs[d]
        if not c:
            continue
        xs = "" if d == 0 else (var if d == 1 else f"{var}^{d}")
        if isinstance(c, LambdaPoly):
            if c.degree > 0:
                inner = render_reference(c)
                body = f"({inner})*{xs}" if xs else f"({inner})"
                parts.append(f"+ {body}" if parts else body)
                continue
            c = c.constant_term
        mag = abs(c)
        if not xs:
            body = _rational_reference(mag)
        else:
            body = xs if mag == 1 else f"{_rational_reference(mag)}*{xs}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts) or "0"


def render_reference(value) -> str:
    """The text of a rational, LambdaPoly, Polynomial or Series written from
    one reduced Fraction per coefficient (``LambdaPoly.coeffs``), with signs
    and units found by comparing Fractions: the oracle for ``str`` and
    ``ring.format_scalar``."""
    if isinstance(value, Series):
        return f"{_terms_reference(value.coeffs, 't')} + O(t^{value.precision})"
    if isinstance(value, Polynomial):
        return _terms_reference(value.coeffs, "x")
    if isinstance(value, LambdaPoly):
        return _terms_reference(value.coeffs, "lambda")
    return _rational_reference(Fraction(value))
