"""Shared oracles and generators for the test suite.

The oracles here are deliberately independent of the library: plain-list
convolution, long division and composition, and the triangular Bernoulli
recurrence. Library results are checked against these, never against
themselves.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from polybern.polynomials import Polynomial
from polybern.ring import LambdaPoly
from polybern.series import Series

# The CLI tests run ``python -m polybern`` in a subprocess; point it at this
# checkout's src/, as pyproject's ``pythonpath`` does for pytest itself.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


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
