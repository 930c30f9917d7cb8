"""Acceptance suite: one test per criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. Everything is checked at tolerance zero; the only
numeric bounds here are the two runtime budgets.
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial

from conftest import perturb_table, rand_delta_series, rand_polynomial, rand_series
from polybern import families, identities, umbral
from polybern.identities import verify
from polybern.polynomials import Polynomial
from polybern.series import Series
from polybern.umbral import invariant_integral, op_apply, pair

PASS = "PASS"


def _clear_caches():
    for module in (families, identities, umbral):
        for fn in vars(module).values():
            if hasattr(fn, "cache_clear"):
                fn.cache_clear()


def test_criterion_1_collapse_checks():
    _clear_caches()
    start = time.monotonic()
    for n in range(21):
        assert families.polynomial("dpb", n, 22, k=0) == Polynomial.monomial(n)
    beta1 = families.dpb_gf(1, 6).specialize(0)
    values = [factorial(n) * beta1[n] for n in range(5)]
    assert values == [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30)]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"collapse checks took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 (collapse checks, {elapsed:.2f}s): {PASS}")


def test_criterion_2_daehee_convolution():
    report = verify("eq5", nmax=16)
    assert report.passed, report.witness
    print(f"\nACCEPTANCE 2 (Daehee convolution n<=16): {PASS}")


def test_criterion_3_sheffer_orthogonality():
    for k in (-2, 0, 2):
        report = verify("sheffer16", k=k, nmax=10)
        assert report.passed, (k, 1, report.witness)
        for r in (1, 2):
            report = verify("sheffer23", k=k, r=r, nmax=10)
            assert report.passed, (k, r, report.witness)
    print(f"\nACCEPTANCE 3 (Sheffer orthogonality + regeneration): {PASS}")


def test_criterion_4_multinomial_convolution():
    for k in (-1, 1, 2):
        for r in (2, 3):
            report = verify("remark", k=k, r=r, nmax=12)
            assert report.passed, (k, r, report.witness)
    print(f"\nACCEPTANCE 4 (multinomial convolution): {PASS}")


def test_criterion_5_theorem_catalog():
    ys = (Fraction(1), Fraction(-2), Fraction(3, 5))
    for k in range(-2, 4):
        assert verify("thm1", k=k, nmax=12, n_random=2, max_degree=8).passed, k
        assert verify("thm2", k=k, n_random=2, max_degree=8).passed, k
        assert verify("eq18", k=k, nmax=12, ys=ys).passed, k
        for r in (1, 2, 3):
            assert verify("thm3", k=k, r=r, n_random=2, max_degree=8).passed, (k, r)
            assert verify("thm4", k=k, r=r, nmax=12, n_random=2,
                          max_degree=8).passed, (k, r)
    # the h(t) = 1 "reads p(0)" checks, on 50 random polynomials of degree <= 10
    rng = random.Random(0)
    polys = [rand_polynomial(rng, 10) for _ in range(50)]
    n = 12
    expm1 = (Series.t(n).exp() - 1).div(Series.t(n))
    for p in polys:
        assert invariant_integral(op_apply(expm1, p)) == p(0)
        for r in (2, 3):
            assert invariant_integral(op_apply(expm1**r, p), r) == p(0)
    print(f"\nACCEPTANCE 5 (theorem catalog + 50-polynomial p(0) checks): {PASS}")


def test_criterion_6_series_properties_at_order_32():
    start = time.monotonic()
    order = 32
    rng = random.Random(1)

    # reversion round-trips
    for f in (Series.t(order).exp() - 1,
              rand_delta_series(rng, order),
              rand_delta_series(rng, order)):
        fbar = f.revert()
        assert f.compose(fbar) == Series.t(order)
        assert fbar.compose(f) == Series.t(order)

    # composition associativity
    f = rand_series(rng, order)
    g = rand_series(rng, order, constant=0)
    h = rand_series(rng, order, constant=0)
    assert f.compose(g).compose(h) == f.compose(g.compose(h))

    # adjointness of pairing and operator action
    a = rand_series(rng, order)
    b = rand_series(rng, order)
    p = rand_polynomial(rng, order - 1)
    assert pair(a * b, p) == pair(b, op_apply(a, p))
    assert pair(a * b, p) == pair(a, op_apply(b, p))

    # pairing axioms: monomial orthogonality, evaluation, derivatives,
    # Taylor reconstruction of both p and f
    tpow = Series.one(order)
    t_series = Series.t(order)
    for k in range(6):
        for m in range(6):
            assert pair(tpow, Polynomial.monomial(m)) == (
                factorial(m) if m == k else 0)
        tpow = tpow * t_series
    y = Fraction(-3, 7)
    eyt = (t_series * y).exp()
    assert pair(eyt, p) == p(y)
    assert op_apply(eyt, p) == p.shift(y)
    for k in range(4):
        assert pair(Series.t(order) ** k, p) == p.derivative(k)(0)
        assert op_apply(Series.t(order) ** k, p) == p.derivative(k)
    rebuilt = Polynomial(
        [pair(Series.t(order) ** k, p) / factorial(k) for k in range(p.degree + 1)])
    assert rebuilt == p
    rebuilt_f = Series(
        [pair(a, Polynomial.monomial(k)) / factorial(k) for k in range(order)])
    assert rebuilt_f == a

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"series property suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 6 (series properties at order 32, {elapsed:.2f}s): {PASS}")


def test_criterion_7_mutation_sensitivity(monkeypatch):
    p = 10
    nmax = 8
    sizes = dict(order=p, nmax=nmax)
    # (family, k, r) of the perturbed table, then each (id, arguments) that must see it
    targets = [
        (("dpb", 1, 1), [("eq5", sizes)]),
        (("daehee", None, 1), [("eq5", sizes)]),
        (("carlitz", None, 1), [("eq5", sizes)]),
        (("dpb", 2, 1), [("eq17", dict(sizes, k=2)), ("remark", dict(sizes, k=2, r=2))]),
        (("dpb-higher", 2, 2), [("remark", dict(sizes, k=2, r=2)),
                                ("thm4", dict(sizes, k=2, r=2, n_random=1, max_degree=5))]),
    ]
    for n0 in range(nmax + 1):
        for (family, k, r), checks in targets:
            perturb_table(monkeypatch, family, n0, k=k, r=r)
            for ident, kw in checks:
                w = verify(ident, **kw).witness
                assert w is not None and w.n == n0 and w.lhs != w.rhs, (family, ident, n0)
    print(f"\nACCEPTANCE 7 (mutation sensitivity, witnesses correct): {PASS}")


def _run_cli(*args):
    return subprocess.run([sys.executable, "-m", "polybern", *args],
                          capture_output=True, text=True, timeout=300)


def test_criterion_8_cli_contract():
    cases = [
        (("table", "daehee", "--n", "4"),
         "n  value\n0  1\n1  -1/2\n2  2/3\n3  -3/2\n"),
        (("table", "dpb", "--k", "0", "--n", "6"),
         "n  value\n0  1\n1  0\n2  0\n3  0\n4  0\n5  0\n"),
        (("table", "carlitz", "--n", "3", "--lambda", "0"),
         "n  value\n0  1\n1  -1/2\n2  1/6\n"),
        (("eval", "t/(elam(1)-1)", "--order", "3"),
         "n  coefficient            sequence\n"
         "0  1                      1\n"
         "1  1/2*lambda - 1/2       1/2*lambda - 1/2\n"
         "2  -1/12*lambda^2 + 1/12  -1/6*lambda^2 + 1/6\n"),
        (("eval", "1", "--order", "3"),
         "n  coefficient  sequence\n0  1            1\n"
         "1  0            0\n2  0            0\n"),
        (("eval", "elam(1)*elam(-1)", "--order", "6"),
         "n  coefficient  sequence\n0  1            1\n1  0            0\n"
         "2  0            0\n3  0            0\n4  0            0\n"
         "5  0            0\n"),
    ]
    for args, expected in cases:
        proc = _run_cli(*args)
        assert proc.returncode == 0, (args, proc.stderr)
        assert proc.stdout == expected, (args, proc.stdout)

    assert _run_cli("verify", "remark", "--k", "2", "--r", "3",
                    "--n", "10").returncode == 0
    assert _run_cli("verify", "li(1, 1-elam(-1)) == log(1+lambda*t)/lambda",
                    "--order", "12").returncode == 0
    proc = _run_cli("verify", "t == t + 1", "--order", "4")
    assert proc.returncode == 1
    assert "n=0" in proc.stdout
    assert _run_cli("verify", "no-such-identity").returncode == 2
    assert _run_cli("eval", "t +").returncode == 2
    assert _run_cli("table", "daehee").returncode == 2
    print(f"\nACCEPTANCE 8 (CLI byte-exact examples + exit codes): {PASS}")
