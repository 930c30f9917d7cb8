"""One digest of the exact output of the series operations on a seeded
corpus over Q, Q[lambda] and mixed rows up to order 12: the type name and
``format_scalar`` text of every coefficient of ``*``, ``div``, ``**`` over
EXPONENTS, ``log``, ``exp``, ``compose`` and ``revert``, and the type and
message of every error they raise. A second digest, OUTPUT_DIGEST, covers
rendered text: ``format_scalar`` of family tables, ``str`` of family
polynomials and in-process ``cli.main`` stdout in every format. A third,
FAMILY_DIGEST, covers the type and text of every entry of every family table
and every coefficient of every ``*_gf`` builder over a grid of k, r and
sizes. A kernel, family or render change that keeps every output keeps all
three; a deliberate change of output records the new digest here and its
reason in CHANGES.md."""

import contextlib
import hashlib
import io
import random
from fractions import Fraction

from conftest import EXPONENTS
from polybern import cli, families
from polybern.errors import PolybernError
from polybern.ring import LAMBDA, LambdaPoly, format_scalar
from polybern.series import Series

DIGEST = "885b152b38829d1fa3946230591531da71fcf8aaca8fd8dd8a2e7dfeea54c884"
DENOMINATORS = (1, 2, 3, 7, 3**20, 2**61)


def scalar(rng: random.Random, ring: str):
    if ring == "mixed":
        ring = rng.choice(("q", "lambda"))
    if ring == "q":
        return Fraction(rng.randint(-9, 9), rng.choice(DENOMINATORS))
    return LambdaPoly([scalar(rng, "q") for _ in range(rng.randint(1, 3))])


def corpus():
    """(ring, f, g) triples: two pairs of rows per ring and order 1..12, the
    constant term of g drawn as it falls or set to 1, 0 or lambda + 1 in turn."""
    rng = random.Random(20261019)
    heads = (None, 1, 0, LAMBDA + 1)
    for ring in ("q", "lambda", "mixed"):
        for n in range(1, 13):
            for head in (heads[n % 4], heads[(n + 1) % 4]):
                f = [scalar(rng, ring) for _ in range(n)]
                g = [scalar(rng, ring) for _ in range(n)]
                if head is not None and (ring != "q" or head != LAMBDA + 1):
                    g[0] = head
                yield ring, Series(f), Series(g)


def outputs(f: Series, g: Series):
    """(name, thunk) for every operation the digest covers on f and g."""
    n = f.precision
    unit = Series([1, *f.coeffs[1:]])
    delta = Series([0, *g.coeffs[1:]])
    yield "mul", lambda: f * g
    yield "div", lambda: f.div(g)
    yield "div exact", lambda: (f * g).div(g)
    yield "div by t", lambda: Series([0, *f.coeffs[1:]]).div(delta)
    for r in EXPONENTS:
        yield f"pow {r}", lambda r=r: g ** r
    yield "log", lambda: f.log()
    yield "log unit", lambda: unit.log()
    yield "exp", lambda: f.exp()
    yield "exp delta", lambda: delta.exp()
    yield "exp delta mixed", lambda: Series([0, LAMBDA, *f.coeffs[2:]], n).exp()
    yield "compose", lambda: f.compose(delta)
    yield "revert", lambda: delta.revert()


def record(thunk) -> str:
    try:
        value = thunk()
    except PolybernError as err:
        return f"!{type(err).__name__} {err}"
    return " ".join(f"{type(c).__name__}:{format_scalar(c)}" for c in value)


def test_every_series_output_matches_the_recorded_digest():
    h = hashlib.sha256()
    for ring, f, g in corpus():
        for name, thunk in outputs(f, g):
            h.update(f"{ring} {f.precision} {name} {record(thunk)}\n".encode())
    assert h.hexdigest() == DIGEST


# -- rendered output ------------------------------------------------------------

OUTPUT_DIGEST = "98f2983bc09b58eb6b4c0db3b2e26bfc48001c6187b5351d877a712bbecd0797"
TABLES = ([("dpb", k, 1) for k in range(-2, 4)] + [("carlitz", None, 1)]
          + [("dpb-higher", k, r) for k in (-1, 2) for r in (2, 3)])
POLYNOMIALS = [("dpb", 2, 1, 5), ("dpb", -2, 1, 7), ("carlitz", None, 1, 6),
               ("dpb-higher", 2, 3, 4), ("poly-bernoulli", 3, 1, 6)]
COMMANDS = [("table", "dpb", "--k", "2", "--n", "8"), ("table", "carlitz", "--n", "6"),
            ("table", "dpb-higher", "--k", "-1", "--r", "2", "--n", "5"),
            ("poly", "dpb", "--k", "-1", "--n", "5"), ("poly", "carlitz", "--n", "4"),
            ("eval", "li(2,1-elam(-1))/(elam(1)-1)", "--order", "6"),
            ("eval", "t/(elam(1)-1)+lambda^2*t^3", "--order", "5")]


def rendered_outputs():
    """(label, text) for every rendered output the output digest covers."""
    for family, k, r in TABLES:
        for n in (16, 24):
            tbl = families.table(family, n, k=k, r=r)
            yield f"table {family} {k} {r} {n}", " ".join(
                f"{type(v).__name__}:{format_scalar(v)}" for v in tbl.values)
    for family, k, r, n in POLYNOMIALS:
        yield f"poly {family} {k} {r} {n}", str(families.polynomial(family, n, 16, k=k, r=r))
    for argv in COMMANDS:
        for fmt in ("text", "json", "csv"):
            for lam in ("symbolic", "1/2", "-3"):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main([*argv, "--format", fmt, "--lambda", lam])
                yield f"{' '.join(argv)} {fmt} {lam} {code}", out.getvalue()


def test_rendered_output_matches_the_recorded_digest():
    h = hashlib.sha256()
    for label, text in rendered_outputs():
        h.update(f"{label}\n{text}\n".encode())
    assert h.hexdigest() == OUTPUT_DIGEST


# -- family tables and generating functions -------------------------------------

FAMILY_DIGEST = "652d47e0beec45d5ea49eecd62d319ae2ddf36f16a96c9bbe30ecb8ab0b71f4c"
KS, RS, SIZES = (-3, 0, 1, 2, 5), (1, 2, 3), (1, 2, 3, 17, 64, 128)
# (family id, builder name, its arguments before the precision, k, r)
FAMILY_CASES = ([("bernoulli", "bernoulli_gf", (), None, 1),
                 ("daehee", "daehee_gf", (), None, 1),
                 ("carlitz", "carlitz_gf", (), None, 1)]
                + [("poly-bernoulli", "poly_bernoulli_gf", (k,), k, 1) for k in KS]
                + [("dpb", "dpb_gf", (k,), k, 1) for k in KS]
                + [("dpb-higher", "dpb_higher_gf", (k, r), k, r) for k in KS for r in RS])


def family_outputs():
    """(label, text) for the table and the gf of every case at every size,
    sizes ascending, so both the cached builds and their truncations show."""
    for n in SIZES:
        for family, builder, args, k, r in FAMILY_CASES:
            tbl = families.table(family, n, k=k, r=r)
            yield f"table {family} {k} {r} {n}", record(lambda: tbl.values)
            yield f"{builder} {args} {n}", record(lambda: getattr(families, builder)(*args, n))


def test_family_tables_and_gfs_match_the_recorded_digest():
    h = hashlib.sha256()
    for label, text in family_outputs():
        h.update(f"{label}\n{text}\n".encode())
    assert h.hexdigest() == FAMILY_DIGEST
