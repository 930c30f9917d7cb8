"""Expression language: lexing, grammar, rendering, evaluation."""

from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from polybern import families
from polybern.errors import (
    ConstantTermNotOne,
    NonUnitLeadingCoefficient,
    NonzeroInnerConstant,
    PolybernError,
    PrecisionExceeded,
)
from polybern.parser import (
    Add,
    ArityError,
    Call,
    Div,
    ExprSyntaxError,
    LambdaSym,
    MAX_DIVISION_DEPTH,
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_OPERATORS,
    Mul,
    Neg,
    PowInt,
    RationalLit,
    Sub,
    TVar,
    eval_expr,
    parse,
    render,
)
from polybern.ring import LAMBDA, LambdaPoly
from polybern.series import Series


def rat(v) -> RationalLit:
    return RationalLit(Fraction(v))


# -- grammar ------------------------------------------------------------------


def test_parse_carlitz_expression():
    got = parse("t/(elam(1)-1)")
    assert got == Div(TVar(), Sub(Call("elam", (rat(1),)), rat(1)))


def test_parse_dpb_expression():
    got = parse("li(2, 1 - elam(-1)) / (elam(1) - 1)")
    assert got == Div(
        Call("li", (rat(2), Sub(rat(1), Call("elam", (rat(-1),))))),
        Sub(Call("elam", (rat(1),)), rat(1)),
    )


def test_parse_lambda_power():
    assert parse("1/2 * lambda^2") == Mul(rat(Fraction(1, 2)), PowInt(LambdaSym(), 2))


def test_precedence_and_associativity():
    assert parse("1+2*3") == Add(rat(1), Mul(rat(2), rat(3)))
    assert parse("1-2-3") == Sub(Sub(rat(1), rat(2)), rat(3))
    assert parse("1 / 2 / 3") == Div(Div(rat(1), rat(2)), rat(3))
    assert parse("-t^2") == Neg(PowInt(TVar(), 2))
    assert parse("(1+t)^-1") == PowInt(Add(rat(1), TVar()), -1)
    assert parse("2*t^3") == Mul(rat(2), PowInt(TVar(), 3))


def test_rational_literal_binds_without_spaces():
    assert parse("1/2") == rat(Fraction(1, 2))
    assert parse("1 / 2") == Div(rat(1), rat(2))
    assert parse("1/ 2") == Div(rat(1), rat(2))
    assert parse("6/2/3") == Div(rat(3), rat(3))  # "6/2" lexes as one literal


def test_unicode_lambda():
    assert parse("λ^2") == parse("lambda^2")


def test_spans_cover_source_characters():
    # λ is one character; li's k spans its own text, the sign included
    assert parse("1/λ").fields[1].span == (2, 3)
    assert parse("λ + lambda").span == (0, 10)
    assert parse("li( -2, t)").fields[1][0].span == (4, 6)
    assert parse("li (2, t)").fields[1][0].span == (4, 5)
    assert parse("elam( - 2/3)").fields[1][0].span == (6, 11)
    # a parenthesised group spans its parentheses, and so does what it starts
    assert parse(" (t+lambda)").span == (1, 11)
    assert parse("(t+lambda)^-2").span == (0, 13)
    assert parse("((lambda))/lambda").fields[0].span == (0, 10)


def test_spans_do_not_affect_equality():
    x, y = parse("t + 1"), parse("t   +   1")
    assert x.span != y.span and x == y and hash(x) == hash(y)
    a, b = TVar(), rat(1)
    assert Add(a, b, span=(0, 5)) == Add(a, b) and hash(Add(a, b, span=(0, 5))) == hash(Add(a, b))


def test_nodes_compare_by_type_and_fields():
    a, b = TVar(), rat(1)
    assert Add(a, b) != Sub(a, b) and Mul(a, b) != Div(a, b)
    assert RationalLit(1) != TVar() and LambdaSym() != TVar()
    assert len({Add(a, b), Sub(a, b), Add(a, b)}) == 2
    assert repr(Neg(PowInt(TVar(), 2))) == "Neg(PowInt(TVar(), 2))"


# -- errors --------------------------------------------------------------------


def test_syntax_error_offset_and_expected():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("t +")
    assert exc.value.offset == 3
    assert "t" in exc.value.expected and "(" in exc.value.expected

    with pytest.raises(ExprSyntaxError) as exc:
        parse("(t")
    assert exc.value.offset == 2
    assert exc.value.expected == frozenset({")"})

    with pytest.raises(ExprSyntaxError) as exc:
        parse("foo(t)")
    assert exc.value.offset == 0

    with pytest.raises(ExprSyntaxError) as exc:
        parse("t @ 1")
    assert exc.value.offset == 2

    with pytest.raises(ExprSyntaxError) as exc:
        parse("t t")
    assert exc.value.offset == 2

    with pytest.raises(ExprSyntaxError) as exc:
        parse("t + 3/0")
    assert exc.value.offset == 4

    with pytest.raises(ExprSyntaxError) as exc:
        parse("²")  # a digit, but not a decimal one
    assert exc.value.offset == 0
    assert "unexpected character" in str(exc.value)

    with pytest.raises(ExprSyntaxError) as exc:
        parse("t + " + "9" * 5000)  # past Python's int/str digit limit
    assert exc.value.offset == 4


_ATOM_START = {"rational", "lambda", "t", "log", "exp", "li", "elam", "("}

# Every raise site of the parser: text -> (type, message, offset, expected).
RAISES = [
    ("t t", ExprSyntaxError, "trailing input", 2, {"+", "-", "*", "/", "^"}),
    ("t + )", ExprSyntaxError, "unexpected )", 4, _ATOM_START),
    ("t *", ExprSyntaxError, "unexpected end of input", 3, _ATOM_START),
    ("(,t)", ExprSyntaxError, "unexpected ,", 1, _ATOM_START),
    ("log t", ExprSyntaxError, "unexpected NAME", 4, {"("}),
    ("(t", ExprSyntaxError, "unexpected end of input", 2, {")"}),
    ("exp(1 + t", ExprSyntaxError, "unexpected end of input", 9, {")"}),
    ("t^t", ExprSyntaxError, "unexpected NAME", 2, {"integer literal"}),
    ("t^1/2", ExprSyntaxError, "unexpected RAT", 2, {"integer literal"}),
    ("t^-1001", ExprSyntaxError, "exponent outside -1000..1000", 2, set()),
    ("elam(t)", ExprSyntaxError, "unexpected NAME", 5, {"rational literal"}),
    ("elam(-)", ExprSyntaxError, "unexpected )", 6, {"rational literal"}),
    ("li(2)", ArityError, "li takes two arguments", 4, {","}),
    ("li(2 t)", ExprSyntaxError, "unexpected NAME", 5, {","}),
    ("li(t, t)", ExprSyntaxError, "unexpected NAME", 3, {"integer literal"}),
    ("li(2, t, t)", ArityError, "li takes two arguments", 7, {")"}),
    ("log(t, t)", ArityError, "log takes one argument", 5, {")"}),
    ("elam(1, 2)", ArityError, "elam takes one argument", 6, {")"}),
    ("log(1+" * 51 + "t" + ")" * 51, ExprSyntaxError, "more than 50 nested groups", 304, set()),
    ("(" + "+".join(["t"] * 202) + ")", ExprSyntaxError, "more than 200 operators", 402,
     set()),
]


@pytest.mark.parametrize("text,kind,message,offset,expected", RAISES,
                         ids=[row[2] + f" @{row[3]}" for row in RAISES])
def test_every_raise_site(text, kind, message, offset, expected):
    with pytest.raises(ExprSyntaxError) as exc:
        parse(text)
    assert type(exc.value) is kind
    assert str(exc.value).startswith(f"{message} at offset {offset}")
    assert exc.value.offset == offset
    assert exc.value.expected == frozenset(expected)


def test_nesting_and_operator_count_are_bounded():
    n, m, e = MAX_NESTING, MAX_OPERATORS, MAX_EXPONENT
    assert eval_expr(parse("(" * n + "t" + ")" * n), 2) == Series.t(2)
    assert eval_expr(parse("log(1+" * n + "t" + ")" * n), 2) == Series.t(2)
    assert eval_expr(parse("+".join(["t"] * (m + 1))), 2) == Series.t(2) * (m + 1)
    assert eval_expr(parse(f"(1+t)^{e}"), 3) == Series([1, e, e * (e - 1) // 2])
    assert eval_expr(parse(f"(1+t)^-{e}"), 3) == Series([1, -e, e * (e + 1) // 2])
    # the recursion or power each would need is refused before it starts;
    # an exponent error points at the exponent, its sign included
    for text, offset in (("(" * (n + 1) + "t" + ")" * (n + 1), n + 1),
                         ("log(1+" * (n + 1) + "t" + ")" * (n + 1), 6 * n + 4),
                         ("+".join(["t"] * (m + 2)), 2 * m + 1),
                         (f"(1+t)^{e + 1}", 6), (f"(1+t)^-{e + 1}", 6),
                         ("t*(1+t)^" + "9" * 200, 8)):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert exc.value.offset == offset


def test_non_integer_exponent_rejected():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("t^1/2")  # "1/2" lexes as one rational literal
    assert "integer literal" in exc.value.expected
    with pytest.raises(ExprSyntaxError):
        parse("lambda^2/2")  # same: "2/2" is a slash-form literal
    assert parse("t^2 / 2") == Div(PowInt(TVar(), 2), rat(2))


def test_arity_errors():
    with pytest.raises(ArityError):
        parse("log(t, t)")
    with pytest.raises(ArityError):
        parse("li(2)")
    with pytest.raises(ArityError):
        parse("li(2, t, t)")
    with pytest.raises(ArityError):
        parse("elam(1, 2)")


def test_li_first_argument_must_be_integer_literal():
    with pytest.raises(ExprSyntaxError):
        parse("li(t, t)")
    with pytest.raises(ExprSyntaxError):
        parse("li(1/2, t)")
    assert parse("li(-2, t)") == Call("li", (rat(-2), TVar()))


# -- rendering -----------------------------------------------------------------


CASES = [
    "t/(elam(1)-1)",
    "li(2, 1 - elam(-1)) / (elam(1) - 1)",
    "1/2 * lambda^2",
    "1 - 2 - 3",
    "1 - (2 - 3)",
    "-(t * lambda)",
    "-t^2",
    "(1+t)^-1",
    "exp(log(1+t))",
    "t / (1 / (1+t))",
    "li(-3, t) * elam(-2/3)",
]


@pytest.mark.parametrize("text", CASES)
def test_render_parse_round_trip(text):
    ast = parse(text)
    assert parse(render(ast)) == ast


atoms = st.sampled_from([rat(0), rat(1), rat(Fraction(5, 3)), LambdaSym(), TVar()])


def _exprs():
    return st.recursive(
        atoms,
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda ab: Add(*ab)),
            st.tuples(children, children).map(lambda ab: Sub(*ab)),
            st.tuples(children, children).map(lambda ab: Mul(*ab)),
            st.tuples(children, children).map(lambda ab: Div(*ab)),
            children.map(Neg),
            st.tuples(children, st.integers(-3, 3)).map(lambda be: PowInt(*be)),
            children.map(lambda c: Call("exp", (c,))),
            children.map(lambda c: Call("log", (c,))),
            st.tuples(st.integers(-2, 2), children).map(
                lambda ke: Call("li", (rat(ke[0]), ke[1]))),
            st.sampled_from([Fraction(1), Fraction(-1), Fraction(2, 3)]).map(
                lambda v: Call("elam", (rat(v),))),
        ),
        max_leaves=8,
    )


@settings(max_examples=120, deadline=None)
@given(_exprs())
def test_render_round_trip_random_asts(ast):
    assert parse(render(ast)) == ast


# -- evaluation ----------------------------------------------------------------


def test_eval_carlitz_matches_table():
    got = eval_expr(parse("t/(elam(1)-1)"), 8)
    assert got.precision == 8
    tbl = families.table("carlitz", 8)
    for n in range(8):
        assert factorial(n) * got[n] == tbl.value(n)


def test_eval_li1_collapse():
    got = eval_expr(parse("li(1, 1-elam(-1))"), 8)
    # log(1 + lambda t)/lambda: coefficient of t^n is (-1)^(n-1) lambda^(n-1)/n
    assert got[0] == 0
    assert got[1] == 1
    assert got[2] == -LAMBDA / 2
    for n in range(1, 8):
        assert got[n] == LambdaPoly.monomial(n - 1, Fraction((-1) ** (n - 1), n))


def test_eval_exp_log_round_trip():
    assert eval_expr(parse("exp(log(1+t))"), 8) == Series([1, 1], 8)


def test_eval_constant_and_lambda():
    assert eval_expr(parse("1"), 3) == Series.one(3)
    assert eval_expr(parse("lambda^2 / 2"), 4) == Series.constant(LAMBDA**2 / 2, 4)


def test_eval_precision_exact_despite_divisions():
    for text in ("t/(elam(1)-1)", "t/(exp(t)-1)", "(t/(exp(t)-1))^2",
                 "log(1+t)/t", "t/t/(1+t)"):
        assert eval_expr(parse(text), 6).precision == 6


def test_eval_negative_power_is_inverse():
    got = eval_expr(parse("(1+t)^-1"), 6)
    assert list(got) == [Fraction((-1) ** k) for k in range(6)]


@settings(max_examples=40, deadline=None)
@given(_exprs(), _exprs(), st.sampled_from(["+", "-", "*"]))
def test_eval_is_homomorphic_on_operators(a, b, op):
    node = {"+": Add, "-": Sub, "*": Mul}[op](a, b)
    try:
        lhs = eval_expr(a, 6)
        rhs = eval_expr(b, 6)
    except PolybernError:
        return
    combined = eval_expr(node, 6)
    expected = {"+": lhs + rhs, "-": lhs - rhs, "*": lhs * rhs}[op]
    assert combined == expected


def test_eval_division_homomorphism():
    a, b = parse("1+t"), parse("1-t")
    assert eval_expr(Div(a, b), 6) == eval_expr(a, 6).div(eval_expr(b, 6))


@pytest.mark.parametrize("family,k,r", [
    ("bernoulli", None, 1),
    ("daehee", None, 1),
    ("carlitz", None, 1),
    ("poly-bernoulli", 2, 1),
    ("poly-bernoulli", -1, 1),
    ("dpb", 2, 1),
    ("dpb", -2, 1),
    ("dpb-higher", 1, 2),
])
def test_canonical_expressions_match_constructors(family, k, r):
    text = families.canonical_expression(family, k=k, r=r)
    got = eval_expr(parse(text), 16)
    tbl = families.table(family, 16, k=k, r=r)
    for n in range(16):
        assert factorial(n) * got[n] == tbl.value(n)


def test_eval_errors_carry_spans():
    with pytest.raises(ConstantTermNotOne) as exc:
        eval_expr(parse("log(t)"), 6)
    assert exc.value.span == (0, 6)

    with pytest.raises(NonzeroInnerConstant) as exc:
        eval_expr(parse("t + li(2, 1+t)"), 6)
    assert exc.value.span == (4, 14)

    with pytest.raises(NonUnitLeadingCoefficient) as exc:
        eval_expr(parse("1/t"), 6)
    assert exc.value.span == (0, 3)

    with pytest.raises(NonUnitLeadingCoefficient) as exc:
        eval_expr(parse("1/lambda"), 6)
    assert exc.value.span == (0, 8)

    with pytest.raises(NonUnitLeadingCoefficient) as exc:
        eval_expr(parse("1/λ"), 6)
    assert exc.value.span == (0, 3)

    with pytest.raises(PolybernError, match="polylog order") as exc:
        eval_expr(parse("t + li(99999999, t)"), 4)
    assert exc.value.span == (4, 19)
    # k is checked before the argument is evaluated
    with pytest.raises(PolybernError, match="polylog order") as exc:
        eval_expr(parse("li(101, log(t))"), 4)
    assert exc.value.span == (0, 15)


def test_eval_order_is_bounded():
    top = families.MAX_PRECISION
    assert eval_expr(parse("li(-100, t)"), 3)[1] == 1
    assert eval_expr(parse("exp(t)"), top)[top - 1] == Fraction(1, factorial(top - 1))
    with pytest.raises(PolybernError, match="order"):
        eval_expr(parse("exp(t)"), top + 1)


def test_division_depth_is_bounded():
    d = MAX_DIVISION_DEPTH
    # d nested divisions that each cancel a t need d orders of padding
    for order in (1, 4, families.MAX_PRECISION):
        assert eval_expr(parse(f"t^{d}" + "/t" * d), order) == Series.one(order)
    # the padding is counted on one path, so side-by-side quotients pass
    assert eval_expr(parse("+".join(["t/t"] * (d + 1))), 2) == Series.constant(d + 1, 2)
    # a divisor with no t and no elam is a constant series: it needs no padding
    # and counts toward no bound, also mixed into a chain that does count;
    # "/1/1" is a division by the literal 1/1
    for order in (1, 4, families.MAX_PRECISION):
        assert eval_expr(parse("t" + " / 1" * (d + 1)), order) == Series.t(order)
        mixed = f"(lambda*t)^{d}" + "/t/(2*lambda)/(exp(0)+log(1)+2)" * d
        assert eval_expr(parse(mixed), order) == Series.constant(Fraction(1, 6**d), order)
    consts = "li(2,1-elam(-1))" + "/1" * 199
    assert eval_expr(parse(consts), 6) == eval_expr(parse("li(2,1-elam(-1))"), 6)
    # the lowest division past the bound is named, before anything is evaluated
    chain = "li(2,1-elam(-1))" + "/elam(1)" * 100
    deep = f"t^{d + 1}" + "/t" * (d + 1)
    parens = "t" + "/(1+t)" * (d + 1)
    for text, span in ((deep, (0, len(deep))), (chain, (0, 16 + 8 * (d + 1))),
                       (parens, (0, len(parens)))):  # a group's span holds its parentheses
        for order in (1, 32, families.MAX_PRECISION):
            with pytest.raises(PrecisionExceeded, match="divisions one inside another") as exc:
                eval_expr(parse(text), order)
            assert exc.value.span == span
