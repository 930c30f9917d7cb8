"""Expression language for generating functions.

Grammar (standard precedence, left associativity for binary operators):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('-')? power
    power  := atom ('^' int)?
    atom   := rational | 'lambda' | 't' | call | '(' expr ')'
    call   := ('log'|'exp') '(' expr ')'
            | 'li' '(' int ',' expr ')'
            | 'elam' '(' rational ')'

A rational literal ``p/q`` binds as one token only when written without
spaces; otherwise ``/`` is division. ``lambda`` and the single character
``λ`` are the same token. Exponents are integer literals, possibly
negative; a negative exponent means the multiplicative inverse. A
slash-form literal is never an integer slot: ``t^2/2`` is a syntax error
(the lexer binds ``2/2`` first), write ``t^2 / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import families
from .errors import PolybernError
from .ring import LAMBDA, format_rational
from .series import Series

__all__ = [
    "ExprSyntaxError",
    "ArityError",
    "RationalLit",
    "LambdaSym",
    "TVar",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "PowInt",
    "Call",
    "parse",
    "render",
    "eval_expr",
]


class ExprSyntaxError(PolybernError):
    """Parse failure, carrying the offset and the expected-token set."""

    def __init__(self, message: str, offset: int, expected=()):
        self.offset = offset
        self.expected = frozenset(expected)
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += f" (expected {', '.join(sorted(self.expected))})"
        super().__init__(detail)


class ArityError(ExprSyntaxError):
    """A call with the wrong number of arguments."""


# -- AST ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Node:
    span: tuple[int, int] = field(default=(0, 0), compare=False, kw_only=True)


@dataclass(frozen=True)
class RationalLit(_Node):
    value: Fraction = Fraction(0)


@dataclass(frozen=True)
class LambdaSym(_Node):
    pass


@dataclass(frozen=True)
class TVar(_Node):
    pass


@dataclass(frozen=True)
class Add(_Node):
    lhs: _Node = None
    rhs: _Node = None


@dataclass(frozen=True)
class Sub(_Node):
    lhs: _Node = None
    rhs: _Node = None


@dataclass(frozen=True)
class Mul(_Node):
    lhs: _Node = None
    rhs: _Node = None


@dataclass(frozen=True)
class Div(_Node):
    lhs: _Node = None
    rhs: _Node = None


@dataclass(frozen=True)
class Neg(_Node):
    operand: _Node = None


@dataclass(frozen=True)
class PowInt(_Node):
    base: _Node = None
    exponent: int = 1


@dataclass(frozen=True)
class Call(_Node):
    name: str = ""
    args: tuple = ()


# -- lexer --------------------------------------------------------------------

_OPERATORS = "+-*/^(),"
_NAMES = ("log", "exp", "li", "elam", "lambda", "t")

# Far below Python's 4300-digit limit on int/str conversion, which the CLI
# lifts while it runs: converting a longer digit string costs quadratic time.
MAX_LITERAL_LENGTH = 1000


@dataclass(frozen=True)
class _Token:
    kind: str  # INT | RAT | NAME | one of the operator characters | EOF
    text: str
    pos: int
    value: Fraction | None = None


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            start = i
            while i < n and text[i].isdecimal():
                i += 1
            # p/q with no spaces is one rational literal
            kind = "INT"
            if i + 1 < n and text[i] == "/" and text[i + 1].isdecimal():
                kind = "RAT"
                i += 1
                while i < n and text[i].isdecimal():
                    i += 1
            raw = text[start:i]
            if len(raw) > MAX_LITERAL_LENGTH:
                raise ExprSyntaxError(
                    f"literal longer than {MAX_LITERAL_LENGTH} characters", start)
            if kind == "RAT" and not int(raw.split("/")[1]):
                raise ExprSyntaxError(f"zero denominator in '{raw}'", start)
            tokens.append(_Token(kind, raw, start, Fraction(raw)))
            continue
        if ch.isalpha() or ch == "λ":
            start = i
            if ch == "λ":
                i += 1
                tokens.append(_Token("NAME", "lambda", start))
                continue
            while i < n and text[i].isalpha():
                i += 1
            word = text[start:i]
            if word not in _NAMES:
                raise ExprSyntaxError(f"unknown name '{word}'", start, _NAMES)
            tokens.append(_Token("NAME", word, start))
            continue
        if ch in _OPERATORS:
            tokens.append(_Token(ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("EOF", "", n))
    return tokens


# -- parser -------------------------------------------------------------------

# The parser recurses six frames per nested group, and _eval, render and
# _count_divs up to two per AST level, with at most three levels per group
# and one per operator: all well inside Python's default recursion limit.
MAX_NESTING = 50  # parenthesised groups and call arguments, one inside another
MAX_OPERATORS = 200  # binary + - * /
# Largest |exponent| after '^'. A power costs up to two series products per
# bit of the exponent, and their coefficients grow with it: on a 2-vCPU VM
# elam(1)^1000 takes 0.2 s at order 32 and 50 s at order 128, while
# (1+t)^(200 nines) took 12 s at order 32.
MAX_EXPONENT = 1000


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.i = 0
        self.depth = -1  # of the expr() being parsed; the whole text is depth 0
        self.operators = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, expected) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(
                f"unexpected {tok.kind if tok.kind != 'EOF' else 'end of input'}",
                tok.pos, expected)
        return self.advance()

    def operator(self) -> _Token:
        if self.operators == MAX_OPERATORS:
            raise ExprSyntaxError(f"more than {MAX_OPERATORS} operators", self.peek().pos)
        self.operators += 1
        return self.advance()

    def parse(self) -> _Node:
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprSyntaxError("trailing input", tok.pos, {"+", "-", "*", "/", "^"})
        return node

    def expr(self) -> _Node:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"more than {MAX_NESTING} nested groups", self.peek().pos)
        node = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.operator()
            rhs = self.term()
            span = (node.span[0], rhs.span[1])
            node = (Add if op.kind == "+" else Sub)(node, rhs, span=span)
        self.depth -= 1
        return node

    def term(self) -> _Node:
        node = self.factor()
        while self.peek().kind in ("*", "/"):
            op = self.operator()
            rhs = self.factor()
            span = (node.span[0], rhs.span[1])
            node = (Mul if op.kind == "*" else Div)(node, rhs, span=span)
        return node

    def factor(self) -> _Node:
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            inner = self.power()
            return Neg(inner, span=(tok.pos, inner.span[1]))
        return self.power()

    def power(self) -> _Node:
        node = self.atom()
        if self.peek().kind == "^":
            self.advance()
            start = self.peek().pos
            exponent, end = self.int_literal()
            if abs(exponent) > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent outside -{MAX_EXPONENT}..{MAX_EXPONENT}", start)
            node = PowInt(node, exponent, span=(node.span[0], end))
        return node

    def int_literal(self) -> tuple[int, int]:
        sign = 1
        tok = self.peek()
        if tok.kind == "-":
            self.advance()
            sign = -1
        tok = self.expect("INT", {"integer literal"})
        return sign * tok.value.numerator, tok.pos + len(tok.text)

    def rational_literal(self) -> tuple[Fraction, tuple[int, int]]:
        start = self.peek().pos
        sign = 1
        if self.peek().kind == "-":
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind not in ("INT", "RAT"):
            raise ExprSyntaxError(
                f"unexpected {tok.kind if tok.kind != 'EOF' else 'end of input'}",
                tok.pos, {"rational literal"})
        self.advance()
        return sign * tok.value, (start, tok.pos + len(tok.text))

    def atom(self) -> _Node:
        tok = self.peek()
        if tok.kind in ("INT", "RAT"):
            self.advance()
            return RationalLit(tok.value, span=(tok.pos, tok.pos + len(tok.text)))
        if tok.kind == "NAME":
            if tok.text == "lambda":
                self.advance()
                return LambdaSym(span=(tok.pos, tok.pos + len(tok.text)))
            if tok.text == "t":
                self.advance()
                return TVar(span=(tok.pos, tok.pos + 1))
            return self.call()
        if tok.kind == "(":
            self.advance()
            node = self.expr()
            self.expect(")", {")"})
            return node
        raise ExprSyntaxError(
            f"unexpected {tok.kind if tok.kind != 'EOF' else 'end of input'}",
            tok.pos, {"rational", "lambda", "t", "log", "exp", "li", "elam", "("})

    def call(self) -> _Node:
        name_tok = self.advance()
        name = name_tok.text
        self.expect("(", {"("})
        if name in ("log", "exp"):
            arg = self.expr()
            tok = self.peek()
            if tok.kind == ",":
                raise ArityError(f"{name} takes one argument", tok.pos, {")"})
            close = self.expect(")", {")"})
            return Call(name, (arg,), span=(name_tok.pos, close.pos + 1))
        if name == "li":
            k, k_end = self.int_literal()
            tok = self.peek()
            if tok.kind == ")":
                raise ArityError("li takes two arguments", tok.pos, {","})
            self.expect(",", {","})
            arg = self.expr()
            tok = self.peek()
            if tok.kind == ",":
                raise ArityError("li takes two arguments", tok.pos, {")"})
            close = self.expect(")", {")"})
            k_node = RationalLit(Fraction(k), span=(name_tok.pos + 3, k_end))
            return Call(name, (k_node, arg), span=(name_tok.pos, close.pos + 1))
        # elam
        value, vspan = self.rational_literal()
        tok = self.peek()
        if tok.kind == ",":
            raise ArityError("elam takes one argument", tok.pos, {")"})
        close = self.expect(")", {")"})
        v_node = RationalLit(value, span=vspan)
        return Call(name, (v_node,), span=(name_tok.pos, close.pos + 1))


def parse(text: str) -> _Node:
    """Parse expression text to an AST (spans carried, ignored by ==)."""
    return _Parser(text).parse()


# -- rendering ----------------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(node: _Node) -> int:
    if isinstance(node, (Add, Sub)):
        return _PREC_ADD
    if isinstance(node, (Mul, Div)):
        return _PREC_MUL
    if isinstance(node, Neg):
        return _PREC_NEG
    if isinstance(node, PowInt):
        return _PREC_POW
    return _PREC_ATOM


def _wrap(node: _Node, minimum: int) -> str:
    text = render(node)
    return f"({text})" if _prec(node) < minimum else text


def render(node: _Node) -> str:
    """Deterministic text whose reparse is structurally identical."""
    if isinstance(node, RationalLit):
        return format_rational(node.value)
    if isinstance(node, LambdaSym):
        return "lambda"
    if isinstance(node, TVar):
        return "t"
    if isinstance(node, Add):
        return f"{_wrap(node.lhs, _PREC_ADD)} + {_wrap(node.rhs, _PREC_ADD + 1)}"
    if isinstance(node, Sub):
        return f"{_wrap(node.lhs, _PREC_ADD)} - {_wrap(node.rhs, _PREC_ADD + 1)}"
    if isinstance(node, Mul):
        return f"{_wrap(node.lhs, _PREC_MUL)} * {_wrap(node.rhs, _PREC_MUL + 1)}"
    if isinstance(node, Div):
        return f"{_wrap(node.lhs, _PREC_MUL)} / {_wrap(node.rhs, _PREC_MUL + 1)}"
    if isinstance(node, Neg):
        return f"-{_wrap(node.operand, _PREC_POW)}"
    if isinstance(node, PowInt):
        return f"{_wrap(node.base, _PREC_ATOM)}^{node.exponent}"
    if isinstance(node, Call):
        if node.name == "li":
            k = node.args[0].value
            return f"li({k.numerator}, {render(node.args[1])})"
        return f"{node.name}({render(node.args[0])})"
    raise TypeError(f"not an AST node: {node!r}")


# -- evaluation ---------------------------------------------------------------


def _count_divs(node: _Node) -> int:
    if isinstance(node, (Add, Sub, Mul, Div)):
        extra = 1 if isinstance(node, Div) else 0
        return extra + _count_divs(node.lhs) + _count_divs(node.rhs)
    if isinstance(node, Neg):
        return _count_divs(node.operand)
    if isinstance(node, PowInt):
        return _count_divs(node.base)
    if isinstance(node, Call):
        return sum(_count_divs(a) for a in node.args)
    return 0


def _tagged(err: PolybernError, span: tuple[int, int]):
    if getattr(err, "span", None) is None:
        err.span = span
    return err


def _eval(node: _Node, n: int) -> Series:
    if isinstance(node, RationalLit):
        return Series.constant(node.value, n)
    if isinstance(node, LambdaSym):
        return Series.constant(LAMBDA, n)
    if isinstance(node, TVar):
        return Series.t(n)
    if isinstance(node, Add):
        return _eval(node.lhs, n) + _eval(node.rhs, n)
    if isinstance(node, Sub):
        return _eval(node.lhs, n) - _eval(node.rhs, n)
    if isinstance(node, Mul):
        return _eval(node.lhs, n) * _eval(node.rhs, n)
    if isinstance(node, Div):
        try:
            return _eval(node.lhs, n).div(_eval(node.rhs, n))
        except PolybernError as err:
            raise _tagged(err, node.span)
    if isinstance(node, Neg):
        return -_eval(node.operand, n)
    if isinstance(node, PowInt):
        try:
            return _eval(node.base, n) ** node.exponent
        except PolybernError as err:
            raise _tagged(err, node.span)
    if isinstance(node, Call):
        try:
            if node.name == "log":
                return _eval(node.args[0], n).log()
            if node.name == "exp":
                return _eval(node.args[0], n).exp()
            if node.name == "li":
                # polylog_series checks k before the argument is evaluated
                k = node.args[0].value.numerator
                return families.polylog_series(k, n).compose(_eval(node.args[1], n))
            return families.elam(node.args[0].value, n)
        except PolybernError as err:
            raise _tagged(err, node.span)
    raise TypeError(f"not an AST node: {node!r}")


def eval_expr(node: _Node, precision: int) -> Series:
    """Exact series of the expression, with exactly ``precision`` coefficients.

    Each division that hits the one-t-cancellation rule costs one order, so
    evaluation runs at precision + (number of Div nodes) and truncates.
    ``precision`` may not exceed ``families.MAX_PRECISION``.
    """
    families.check_precision(precision, "order")
    return _eval(node, precision + _count_divs(node)).truncate(precision)
