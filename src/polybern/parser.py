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
``λ`` name the same symbol. Exponents are integer literals, possibly
negative; a negative exponent means the multiplicative inverse. A
slash-form literal is never an integer slot: ``t^2/2`` is a syntax error
(the lexer binds ``2/2`` first), write ``t^2 / 2``.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, sub, truediv
from typing import NamedTuple

from . import families
from .errors import PolybernError, PrecisionExceeded
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


class _Node:
    """AST node: its ``fields`` in constructor order, and the ``span`` of its
    source text, which == and hash ignore."""

    __slots__ = ("fields", "span")

    def __init__(self, *fields, span=(0, 0)):
        self.fields = fields
        self.span = span

    def __eq__(self, other):
        return type(self) is type(other) and self.fields == other.fields

    def __hash__(self):
        return hash((type(self), self.fields))

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self.fields))})"


class RationalLit(_Node):
    __slots__ = ()  # (value: Fraction)


class LambdaSym(_Node):
    __slots__ = ()


class TVar(_Node):
    __slots__ = ()


class Add(_Node):
    __slots__ = ()  # (lhs, rhs)


class Sub(_Node):
    __slots__ = ()  # (lhs, rhs)


class Mul(_Node):
    __slots__ = ()  # (lhs, rhs)


class Div(_Node):
    __slots__ = ()  # (lhs, rhs)


class Neg(_Node):
    __slots__ = ()  # (operand,)


class PowInt(_Node):
    __slots__ = ()  # (base, exponent: int)


class Call(_Node):
    __slots__ = ()  # (name: str, args: tuple of nodes)


_PREC_ADD, _PREC_MUL, _PREC_NEG, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5

# Each binary node's symbol, precedence and series operation. The operations
# are the operator module's, which look the method up on the operand's class
# at each call, so a Series method patched after import is still the one run.
_BINARY = {
    Add: ("+", _PREC_ADD, add),
    Sub: ("-", _PREC_ADD, sub),
    Mul: ("*", _PREC_MUL, mul),
    Div: ("/", _PREC_MUL, truediv),
}
# The parser's view of the same table: (symbol, precedence) -> node class.
_INFIX = {(symbol, prec): kind for kind, (symbol, prec, _) in _BINARY.items()}
_LEAVES = {"lambda": LambdaSym, "λ": LambdaSym, "t": TVar}


# -- lexer --------------------------------------------------------------------

_OPERATORS = "+-*/^(),"
_NAMES = ("log", "exp", "li", "elam", "lambda", "t")

# Far below Python's 4300-digit limit on int/str conversion, which the CLI
# lifts while it runs: converting a longer digit string costs quadratic time.
MAX_LITERAL_LENGTH = 1000


class _Token(NamedTuple):
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
        if ch == "λ":  # one character, and a name of its own
            tokens.append(_Token("NAME", ch, i))
            i += 1
            continue
        if ch.isalpha():
            start = i
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

# The parser recurses up to eight frames per nested group, and _eval, render
# and _padding up to two per AST level, with at most three levels per group
# and one per operator: all well inside Python's default recursion limit.
MAX_NESTING = 50  # parenthesised groups and call arguments, one inside another
MAX_OPERATORS = 200  # binary + - * /
# Largest |exponent| after '^'. A power with an invertible constant term is
# one pass of Miller's recurrence, others two series products per bit of the
# exponent, and the coefficients grow with it: on a 2-vCPU VM elam(1)^1000
# takes 0.01 s at order 32 and 4 s at order 128, as does elam(-1)^-1000.
MAX_EXPONENT = 1000
# Largest count of divisions by a series that varies with t, one inside
# another. Each raises the working precision of eval by one order, as it may
# cancel a factor of t; the paper's gfs are one quotient each.
MAX_DIVISION_DEPTH = 8


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.i = 0
        self.depth = -1  # of the group() being parsed; the whole text is depth 0
        self.operators = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kinds, expected) -> _Token:
        tok = self.peek()
        if tok.kind not in kinds:
            raise ExprSyntaxError(
                f"unexpected {tok.kind if tok.kind != 'EOF' else 'end of input'}",
                tok.pos, expected)
        return self.advance()

    def parse(self) -> _Node:
        node = self.group()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ExprSyntaxError("trailing input", tok.pos, {"+", "-", "*", "/", "^"})
        return node

    def group(self) -> _Node:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprSyntaxError(f"more than {MAX_NESTING} nested groups", self.peek().pos)
        node = self.binary(_PREC_ADD)
        self.depth -= 1
        return node

    def binary(self, prec: int) -> _Node:
        """A left-associative chain of the operators of precedence ``prec``,
        whose operands bind tighter."""
        if prec > _PREC_MUL:
            return self.factor()
        node = self.binary(prec + 1)
        while (kind := _INFIX.get((self.peek().kind, prec))) is not None:
            if self.operators == MAX_OPERATORS:
                raise ExprSyntaxError(f"more than {MAX_OPERATORS} operators", self.peek().pos)
            self.operators += 1
            self.advance()
            rhs = self.binary(prec + 1)
            node = kind(node, rhs, span=(node.span[0], rhs.span[1]))
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
            exponent, span = self.literal({"INT"}, "integer literal")
            if abs(exponent) > MAX_EXPONENT:
                raise ExprSyntaxError(f"exponent outside -{MAX_EXPONENT}..{MAX_EXPONENT}", span[0])
            node = PowInt(node, int(exponent), span=(node.span[0], span[1]))
        return node

    def literal(self, kinds, expected: str) -> tuple[Fraction, tuple[int, int]]:
        """An optionally negated literal token of one of ``kinds``: its value
        and the span of its text, the sign included."""
        start = self.peek().pos
        sign = -1 if self.peek().kind == "-" else 1
        if sign < 0:
            self.advance()
        tok = self.expect(kinds, {expected})
        return sign * tok.value, (start, tok.pos + len(tok.text))

    def atom(self) -> _Node:
        tok = self.expect({"INT", "RAT", "NAME", "("},
                          {"rational", "lambda", "t", "log", "exp", "li", "elam", "("})
        span = (tok.pos, tok.pos + len(tok.text))
        if tok.kind in ("INT", "RAT"):
            return RationalLit(tok.value, span=span)
        if tok.text in _LEAVES:
            return _LEAVES[tok.text](span=span)
        if tok.kind == "(":
            node = self.group()
            self.expect({")"}, {")"})
            return node
        return self.call(tok)

    def call(self, name_tok: _Token) -> _Node:
        name = name_tok.text
        self.expect({"("}, {"("})
        if name == "li":
            k, span = self.literal({"INT"}, "integer literal")
            tok = self.peek()
            if tok.kind == ")":
                raise ArityError("li takes two arguments", tok.pos, {","})
            self.expect({","}, {","})
            args = (RationalLit(k, span=span), self.group())
        elif name == "elam":
            value, span = self.literal({"INT", "RAT"}, "rational literal")
            args = (RationalLit(value, span=span),)
        else:
            args = (self.group(),)
        tok = self.peek()
        if tok.kind == ",":
            count = "two arguments" if name == "li" else "one argument"
            raise ArityError(f"{name} takes {count}", tok.pos, {")"})
        close = self.expect({")"}, {")"})
        return Call(name, args, span=(name_tok.pos, close.pos + 1))


def parse(text: str) -> _Node:
    """Parse expression text to an AST (spans carried, ignored by ==)."""
    return _Parser(text).parse()


# -- rendering and evaluation --------------------------------------------------

def _prec(node: _Node) -> int:
    kind = type(node)
    if kind in _BINARY:
        return _BINARY[kind][1]
    return _PREC_NEG if kind is Neg else _PREC_POW if kind is PowInt else _PREC_ATOM


def _wrap(node: _Node, minimum: int) -> str:
    text = render(node)
    return f"({text})" if _prec(node) < minimum else text


def render(node: _Node) -> str:
    """Deterministic text whose reparse is structurally identical."""
    kind = type(node)
    if kind in _BINARY:
        symbol, prec, _ = _BINARY[kind]
        lhs, rhs = node.fields
        return f"{_wrap(lhs, prec)} {symbol} {_wrap(rhs, prec + 1)}"
    if kind is RationalLit:
        return format_rational(node.fields[0])
    if kind is LambdaSym:
        return "lambda"
    if kind is TVar:
        return "t"
    if kind is Neg:
        return f"-{_wrap(node.fields[0], _PREC_POW)}"
    if kind is PowInt:
        base, exponent = node.fields
        return f"{_wrap(base, _PREC_ATOM)}^{exponent}"
    if kind is Call:
        name, args = node.fields
        return f"{name}({', '.join(map(render, args))})"
    raise TypeError(f"not an AST node: {node!r}")


def _padding(node: _Node) -> tuple[int, bool]:
    """``(pad, varies)``: ``varies`` when ``node`` holds a ``t`` leaf or an
    ``elam`` call, and ``pad`` the most Div nodes by such a divisor on one
    path from ``node`` down to a leaf; any other divisor is a constant series.
    The first counted Div, from below, past ``MAX_DIVISION_DEPTH`` is refused."""
    kind = type(node)
    subs = [_padding(c) for f in node.fields
            for c in (f if isinstance(f, tuple) else (f,)) if isinstance(c, _Node)]
    pad = (kind is Div and subs[1][1]) + max((p for p, _ in subs), default=0)
    if pad > MAX_DIVISION_DEPTH:  # only at a Div, as no child passes it
        err = PrecisionExceeded(f"more than {MAX_DIVISION_DEPTH} divisions one inside another")
        err.span = node.span
        raise err
    varies = kind is TVar or (kind is Call and node.fields[0] == "elam")
    return pad, varies or any(v for _, v in subs)


def _eval(node: _Node, n: int) -> Series:
    kind = type(node)
    try:
        if kind in _BINARY:
            lhs, rhs = node.fields
            return _BINARY[kind][2](_eval(lhs, n), _eval(rhs, n))
        if kind is RationalLit:
            return Series.constant(node.fields[0], n)
        if kind is LambdaSym:
            return Series.constant(LAMBDA, n)
        if kind is TVar:
            return Series.t(n)
        if kind is Neg:
            return -_eval(node.fields[0], n)
        if kind is PowInt:
            base, exponent = node.fields
            return _eval(base, n) ** exponent
        if kind is Call:
            name, args = node.fields
            if name == "li":
                # polylog_series checks k before the argument is evaluated
                k = args[0].fields[0].numerator
                return families.polylog_series(k, n).compose(_eval(args[1], n))
            if name == "elam":
                return families.elam(args[0].fields[0], n)
            arg = _eval(args[0], n)
            return arg.log() if name == "log" else arg.exp()
    except PolybernError as err:
        # the innermost division, power or call around the failure names it
        if kind in (Div, PowInt, Call) and getattr(err, "span", None) is None:
            err.span = node.span
        raise
    raise TypeError(f"not an AST node: {node!r}")


def eval_expr(node: _Node, precision: int) -> Series:
    """Exact series of the expression, with exactly ``precision`` coefficients.

    A division by a series that varies with t (holds ``t`` or ``elam``) may
    cancel one t, so it costs one order on its path to the root: evaluation
    runs at precision + (most such Div nodes on one path, at most
    ``MAX_DIVISION_DEPTH``) and truncates.
    ``precision`` must lie in 1..``families.MAX_PRECISION``.
    """
    if precision < 1:
        raise PrecisionExceeded(f"order must be >= 1, got {precision}")
    families.check_precision(precision, "order")
    return _eval(node, precision + _padding(node)[0]).truncate(precision)
