"""Parser for the expression sub-grammar of the system-definition DSL.

Grammar: identifiers x<i>, u<j>, y<j>, zeta<j>, ubar<j>, zetabar<j> with an
optional shift suffix "[k]" (k a signed integer), declared parameter names,
the constant pi, decimal/integer/rational literals, infix + - * / ^ with the
usual precedence (^ binds tightest, right-associative, integer exponents),
unary minus, and the functions sin, cos, tan, cot. "#" starts a comment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .expr import (
    Expr, Par, Var, add, cos, cot, div, mul, neg, num, pow_, sin, sub, tan,
)

__all__ = ["DimTable", "ParseError", "parse_expression", "parameter_name_error"]

_FUNCS = {"sin": sin, "cos": cos, "tan": tan, "cot": cot}
_VAR_RE = re.compile(r"^(zetabar|ubar|zeta|x|u|y)([0-9]+)$")
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"


class ParseError(Exception):
    """Syntax or symbol-resolution error, with line/column context."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


@dataclass
class DimTable:
    """Declared dimensions and parameter names for symbol resolution."""

    n: int
    m: int
    params: frozenset = frozenset()
    allow_y: bool = True

    def family_dim(self, family: str) -> int:
        return self.n if family == "x" else self.m


@dataclass
class _Token:
    kind: str  # num ident op end
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"(?P<ws>[ \t]+)"
    r"|(?P<comment>#[^\n]*)"
    r"|(?P<num>\d+\.\d+|\d+)"
    rf"|(?P<ident>{_IDENT})"
    r"|(?P<op>\+|-|\*|/|\^|\(|\)|\[|\])"
)


def _tokenize(text: str, line: int = 1) -> list[_Token]:
    out = []
    col = 1
    i = 0
    while i < len(text):
        if text[i] == "\n":
            line += 1
            col = 1
            i += 1
            continue
        mo = _TOKEN_RE.match(text, i)
        if mo is None:
            raise ParseError(f"unexpected character {text[i]!r}", line, col)
        kind = mo.lastgroup
        tok = mo.group()
        if kind not in ("ws", "comment"):
            out.append(_Token(kind, tok, line, col))
        col += len(tok)
        i = mo.end()
    out.append(_Token("end", "", line, col))
    return out


@dataclass
class _Parser:
    tokens: list
    table: DimTable
    pos: int = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text or 'end of input'!r}",
                             t.line, t.col)
        return t

    # expr := term (("+"|"-") term)*
    def expr(self) -> Expr:
        e = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.term()
            e = add(e, rhs) if op == "+" else sub(e, rhs)
        return e

    # term := unary (("*"|"/") unary)*
    def term(self) -> Expr:
        e = self.unary()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            rhs = self.unary()
            e = mul(e, rhs) if op == "*" else div(e, rhs)
        return e

    def unary(self) -> Expr:
        if self.peek().text == "-":
            self.next()
            return neg(self.unary())
        return self.power()

    # power := atom ("^" signed-integer)?
    def power(self) -> Expr:
        base = self.atom()
        if self.peek().text == "^":
            self.next()
            return pow_(base, self.exponent())
        return base

    def exponent(self) -> int:
        sign = 1
        if self.peek().text == "-":
            self.next()
            sign = -1
        parens = False
        if self.peek().text == "(":
            self.next()
            parens = True
            if self.peek().text == "-":
                self.next()
                sign = -sign
        t = self.next()
        if t.kind != "num" or "." in t.text:
            raise ParseError("exponent must be an integer", t.line, t.col)
        if parens:
            self.expect(")")
        return sign * int(t.text)

    def atom(self) -> Expr:
        t = self.next()
        if t.kind == "num":
            return num(Fraction(t.text))
        if t.text == "(":
            e = self.expr()
            self.expect(")")
            return e
        if t.kind == "ident":
            return self.ident(t)
        raise ParseError(f"unexpected {t.text or 'end of input'!r}", t.line, t.col)

    def ident(self, t: _Token) -> Expr:
        name = t.text
        if name in _FUNCS:
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return _FUNCS[name](arg)
        if name == "pi":
            return Par("pi")
        mo = _VAR_RE.match(name)
        if mo:
            family, comp = mo.group(1), int(mo.group(2))
            if family == "y" and not self.table.allow_y:
                raise ParseError("output variables are not allowed here", t.line, t.col)
            if comp < 1 or comp > self.table.family_dim(family):
                raise ParseError(
                    f"component {name} out of range (dim {self.table.family_dim(family)})",
                    t.line, t.col)
            shift = 0
            if self.peek().text == "[":
                self.next()
                sign = 1
                if self.peek().text == "-":
                    self.next()
                    sign = -1
                st = self.next()
                if st.kind != "num" or "." in st.text:
                    raise ParseError("shift must be an integer", st.line, st.col)
                shift = sign * int(st.text)
                self.expect("]")
            return Var(family, comp, shift)
        if name in self.table.params:
            return Par(name)
        raise ParseError(f"undeclared identifier {name!r}", t.line, t.col)


def parameter_name_error(name: str) -> str | None:
    """Why the parser could never read `name` as a parameter, or None: a
    parameter is an identifier that names no function, no variable family
    and not the constant pi."""
    if not re.fullmatch(_IDENT, name):
        return f"parameter name {name!r} is not an identifier"
    if name == "pi":
        return "pi names the constant, not a parameter"
    if name in _FUNCS:
        return f"{name} names a function, not a parameter"
    if _VAR_RE.match(name):
        return f"{name} names a variable, not a parameter"
    return None


def parse_expression(text: str, table: DimTable, line: int = 1) -> Expr:
    """Parse one expression; raises ParseError with position info."""
    p = _Parser(_tokenize(text, line), table)
    e = p.expr()
    t = p.peek()
    if t.kind != "end":
        raise ParseError(f"trailing input {t.text!r}", t.line, t.col)
    return e
