"""Text grammar for elements: parse and print with exact round-trip.

Grammar (whitespace ignored):

    element :=  ['-'] term (('+'|'-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  'x'<k>['^'<n>] | 'dx'<k> | 'q('<a>','<b>')'['^'[-]<n>]
              | 'i' | 'sqrt2' | rational
    rational := ['-']<n>['/'<m>]

Factors are multiplied with the engine's normal ordering, so "x2*x1" parses
to the canonical q-reordered element.  Printing expands every coefficient
into grammar terms, ordered deterministically, so print -> parse -> print is
the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .ncalg import Element
from .qphase import DeformationContext

__all__ = ["parse_expr", "format_element", "format_scalar", "ExprSyntaxError"]


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<sqrt2>sqrt2)|(?P<dx>dx\d+)|(?P<x>x\d+)|(?P<q>q)"
    r"|(?P<i>i)|(?P<num>\d+)|(?P<op>[-+*/^(),]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:]
            if rest.strip() == "":
                break
            bad = pos + len(rest) - len(rest.lstrip())
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        tokens.append((kind, m.group(kind), m.start(kind)))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ctx: DeformationContext, text: str):
        self.ctx = ctx
        self.text = text
        self.tokens = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k] if self.k < len(self.tokens) else None

    def next(self):
        tok = self.peek()
        if tok is None:
            raise ExprSyntaxError("unexpected end of input", len(self.text))
        self.k += 1
        return tok

    def expect_op(self, op: str):
        tok = self.next()
        if tok[0] != "op" or tok[1] != op:
            raise ExprSyntaxError(f"expected {op!r}", tok[2])

    def parse(self) -> Element:
        out = Element.zero(self.ctx)
        sign = 1
        tok = self.peek()
        if tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            sign = -1
        while True:
            out = out + self.term().scale(sign)
            tok = self.peek()
            if tok is None:
                return out
            if tok[0] == "op" and tok[1] in "+-":
                self.next()
                sign = 1 if tok[1] == "+" else -1
            else:
                raise ExprSyntaxError(f"expected '+' or '-', got {tok[1]!r}",
                                      tok[2])

    def term(self) -> Element:
        out = self.factor()
        while True:
            tok = self.peek()
            if tok and tok[0] == "op" and tok[1] == "*":
                self.next()
                out = out * self.factor()
            else:
                return out

    def factor(self) -> Element:
        ctx = self.ctx
        tok = self.next()
        kind, val, pos = tok
        if kind == "num":
            num = int(val)
            nxt = self.peek()
            if nxt and nxt[0] == "op" and nxt[1] == "/":
                self.next()
                den_tok = self.next()
                if den_tok[0] != "num":
                    raise ExprSyntaxError("expected denominator", den_tok[2])
                return Element.from_scalar(ctx, Fraction(num, int(den_tok[1])))
            return Element.from_scalar(ctx, num)
        if kind == "i":
            return Element.from_scalar(ctx, ctx.i_unit())
        if kind == "sqrt2":
            return Element.from_scalar(ctx, ctx.sqrt2())
        if kind == "x":
            idx = int(val[1:])
            power = self._optional_power(signed=False)
            try:
                return Element.x(ctx, idx, power)
            except IndexError as exc:
                raise ExprSyntaxError(str(exc), pos) from None
        if kind == "dx":
            idx = int(val[2:])
            try:
                return Element.dx(ctx, idx)
            except IndexError as exc:
                raise ExprSyntaxError(str(exc), pos) from None
        if kind == "q":
            self.expect_op("(")
            a_tok = self.next()
            if a_tok[0] != "num":
                raise ExprSyntaxError("expected phase index", a_tok[2])
            self.expect_op(",")
            b_tok = self.next()
            if b_tok[0] != "num":
                raise ExprSyntaxError("expected phase index", b_tok[2])
            self.expect_op(")")
            power = self._optional_power(signed=True)
            try:
                return Element.from_scalar(
                    ctx, ctx.q_power(int(a_tok[1]), int(b_tok[1]), power))
            except IndexError as exc:
                raise ExprSyntaxError(str(exc), pos) from None
        raise ExprSyntaxError(f"unexpected token {val!r}", pos)

    def _optional_power(self, signed: bool) -> int:
        tok = self.peek()
        if not (tok and tok[0] == "op" and tok[1] == "^"):
            return 1
        self.next()
        sign = 1
        tok = self.peek()
        if signed and tok and tok[0] == "op" and tok[1] == "-":
            self.next()
            sign = -1
        num_tok = self.next()
        if num_tok[0] != "num":
            raise ExprSyntaxError("expected exponent", num_tok[2])
        return sign * int(num_tok[1])


def parse_expr(ctx: DeformationContext, text: str) -> Element:
    """Parse the element grammar over the given context."""
    return _Parser(ctx, text).parse()


_UNITS = ((0, None), (1, "i"), (2, "sqrt2"), (3, "i*sqrt2"))


def format_element(el: Element) -> str:
    """Deterministic grammar text; parse(format(e)) == e exactly."""
    ctx = el.ctx
    parts = []  # (sign, factor string)
    for key in sorted(el.terms, key=lambda k: (len(k[1]), k[1], sum(k[0]), k[0])):
        exps, dxs = key
        mono = [f"x{a}^{e}" if e > 1 else f"x{a}"
                for a, e in enumerate(exps, start=1) if e]
        mono += [f"dx{a}" for a in dxs]
        coeff = el.terms[key]
        for phase in sorted(coeff.terms):
            qfacs = []
            for j, e in enumerate(phase):
                if e:
                    a, b = ctx.params[j]
                    qfacs.append(f"q({a},{b})^{e}")
            comp = coeff.terms[phase]
            for slot, unit in _UNITS:
                if not comp[slot]:
                    continue
                r = Fraction(comp[slot], comp[4])
                facs = []
                tail = bool(unit) or qfacs or mono
                if abs(r) != 1 or not tail:
                    facs.append(str(abs(r)))
                if unit:
                    facs.append(unit)
                facs.extend(qfacs)
                facs.extend(mono)
                parts.append((1 if r > 0 else -1, "*".join(facs)))
    if not parts:
        return "0"
    sign, text = parts[0]
    out = ("-" if sign < 0 else "") + text
    for sign, text in parts[1:]:
        out += (" - " if sign < 0 else " + ") + text
    return out


def format_scalar(s, ctx: DeformationContext) -> str:
    """Grammar text of a bare scalar."""
    return format_element(Element.from_scalar(ctx, s))
