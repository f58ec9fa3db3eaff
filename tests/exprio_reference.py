"""Reference parser: one Element per factor, products and sums on Elements.

The parse path the engine used before its one-pass parser.  Every factor
becomes an ``Element`` (``Element.x``, ``Element.dx`` or a scalar), a term is
the product of its factors through ``Element.__mul__``, and the element is
the sum of its terms through ``Element.__add__``.  The tokenizer is its own
copy.  The one change from that path: a zero denominator raises
``ExprSyntaxError`` at the position of the 0, as ``parse_expr`` does, where
``Fraction`` used to raise ``ZeroDivisionError``.  The tests compare
``parse_expr`` against ``parse_reference``, values and errors alike.
"""

import re
from fractions import Fraction

from twistcalc.exprio import ExprSyntaxError
from twistcalc.ncalg import Element

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
    def __init__(self, ctx, text: str):
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
                if not int(den_tok[1]):
                    raise ExprSyntaxError("zero denominator", den_tok[2])
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


def parse_reference(ctx, text: str) -> Element:
    """Parse the element grammar one Element per factor."""
    return _Parser(ctx, text).parse()
