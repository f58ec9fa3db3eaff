"""Text grammar for elements: parse and print with exact round-trip.

Grammar (whitespace ignored):

    element :=  ['-'] term (('+'|'-') term)*
    term    :=  factor ('*' factor)*
    factor  :=  'x'<k>['^'<n>] | 'dx'<k> | 'q('<a>','<b>')'['^'[-]<n>]
              | 'i' | 'sqrt2' | rational
    rational := <n>['/'<m>]

A zero denominator <m> is a syntax error, as is an index outside 1..D.

Parsing is one pass over the tokens.  A term is held as a Q(i, sqrt2)
coefficient 5-tuple, a list of phase exponents and a canonical monomial key,
never as an ``Element``: a scalar factor multiplies the coefficient, and a
letter in canonical position (an x whose index is not below the last x, with
no dx yet; a dx whose index is above the last dx) is appended to the key.
Any other letter is normal-ordered into the key by ``ncalg._mono_mul``, the
one place that computes exchange phases, so "x2*x1" parses to the canonical
q-reordered element.  Every term is added into one flat {(monomial, phase):
coefficient} accumulator, which one ``ncalg._finish`` call turns into the
element.  Tokens carry no positions; an error scans the text again to find
its position.

Printing expands every coefficient into grammar terms, ordered
deterministically, so print -> parse -> print is the identity.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add

from .ncalg import Element, _finish, _mono_mul
from .qphase import (_C_MINUS_ONE, _C_ONE, DeformationContext, _c_add,
                     _c_mul, _c_neg, _c_reduce)

__all__ = ["parse_expr", "format_element", "format_scalar", "ExprSyntaxError"]


class ExprSyntaxError(ValueError):
    """Parse failure, carrying the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# A token is the text of one match.  Tokens start at the characters that are
# not whitespace, and a character that starts no other token is a token of
# its own, a bad one.
_TOKEN_RE = re.compile(r"sqrt2|dx\d+|x\d+|q|i|\d+|[-+*/^(),]|\S")
# the one-character tokens that are not bad, besides the digits
_SINGLES = frozenset("qi-+*/^(),")

_C_I = (0, 1, 0, 0, 1)
_C_SQRT2 = (0, 0, 1, 0, 1)


def _error(text: str, j: int, message: str) -> ExprSyntaxError:
    """The error at token j, or at the end of the text past the last token.
    Tokens carry no position; an error scans the text again to find it."""
    for n, m in enumerate(_TOKEN_RE.finditer(text)):
        if n == j:
            return ExprSyntaxError(message, m.start())
    return ExprSyntaxError(message, len(text))


def _tokenize(text: str) -> list[str]:
    """The tokens of the text; raises at the first bad one."""
    tokens = _TOKEN_RE.findall(text)
    bad = {t for t in set(tokens)
           if len(t) == 1 and t not in _SINGLES and not t.isdecimal()}
    if bad:
        j = next(j for j, t in enumerate(tokens) if t in bad)
        raise _error(text, j, f"unexpected character {tokens[j]!r}")
    return tokens


def parse_expr(ctx: DeformationContext, text: str) -> Element:
    """Parse the element grammar over the given context, in one pass over
    the tokens (see the module docstring)."""
    tokens = _tokenize(text)
    ntok, dim = len(tokens), ctx.dim

    def take(k):
        if k >= ntok:
            raise _error(text, k, "unexpected end of input")
        return tokens[k]

    def expect(k, op):
        if take(k) != op:
            raise _error(text, k, f"expected {op!r}")
        return k + 1

    def number(k, what):
        tok = take(k)
        if not tok.isdecimal():
            raise _error(text, k, f"expected {what}")
        return int(tok)

    def power(k, signed):
        """(next token, exponent) of the optional '^' power at token k."""
        if k >= ntok or tokens[k] != "^":
            return k, 1
        k += 1
        sign = 1
        if signed and k < ntok and tokens[k] == "-":
            k += 1
            sign = -1
        return k + 1, sign * number(k, "exponent")

    def index(a, k):
        try:
            ctx.check_index(a)
        except IndexError as exc:
            raise _error(text, k, str(exc)) from None

    acc: dict = {}
    k, sign = (1, -1) if ntok and tokens[0] == "-" else (0, 1)
    while True:
        # one term: coefficient, phase exponents and monomial key, the key
        # canonical after every factor
        coeff = _C_ONE if sign > 0 else _C_MINUS_ONE
        phase = [0] * ctx.nparams
        exps, dxs = [0] * dim, []
        last_x = 0  # highest x index of the key while it has no dx
        live = True  # False once a factor has made the term zero
        while True:
            at, tok = k, take(k)
            k += 1
            c = tok[0]
            letter = None  # the monomial of a letter out of canonical place
            if c == "x":
                a = int(tok[1:])
                k, e = power(k, False)
                index(a, at)
                if not e:
                    pass  # x^0 = 1
                elif a >= last_x and not dxs:
                    exps[a - 1] += e
                    last_x = a
                else:
                    letter = [0] * dim
                    letter[a - 1] = e
                    letter = (tuple(letter), ())
            elif c == "d":
                a = int(tok[2:])
                index(a, at)
                if not dxs or a > dxs[-1]:
                    dxs.append(a)
                else:
                    letter = ((0,) * dim, (a,))
            elif tok.isdecimal():
                num = int(tok)
                if k < ntok and tokens[k] == "/":
                    den = number(k + 1, "denominator")
                    if not den:
                        raise _error(text, k + 1, "zero denominator")
                    k += 2
                    coeff = _c_mul(coeff, _c_reduce(num, 0, 0, 0, den))
                elif num != 1:
                    coeff = _c_mul(coeff, (num, 0, 0, 0, 1))
                if not num:
                    live = False
            elif c == "q":
                a = number(expect(k, "("), "phase index")
                b = number(expect(k + 2, ","), "phase index")
                k, e = power(expect(k + 4, ")"), True)
                try:
                    red = ctx.pair_reduction(a, b)
                except IndexError as exc:
                    raise _error(text, at, str(exc)) from None
                if red is not None:
                    phase[red[0]] += red[1] * e
            elif c == "i":
                coeff = _c_mul(coeff, _C_I)
            elif c == "s":
                coeff = _c_mul(coeff, _C_SQRT2)
            else:
                raise _error(text, at, f"unexpected token {tok!r}")
            if letter is not None and live:
                # normal-order the key times the letter
                got = _mono_mul(ctx, (tuple(exps), tuple(dxs)), letter)
                if got is None:
                    live = False
                else:
                    shift, s, (exps, dxs) = got
                    exps, dxs = list(exps), list(dxs)
                    phase = list(map(add, phase, shift))
                    if s < 0:
                        coeff = _c_neg(coeff)
            if k < ntok and tokens[k] == "*":
                k += 1
            else:
                break
        if live:
            key = ((tuple(exps), tuple(dxs)), tuple(phase))
            u = acc.get(key)
            acc[key] = coeff if u is None else _c_add(u, coeff)
        if k == ntok:
            return _finish(ctx, acc)
        tok = tokens[k]
        if tok != "+" and tok != "-":
            raise _error(text, k, f"expected '+' or '-', got {tok!r}")
        k += 1
        sign = 1 if tok == "+" else -1


_UNITS = ((0, None), (1, "i"), (2, "sqrt2"), (3, "i*sqrt2"))


def format_element(el: Element) -> str:
    """Deterministic grammar text; parse(format(e)) == e exactly."""
    ctx = el.ctx
    parts = []  # (sign, factor string)
    for key in sorted(el.terms, key=lambda t: (len(t[0][1]), t[0][1],
                                               sum(t[0][0]), t[0][0], t[1])):
        (exps, dxs), phase = key
        facs = [f"q({a},{b})^{e}"
                for (a, b), e in zip(ctx.params, phase) if e]
        facs += [f"x{a}^{e}" if e > 1 else f"x{a}"
                 for a, e in enumerate(exps, start=1) if e]
        facs += [f"dx{a}" for a in dxs]
        comp = el.terms[key]
        for slot, unit in _UNITS:
            if not comp[slot]:
                continue
            r = Fraction(comp[slot], comp[4])
            lead = [unit] if unit else []
            if abs(r) != 1 or not (lead or facs):
                lead.insert(0, str(abs(r)))
            parts.append((1 if r > 0 else -1, "*".join(lead + facs)))
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
