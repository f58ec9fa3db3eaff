"""Element grammar: parsing, printing, exact round trips, error reporting."""

import random
from fractions import Fraction

import pytest

from exprio_reference import parse_reference
from helpers import random_element
from twistcalc import DeformationContext, Element
from twistcalc.exprio import (ExprSyntaxError, format_element, format_scalar,
                              parse_expr)
from twistcalc.sphere import central_quadric


def test_parse_examples():
    ctx = DeformationContext(5)
    assert parse_expr(ctx, "x1*x2") == Element.x(ctx, 1) * Element.x(ctx, 2)
    assert parse_expr(ctx, "x2*x1") == \
        (Element.x(ctx, 1) * Element.x(ctx, 2)) * ctx.q_power(1, 2, -1)
    assert parse_expr(ctx, "dx1*dx1").is_zero()
    assert parse_expr(ctx, "0").is_zero()
    got = parse_expr(ctx, "1/2*i*sqrt2*q(1,2)^-2*x1^2*x3*dx4")
    coeff = (ctx.i_unit() * ctx.sqrt2() * ctx.q_power(1, 2, -2)).scale(
        Fraction(1, 2))
    want = (Element.x(ctx, 1, 2) * Element.x(ctx, 3)
            * Element.dx(ctx, 4)) * coeff
    assert got == want


def test_parse_signs_and_sums():
    ctx = DeformationContext(3)
    a = parse_expr(ctx, "x1 - x2 + 2*x3")
    b = Element.x(ctx, 1) - Element.x(ctx, 2) + Element.x(ctx, 3).scale(2)
    assert a == b
    assert parse_expr(ctx, "-x1") == -Element.x(ctx, 1)
    assert parse_expr(ctx, "-3/4") == Element.from_scalar(ctx, Fraction(-3, 4))


def test_syntax_errors_carry_positions():
    ctx = DeformationContext(4)
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr(ctx, "x1*$")
    assert info.value.pos == 3
    with pytest.raises(ExprSyntaxError):
        parse_expr(ctx, "x1 +")
    with pytest.raises(ExprSyntaxError):
        parse_expr(ctx, "q(1 2)")
    with pytest.raises(ExprSyntaxError):
        parse_expr(ctx, "x1 x2")


def test_zero_denominator_is_a_syntax_error():
    ctx = DeformationContext(5)
    for text, pos in (("1/0", 2), ("x1 + 3/ 00", 8), ("0/0*x1", 2)):
        with pytest.raises(ExprSyntaxError, match="zero denominator") as info:
            parse_expr(ctx, text)
        assert info.value.pos == pos


def test_out_of_range_indices_rejected():
    ctx = DeformationContext(4)
    with pytest.raises(ExprSyntaxError):
        parse_expr(ctx, "x9")
    with pytest.raises(ExprSyntaxError):
        parse_expr(ctx, "dx0")
    with pytest.raises(ExprSyntaxError):
        parse_expr(ctx, "q(1,9)")


def test_round_trip_random_elements():
    rng = random.Random(1)
    for d in (2, 3, 5, 6):
        ctx = DeformationContext(d)
        for _ in range(50):
            el = random_element(ctx, rng, 3, rng.randint(0, min(3, d)), 4)
            text = format_element(el)
            back = parse_expr(ctx, text)
            assert back == el, (d, text)
            assert format_element(back) == text


def test_format_deterministic_ordering():
    ctx = DeformationContext(4)
    a = Element.x(ctx, 1) * Element.dx(ctx, 2) + Element.x(ctx, 3)
    b = Element.x(ctx, 3) + Element.x(ctx, 1) * Element.dx(ctx, 2)
    assert format_element(a) == format_element(b)


def test_format_scalar():
    ctx = DeformationContext(5)
    s = ctx.q_power(1, 2, -1).scale(Fraction(3, 2))
    assert format_scalar(s, ctx) == "3/2*q(1,2)^-1"
    assert format_scalar(ctx.scalar_zero(), ctx) == "0"
    assert format_scalar(ctx.scalar_one(), ctx) == "1"


# -- the one-pass parser against the Element-per-factor reference -----------

def _outcome(parse, ctx, text):
    """The parsed element, or the message and position of the error."""
    try:
        return parse(ctx, text)
    except ExprSyntaxError as exc:
        return str(exc), exc.pos


def _assert_agrees(ctx, text):
    got = _outcome(parse_expr, ctx, text)
    assert got == _outcome(parse_reference, ctx, text), (ctx, text)
    return got


def _random_term(rng, d):
    """Shuffled factors of one term: x letters (some ^0), distinct dx
    letters and now and then a repeated one, q powers with k < 0 or a = b,
    i, sqrt2, integers and fractions."""
    facs = [f"x{rng.randint(1, d)}" + rng.choice(("", "^0", "^2"))
            for _ in range(rng.randint(0, 3))]
    facs += [f"dx{a}" for a in rng.sample(range(1, d + 1),
                                          rng.randint(0, min(3, d)))]
    if rng.random() < 0.15:
        facs.append(f"dx{rng.randint(1, d)}")
    a, b = rng.randint(1, d), rng.randint(1, d)
    scalars = [f"q({a},{b})^{rng.randint(-3, 3)}", f"q({a},{a})^-2", "i",
               "sqrt2", str(rng.randint(0, 4)),
               f"{rng.randint(0, 5)}/{rng.randint(1, 6)}"]
    facs += rng.sample(scalars, rng.randint(0, 3))
    rng.shuffle(facs)
    return "*".join(facs) or "1"


def _j_member(ctx, rng, k, spoil):
    """(c - 1) alpha + dc beta, a member of J, plus r dx1...dxk when spoiled."""
    c = central_quadric(ctx)
    alpha = random_element(ctx, rng, 1, k, 2)
    beta = random_element(ctx, rng, 1, k - 1, 2)
    el = (c - Element.one(ctx)) * alpha + c.d() * beta
    if spoil:
        el = el + Element.monomial(ctx, ((0,) * ctx.dim, tuple(range(1, k + 1))),
                                   ctx.scalar(rng.randint(1, 3)))
    return el


def test_matches_reference_on_printed_elements():
    rng = random.Random(22)
    for d in range(2, 10):
        ctx = DeformationContext(d)
        for _ in range(6):
            el = random_element(ctx, rng, 3, rng.randint(0, min(3, d)), 6)
            assert _assert_agrees(ctx, format_element(el)) == el
    for d in range(5, 10):
        ctx = DeformationContext(d)
        for spoil in (False, True):
            el = _j_member(ctx, rng, rng.randint(1, 3), spoil)
            assert _assert_agrees(ctx, format_element(el)) == el


def test_matches_reference_on_unordered_products():
    rng = random.Random(7)
    for d in (1, 2, 3, 4, 5, 7, 9):
        for commutative in (False, True):
            ctx = DeformationContext(d, commutative)
            for _ in range(25):
                terms = [_random_term(rng, d)
                         for _ in range(rng.randint(1, 4))]
                if rng.random() < 0.3:
                    terms.append(terms[0])  # cancels against a "-" below
                text = rng.choice(("", "-")) + terms[0] + "".join(
                    rng.choice((" + ", " - ", "-")) + t for t in terms[1:])
                _assert_agrees(ctx, text)
    ctx = DeformationContext(5)
    for text in ("x2*x1 - q(1,2)^-1*x1*x2", "dx2*dx1 + q(1,2)^-1*dx1*dx2",
                 "dx3*x2*dx3 + x2^0*dx1 - dx1", "x1*dx2*x1 - q(1,2)^-1*x1^2*dx2"):
        assert _assert_agrees(ctx, text).is_zero(), text


@pytest.mark.parametrize("text", [
    "", "   ", "-", "+x1", "x1 +", "x1*", "x1**x2", "x1 x2", "2x1", "x1^",
    "x1^-1", "x1^x2", "x1^2^3", "x1/2", "1/", "1/x1", "1/0", "0/0*x1",
    "1/2/3", "q", "q(", "q(1", "q(1,", "q(1,2", "q(1 2)", "q(1,2)^",
    "q(1,2)^-", "q(x1,2)", "q(1,2)^-x1", "q(1,2)^--1", "x9", "dx0", "x9^",
    "x9^2*$", "q(1,9)", "q(0,1)", "q(9,9)", "x1*$", "x1 + y", "sqrt",
    "sqrt 2", "x", "dx", "d x1", "x 1", "x1*(x2)", ")", "x1,x2", "-x1 - - x2",
    "x1 + $ + x9", "x9 + $", "i*", "i i", "* x1", "x1 - ", "x\u0663*x1",
    "\u0663*x1", "x1 \u0663", "x1\u00b2", "1 /0", "dx1*dx1*x9",
    "0*x9", "x1\t+\nx2  ",
])
def test_matches_reference_on_malformed_input(text):
    _assert_agrees(DeformationContext(5), text)
