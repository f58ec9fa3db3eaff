"""Twisted derivatives, Laplacian and the invariant integral."""

import math
import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from haar_reference import haar_by_laplacian
from helpers import (central, classical_sphere_moment, random_element,
                     random_monomial)
from twistcalc import DeformationContext, Element
from twistcalc.haar import (haar_plane, lambda_coefficient, laplacian,
                            partial_derivative)


def test_partial_derivative_examples():
    ctx = DeformationContext(5)
    x = Element.x
    assert partial_derivative(ctx, 1, x(ctx, 1)) == Element.one(ctx)
    got = partial_derivative(ctx, 1, x(ctx, 2) * x(ctx, 1))
    assert got == x(ctx, 2) * ctx.q_power(1, 2, -1)
    assert partial_derivative(ctx, 2, Element.one(ctx)).is_zero()
    with pytest.raises(ValueError):
        partial_derivative(ctx, 1, Element.dx(ctx, 1))


def test_derivative_exchange_relation():
    rng = random.Random(1)
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        for _ in range(30):
            f = random_monomial(ctx, rng, 4)
            a, b = rng.randint(1, d), rng.randint(1, d)
            lhs = partial_derivative(ctx, a, partial_derivative(ctx, b, f))
            rhs = partial_derivative(ctx, b,
                                     partial_derivative(ctx, a, f)) \
                * ctx.q_power(a, b)
            assert lhs == rhs


def test_partials_reassemble_the_exterior_derivative():
    # d f = sum_c dx^c partial_c(f) on functions
    rng = random.Random(8)
    for d in (2, 3, 5):
        ctx = DeformationContext(d)
        for _ in range(20):
            f = random_element(ctx, rng, 4, 0, 3)
            total = Element.zero(ctx)
            for c in range(1, d + 1):
                total = total + Element.dx(ctx, c) * partial_derivative(ctx, c, f)
            assert total == f.d()


def test_laplacian_on_companion_pairs():
    for d in (2, 3, 4, 5, 6):
        ctx = DeformationContext(d)
        for k in range(1, d + 1):
            f = Element.x(ctx, k) * Element.x(ctx, ctx.primed(k))
            assert laplacian(f) == Element.from_scalar(ctx, 2)


def test_laplacian_on_central_element_and_degree_one():
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        assert laplacian(central(ctx)) == Element.from_scalar(ctx, 2 * d)
        assert laplacian(Element.x(ctx, 1)).is_zero()


def test_lambda_coefficients():
    assert lambda_coefficient(5, 0) == 1
    assert lambda_coefficient(5, 1) == Fraction(1, 10)
    for d in (3, 4, 5, 7):
        for n in range(0, 5):
            assert lambda_coefficient(d, n) == \
                lambda_coefficient(d, n + 1) * 2 * (n + 1) * (d + 2 * n)


def test_haar_basic_values():
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        assert haar_plane(ctx, Element.one(ctx)) == ctx.scalar_one()
        assert haar_plane(ctx, central(ctx)) == ctx.scalar_one()
        assert haar_plane(ctx, Element.x(ctx, 1)).is_zero()  # odd degree
    ctx = DeformationContext(5)
    assert haar_plane(ctx, Element.x(ctx, 3, 2)) == ctx.scalar(Fraction(1, 5))
    assert haar_plane(ctx, Element.x(ctx, 1) * Element.x(ctx, 5)) == \
        ctx.scalar(Fraction(1, 5))
    with pytest.raises(ValueError):
        haar_plane(ctx, Element.dx(ctx, 1))


def _monomials(d, max_deg):
    """Every exponent vector in d variables of total degree <= max_deg."""
    for total in range(max_deg + 1):
        for combo in combinations_with_replacement(range(d), total):
            e = [0] * d
            for j in combo:
                e[j] += 1
            yield tuple(e)


def test_haar_matches_classical_moments():
    # every balanced monomial (e_a = e_a', even middle exponent) integrates
    # to its classical sphere moment; x^i x^i and its like integrate to 0
    for d in range(2, 10):
        ctx = DeformationContext(d)
        half = d // 2
        for e in _monomials(d, 10):
            if any(e[a] != e[d - 1 - a] for a in range(half)) or \
                    (d % 2 and e[half] % 2):
                continue
            f = Element(ctx, {(e, ()): ctx.scalar_one()})
            assert haar_plane(ctx, f) == \
                ctx.scalar(classical_sphere_moment(d, e)), (d, e)
        for i in range(1, d + 1):
            if i != ctx.primed(i):
                sq = [0] * d
                sq[i - 1] = 2
                g = Element(ctx, {(tuple(sq), ()): ctx.scalar_one()})
                assert haar_plane(ctx, g).is_zero()
                assert classical_sphere_moment(d, sq) == 0


@pytest.mark.parametrize("commutative", [False, True])
@pytest.mark.parametrize("d,max_deg",
                         [(2, 8), (3, 8), (4, 8), (5, 8), (6, 6), (7, 6)])
def test_closed_form_matches_laplacian_recursion(d, max_deg, commutative):
    # every monomial of low degree, then random sums with phased coefficients
    ctx = DeformationContext(d, commutative=commutative)
    for e in _monomials(d, max_deg):
        f = Element(ctx, {(e, ()): ctx.scalar_one()})
        assert haar_plane(ctx, f) == haar_by_laplacian(ctx, f), e
    rng = random.Random(100 * d + commutative)
    for _ in range(50):
        f = random_element(ctx, rng, max_deg, 0, 5)
        assert haar_plane(ctx, f) == haar_by_laplacian(ctx, f)


def test_haar_well_defined_small_sweep():
    # full degree-6 sweep is in the acceptance suite
    for d in (3, 4):
        ctx = DeformationContext(d)
        rel = central(ctx) - Element.one(ctx)
        for e in _monomials(d, 4):
            m = Element(ctx, {(e, ()): ctx.scalar_one()})
            assert haar_plane(ctx, rel * m).is_zero()


def test_haar_trace_property():
    rng = random.Random(3)
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        for _ in range(60):
            f, g = random_monomial(ctx, rng, 3), random_monomial(ctx, rng, 3)
            assert haar_plane(ctx, f * g) == haar_plane(ctx, g * f)


def test_haar_reality_and_positivity():
    rng = random.Random(4)
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        for _ in range(30):
            f = random_monomial(ctx, rng, 4)
            assert haar_plane(ctx, f).conj() == haar_plane(ctx, f.star())
        for _ in range(12):
            f = random_element(ctx, rng, 2, 0, 3)
            s = haar_plane(ctx, f.star() * f)
            assert s.conj() == s
            th = [rng.uniform(0, 2 * math.pi) for _ in range(ctx.nparams)]
            v = s.eval(th)
            assert abs(v.imag) < 1e-9
            assert v.real > -1e-12
