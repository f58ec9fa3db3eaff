"""Normal ordering, exterior derivative and conjugation on the plane."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_element
from twistcalc import DeformationContext, Element, normal_order
from twistcalc.tensorcalc import volume_element


def x(ctx, a, p=1):
    return Element.x(ctx, a, p)


def dx(ctx, a):
    return Element.dx(ctx, a)


def test_normal_order_examples():
    ctx = DeformationContext(5)
    assert x(ctx, 2) * x(ctx, 1) == (x(ctx, 1) * x(ctx, 2)) * ctx.q_power(2, 1)
    assert (dx(ctx, 1) * dx(ctx, 1)).is_zero()
    assert dx(ctx, 3) * x(ctx, 1) == x(ctx, 1) * dx(ctx, 3)
    w = normal_order(ctx, [("x", 2), ("x", 1)])
    assert w == x(ctx, 2) * x(ctx, 1)
    with pytest.raises(IndexError):
        normal_order(ctx, [("x", 7)])
    with pytest.raises(ValueError):
        normal_order(ctx, [("y", 1)])


def test_mul_unit_and_scalar_mixing():
    ctx = DeformationContext(4)
    f = x(ctx, 2) * dx(ctx, 3)
    assert f * Element.one(ctx) == f
    assert Element.one(ctx) * f == f
    assert (x(ctx, 2) * (x(ctx, 1) * x(ctx, 2))) == \
        (x(ctx, 1) * x(ctx, 2, 2)) * ctx.q_power(1, 2, -1)


def test_mul_context_mismatch():
    with pytest.raises(ValueError):
        Element.x(DeformationContext(4), 1) * Element.x(DeformationContext(5), 1)


def test_repeated_differential_kills_products():
    ctx = DeformationContext(5)
    w = dx(ctx, 1) * dx(ctx, 2)
    assert (w * dx(ctx, 1)).is_zero()


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 6), st.data())
def test_normal_order_confluence(d, data):
    # any association / order of multiplying out a word gives one element
    ctx = DeformationContext(d)
    word = data.draw(st.lists(
        st.tuples(st.sampled_from(["x", "dx"]), st.integers(1, d)),
        min_size=2, max_size=8))
    gens = [Element.x(ctx, a) if k == "x" else Element.dx(ctx, a)
            for k, a in word]
    left = Element.one(ctx)
    for g in gens:
        left = left * g
    right = Element.one(ctx)
    for g in reversed(gens):
        right = g * right
    assert left == right
    mid = len(gens) // 2
    a_part = Element.one(ctx)
    for g in gens[:mid]:
        a_part = a_part * g
    b_part = Element.one(ctx)
    for g in gens[mid:]:
        b_part = b_part * g
    assert a_part * b_part == left


def _naive_reorder(ctx, word):
    """Independent normal ordering: bubble sort on the raw word, applying the
    exchange relations one adjacent swap at a time."""
    coeff = ctx.scalar_one()
    word = list(word)
    changed = True
    while changed:
        changed = False
        for j in range(len(word) - 1):
            (k1, a), (k2, b) = word[j], word[j + 1]
            if k1 == "dx" and k2 == "dx" and a == b:
                return None
            out_of_order = (
                (k1 == "dx" and k2 == "x")
                or (k1 == k2 and a > b))
            if not out_of_order:
                continue
            q = ctx.q_power(a, b)
            if k1 == "dx" and k2 == "dx":
                q = -q
            coeff = coeff * q
            word[j], word[j + 1] = word[j + 1], word[j]
            changed = True
    exps = [0] * ctx.dim
    dxs = []
    for kind, a in word:
        if kind == "x":
            exps[a - 1] += 1
        else:
            dxs.append(a)
    return coeff, (tuple(exps), tuple(dxs))


def test_normal_order_matches_naive_reordering():
    rng = random.Random(17)
    for d in (2, 3, 5, 6):
        ctx = DeformationContext(d)
        for _ in range(60):
            word = [("dx" if rng.random() < 0.35 else "x", rng.randint(1, d))
                    for _ in range(rng.randint(1, 8))]
            got = normal_order(ctx, word)
            naive = _naive_reorder(ctx, word)
            if naive is None:
                assert got.is_zero(), word
            else:
                coeff, key = naive
                assert got == Element(ctx, {key: coeff}), word


def test_mul_associative_random():
    rng = random.Random(3)
    ctx = DeformationContext(5)
    for _ in range(25):
        a = random_element(ctx, rng, 2, rng.randint(0, 2), 2)
        b = random_element(ctx, rng, 2, rng.randint(0, 2), 2)
        c = random_element(ctx, rng, 2, rng.randint(0, 1), 2)
        assert (a * b) * c == a * (b * c)


def test_exterior_derivative_examples():
    ctx = DeformationContext(5)
    assert x(ctx, 1).d() == dx(ctx, 1)
    f = x(ctx, 1) * x(ctx, 2)
    assert f.d() == dx(ctx, 1) * x(ctx, 2) + x(ctx, 1) * dx(ctx, 2)


def test_graded_leibniz_random():
    rng = random.Random(5)
    ctx = DeformationContext(5)
    for _ in range(30):
        ka, kb = rng.randint(0, 2), rng.randint(0, 2)
        f = random_element(ctx, rng, 2, ka, 2)
        g = random_element(ctx, rng, 2, kb, 2)
        sign = -1 if ka % 2 else 1
        assert (f * g).d() == f.d() * g + (f * g.d()).scale(sign)


def test_d_squared_zero():
    rng = random.Random(7)
    for d in (2, 3, 4, 5):
        ctx = DeformationContext(d)
        for _ in range(50 // 4 + 1):
            f = random_element(ctx, rng, 4, rng.randint(0, min(2, d)), 3)
            assert f.d().d().is_zero()


def test_star_examples():
    ctx = DeformationContext(5)
    assert x(ctx, 1).star() == x(ctx, 5)
    w = dx(ctx, 1) * dx(ctx, 2)
    assert w.star() == -(dx(ctx, 4) * dx(ctx, 5))


def test_star_involution_and_antihomomorphism():
    rng = random.Random(11)
    for d in (3, 5):
        ctx = DeformationContext(d)
        for _ in range(25):
            ka, kb = rng.randint(0, 2), rng.randint(0, 2)
            a = random_element(ctx, rng, 2, ka, 2)
            b = random_element(ctx, rng, 2, kb, 2)
            assert a.star().star() == a
            sign = -1 if (ka * kb) % 2 else 1
            assert (a * b).star() == (b.star() * a.star()).scale(sign)
            assert a.d().star() == a.star().d()


def test_wedge_basis_has_classical_dimensions():
    import math
    from itertools import permutations as perms
    for d in (2, 3, 4, 5):
        ctx = DeformationContext(d)
        total = 0
        for k in range(0, d + 1):
            keys = set()
            for idx in perms(range(1, d + 1), k):
                el = Element.one(ctx)
                for a in idx:
                    el = el * Element.dx(ctx, a)
                keys |= {mono[1] for mono in el.coefficients()}
            assert len(keys) == math.comb(d, k)
            total += len(keys)
        assert total == 2 ** d


def test_volume_form_central_and_real():
    for d in range(2, 7):
        ctx = DeformationContext(d)
        v = volume_element(ctx)
        for a in range(1, d + 1):
            assert Element.x(ctx, a) * v == v * Element.x(ctx, a)
        assert v.star() == v


def test_form_degree_queries():
    ctx = DeformationContext(4)
    f = x(ctx, 1) * dx(ctx, 2)
    assert f.form_degree() == 1
    mixed = f + Element.one(ctx)
    with pytest.raises(ValueError):
        mixed.form_degree()
    assert mixed.form_degrees() == {0, 1}
    assert mixed.homogeneous_part(1) == f
