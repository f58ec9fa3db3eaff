"""Braid matrix, antisymmetrizer, epsilon tensors, pairing, plane Hodge."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest

from helpers import basis_form, classical_gram_pairing, random_element
from twistcalc import DeformationContext, Element, tensorcalc
from twistcalc.tensorcalc import (antisym_w, antisym_w_bruteforce,
                                  apply_lambda, dx_sort, epsilon_q,
                                  epsilon_qinv, hodge_plane, lambda_entry,
                                  pairing_plane, volume_element)


def _word_phase(ctx, t, word):
    acc = [0] * ctx.nparams
    for pos in word:
        t, red = apply_lambda(ctx, t, pos)
        if red is not None:
            acc[red[0]] += red[1]
    return t, tuple(acc)


def test_lambda_entries():
    ctx = DeformationContext(4)
    assert lambda_entry(ctx, 1, 2, 2, 1) == ctx.q_power(1, 2)
    assert lambda_entry(ctx, 1, 2, 1, 2).is_zero()


def test_lambda_squares_to_identity():
    for d in range(2, 7):
        ctx = DeformationContext(d)
        for t in product(range(1, d + 1), repeat=2):
            u, ph = _word_phase(ctx, t, (0, 0))
            assert u == t and not any(ph), (d, t)


def test_braid_equation():
    for d in range(2, 7):
        ctx = DeformationContext(d)
        for t in product(range(1, d + 1), repeat=3):
            assert _word_phase(ctx, t, (0, 1, 0)) == \
                _word_phase(ctx, t, (1, 0, 1)), (d, t)


def test_epsilon_examples():
    for d in (2, 3, 4, 5, 6):
        ctx = DeformationContext(d)
        assert epsilon_q(ctx, tuple(range(1, d + 1))) == ctx.scalar_one()
        sign = -1 if (d // 2) % 2 else 1
        assert epsilon_q(ctx, tuple(range(d, 0, -1))) == ctx.scalar(sign)
    ctx = DeformationContext(4)
    assert epsilon_q(ctx, (2, 1, 3, 4)) == -ctx.q_power(2, 1)
    assert epsilon_q(ctx, (1, 1, 2, 3)).is_zero()
    with pytest.raises(ValueError):
        epsilon_q(ctx, (1, 2))


def test_epsilon_memo_matches_dx_sort_and_holds_only_permutations():
    caches = (tensorcalc._epsilon_perm, tensorcalc._epsilon_perm_inv)
    for d in (2, 3, 4, 5):
        ctx = DeformationContext(d)
        for cache in caches:
            cache.cache_clear()
        for idx in product(range(1, d + 1), repeat=d):
            r = dx_sort(ctx, idx)
            if r is None:
                assert epsilon_q(ctx, idx).is_zero()
                assert epsilon_qinv(ctx, idx).is_zero()
                continue
            shift, sign, _ = r
            assert epsilon_q(ctx, idx) == ctx.scalar(sign).shifted(shift)
            assert epsilon_qinv(ctx, idx) == ctx.scalar(sign).shifted(
                tuple(-x for x in shift))
        for cache in caches:
            assert cache.cache_info().currsize <= math.factorial(d)
    with pytest.raises(IndexError):
        epsilon_q(DeformationContext(4), (1, 1, 2, 9))
    with pytest.raises(IndexError):
        epsilon_qinv(DeformationContext(4), (0, 1, 2, 3))


def test_epsilon_q_antisymmetry_relation():
    # swapping the last two indices costs -q_{uv}
    ctx = DeformationContext(5)
    rng = random.Random(0)
    for _ in range(30):
        idx = tuple(rng.sample(range(1, 6), 5))
        swapped = idx[:3] + (idx[4], idx[3])
        lhs = epsilon_q(ctx, idx)
        rhs = -(ctx.q_power(idx[3], idx[4]) * epsilon_q(ctx, swapped))
        assert lhs == rhs


def test_antisymmetrizer_examples():
    ctx = DeformationContext(5)
    assert antisym_w(ctx, (1,), (1,)) == ctx.scalar_one()
    assert antisym_w(ctx, (1,), (2,)).is_zero()
    c4 = DeformationContext(4)
    assert antisym_w(c4, (1, 2), (2, 1)) == -c4.q_power(1, 2)
    # top entries reproduce the epsilon tensors
    for d in (2, 3, 4):
        ctx = DeformationContext(d)
        full = tuple(range(1, d + 1))
        for j in permutations(full):
            assert antisym_w(ctx, j, full) == epsilon_q(ctx, j)
            assert antisym_w(ctx, full, j) == epsilon_qinv(ctx, j)


def test_antisymmetrizer_recursion_equals_bruteforce():
    rng = random.Random(4)
    ctx = DeformationContext(5)
    for k in (1, 2, 3, 4):
        for _ in range(14 if k < 4 else 5):
            up = tuple(rng.randint(1, 5) for _ in range(k))
            lo = tuple(rng.randint(1, 5) for _ in range(k))
            assert antisym_w(ctx, up, lo) == \
                antisym_w_bruteforce(ctx, up, lo), (up, lo)


def test_antisymmetrizer_squares_to_k_factorial():
    # W_{1..k} W_{1..k} = k! W_{1..k}
    ctx = DeformationContext(4)
    rng = random.Random(6)
    for k in (2, 3):
        for _ in range(10):
            up = tuple(rng.randint(1, 4) for _ in range(k))
            lo = tuple(rng.randint(1, 4) for _ in range(k))
            acc = ctx.scalar_zero()
            for mid in product(range(1, 5), repeat=k):
                acc = acc + antisym_w(ctx, up, mid) * antisym_w(ctx, mid, lo)
            assert acc == antisym_w(ctx, up, lo).scale(math.factorial(k))


def test_contraction_identity_exhaustive_small():
    for d in (2, 3, 4):
        ctx = DeformationContext(d)
        full = range(1, d + 1)
        for k in range(0, d + 1):
            for up in product(full, repeat=k):
                for lo in product(full, repeat=k):
                    s = ctx.scalar_zero()
                    for l in product(full, repeat=d - k):
                        s = s + epsilon_q(ctx, up + l) * \
                            epsilon_qinv(ctx, lo + l)
                    assert s == antisym_w(ctx, up, lo).scale(
                        math.factorial(d - k)), (d, k, up, lo)


def test_contraction_identity_random_dimension_five():
    ctx = DeformationContext(5)
    rng = random.Random(8)
    full = range(1, 6)
    for _ in range(40):
        k = rng.randint(1, 4)
        up = tuple(rng.randint(1, 5) for _ in range(k))
        lo = tuple(rng.randint(1, 5) for _ in range(k))
        s = ctx.scalar_zero()
        cyc = ctx.scalar_zero()
        for l in product(full, repeat=5 - k):
            s = s + epsilon_q(ctx, up + l) * epsilon_qinv(ctx, lo + l)
            cyc = cyc + epsilon_q(ctx, l + up) * epsilon_qinv(ctx, l + lo)
        w = antisym_w(ctx, up, lo).scale(math.factorial(5 - k))
        assert s == w
        assert cyc == w


def test_partial_traces():
    rng = random.Random(9)
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        for k in (2, 3):
            for _ in range(12):
                up = tuple(rng.randint(1, d) for _ in range(k - 1))
                lo = tuple(rng.randint(1, d) for _ in range(k - 1))
                tr_last = ctx.scalar_zero()
                tr_first = ctx.scalar_zero()
                for m in range(1, d + 1):
                    tr_last = tr_last + antisym_w(ctx, up + (m,), lo + (m,))
                    tr_first = tr_first + antisym_w(ctx, (m,) + up, (m,) + lo)
                want = antisym_w(ctx, up, lo).scale(d - k + 1)
                assert tr_last == want
                assert tr_first == want


def test_metric_epsilon_lemma():
    for d in (2, 3, 4, 5):
        ctx = DeformationContext(d)
        det_sign = -1 if (d // 2) % 2 else 1
        # q-determinant of g
        acc = ctx.scalar_zero()
        for idx in permutations(range(1, d + 1)):
            if all(idx[j - 1] == ctx.primed(j) for j in range(1, d + 1)):
                acc = acc + epsilon_q(ctx, idx)
        assert acc == ctx.scalar(det_sign)
        for idx in permutations(range(1, d + 1)):
            primed = tuple(ctx.primed(a) for a in idx)
            assert epsilon_q(ctx, primed) == epsilon_q(ctx, idx).scale(det_sign)
            assert epsilon_qinv(ctx, idx) == \
                epsilon_q(ctx, tuple(reversed(idx))).scale(det_sign)


def test_wedge_tensor_pairing_symmetry():
    # g^{a_k b_k}..g^{a_1 b_1} W^{i_k..i_1}_{b_k..b_1} = W^{a..}_{b..} g^{b i}..
    rng = random.Random(10)
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        for _ in range(20):
            k = rng.randint(1, 3)
            a_idx = tuple(rng.randint(1, d) for _ in range(k))
            i_idx = tuple(rng.randint(1, d) for _ in range(k))
            lhs = antisym_w(ctx, tuple(reversed(i_idx)),
                            tuple(ctx.primed(a) for a in reversed(a_idx)))
            rhs = antisym_w(ctx, a_idx,
                            tuple(ctx.primed(i) for i in i_idx))
            assert lhs == rhs


def test_pairing_examples():
    for d in (2, 3, 4, 5):
        ctx = DeformationContext(d)
        one = Element.one(ctx)
        assert pairing_plane(Element.dx(ctx, 1), Element.dx(ctx, d)) == one
        if d >= 2:
            assert pairing_plane(Element.dx(ctx, 1),
                                 Element.dx(ctx, 1)).is_zero()
        v = volume_element(ctx)
        assert pairing_plane(v, v) == one
    with pytest.raises(ValueError):
        ctx = DeformationContext(3)
        pairing_plane(Element.dx(ctx, 1),
                      Element.dx(ctx, 1) * Element.dx(ctx, 2))


def test_pairing_bimodule_property():
    rng = random.Random(12)
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        for _ in range(20):
            k = rng.randint(1, d - 1)
            th = random_element(ctx, rng, 2, k, 2)
            tp = random_element(ctx, rng, 2, k, 2)
            f = random_element(ctx, rng, 2, 0, 2)
            assert pairing_plane(th * f, tp) == pairing_plane(th, f * tp)


def test_hodge_normalisation():
    for d in (2, 3, 4, 5):
        ctx = DeformationContext(d)
        v = volume_element(ctx)
        assert hodge_plane(Element.one(ctx)) == v
        assert hodge_plane(v) == Element.one(ctx)


def test_hodge_double_star_sign():
    for d in (2, 3, 4, 5):
        ctx = DeformationContext(d)
        for k in range(0, d + 1):
            sign = -1 if (k * (d - k)) % 2 else 1
            for s in combinations(range(1, d + 1), k):
                a = basis_form(ctx, s)
                assert hodge_plane(hodge_plane(a)) == a.scale(sign)


def test_hodge_defining_relation_full_bases():
    for d in (2, 3, 4, 5):
        ctx = DeformationContext(d)
        v = volume_element(ctx)
        for k in range(0, d + 1):
            for s in combinations(range(1, d + 1), k):
                a = basis_form(ctx, s)
                for t in combinations(range(1, d + 1), k):
                    b = basis_form(ctx, t)
                    assert a * hodge_plane(b) == pairing_plane(a, b) * v


def test_hodge_exchange_isometry_duality_reality():
    for d in (2, 3, 4):
        ctx = DeformationContext(d)
        v = volume_element(ctx)
        for k in range(0, d + 1):
            sign = -1 if (k * (d - k)) % 2 else 1
            for s in combinations(range(1, d + 1), k):
                a = basis_form(ctx, s)
                sa = hodge_plane(a)
                assert hodge_plane(a.star()) == sa.star()
                for t in combinations(range(1, d + 1), k):
                    b = basis_form(ctx, t)
                    assert a * hodge_plane(b) == (sa * b).scale(sign)
                    assert pairing_plane(a, b) == \
                        pairing_plane(sa, hodge_plane(b))
                for t in combinations(range(1, d + 1), d - k):
                    g = basis_form(ctx, t)
                    assert pairing_plane(sa, g) == pairing_plane(a * g, v)


def test_hodge_function_bilinearity():
    rng = random.Random(13)
    ctx = DeformationContext(4)
    for _ in range(15):
        k = rng.randint(0, 4)
        a = random_element(ctx, rng, 1, k, 2)
        f = random_element(ctx, rng, 2, 0, 2)
        h = random_element(ctx, rng, 2, 0, 2)
        assert hodge_plane(f * a * h) == f * hodge_plane(a) * h


def test_hodge_mixed_degree_rejected():
    ctx = DeformationContext(3)
    mixed = Element.one(ctx) + Element.dx(ctx, 1)
    with pytest.raises(ValueError):
        hodge_plane(mixed)


def test_commutative_pairing_matches_gram_determinant():
    # q -> 1: the engine pairing of basis forms is det(g^{u v})
    ctx = DeformationContext(4, commutative=True)
    for k in range(0, 5):
        for u in combinations(range(1, 5), k):
            for v in combinations(range(1, 5), k):
                got = pairing_plane(basis_form(ctx, u), basis_form(ctx, v))
                want = Element.from_scalar(
                    ctx, Fraction(classical_gram_pairing(ctx, u, v)))
                assert got == want, (u, v)


def test_commutative_two_dimensional_star_solves_defining_relation():
    ctx = DeformationContext(2, commutative=True)
    v = volume_element(ctx)
    got = hodge_plane(Element.dx(ctx, 1))
    # direct check of the defining relation on the 2-dimensional basis
    for u in ((1,), (2,)):
        a = basis_form(ctx, u)
        lhs = a * got
        want = pairing_plane(a, Element.dx(ctx, 1)) * v
        assert lhs == want
