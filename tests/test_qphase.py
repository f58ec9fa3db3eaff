"""Phase ring: reduction of q_{ab}, exact scalar arithmetic, evaluation."""

import cmath
import copy
import math
import pickle
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_coeffs as ref
from phase_reference import reduce_pair_orbit
from twistcalc import DeformationContext, chern, qphase
from twistcalc.exprio import format_scalar


def test_independent_parameter_count():
    for d in range(1, 9):
        ctx = DeformationContext(d)
        half = d // 2
        assert len(ctx.params) == half * (half - 1) // 2
    assert DeformationContext(3).params == []
    assert DeformationContext(5).params == [(1, 2)]
    assert DeformationContext(8).params == [(1, 2), (1, 3), (1, 4),
                                            (2, 3), (2, 4), (3, 4)]


def test_primed_involution():
    for d in (2, 5, 8):
        ctx = DeformationContext(d)
        for a in range(1, d + 1):
            assert ctx.primed(ctx.primed(a)) == a
        if d % 2:
            mid = d // 2 + 1
            assert ctx.primed(mid) == mid


def test_reduce_pair_examples():
    ctx = DeformationContext(5)
    assert ctx.reduce_pair(1, 2) == (1,)
    assert ctx.reduce_pair(4, 5) == (-1,)
    assert ctx.reduce_pair(3, 1) == (0,)
    assert ctx.reduce_pair(2, 2) == (0,)
    assert ctx.reduce_pair(1, 5) == (0,)  # companion pair
    with pytest.raises(IndexError):
        ctx.reduce_pair(0, 1)
    with pytest.raises(IndexError):
        ctx.reduce_pair(1, 6)


def test_phase_matrix_for_connes_landi_sphere():
    # D = 5: the single parameter q with the explicit exchange table
    ctx = DeformationContext(5)
    expected = {(1, 2): 1, (1, 4): -1, (1, 5): 0, (2, 4): 0, (2, 5): 1,
                (4, 5): -1}
    for (a, b), e in expected.items():
        assert ctx.reduce_pair(a, b) == (e,)
        assert ctx.reduce_pair(b, a) == (-e,)
    for a in range(1, 6):
        assert ctx.reduce_pair(3, a) == (0,)


def test_column_products_trivial():
    # prod_i q_{ip} = 1 for every column p, D <= 8
    for d in range(1, 9):
        ctx = DeformationContext(d)
        for p in range(1, d + 1):
            acc = [0] * ctx.nparams
            for i in range(1, d + 1):
                red = ctx.pair_reduction(i, p)
                if red is not None:
                    acc[red[0]] += red[1]
            assert not any(acc), (d, p)


def test_pair_reduction_symmetries():
    for d in range(1, 9):
        ctx = DeformationContext(d)
        for a in range(1, d + 1):
            for b in range(1, d + 1):
                ab = ctx.reduce_pair(a, b)
                ba = ctx.reduce_pair(b, a)
                assert all(x + y == 0 for x, y in zip(ab, ba))
                assert ab == ctx.reduce_pair(ctx.primed(a),
                                             ctx.primed(b))
                neg = ctx.reduce_pair(a, ctx.primed(b))
                assert all(x + y == 0 for x, y in zip(ab, neg))


def test_scalar_arithmetic_examples():
    ctx = DeformationContext(5)
    s = ctx.i_unit() * ctx.q_power(1, 2)
    assert s.conj() == (-ctx.i_unit()) * ctx.q_power(1, 2, -1)
    assert ctx.q_power(1, 2) * ctx.q_power(2, 1) == ctx.scalar_one()
    v = ctx.q_power(1, 2).eval([math.pi])
    assert abs(v - (-1.0)) < 1e-12


def test_context_dimension_limit():
    # the largest context the charge builds (n = 64) is the limit
    assert qphase.MAX_DIM == 2 * chern.MAX_HALF_DIM + 1 == 129
    assert DeformationContext(qphase.MAX_DIM).dim == 129
    for dim in (130, 10 ** 6):
        with pytest.raises(ValueError, match="exceeds the limit 129"):
            DeformationContext(dim)


def test_rational_factor_keeps_the_other_key():
    # a factor with all-zero phase exponents builds no new exponent tuple:
    # at D = 25 each tuple has 66 entries
    ctx = DeformationContext(25)
    two, q = ctx.scalar(2), ctx.q_power(3, 7)
    (key,), (qkey,) = two.terms, q.terms
    for product, want in ((two * two, key), (two * q, qkey), (q * two, qkey)):
        (got,) = product.terms
        assert got is want
    assert two * two == ctx.scalar(4) and two * q == q.scale(2)
    # so does the one key in the key algebra of the term loops
    one = ctx.one_key
    assert key is one
    for got in (qphase._key_mul(one, one, qkey), qphase._key_mul(one, qkey, one),
                qphase._key_mul(one, qkey, one, one),
                qphase._key_div(one, qkey, one)):
        assert got is qkey


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 11), st.data())
def test_key_algebra_is_exponent_arithmetic(dim, data):
    # product, quotient, inverse and the one-key test of phase keys agree
    # with the arithmetic of their exponent vectors, through the conversions
    ctx = DeformationContext(dim)
    n, one = ctx.nparams, ctx.one_key
    vectors = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(tuple)
    u, v, w = (data.draw(vectors) for _ in range(3))
    ku, kv, kw = (qphase._phase_key(x) for x in (u, v, w))

    def exps(k):
        return qphase._phase_exps(k, n)

    assert exps(ku) == u and exps(one) == (0,) * n
    assert (ku == kv) == (u == v) and (ku == one) == (not any(u))
    assert exps(qphase._key_mul(one, ku, kv)) == tuple(
        a + b for a, b in zip(u, v))
    assert exps(qphase._key_mul(one, ku, kv, kw)) == tuple(
        a + b + c for a, b, c in zip(u, v, w))
    assert exps(qphase._key_div(one, ku, kv)) == tuple(
        a - b for a, b in zip(u, v))
    assert exps(qphase._key_inv(ku)) == tuple(-a for a in u)


def _random_scalar(ctx, rng):
    c = ctx.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 4)))
    c = c + ctx.i_unit().scale(rng.randint(-3, 3))
    c = c + ctx.sqrt2().scale(rng.randint(-2, 2))
    if ctx.nparams:
        sh = [0] * ctx.nparams
        sh[rng.randrange(ctx.nparams)] = rng.randint(-3, 3)
        c = c.shifted(tuple(sh))
    return c


def test_conjugation_involution_and_eval():
    ctx = DeformationContext(6)
    rng = random.Random(1)
    for _ in range(50):
        s = _random_scalar(ctx, rng)
        assert s.conj().conj() == s
        th = [rng.uniform(0, 2 * math.pi) for _ in range(ctx.nparams)]
        assert abs(s.conj().eval(th) - s.eval(th).conjugate()) < 1e-10


def test_eval_is_ring_homomorphism():
    ctx = DeformationContext(5)
    rng = random.Random(2)
    for _ in range(30):
        s, t = _random_scalar(ctx, rng), _random_scalar(ctx, rng)
        th = [rng.uniform(0, 2 * math.pi)]
        assert abs((s * t).eval(th) - s.eval(th) * t.eval(th)) < 1e-9
        assert abs((s + t).eval(th) - (s.eval(th) + t.eval(th))) < 1e-10


@settings(max_examples=60, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))
def test_scalar_ring_axioms(a1, b1, e1, a2, b2, e2):
    ctx = DeformationContext(4)
    s = (ctx.scalar(a1) + ctx.i_unit().scale(b1)).shifted((e1,))
    t = (ctx.scalar(a2) + ctx.sqrt2().scale(b2)).shifted((e2,))
    u = ctx.q_power(1, 2) + ctx.scalar(1)
    assert (s + t) + u == s + (t + u)
    assert s * (t * u) == (s * t) * u
    assert s * (t + u) == s * t + s * u
    assert (s * t).conj() == s.conj() * t.conj()


def test_unit_inverse():
    ctx = DeformationContext(5)
    s = ctx.i_unit() * ctx.q_power(1, 2, -3) * ctx.sqrt2()
    inv = s.inverse()
    assert s * inv == ctx.scalar_one()
    with pytest.raises(ZeroDivisionError):
        (ctx.scalar(1) + ctx.q_power(1, 2)).inverse()


def test_invert_phases_fixes_coefficients():
    ctx = DeformationContext(5)
    s = (ctx.scalar(3) + ctx.i_unit()) * ctx.q_power(1, 2, 2)
    flipped = s.invert_phases()
    assert flipped == (ctx.scalar(3) + ctx.i_unit()) * ctx.q_power(1, 2, -2)


def test_commutative_context_has_no_phases():
    ctx = DeformationContext(6, commutative=True)
    assert ctx.nparams == 0
    assert ctx.q_power(1, 2) == ctx.scalar_one()


def test_equal_contexts_share_one_pair_table():
    # one context per (dim, commutative): built apart, copied or unpickled,
    # it is the same object, and its pair table is reduced once
    for dim in (1, 2, 5, 8):
        a = DeformationContext(dim)
        assert DeformationContext(dim) is a
        assert DeformationContext(dim=dim, commutative=False) is a
        assert copy.deepcopy(a) is a and pickle.loads(pickle.dumps(a)) is a
        assert a._pair_table == {
            (x, y): reduce_pair_orbit(a, x, y)
            for x in range(1, dim + 1) for y in range(1, dim + 1)}
        flat = DeformationContext(dim, commutative=True)
        assert flat is not a and flat != a
        assert flat._pair_table is not a._pair_table
        assert DeformationContext(dim, commutative=True) is flat
    for dim in (0, -3):
        with pytest.raises(ValueError):
            DeformationContext(dim)


# -- coefficient ring against the Fraction 4-tuple reference ------------------

_fracs = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-30, max_value=30,
                                max_denominator=12))
_coeffs = st.tuples(_fracs, _fracs, _fracs, _fracs)


def _assert_canonical(u):
    assert len(u) == 5 and all(type(x) is int for x in u), u
    assert u[4] > 0, u
    assert math.gcd(*u) == 1, u
    if not any(u[:4]):
        assert u == (0, 0, 0, 0, 1)


@settings(max_examples=300, deadline=None)
@given(_coeffs, _coeffs, _fracs)
def test_coefficient_ops_match_fraction_reference(x, y, r):
    u, v = ref.to_engine(x), ref.to_engine(y)
    _assert_canonical(u)
    assert ref.from_engine(u) == x
    checks = [
        (qphase._c_add(u, v), ref.c_add(x, y)),
        (qphase._c_add(u, qphase._c_neg(u)), (0, 0, 0, 0)),
        (qphase._c_mul(u, v), ref.c_mul(x, y)),
        (qphase._c_neg(u), ref.c_neg(x)),
        (qphase._c_conj(u), ref.c_conj(x)),
    ]
    if any(x):
        checks.append((qphase._c_inv(u), ref.c_inv(x)))
    else:
        with pytest.raises(ZeroDivisionError):
            qphase._c_inv(u)
    ctx = DeformationContext(5)
    s = qphase.ExactScalar(ctx, {(2,): u})
    checks.append((s.scale(r).terms.get((2,), (0, 0, 0, 0, 1)),
                   ref.c_scale(x, r)))
    for got, want in checks:
        _assert_canonical(got)
        assert ref.from_engine(got) == tuple(want)
    assert qphase._c_eval(u) == ref.c_eval(x)
    assert s.scale(r) == (s * ctx.scalar(r) if r else ctx.scalar_zero())


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(-3, 3), _coeffs, max_size=3), _coeffs)
def test_scalar_hash_and_printing_match_reference(terms, y):
    ctx = DeformationContext(5)
    s = qphase.ExactScalar(ctx, {(e,): ref.to_engine(x)
                                 for e, x in terms.items()})
    want = {(e,): x for e, x in terms.items() if any(x)}
    assert format_scalar(s) == ref.format_scalar(want, ctx)
    scope = {"ExactScalar": qphase.ExactScalar,
             "DeformationContext": DeformationContext}
    for value in (s, ctx.scalar_zero()):
        assert eval(repr(value), scope) == value
    # the same value reached along another route is equal and hashes equal
    t = qphase.ExactScalar(ctx, {(0,): ref.to_engine(y)})
    other = (s + t) - t
    assert other == s and hash(other) == hash(s)
    doubled = (s + s).scale(Fraction(1, 2))
    assert doubled == s and hash(doubled) == hash(s)
    for coeff in list(other.terms.values()) + list(doubled.terms.values()):
        _assert_canonical(coeff)


# scalars over D = 7, whose phases are q_12, q_13 and q_23
_scalars = st.dictionaries(
    st.tuples(*[st.integers(-3, 3)] * 3), _coeffs, max_size=4).map(
        lambda terms: qphase.ExactScalar(
            DeformationContext(7),
            {k: ref.to_engine(x) for k, x in terms.items()}))


@settings(max_examples=150, deadline=None)
@given(_scalars, st.integers(3, 40), st.lists(st.integers(0, 39), min_size=3,
                                              max_size=3))
def test_eval_at_angles_is_eval_at_matching_roots(s, m, ks):
    # the angles 2 pi k/m and the m-th roots of unity zeta^k, zeta =
    # e^(2 pi i/m), as the oracle's models take them
    zeta_powers = np.exp(2j * np.pi * np.arange(m) / m)
    theta = [2 * math.pi * (k % m) / m for k in ks]
    got = s.eval(theta)
    want = s.eval_at_roots([complex(zeta_powers[k % m]) for k in ks])
    size = sum(abs(qphase._c_eval(v)) for v in s.terms.values())
    assert abs(got - want) <= 1e-12 * max(1.0, size)


@settings(max_examples=150, deadline=None)
@given(_scalars, _scalars)
def test_difference_is_sum_with_the_negation(a, b):
    assert a - b == a + (-b)
    assert a - a == DeformationContext(7).scalar_zero()
    for coeff in (a - b).terms.values():
        _assert_canonical(coeff)


def _cross_context_pairs():
    """Pairs of scalars over different contexts: D = 5 and 7 phases, and
    D = 3 and the commutative D = 5, both without parameters, whose keys
    are the same empty tuple."""
    c5, c7 = DeformationContext(5), DeformationContext(7)
    c3, flat5 = DeformationContext(3), DeformationContext(5, commutative=True)
    return [(c5.q_power(1, 2), c7.q_power(2, 3)),
            (c5.scalar_one(), c7.scalar(2)),
            (c3.scalar(3), flat5.scalar(3)),
            (c3.i_unit(), flat5.sqrt2()),
            (c3.scalar_zero(), flat5.scalar_one())]


def test_scalars_of_different_contexts_do_not_mix():
    for a, b in _cross_context_pairs():
        for op in (lambda: a + b, lambda: a - b, lambda: a * b,
                   lambda: b + a, lambda: b - a, lambda: b * a):
            with pytest.raises(ValueError, match="different contexts"):
                op()
    # the D = 7 phase is no longer truncated onto the D = 5 key
    with pytest.raises(ValueError):
        DeformationContext(5).q_power(1, 2) * DeformationContext(7).q_power(2, 3)
    # scalars of the same value over two contexts are not equal
    c3, flat5 = DeformationContext(3), DeformationContext(5, commutative=True)
    assert c3.scalar(3).terms == flat5.scalar(3).terms
    assert c3.scalar(3) != flat5.scalar(3)
    assert c3.scalar_zero() != flat5.scalar_zero()
    assert DeformationContext(5).scalar_one() != DeformationContext(7).scalar_one()
    assert c3.scalar(3) == c3.scalar(3) and c3.scalar(3).ctx is c3


def test_eval_needs_one_value_per_parameter():
    ctx = DeformationContext(9)  # six phase parameters
    s = ctx.q_power(3, 4) + ctx.q_power(1, 2, 2).scale(3) + ctx.i_unit()
    for values in ([0.5], [], [0.5] * 7):
        for call in (s.eval, s.eval_at_roots):
            with pytest.raises(ValueError, match=rf"has 6 phase parameters, "
                                                 rf"got {len(values)} values"):
                call(values)
    with pytest.raises(ValueError):
        ctx.q_power(3, 4).eval([0.5])
    with pytest.raises(ValueError):
        s.eval()
    # with one angle per parameter the value is the sum of its terms
    angles = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    q12, q34 = (ctx.param_index[p] for p in ((1, 2), (3, 4)))
    sign = ctx.pair_reduction(3, 4)[1]
    want = (cmath.exp(1j * sign * angles[q34])
            + 3 * cmath.exp(2j * ctx.pair_reduction(1, 2)[1] * angles[q12])
            + 1j)
    assert abs(s.eval(angles) - want) < 1e-12
    roots = [cmath.exp(1j * t) for t in angles]
    assert s.eval_at_roots(roots) == s.eval(angles)
    # a context without parameters takes no angles, as before
    assert DeformationContext(3).scalar(2).eval() == 2
