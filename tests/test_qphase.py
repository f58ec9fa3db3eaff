"""Phase ring: reduction of q_{ab}, exact scalar arithmetic, evaluation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_coeffs as ref
from twistcalc import DeformationContext, qphase
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
    assert ctx.reduce_pair(1, 2).exponents == (1,)
    assert ctx.reduce_pair(4, 5).exponents == (-1,)
    assert ctx.reduce_pair(3, 1).exponents == (0,)
    assert ctx.reduce_pair(2, 2).exponents == (0,)
    assert ctx.reduce_pair(1, 5).exponents == (0,)  # companion pair
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
        assert ctx.reduce_pair(a, b).exponents == (e,)
        assert ctx.reduce_pair(b, a).exponents == (-e,)
    for a in range(1, 6):
        assert ctx.reduce_pair(3, a).exponents == (0,)


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
                ab = ctx.reduce_pair(a, b).exponents
                ba = ctx.reduce_pair(b, a).exponents
                assert all(x + y == 0 for x, y in zip(ab, ba))
                assert ab == ctx.reduce_pair(ctx.primed(a),
                                             ctx.primed(b)).exponents
                neg = ctx.reduce_pair(a, ctx.primed(b)).exponents
                assert all(x + y == 0 for x, y in zip(ab, neg))


def test_scalar_arithmetic_examples():
    ctx = DeformationContext(5)
    s = ctx.i_unit() * ctx.q_power(1, 2)
    assert s.conj() == (-ctx.i_unit()) * ctx.q_power(1, 2, -1)
    assert ctx.q_power(1, 2) * ctx.q_power(2, 1) == ctx.scalar_one()
    v = ctx.q_power(1, 2).eval([math.pi])
    assert abs(v - (-1.0)) < 1e-12


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
    s = qphase.ExactScalar({(2,): u})
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
    s = qphase.ExactScalar({(e,): ref.to_engine(x) for e, x in terms.items()})
    want = {(e,): x for e, x in terms.items() if any(x)}
    assert str(s) == ref.scalar_str(want)
    assert format_scalar(s, ctx) == ref.format_scalar(want, ctx)
    # the same value reached along another route is equal and hashes equal
    t = qphase.ExactScalar({(0,): ref.to_engine(y)})
    other = (s + t) - t
    assert other == s and hash(other) == hash(s)
    doubled = (s + s).scale(Fraction(1, 2))
    assert doubled == s and hash(doubled) == hash(s)
    for coeff in list(other.terms.values()) + list(doubled.terms.values()):
        _assert_canonical(coeff)
