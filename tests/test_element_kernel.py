"""The flat term store and its product kernel against the per-monomial
reference loops of ``element_reference``."""

import ast
import math
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import element_reference as ref
from helpers import random_element
from twistcalc import DeformationContext, Element, ExactScalar, chern, ncalg
from twistcalc.chern import Matrix
from twistcalc.haar import partial_derivative
from twistcalc.identities import basis_form
from twistcalc.qphase import _add_into, _c_reduce
from twistcalc.sphere import hodge_sphere, omega_form, pairing_sphere
from twistcalc.tensorcalc import epsilon_q, epsilon_qinv, hodge_plane, pairing_plane


def _assert_canonical(el: Element):
    """Every stored term is a (monomial, phase exponents) key of the
    context's shape with a nonzero canonical coefficient 5-tuple."""
    ctx = el.ctx
    for ((exps, dxs), phase), u in el.terms.items():
        assert len(exps) == ctx.dim and len(phase) == ctx.nparams, el
        assert list(dxs) == sorted(set(dxs)), el
        assert any(u[:4]), el
        assert u[4] > 0 and math.gcd(*u) == 1, el


@st.composite
def _context(draw, low=2):
    """A context of dimension low..9, deformed or commutative."""
    return DeformationContext(draw(st.integers(low, 9)),
                              commutative=draw(st.booleans()))


@st.composite
def _coeff(draw, ctx):
    """A scalar with up to three phase monomials and parts in 1, i, sqrt2,
    i*sqrt2 over a small denominator."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        phase = tuple(draw(st.integers(-2, 2)) for _ in range(ctx.nparams))
        parts = [draw(st.integers(-3, 3)) for _ in range(4)]
        if not any(parts):
            parts[0] = 1
        terms[phase] = _c_reduce(*parts, draw(st.integers(1, 4)))
    return ExactScalar(terms)


@st.composite
def _monomial(draw, ctx, form_deg=None):
    exps = [0] * ctx.dim
    for _ in range(draw(st.integers(0, 3))):
        exps[draw(st.integers(0, ctx.dim - 1))] += 1
    if form_deg is None:
        form_deg = draw(st.integers(0, min(3, ctx.dim)))
    dxs = draw(st.lists(st.integers(1, ctx.dim), min_size=form_deg,
                        max_size=form_deg, unique=True))
    return tuple(exps), tuple(sorted(dxs))


@st.composite
def _element(draw, ctx, max_terms=4, form_deg=None):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        terms[draw(_monomial(ctx, form_deg))] = draw(_coeff(ctx))
    return Element(ctx, terms)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.data())
def test_products_match_reference(d, data):
    ctx = DeformationContext(d)
    a = data.draw(_element(ctx))
    b = data.draw(_element(ctx))
    got = a * b
    assert got == ref.element_mul(a, b)
    _assert_canonical(got)
    # a sum of products through one accumulator is the sum of the products
    c = data.draw(_element(ctx))
    acc = {}
    ncalg._mul_into(acc, ctx, a.terms, b.terms)
    ncalg._mul_into(acc, ctx, c.terms, a.terms)
    _add_into(acc, b.terms)
    total = ncalg._finish(ctx, acc)
    assert total == ref.element_mul(a, b) + ref.element_mul(c, a) + b
    _assert_canonical(total)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.data())
def test_cancelling_term_pairs_leave_no_zero_coefficient(d, data):
    # a = ca (m + n), b = cb (n - lambda m) with lambda chosen so that the
    # m*n and n*m contributions to their common monomial cancel exactly
    ctx = DeformationContext(d)
    m = data.draw(_monomial(ctx))
    n = data.draw(_monomial(ctx))
    rmn, rnm = ref.mono_mul(ctx, m, n), ref.mono_mul(ctx, n, m)
    if m == n or rmn is None:
        return
    (sh1, sg1, key), (sh2, sg2, key2) = rmn, rnm
    assert key == key2
    ca, cb = data.draw(_coeff(ctx)), data.draw(_coeff(ctx))
    lam = cb.shifted(tuple(x - y for x, y in zip(sh1, sh2)), -sg1 * sg2)
    a = Element(ctx, {m: ca, n: ca})
    b = Element(ctx, {n: cb, m: lam})
    got = a * b
    assert got == ref.element_mul(a, b)
    assert key not in got.coefficients()
    _assert_canonical(got)
    assert (a * b - ref.element_mul(a, b)).is_zero()


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_flat_store_round_trips_and_associates(data):
    """The per-monomial view rebuilds the element, hash included, and both
    association orders of a triple product store the same terms."""
    ctx = data.draw(_context())
    a, b, c = (data.draw(_element(ctx, 3)) for _ in range(3))
    for el in (a, b, a * b):
        _assert_canonical(el)
        again = Element(ctx, el.coefficients())
        assert again == el and hash(again) == hash(el)
    left, right = (a * b) * c, a * (b * c)
    assert left == right and hash(left) == hash(right)
    _assert_canonical(left)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_linear_operations_match_per_monomial_loops(data):
    ctx = data.draw(_context())
    a, b = data.draw(_element(ctx)), data.draw(_element(ctx))
    s = data.draw(_coeff(ctx))
    r = data.draw(st.fractions(-3, 3, max_denominator=4))
    k = data.draw(st.integers(0, min(3, ctx.dim)))
    for got, want in ((-a, ref.neg(a)), (a - b, ref.sub(a, b)),
                      (a - a, Element.zero(ctx)),
                      (a.scale(r), ref.scale(a, r)),
                      (a.scale(s), ref.scale(a, s)), (s * a, ref.scale(a, s)),
                      (a.d(), ref.d(a)), (a.star(), ref.star(a)),
                      (a.homogeneous_part(k), ref.homogeneous_part(a, k))):
        assert got == want
        _assert_canonical(got)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_two_phase_coefficients_survive_products_and_cancel(data):
    """(1 + q12) m1 times (1 - q12) m2 holds 1 - q12^2: its two q12 terms
    cancel inside the kernel and two phases survive; and a two-phase
    coefficient cancels exactly against its phases taken one at a time."""
    ctx = data.draw(_context(4))
    one, q = ctx.scalar_one(), ctx.q_power(1, 2)
    m1, m2 = data.draw(_monomial(ctx)), data.draw(_monomial(ctx))
    plus, minus = Element(ctx, {m1: one + q}), Element(ctx, {m2: one - q})
    got = plus * minus
    assert got == ref.element_mul(plus, minus)
    _assert_canonical(got)
    if got:
        (coeff,) = got.coefficients().values()
        assert len(coeff.terms) == 2
    f = data.draw(_element(ctx))
    prod = plus * f
    assert prod == ref.element_mul(plus, f)
    _assert_canonical(prod)
    apart = Element(ctx, {m1: one}) * f + Element(ctx, {m1: q}) * f
    assert (prod - apart).is_zero() and prod == apart
    assert plus - Element(ctx, {m1: q}) == Element(ctx, {m1: one})


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.data())
def test_pairing_and_plane_hodge_match_reference(d, data):
    ctx = DeformationContext(d)
    k = data.draw(st.integers(0, min(3, d)))
    alpha = data.draw(_element(ctx, 3, k))
    beta = data.draw(_element(ctx, 3, k))
    got = pairing_plane(alpha, beta)
    assert got == ref.pairing_plane(alpha, beta)
    _assert_canonical(got)
    if alpha:
        star = hodge_plane(alpha)
        assert star == ref.hodge_plane(alpha)
        _assert_canonical(star)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 9), st.data())
def test_d_star_and_partials_match_hand_written_loops(d, data):
    """d, star and the twisted derivatives take their phases from the
    normal-ordering kernel; the reference counts them over the pair table."""
    ctx = DeformationContext(d)
    a = data.draw(_element(ctx))
    for got, want in ((a.d(), ref.d(a)), (a.star(), ref.star(a))):
        assert got == want
        _assert_canonical(got)
    f = data.draw(_element(ctx, form_deg=0))
    s = data.draw(st.integers(1, d))
    got = partial_derivative(ctx, s, f)
    assert got == ref.partial_derivative(ctx, s, f)
    _assert_canonical(got)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 9), st.data())
def test_pairing_and_epsilon_match_hand_written_loops(d, data):
    """The pairing's right-slot shift and eps_q, eps_q^-1 against the
    reference pairing and ``dx_sort``."""
    ctx = DeformationContext(d)
    k = data.draw(st.integers(0, min(3, d)))
    alpha = data.draw(_element(ctx, 3, k))
    beta = data.draw(_element(ctx, 3, k))
    assert pairing_plane(alpha, beta) == ref.pairing_plane(alpha, beta)
    perm = tuple(data.draw(st.permutations(range(1, d + 1))))
    shift, sign, _ = ref.dx_sort(ctx, perm)
    assert epsilon_q(ctx, perm) == ctx.scalar(sign).shifted(shift)
    assert epsilon_qinv(ctx, perm) == ctx.scalar(sign).shifted(
        tuple(-x for x in shift))


def test_only_the_kernel_reads_the_pair_table():
    """Exchange phases are computed in one place: apart from qphase.py,
    which builds the pair table, only ncalg._mono_mul reads it."""
    readers = set()
    for path in sorted(Path(ncalg.__file__).parent.glob("*.py")):
        module = path.stem
        text = path.read_text()
        if module == "qphase":
            continue
        if module != "ncalg":
            assert "_pair_table" not in text, module
            continue
        scope = []

        def visit(node):
            named = isinstance(node, (ast.FunctionDef, ast.ClassDef))
            if named:
                scope.append(node.name)
            if isinstance(node, ast.Attribute) and node.attr == "_pair_table":
                readers.add(".".join(scope))
            for child in ast.iter_child_nodes(node):
                visit(child)
            if named:
                scope.pop()

        visit(ast.parse(text))
    assert readers == {"_mono_mul"}


@pytest.mark.parametrize("d", range(2, 8))
def test_closed_forms_match_permutation_sums_on_every_basis_form(d):
    """Each plane and sphere star of a basis form, each volume form omega_k
    and each pairing of two basis forms equals the reference that sums over
    every order of the complementary indices or reads W for the pair."""
    ctx = DeformationContext(d)
    for k in range(1, d + 1):
        assert omega_form(ctx, k) == ref.omega_form(ctx, k), k
    for k in range(d + 1):
        forms = [basis_form(ctx, s) for s in combinations(range(1, d + 1), k)]
        for f in forms:
            star = hodge_plane(f)
            assert star == ref.hodge_plane(f), f
            _assert_canonical(star)
            if k < d:
                assert hodge_sphere(f) == ref.hodge_sphere(f), f
            for g in forms:
                assert pairing_plane(f, g) == ref.pairing_plane(f, g), (f, g)


@pytest.mark.parametrize("commutative", [False, True])
@pytest.mark.parametrize("d", range(3, 8))
def test_sphere_pairing_matches_product_formula(d, commutative):
    """The sphere pairing, read from its closed-form basis table, equals
    (1/4) <alpha ^ dc, beta ^ dc> formed by products: on every pair of
    equal-degree basis forms, and on random forms with x coefficients in
    both slots."""
    ctx = DeformationContext(d, commutative=commutative)
    for k in range(d + 1):
        forms = [basis_form(ctx, s) for s in combinations(range(1, d + 1), k)]
        for f in forms:
            for g in forms:
                assert pairing_sphere(f, g) == ref.pairing_sphere(f, g), (f, g)
    rng = random.Random(d)
    for _ in range(20):
        k = rng.randint(0, d - 1)
        alpha = random_element(ctx, rng, 2, k, 3)
        beta = random_element(ctx, rng, 2, k, 3)
        got = pairing_sphere(alpha, beta)
        assert got == ref.pairing_sphere(alpha, beta), (alpha, beta)
        _assert_canonical(got)


def test_matrix_product_and_trace_match_reference():
    rng = random.Random(5)
    for d, size in ((3, 2), (5, 4)):
        ctx = DeformationContext(d)
        rows = [[_random_element(ctx, rng) for _ in range(size)]
                for _ in range(size)]
        cols = [[_random_element(ctx, rng) for _ in range(size)]
                for _ in range(size)]
        got = _matrix(ctx, rows) * _matrix(ctx, cols)
        assert [[got[a, b] for b in range(size)] for a in range(size)] == \
            ref.matrix_mul(rows, cols)
        want = rows[0][0]
        for i in range(1, size):
            want = want + rows[i][i]
        assert _matrix(ctx, rows).trace() == want
        assert _matrix(ctx, rows).trace_mul(_matrix(ctx, cols)) == got.trace()
        for row in got.rows.values():
            for el in row.values():
                _assert_canonical(el)


def _matrix(ctx, rows):
    """The Matrix with the given rows (lists of Elements)."""
    return Matrix(len(rows), Element.zero(ctx),
                  {r: dict(enumerate(row)) for r, row in enumerate(rows)})


def _random_element(ctx, rng):
    terms = {}
    for _ in range(rng.randint(0, 3)):
        exps = [0] * ctx.dim
        exps[rng.randrange(ctx.dim)] = rng.randint(0, 2)
        dxs = tuple(sorted(rng.sample(range(1, ctx.dim + 1), rng.randint(0, 2))))
        phase = tuple(rng.randint(-1, 1) for _ in range(ctx.nparams))
        terms[(tuple(exps), dxs)] = ExactScalar(
            {phase: _c_reduce(rng.randint(-2, 2), rng.randint(-1, 1),
                              rng.randint(-1, 1), 0, rng.randint(1, 3))})
    return Element(ctx, terms)


def test_normal_ordering_cache_is_bounded():
    info = ncalg._mono_mul.cache_info()
    assert info.maxsize is not None and 0 < info.maxsize == ncalg.MONO_CACHE_SIZE
    assert chern.charge(4) == DeformationContext(9).scalar_one()
    info = ncalg._mono_mul.cache_info()
    assert info.currsize <= info.maxsize


def test_products_over_equal_contexts_built_apart():
    c1, c2 = DeformationContext(5), DeformationContext(5)
    assert c1 is c2  # one context per (dim, commutative)
    a = Element.x(c1, 2) * Element.dx(c1, 1) + Element.x(c1, 1).scale(3)
    b_same = Element.x(c1, 1) * Element.dx(c1, 4) + Element.one(c1)
    b_other = Element.x(c2, 1) * Element.dx(c2, 4) + Element.one(c2)
    assert a * b_other == a * b_same
    assert b_other * a == b_same * a
    assert a + b_other == a + b_same
    mixed = Element.x(DeformationContext(4), 1)
    with pytest.raises(ValueError):
        a * mixed
    with pytest.raises(ValueError):
        a + mixed
    with pytest.raises(ValueError):
        Matrix(1, Element.zero(c1), {0: {0: a}}) * \
            Matrix(1, Element.zero(mixed.ctx), {0: {0: mixed}})
    with pytest.raises(ValueError):
        Element.x(DeformationContext(5, commutative=True), 1) * a


def test_shared_zero_is_read_only():
    ctx = DeformationContext(5)
    zero = ctx.scalar_zero()
    assert zero is DeformationContext(7).scalar_zero()
    with pytest.raises(TypeError):
        zero.terms[(0,)] = (1, 0, 0, 0, 1)
    assert zero == ExactScalar({}) and ExactScalar({}) == zero
    assert hash(zero) == hash(ExactScalar({}))
    assert not zero and zero.is_zero()
    one = ctx.scalar_one()
    assert one * zero is zero and zero * one is zero
    assert zero + one == one and one + zero == one
    assert ctx.scalar(0) is zero and one.scale(0) is zero


def test_epsilon_validation():
    ctx = DeformationContext(4)
    for eps in (epsilon_q, epsilon_qinv):
        with pytest.raises(ValueError):
            eps(ctx, (1, 2, 3))
        with pytest.raises(ValueError):
            eps(ctx, (1, 2, 3, 4, 1))
        with pytest.raises(IndexError):
            eps(ctx, (1, 2, 3, 5))
        with pytest.raises(IndexError):
            eps(ctx, (5, 5, 1, 2))
        with pytest.raises(IndexError):
            eps(ctx, [0, 1, 2, 3])
        assert eps(ctx, [1, 1, 2, 3]).is_zero()
        assert eps(ctx, iter((2, 1, 3, 4))) == eps(ctx, (2, 1, 3, 4))
        assert not eps(ctx, (4, 3, 2, 1)).is_zero()
