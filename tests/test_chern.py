"""Clifford representation, projector, curvature, character and charge."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest

from chern_reference import (block_lemma_reference, column_expansion_trace,
                             dense_charge_integral, dense_trace, identity,
                             kron_gammas, negated, nilpotent_products)
from helpers import random_monomial
from twistcalc import DeformationContext, Element, chern
from twistcalc.chern import (MAX_HALF_DIM, MAX_VIEW_HALF_DIM, GammaRep, Matrix,
                             character_tau, charge, charge_from_curvature,
                             charge_integral, clifford_trace, curvature,
                             instanton_projector, is_projector)
from twistcalc.sphere import integrate_form, reduce_mod_c, sphere_equal


def _dense(rep, view):
    """Every entry of a column view of rep's size, zeros included, as a list
    of rows."""
    size = 2 ** rep.n
    rows = [[rep.ctx.scalar_zero()] * size for _ in range(size)]
    for c, (r, s) in view.items():
        rows[r][c] = s
    return rows


def _stored(m):
    """The number of entries a matrix stores."""
    return sum(map(len, m.rows.values()))


def test_gamma_matrices_low_dimension():
    rep = GammaRep(1)
    ctx = rep.ctx
    z, one, s2 = ctx.scalar_zero(), ctx.scalar_one(), ctx.sqrt2()
    assert _dense(rep, rep.gamma(1)) == [[z, z], [s2, z]]
    assert _dense(rep, rep.gamma(2)) == [[one, z], [z, -one]]
    assert _dense(rep, rep.gamma(3)) == [[z, s2], [z, z]]
    with pytest.raises(ValueError):
        GammaRep(0)


@pytest.mark.parametrize("commutative", (False, True))
def test_closed_form_gammas_match_kronecker_products(commutative):
    for n in range(1, 7):
        ctx = DeformationContext(2 * n + 1, commutative=commutative)
        rep, ref = GammaRep(n, ctx), kron_gammas(n, ctx)
        for a in range(1, ctx.dim + 1):
            assert _dense(rep, rep.gamma(a)) == ref[a], (n, a)


def test_stored_entries():
    for n in range(1, 9):
        rep, e = instanton_projector(n)
        for a in range(1, 2 * n + 2):
            want = 2 ** n if a == n + 1 else 2 ** (n - 1)
            assert len(rep.gamma(a)) == want, (n, a)  # one per column
        assert _stored(e) == (n + 1) * 2 ** n, n


def test_gamma_squares():
    for n in (1, 2):
        rep = GammaRep(n)
        ctx = rep.ctx
        size = 2 ** n
        zero = ctx.scalar_zero()
        for i in range(1, 2 * n + 2):
            sq = _dense(rep, chern._compose(rep.gamma(i), rep.gamma(i)))
            if i == n + 1:
                ok = all(sq[a][b] == (ctx.scalar_one() if a == b else zero)
                         for a in range(size) for b in range(size))
            else:
                ok = all(sq[a][b] == zero
                         for a in range(size) for b in range(size))
            assert ok, (n, i)


def test_trace_formula_spot_values_n1():
    # every index tuple at n = 1 and 500 drawn ones at n = 2: acceptance C9
    rep = GammaRep(1)
    ctx = rep.ctx
    assert clifford_trace(rep, (1, 2, 3)) == ctx.scalar(2)
    assert clifford_trace(rep, (1, 3, 2)) == ctx.scalar(-2)
    assert clifford_trace(rep, (1, 1, 2)).is_zero()
    with pytest.raises(ValueError):
        clifford_trace(rep, (1, 2))


def test_projector_structure_n1():
    rep, e = instanton_projector(1)
    ctx = rep.ctx
    half = Fraction(1, 2)
    assert e[0, 0] == (Element.one(ctx) + Element.x(ctx, 2)).scale(half)
    assert e[0, 1] == Element.x(ctx, 1).scale(half) * ctx.sqrt2()
    assert e[1, 0] == Element.x(ctx, 3).scale(half) * ctx.sqrt2()
    assert e[1, 1] == (Element.one(ctx) - Element.x(ctx, 2)).scale(half)


def test_projector_idempotent_and_hermitian():
    for n in (1, 2):
        rep, e = instanton_projector(n)
        assert is_projector(e)
        size = 2 ** n
        for a in range(size):
            for b in range(size):
                assert e[a, b].star() == e[b, a]


def test_projector_trace_rank_at_north_pole():
    # n = 1: the fibre rank is 1; evaluating Tr e at the pole x2 = 1
    rep, e = instanton_projector(1)
    ctx = rep.ctx
    tr = e[0, 0] + e[1, 1]
    assert tr == Element.one(ctx)  # 2^{n-1} for n = 1
    north = {1: 0.0, 2: 1.0, 3: 0.0}
    val = 0.0
    for (exps, _), coeff in tr.coefficients().items():
        term = coeff.eval([0.0] * ctx.nparams).real
        for a, p in enumerate(exps, start=1):
            term *= north[a] ** p
        val += term
    assert abs(val - 1.0) < 1e-12


def test_curvature_antihermitian():
    for n in (1, 2):
        rep, e = instanton_projector(n)
        f = curvature(e)
        size = 2 ** n
        for a in range(size):
            for b in range(size):
                assert sphere_equal(f[a, b].star(), -f[b, a]), (n, a, b)


def test_curvature_lives_on_the_module():
    for n in (1, 2):
        rep, e = instanton_projector(n)
        f = curvature(e)
        ef, fe = e * f, f * e
        size = 2 ** n
        for a in range(size):
            for b in range(size):
                assert sphere_equal(ef[a, b], f[a, b])
                assert sphere_equal(fe[a, b], f[a, b])


def test_curvature_requires_projector():
    ctx = DeformationContext(3)
    bad = Matrix(2, Element.zero(ctx), {0: {0: Element.x(ctx, 1)}})
    with pytest.raises(ValueError):
        curvature(bad)


def test_matrix_entries_share_one_context():
    # each entry's context is checked once, when the matrix is built
    ctx = DeformationContext(3)
    with pytest.raises(ValueError, match="different contexts"):
        Matrix(2, Element.zero(ctx), {0: {0: Element.one(ctx)},
                                      1: {0: Element.x(DeformationContext(5),
                                                       1)}})


def test_classical_monopole_curvature_against_chart_computation():
    """The q = 1 curvature of the 2-sphere projector, evaluated and pulled
    back in a coordinate chart, matches an independent sympy computation."""
    import sympy as sp

    ctx = DeformationContext(3, commutative=True)
    rep, e = instanton_projector(1, ctx)
    f_engine = curvature(e)

    theta, phi = sp.symbols("theta phi", real=True)
    rt2 = sp.sqrt(2)
    v = {1: (sp.sin(theta) * sp.cos(phi) + sp.I * sp.sin(theta) * sp.sin(phi)) / rt2,
         2: sp.cos(theta),
         3: (sp.sin(theta) * sp.cos(phi) - sp.I * sp.sin(theta) * sp.sin(phi)) / rt2}
    e_cl = [[(1 + v[2]) / 2, rt2 * v[1] / 2],
            [rt2 * v[3] / 2, (1 - v[2]) / 2]]

    def wedge(a, b):
        # one-forms as (d theta, d phi) coefficient pairs
        return a[0] * b[1] - a[1] * b[0]

    de = [[(sp.diff(e_cl[i][j], theta), sp.diff(e_cl[i][j], phi))
           for j in range(2)] for i in range(2)]
    dede = [[sum(wedge(de[i][k], de[k][j]) for k in range(2))
             for j in range(2)] for i in range(2)]
    f_cl = [[sum(e_cl[i][k] * dede[k][j] for k in range(2))
             for j in range(2)] for i in range(2)]

    rng = random.Random(3)
    for _ in range(6):
        th_v = rng.uniform(0.3, 2.8)
        ph_v = rng.uniform(0.0, 6.2)
        subs = {theta: th_v, phi: ph_v}
        # tangent map: dx^a = (dv_a/dtheta) dtheta + (dv_a/dphi) dphi
        jac = {a: (complex(sp.diff(v[a], theta).evalf(subs=subs)),
                   complex(sp.diff(v[a], phi).evalf(subs=subs)))
               for a in (1, 2, 3)}
        pt = {a: complex(v[a].evalf(subs=subs)) for a in (1, 2, 3)}
        for i in range(2):
            for j in range(2):
                got = 0j
                for (exps, dxs), coeff in f_engine[i, j].coefficients().items():
                    z = coeff.eval(()).real + 1j * coeff.eval(()).imag
                    for a, p in enumerate(exps, start=1):
                        z *= pt[a] ** p
                    a, b = dxs
                    z *= jac[a][0] * jac[b][1] - jac[a][1] * jac[b][0]
                    got += z
                want = complex(f_cl[i][j].evalf(subs=subs))
                assert abs(got - want) < 1e-9, (i, j, got, want)


def test_character_vanishes_on_later_units():
    ctx = DeformationContext(3)
    rng = random.Random(4)
    for _ in range(5):
        a = reduce_mod_c(random_monomial(ctx, rng, 2))
        assert character_tau([Element.one(ctx), a, Element.one(ctx)]).is_zero()
        assert character_tau([a, Element.one(ctx), a]).is_zero()


def test_character_cyclicity():
    ctx = DeformationContext(3)
    rng = random.Random(5)
    for _ in range(12):
        funcs = [reduce_mod_c(random_monomial(ctx, rng, 2)) for _ in range(3)]
        t1 = character_tau(funcs)
        t2 = character_tau([funcs[-1]] + funcs[:-1])
        assert t1 == t2


def test_character_arity_guard():
    ctx = DeformationContext(3)
    with pytest.raises(ValueError):
        character_tau([Element.one(ctx)])


def test_charge_integral_values():
    for n in range(1, 7):
        ctx = DeformationContext(2 * n + 1)
        want = ctx.i_power(n).scale(
            Fraction(math.factorial(2 * n), 2 ** (n + 1)))
        assert charge_integral(n) == want, n


def test_charge_is_one():
    for n in range(1, 7):
        ctx = DeformationContext(2 * n + 1)
        assert charge(n) == ctx.scalar_one(), n


@pytest.mark.parametrize("commutative", (False, True))
@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_block_expansion_matches_dense_products(n, commutative):
    # n = 3 and 4 carry three and six symbolic phases
    ctx = DeformationContext(2 * n + 1, commutative=commutative)
    rep = GammaRep(n, ctx)
    assert chern._expansion_trace(rep) == dense_trace(n, ctx)
    assert charge_integral(n, ctx) == dense_charge_integral(n, ctx)


@pytest.mark.parametrize("commutative", (False, True))
def test_factor_expansion_matches_column_reference(commutative):
    # the bit factorisation against the expansion summed over the 2^n
    # columns of the views
    for n in range(1, 7):
        ctx = DeformationContext(2 * n + 1, commutative=commutative)
        rep, e = instanton_projector(n, ctx)
        assert chern._expansion_trace(rep) == column_expansion_trace(rep, e)


def _adjoint(g):
    """The factors of the adjoint of the Kronecker product of g: column x of
    a factor (flip, d) is row x ^ flip of its adjoint."""
    return tuple((flip, (d[flip].conj(), d[1 ^ flip].conj()))
                 for flip, d in g)


def _flip_phase(g):
    """The factors g with q -> 1/q in the first one, a diagonal carrying a
    phase."""
    flip, d = g[0]
    return ((flip, tuple(s.invert_phases() for s in d)),) + g[1:]


class _OnePhaseFlipped(GammaRep):
    """gamma^2 with q -> 1/q in its first factor, and gamma^{2'} its
    adjoint."""

    def __init__(self, n, ctx=None):
        super().__init__(n, ctx)
        g = self.factors[2] = _flip_phase(self.factors[2])
        self.factors[self.ctx.primed(2)] = _adjoint(g)


def test_broken_block_lemma_raises(monkeypatch):
    monkeypatch.setattr(chern, "GammaRep", _OnePhaseFlipped)
    with pytest.raises(ValueError, match="block lemma fails"):
        charge_integral(2)


def _move_entry(rep):
    """gamma^2 with the entry of its shift factor moved to the other row."""
    g = rep.factors[2]
    rep.factors[2] = g[:1] + ((0, g[1][1]),) + g[2:]


def _off_diagonal_chirality(rep):
    """gamma^{n+1} with the entries of its first factor moved off the
    diagonal."""
    g = rep.factors[rep.n + 1]
    rep.factors[rep.n + 1] = ((1, g[0][1]),) + g[1:]


def _flip_primed_phase(rep):
    """gamma^{2'} with q -> 1/q in its first factor, and gamma^2 left as it
    is."""
    a = rep.ctx.primed(2)
    rep.factors[a] = _flip_phase(rep.factors[a])


def _lemma_inputs():
    """(label, rep, broken): the representations for n <= 4 on both planes,
    then broken ones on the twisted plane."""
    for commutative in (False, True):
        for n in (1, 2, 3, 4):
            ctx = DeformationContext(2 * n + 1, commutative=commutative)
            yield f"n={n},commutative={commutative}", GammaRep(n, ctx), False
    for n in (2, 3, 4):
        yield f"n={n},_OnePhaseFlipped", _OnePhaseFlipped(n), True
        for mutate in (_move_entry, _off_diagonal_chirality,
                       _flip_primed_phase):
            rep = GammaRep(n)
            mutate(rep)
            yield f"n={n},{mutate.__name__}", rep, True


def _lemma_fails(fn, *args) -> bool:
    try:
        fn(*args)
    except ValueError as exc:
        assert "block lemma fails" in str(exc)
        return True
    return False


def test_block_lemma_check_matches_reference():
    # the check on the factors raises exactly where the checks by
    # Element-valued block products and on composed column views raise; the
    # two products the first also formed, Gamma_a^2 and P_a^3, vanish on
    # every input
    for label, rep, broken in _lemma_inputs():
        assert _lemma_fails(block_lemma_reference, rep) == broken, label
        assert _lemma_fails(column_expansion_trace, rep,
                            identity(rep)) == broken, label
        assert _lemma_fails(chern._expansion_trace, rep) == broken, label
        assert not any(nilpotent_products(rep)), label


def test_facts_behind_the_expansion():
    # the three facts of the module docstring, on the composed views: delta_a
    # is +2 where bit a is clear and -2 where it is set; every entry s of
    # gamma^b (b != n+1) has s s^bar = 2 and faces the entry x^b s^bar/2 of
    # e; e's diagonal is 1/2 + (-1)^{|r|} x^{n+1}/2
    for n in range(1, 6):
        rep, e = instanton_projector(n)
        ctx, half, x = rep.ctx, Fraction(1, 2), Element.x
        two = ctx.scalar(2)
        for a in range(1, n + 1):
            ga, gp = rep.gamma(a), rep.gamma(ctx.primed(a))
            bit = 1 << (n - a)
            delta = {r: (r, -two if r & bit else two) for r in range(2 ** n)}
            minus = {c: (r, -s) for c, (r, s) in chern._compose(ga, gp).items()}
            assert {**chern._compose(gp, ga), **minus} == delta, (n, a)
        for b in range(1, ctx.dim + 1):
            for c, (r, s) in rep.gamma(b).items():
                if b != n + 1:
                    assert s * s.conj() == two, (n, b, c)
                    assert e[c, r] == x(ctx, b).scale(s.conj()).scale(half)
        for r in range(2 ** n):
            sign = -1 if bin(r).count("1") % 2 else 1
            assert e[r, r] == (Element.one(ctx) + x(ctx, n + 1).scale(sign)
                               ).scale(half), (n, r)


def test_charge_integral_makes_no_dense_product(monkeypatch):
    seen = []
    mul = Matrix.__mul__

    def recording(self, other):
        seen.append(self.size)
        return mul(self, other)

    monkeypatch.setattr(Matrix, "__mul__", recording)
    for n in (1, 2, 3, 4):
        charge_integral(n)
    assert not seen
    dense_trace(2)  # the recorder does see the reference's products
    assert seen


def test_anti_instanton_has_charge_minus_one():
    # 1 - e is the complementary projector: its charge is -1, because the
    # e-free piece, the integral of Tr[(de)^{2n}] = Tr[e (de)^{2n}] +
    # Tr[(1 - e)(de)^{2n}], vanishes by Stokes; the factor path gets 1 - e
    # from the negated gammas, the column reference from the matrix 1 - e
    for n in range(1, 7):
        rep, e = instanton_projector(n)
        ctx = rep.ctx
        trace, anti = chern._expansion_trace(rep), \
            chern._expansion_trace(negated(GammaRep(n)))
        assert integrate_form(anti) * chern._pairing_norm(ctx) \
            == -ctx.scalar_one(), n
        assert integrate_form(trace + anti) == ctx.scalar_zero(), n
        if n <= 4:
            assert anti == column_expansion_trace(rep, identity(rep) - e), n


def test_half_dimension_is_bounded():
    for n in (MAX_HALF_DIM + 1, 100):
        with pytest.raises(ValueError,
                           match=f"n = {n} exceeds the limit {MAX_HALF_DIM}"):
            GammaRep(n)
    with pytest.raises(ValueError, match="n = 100 exceeds the limit"):
        charge(100)
    # the 2^n-column views and e are refused above their own limit, before
    # anything of size 2^n is built: at n = MAX_HALF_DIM that is 2^64 rows
    n = MAX_HALF_DIM
    rep, e = instanton_projector(n)
    for build in (lambda: rep.gamma(1), lambda: e[0, 0],
                  lambda: is_projector(e), lambda: charge_from_curvature(n)):
        with pytest.raises(ValueError, match=f"n = {n} exceeds the limit "
                                             f"{MAX_VIEW_HALF_DIM}"):
            build()


def test_charge_integral_builds_nothing_of_size_two_to_the_n(monkeypatch):
    # the factor path composes no column view and never builds e's rows;
    # at n = 20 its traced peak stays below one list of 2^20 pointers
    made = []
    project = chern.instanton_projector

    def recording(n, ctx=None):
        made.append(project(n, ctx))
        return made[-1]

    def no_view(rep, i):
        raise AssertionError("a column view was composed")

    monkeypatch.setattr(chern, "instanton_projector", recording)
    monkeypatch.setattr(GammaRep, "gamma", no_view)
    for n in (1, 2, 3, 4):
        assert charge(n) == DeformationContext(2 * n + 1).scalar_one()
    ctx = DeformationContext(41)
    tracemalloc.start()
    try:
        charge_integral(20, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20 * 8, peak
    assert len(made) == 5 and all("rows" not in vars(e) for _, e in made)


def test_charge_is_one_with_three_parameters():
    # beyond the required range: the 6-sphere carries three symbolic phases
    ctx = DeformationContext(7)
    assert ctx.nparams == 3
    assert charge(3, ctx) == ctx.scalar_one()


def test_charge_is_one_with_six_parameters():
    # the 8-sphere: every exponent of the six phases must cancel
    ctx = DeformationContext(9)
    assert ctx.nparams == 6
    assert charge(4, ctx) == ctx.scalar_one()


def test_charge_via_curvature_power():
    for n in (1, 2, 3):
        ctx = DeformationContext(2 * n + 1)
        assert charge_from_curvature(n) == ctx.scalar_one()


def test_trace_mul_is_the_trace_of_the_product():
    # the trace-only last product of the curvature route and of the Stokes
    # term, against the trace of the full product
    for n in (1, 2, 3):
        _, e = instanton_projector(n)
        de, f = e.map(lambda x: x.d()), curvature(e)
        for a, b in ((f, f), (de, de), (f, de), (de, e)):
            assert a.trace_mul(b) == (a * b).trace(), n


def test_discarded_boundary_term_vanishes():
    for n in (1, 2):
        rep, e = instanton_projector(n)
        de = e.map(lambda f: f.d())
        acc = de * de
        for _ in range(n - 1):
            acc = acc * de * de
        assert integrate_form(acc.trace()).is_zero()


def test_charge_equals_character_of_tensor_trace():
    # charge via the multi-index character sum, n = 1, 2 (at n = 2 the
    # character's [N/2]! = 2 counts); tau is multilinear, so a tuple with a
    # zero entry adds nothing
    for n in (1, 2):
        rep, e = instanton_projector(n)
        ctx = rep.ctx
        total = ctx.scalar_zero()
        for idx in product(range(2 ** n), repeat=2 * n + 1):
            entries = [e[a, b] for a, b in zip(idx, idx[1:] + idx[:1])]
            if all(entries):
                total = total + character_tau(entries)
        assert total.scale(Fraction(1, math.factorial(n))) \
            == ctx.scalar_one(), n
