"""The numeric model: torus unitaries, evaluation, identity checking."""

import math
import random
import tracemalloc
from itertools import permutations

import numpy as np
import pytest

import dense_oracle
from dense_oracle import DenseRep
from helpers import central, random_element
from twistcalc import DeformationContext, Element
from twistcalc.oracle import (_BLOCK_ENTRIES, DEFAULT_TOL, MAX_SIZE,
                              BatchChecker, Tangents, TorusRep, _models,
                              check_element, check_sphere_class, plane_sample,
                              sphere_sample)
from twistcalc.sphere import volume_form
from twistcalc.tensorcalc import volume_element


def test_unitary_exchange_relations():
    """U^a U^b = q_ab U^b U^a for every a, b, U^a' is the adjoint of U^a and
    U^a U^a' = 1, and every parameter's 2 omega is nonzero mod m (q != 1/q),
    in both models of a seed, on sides m^s, s = ceil(h/2)."""
    for d, moduli in ((2, None), (3, None), (4, None), (5, None),
                      (6, (5, 7, 11)), (6, None), (7, None), (9, None)):
        ctx = DeformationContext(d)
        for model in _models(ctx, d, moduli):
            m, s = model.modulus, (d // 2 + 1) // 2 if ctx.nparams else 0
            assert model.size == m ** s
            one = model.word(((0,) * d, ()))
            for a in range(1, d + 1):
                ua = model.unitaries[a]
                up = model.unitaries[ctx.primed(a)]
                assert up.matches(ua.adjoint())
                assert (ua @ up).matches(one)
                for b in range(1, d + 1):
                    ub = model.unitaries[b]
                    z = model.eval_scalar(ctx.q_power(a, b))
                    assert (ua @ ub).matches(ub @ ua, scale=z), (d, a, b)
            for r, t in ctx.params:
                v, w = model.vectors[r - 1], model.vectors[t - 1]
                omega = sum(v[k] * w[s + k] - v[s + k] * w[k]
                            for k in range(s))
                assert 2 * omega % m != 0


def test_moduli_arity_guard():
    with pytest.raises(ValueError, match="need at least one modulus"):
        TorusRep(DeformationContext(6), moduli=())


def test_sample_points_structure():
    rng = random.Random(2)
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        for v in sphere_sample(ctx, rng, 10):
            quad = sum(v[a - 1] * v[ctx.primed(a) - 1]
                       for a in range(1, d + 1))
            assert abs(quad - 1.0) < 1e-12
            for a in range(1, d + 1):
                assert abs(v[a - 1].conjugate() - v[ctx.primed(a) - 1]) < 1e-14


def test_defining_relations_vanish():
    ctx = DeformationContext(5)
    x, dx = Element.x, Element.dx
    for a in range(1, 6):
        for b in range(1, 6):
            q = ctx.q_power(a, b)
            assert check_element(x(ctx, a) * x(ctx, b)
                                 - (x(ctx, b) * x(ctx, a)) * q, points=5)
            assert check_element(dx(ctx, a) * x(ctx, b)
                                 - (x(ctx, b) * dx(ctx, a)) * q, points=5)
            assert check_element(dx(ctx, a) * dx(ctx, b)
                                 + (dx(ctx, b) * dx(ctx, a)) * q, points=5)


def test_evaluation_is_homomorphism():
    ctx = DeformationContext(5)
    model = TorusRep(ctx, rng=random.Random(3))
    rng = random.Random(4)
    for _ in range(200):
        f = random_element(ctx, rng, 2, rng.randint(0, 2), 2)
        g = random_element(ctx, rng, 2, rng.randint(0, 2), 2)
        pt = plane_sample(ctx, rng, 1)[0]
        lhs = model.eval_element(f * g, pt)
        d1 = model.eval_element(f, pt)
        d2 = model.eval_element(g, pt)
        rhs = {}
        for s1, m1 in d1.items():
            for s2, m2 in d2.items():
                if set(s1) & set(s2):
                    continue
                inv = sum(1 for u in s1 for w in s2 if u > w)
                key = tuple(sorted(s1 + s2))
                rhs[key] = rhs.get(key, 0) + ((-1) ** inv) * (m1 @ m2)
        zero = np.zeros((model.size, model.size))
        for key in set(lhs) | set(rhs):
            assert np.allclose(lhs.get(key, zero), rhs.get(key, zero),
                               atol=1e-8), key


def test_model_self_checks_see_a_wrong_generator():
    """realises_phases and multiplies hold on a model and fail once U^1 is
    replaced by U^2: then U^1 U^2 = U^2 U^1, not q_12 U^2 U^1."""
    ctx = DeformationContext(5)
    model = TorusRep(ctx, rng=random.Random(3))
    x1, x2 = Element.x(ctx, 1), Element.x(ctx, 2)
    point = plane_sample(ctx, random.Random(4), 1)[0]
    assert model.realises_phases()
    assert model.multiplies(x2, x1, point) and model.multiplies(x1, x2, point)
    wrong = TorusRep(ctx, rng=random.Random(3))
    wrong.unitaries[1] = wrong.unitaries[2]
    assert not wrong.realises_phases()
    assert not wrong.multiplies(x2, x1, point)


def test_quadric_evaluates_to_identity_on_sphere():
    ctx = DeformationContext(4)
    model = TorusRep(ctx, rng=random.Random(5))
    rng = random.Random(6)
    for pt in sphere_sample(ctx, rng, 10):
        data = model.eval_element(central(ctx), pt)
        assert np.allclose(data[()], np.eye(model.size), atol=1e-12)


def test_check_identity_basic_cases():
    ctx = DeformationContext(5)
    assert check_element(Element.zero(ctx))
    assert not check_element(Element.x(ctx, 1), points=5)
    rng = random.Random(7)
    cc = central(ctx)
    memb = (cc - Element.one(ctx)) * random_element(ctx, rng, 2, 2, 2) \
        + cc.d() * random_element(ctx, rng, 2, 1, 2)
    assert check_sphere_class(memb, points=6)
    assert not check_element(memb, points=6)  # a J-member, nonzero on the plane
    assert not check_sphere_class(volume_form(ctx), points=6)


def test_scalar_checks():
    ctx = DeformationContext(5)
    bc = BatchChecker(ctx)
    assert bc.scalar_sup(ctx.q_power(1, 2) * ctx.q_power(2, 1)
                         - ctx.scalar_one()) < DEFAULT_TOL
    assert bc.scalar_sup(ctx.q_power(1, 2) - ctx.scalar_one()) > DEFAULT_TOL
    c6 = DeformationContext(6)
    prod = c6.scalar_one()
    for i in range(1, 7):
        prod = prod * c6.q_power(i, 2)
    assert BatchChecker(c6).scalar_sup(prod - c6.scalar_one()) < DEFAULT_TOL


@pytest.mark.parametrize("count", [0, -3])
def test_no_samples_is_an_error_not_a_zero(count):
    ctx = DeformationContext(5)
    x1, vol = Element.x(ctx, 1), volume_form(ctx)
    msg = f"must be at least 1, got {count}"
    with pytest.raises(ValueError, match="points " + msg):
        check_element(x1, points=count)
    with pytest.raises(ValueError, match="points " + msg):
        check_sphere_class(vol, points=count)
    with pytest.raises(ValueError, match="points " + msg):
        BatchChecker(ctx, points=count)


def test_points_cap_refuses_before_drawing():
    """Stacked tangent bases of points x (D-1) x D entries over MAX_SIZE are
    refused before any model is built or any point drawn."""
    ctx = DeformationContext(5)
    assert 104857 * 4 * 5 <= MAX_SIZE < 104858 * 4 * 5
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="104858 points at D = 5 need"
                           " 2097160 tangent basis entries, over the cap"):
            BatchChecker(ctx, points=104858)
        with pytest.raises(ValueError, match="2000000 points at D = 9"):
            check_element(Element.x(DeformationContext(9), 1),
                          points=2000000)
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("moduli, bad", [((2, 2, 2), 2), ((1, 1, 1), 1),
                                         ((5, 0), 0), ((7, 2, 11), 2)])
def test_moduli_below_three_are_rejected(moduli, bad):
    # order 1 or 2 roots make q = 1/q, so q - 1/q would read as zero
    with pytest.raises(ValueError, match=f"modulus {bad} cannot tell q"):
        TorusRep(DeformationContext(6), moduli=moduli)
    TorusRep(DeformationContext(5), moduli=(3,))


def test_distinct_prime_moduli_between_models():
    ctx = DeformationContext(5)
    m1, m2 = _models(ctx, seed=42)
    assert (m1.modulus, m2.modulus) == (13, 17)
    assert [m.modulus for m in _models(ctx, 42, (5, 7, 11))] == [5, 7]
    assert [m.modulus for m in _models(ctx, 42, (5,))] == [5, 5]


def test_seeded_reproducibility():
    ctx = DeformationContext(5)
    el = Element.x(ctx, 1) * Element.dx(ctx, 2)
    a = BatchChecker(ctx, seed=7, points=5).element_sup(el)
    b = BatchChecker(ctx, seed=7, points=5).element_sup(el)
    assert a == b
    c = BatchChecker(ctx, seed=9, points=5).sphere_sup(el)
    d = BatchChecker(ctx, seed=9, points=5).sphere_sup(el)
    assert c == d


def test_batch_checker_agrees_with_single_checks():
    ctx = DeformationContext(5)
    rng = random.Random(8)
    bc = BatchChecker(ctx, seed=11, points=8)
    cc = central(ctx)
    memb = (cc - Element.one(ctx)) * random_element(ctx, rng, 2, 2, 2)
    assert bc.sphere_sup(memb) < 1e-9
    assert bc.sphere_sup(volume_form(ctx)) > 0.5
    assert bc.element_sup(Element.zero(ctx)) == 0.0
    assert bc.element_sup(Element.x(ctx, 1)) > 1e-3
    assert bc.scalar_sup(ctx.scalar_zero()) == 0.0
    assert bc.scalar_sup(ctx.q_power(1, 2) - ctx.scalar_one()) > 1e-3


# -- the sparse words against the dense Kronecker reference -------------------

def _random_key(ctx, rng, top):
    exps = tuple(rng.randint(0, top) for _ in range(ctx.dim))
    dxs = tuple(sorted(rng.sample(range(1, ctx.dim + 1),
                                  rng.randint(0, ctx.dim))))
    return exps, dxs


def test_sparse_words_match_dense_products():
    rng = random.Random(12)
    for d, moduli, top in ((3, None, 2), (4, None, 2), (5, None, 2),
                           (6, (5, 7, 11), 1), (7, None, 1), (9, None, 1)):
        ctx = DeformationContext(d)
        model = TorusRep(ctx, moduli=moduli, rng=random.Random(d))
        ref = DenseRep(model)
        for a in range(1, d + 1):
            assert np.allclose(model.dense(model.unitaries[a]),
                               ref.unitaries[a], rtol=0, atol=1e-12)
        for _ in range(5):
            key = _random_key(ctx, rng, top)
            assert np.allclose(model.monomial_matrix(key),
                               ref.monomial_matrix(key), rtol=0, atol=1e-12)


def _sup_cases(ctx, rng, degrees):
    """A random J-member of each degree k, the same member plus
    dx^1...dx^k (a nonzero class), and a random plane element."""
    cc = central(ctx)
    for k in degrees:
        memb = (cc - Element.one(ctx)) * random_element(ctx, rng, 1, k, 2)
        if k:
            memb = memb + cc.d() * random_element(ctx, rng, 1, k - 1, 1)
        spoiler = Element(ctx, {((0,) * ctx.dim, tuple(range(1, k + 1))):
                                ctx.scalar_one()})
        yield memb
        yield memb + spoiler
        yield random_element(ctx, rng, 2, k, 3)


@pytest.mark.parametrize("d, moduli, degrees", [
    (4, None, range(4)), (5, None, range(5)),
    (6, (5, 7, 11), (1, 2, 5)), (7, None, (0, 2)), (9, None, (1,))])
def test_sups_match_dense_reference(d, moduli, degrees):
    """Relative to max(sup, 1): a J-member's sup is rounding noise."""
    ctx = DeformationContext(d)
    rng = random.Random(20 + d)
    seed = 13
    bc = BatchChecker(ctx, seed=seed, points=3, moduli=moduli)
    for el in _sup_cases(ctx, rng, degrees):
        for got, want in zip((bc.element_sup(el), bc.sphere_sup(el)),
                             dense_oracle.batch_sups(bc, el)):
            assert abs(got - want) <= 1e-12 * max(want, 1.0), (el, got, want)


@pytest.mark.parametrize("d", range(2, 10))
def test_samples_match_per_point_reference(d):
    """The stacked samples of a checker equal, bit for bit, the points,
    tangent bases and phase draws made one at a time in stream order,
    whichever order the sups first run in; a plane sup builds no tangent
    bases."""
    ctx = DeformationContext(d)
    x1 = Element.x(ctx, 1)
    orders = list(permutations(("element", "sphere", "scalar")))
    cases = [(seed, count) for seed in (0, 7, 42) for count in (1, 3, 20)]
    for i, (seed, count) in enumerate(cases):
        bc = BatchChecker(ctx, seed, count)
        for k, mode in enumerate(orders[i % len(orders)]):
            if mode == "element":
                bc.element_sup(x1)
                if k == 0:
                    assert "tangents" not in vars(bc)
            elif mode == "sphere":
                bc.sphere_sup(x1)
            else:
                bc.scalar_sup(ctx.scalar_one())
        ref = dense_oracle.reference_samples(ctx, seed, count)
        assert np.array_equal(bc.plane_points, ref["plane_points"])
        assert np.array_equal(bc.sphere_points, ref["sphere_points"])
        assert np.array_equal(bc.tangents.basis, ref["basis"])
        assert bc.root_draws == ref["root_draws"]


def _mixed_forms(ctx, rng):
    """Forms of every degree at once, with x-degree up to 3: many classes
    of words and many dx sets per class."""
    yield sum((random_element(ctx, rng, 3, k, 4) for k in range(ctx.dim + 1)),
              Element.zero(ctx))
    cc = central(ctx)
    memb = sum(((cc - Element.one(ctx)) * random_element(ctx, rng, 2, k, 2)
                for k in range(ctx.dim)), Element.zero(ctx))
    yield memb
    yield memb + random_element(ctx, rng, 1, 2, 3)


@pytest.mark.parametrize("d, moduli, count", [
    (4, None, 6), (5, None, 20), (7, None, 6), (9, None, 3),
    (6, (67, 131), 3)])
def test_form_sup_matches_per_class_reference(d, moduli, count):
    """Both modes against one product per class and dx set, relative to
    max(sup, 1), on the default models and on the side-4489 and
    side-17161 models whose forms take many blocks."""
    ctx = DeformationContext(d)
    rng = random.Random(50 + d)
    bc = BatchChecker(ctx, seed=d, points=count, moduli=moduli)
    for el in _mixed_forms(ctx, rng):
        for model in bc.models:
            for args in ((bc.plane_points,),
                         (bc.sphere_points, bc.tangents)):
                got = model.form_sup(el, *args)
                want = dense_oracle.form_sup(model, el, *args)
                assert abs(got - want) <= 1e-12 * max(want, 1.0), (
                    d, model.size, got, want)


@pytest.mark.parametrize("d, moduli", [(3, None), (4, None), (5, None),
                                       (6, (5, 7, 11)), (7, None)])
def test_eval_element_matches_dense_reference(d, moduli):
    ctx = DeformationContext(d)
    rng = random.Random(60 + d)
    model = TorusRep(ctx, moduli=moduli, rng=random.Random(d))
    ref = DenseRep(model)
    for pt in plane_sample(ctx, rng, 4):
        el = random_element(ctx, rng, 2, rng.randint(0, d), 3) \
            + random_element(ctx, rng, 1, rng.randint(0, d), 2)
        got, want = model.eval_element(el, pt), ref.eval_element(el, pt)
        assert got.keys() == want.keys()
        for dxs, mat in want.items():
            assert np.allclose(got[dxs], mat, rtol=0, atol=1e-12), dxs


def test_block_sups_match_single_point_sups():
    """One call over 20 points gives the largest of the 20 one-point sups,
    in plane and sphere modes.  At D = 6 the models of modulus 67 (side
    4489) and 131 (side 17161) take these forms in 4 to 160 blocks of
    points and columns of at most _BLOCK_ENTRIES entries, and a one-point
    call at side 17161 still splits the columns."""
    ctx = DeformationContext(6)
    models = _models(ctx, 42, (67, 131))
    assert [m.size for m in models] == [4489, 17161]
    assert models[1].size > _BLOCK_ENTRIES // 8
    rng = random.Random(40)
    cc = central(ctx)
    memb = (cc - Element.one(ctx)) * random_element(ctx, rng, 1, 2, 2) \
        + cc.d() * random_element(ctx, rng, 1, 1, 1)
    forms = [memb, memb + Element.dx(ctx, 1) * Element.dx(ctx, 2),
             random_element(ctx, rng, 2, 1, 3)
             + random_element(ctx, rng, 1, 3, 2)]
    plane = plane_sample(ctx, rng, 20)
    sphere = sphere_sample(ctx, rng, 20)
    tangents = Tangents(ctx, sphere)
    for model in models:
        for el in forms:
            pairs = [(model.form_sup(el, plane),
                      max(model.form_sup(el, [p]) for p in plane)),
                     (model.form_sup(el, sphere, tangents),
                      max(model.form_sup(el, [p], Tangents(ctx, [p]))
                          for p in sphere))]
            for got, want in pairs:
                assert abs(got - want) <= 1e-12 * max(want, 1.0), (got, want)
    # a form of top degree only vanishes on the D - 1 tangent vectors
    top = (Element.x(ctx, 1) + Element.one(ctx)) * volume_element(ctx)
    for model in models:
        assert model.form_sup(top, plane) > 0.1
        assert model.form_sup(top, sphere, tangents) == 0.0
    # at side 17161 a call holds the (terms, side) phases and block arrays
    # of at most 2^17 entries; a zero-padded (terms, groups x side) matrix
    # would take hundreds of MB
    el = forms[2]
    tracemalloc.start()
    try:
        models[1].form_sup(el, sphere, tangents)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * (2 * len(el.coefficients()) * models[1].size
                        + 4 * _BLOCK_ENTRIES)


# -- reach and size guards ----------------------------------------------------

@pytest.mark.parametrize("d", [6, 7, 9])
def test_default_moduli_reach_without_dense_matrices(d):
    ctx = DeformationContext(d)
    assert [m.size for m in _models(ctx, 42)] == [169, 289]
    rng = random.Random(30 + d)
    x1, x2 = Element.x(ctx, 1), Element.x(ctx, 2)
    cc = central(ctx)
    memb = (cc - Element.one(ctx)) * random_element(ctx, rng, 1, 2, 1) \
        + cc.d() * random_element(ctx, rng, 1, 1, 1)
    tracemalloc.start()
    try:
        assert check_element(x1 * x2 - (x2 * x1) * ctx.q_power(1, 2),
                             points=4)
        assert check_sphere_class(memb, points=4)
        assert not check_sphere_class(memb + Element.dx(ctx, 1)
                                      * Element.dx(ctx, 2), points=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # words of side 289 take 7 kB each; the bound leaves no room for a
    # runaway intermediate
    assert peak < 64 * 2 ** 20


def test_model_size_guard():
    # modulus 1451 at D = 7: two slots, side 1451^2 > 2^21
    msg = r"side 2105401 \(modulus 1451, 2 slots\)"
    with pytest.raises(ValueError, match=msg):
        TorusRep(DeformationContext(7), moduli=(1451,))
    # modulus 47 at D = 6: side 47^2 = 2209 > MAX_DENSE_SIDE
    model = TorusRep(DeformationContext(6), moduli=(47,))
    key = ((1,) + (0,) * 5, ())
    with pytest.raises(ValueError, match=r"side 2209 \(modulus 47\)"):
        model.monomial_matrix(key)
    with pytest.raises(ValueError, match="side 2209"):
        model.eval_element(Element.x(model.ctx, 1), plane_sample(
            model.ctx, random.Random(0), 1)[0])
    with pytest.raises(ValueError, match="side 2209"):
        DenseRep(model)


def test_model_word_cap():
    # D = 25, modulus 7: a side of 7^6 = 117,649 is under 2^21, but the 25
    # generator words hold 2,941,225 entries; refused before any is built
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"side 117649 \(modulus 7, 6 "
                           r"slots\) needs 25 words .* 2941225 entries"):
            TorusRep(DeformationContext(25), moduli=(7,))
        assert tracemalloc.get_traced_memory()[1] < 1 << 20
    finally:
        tracemalloc.stop()
    # modulus 487 at D = 9: 9 words of side 237,169 are over 2^21 entries
    assert 9 * 487 ** 2 > MAX_SIZE
    with pytest.raises(ValueError, match="side 237169"):
        TorusRep(DeformationContext(9), moduli=(487,))
    # the default models up to D = 9
    for d in range(2, 10):
        for m in (13, 17):
            assert TorusRep(DeformationContext(d), moduli=(m,)).size <= 289


def test_overflow_makes_the_sup_inf():
    # the powers of x1^2000 overflow at the plane points (|z| up to about
    # 1.9); a block that is not finite makes the sup inf, so no NaN block
    # is dropped and nothing reads as zero
    ctx = DeformationContext(5)
    checker = BatchChecker(ctx)
    el = Element.x(ctx, 1, 2000)
    with np.errstate(over="ignore", invalid="ignore"):
        assert checker.element_sup(el) == math.inf
        assert checker.element_sup(el + Element.dx(ctx, 2)) == math.inf
    assert checker.element_sup(Element.x(ctx, 1, 20)) < math.inf


def test_power_table_cap_refuses_before_any_word():
    # points x D x (top exponent + 1) entries over MAX_SIZE are refused
    # before any word or table is built (one power less would fit)
    ctx = DeformationContext(5)
    model = TorusRep(ctx)
    points = plane_sample(ctx, random.Random(0), 20)
    top = MAX_SIZE // (20 * 5)
    assert 20 * 5 * top <= MAX_SIZE < 20 * 5 * (top + 1)
    el = Element.x(ctx, 2, top) + Element.x(ctx, 1) * Element.dx(ctx, 3)
    with pytest.raises(ValueError, match=f"x power {top} over 20 points at"
                       f" D = 5 needs a power table of {20 * 5 * (top + 1)}"):
        model.form_sup(el, points)
    assert not model._mono_cache
    # top forms are dropped on the sphere before the table is sized
    sphere_el = Element.x(ctx, 1, top) * volume_element(ctx)
    assert model.form_sup(sphere_el, points, Tangents(ctx, points)) == 0.0


def test_power_table_takes_about_one_table():
    # x1^20000 over 20 points at D = 5 fills a table of 2,000,100 complex
    # entries, under the cap; the cumulative product is written into it in
    # place, so the sup peaks near one table, not the three it once took
    ctx = DeformationContext(5)
    checker = BatchChecker(ctx, points=20)
    el = Element.x(ctx, 1, 20000)
    table = 16 * 20 * 5 * 20001
    tracemalloc.start()
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            assert checker.element_sup(el) == math.inf
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * table


def test_small_modulus_fails_fast_or_succeeds():
    """A modulus too small for the dimension ends the bounded vector draw
    with an error, never a long search; one that suffices builds at once."""
    model = TorusRep(DeformationContext(17), moduli=(3,))
    assert model.size == 3 ** 4
    with pytest.raises(ValueError, match="modulus 3 is too small for 20"):
        TorusRep(DeformationContext(41), moduli=(3,))
