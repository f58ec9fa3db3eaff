"""Quotient algebra of the sphere: rewriting, volume, integral, ideal."""

import random
from fractions import Fraction

import pytest

from helpers import central, random_element, random_monomial
from sphere_reference import (_in_scalar_span, _middle_degree_membership,
                              _monomials, _signature,
                              in_quotient_ideal_by_parts,
                              reduce_mod_c_by_term,
                              top_decompose_full_product)
from twistcalc import DeformationContext, Element, ncalg, sphere
from twistcalc.ncalg import _finish
from twistcalc.sphere import (_block_residues, _companion_replacement,
                              _dc_slices, central_quadric, in_quotient_ideal,
                              integrate_form, omega_form, reduce_mod_c,
                              sphere_equal, top_decompose, volume_form)
from twistcalc.tensorcalc import volume_element


def test_central_quadric_is_central():
    rng = random.Random(0)
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        cc = central_quadric(ctx)
        for _ in range(10):
            f = random_element(ctx, rng, 2, rng.randint(0, 2), 2)
            assert cc * f == f * cc
        assert cc.d() * Element.x(ctx, 1) == Element.x(ctx, 1) * cc.d()


def test_written_out_constants_match_their_products():
    # c, dc and repl are written out term by term; their definitions are
    # built here from Element products: c = sum_a x^a x^{a'} (``central``),
    # dc = d(c) and repl = x^1 x^D - (c - 1)/2
    for d in range(2, 12):
        for ctx in (DeformationContext(d),
                    DeformationContext(d, commutative=True)):
            c, one = central(ctx), Element.one(ctx)
            dc = c.d()
            assert central_quadric(ctx) == c
            assert sorted(_dc_slices(ctx)) == list(range(1, d + 1))
            for a, slice_ in _dc_slices(ctx).items():
                part = _finish(ctx, {key: v for key, v in dc.terms.items()
                                     if key[0][1] == (a,)})
                assert slice_ == part.terms, (ctx, a)
            # V ^ dc/2 = c V_D: top_decompose's i^{-D//2} at every D//2 mod 4
            assert top_decompose(volume_form(ctx)) == c, ctx
            repl = Element.x(ctx, 1) * Element.x(ctx, d) \
                - (c - one).scale(Fraction(1, 2))
            power = one
            for p in range(1, 5):
                power = power * repl
                assert _companion_replacement(ctx, p) == power, (ctx, p)


def test_sphere_constants_make_no_product(monkeypatch):
    # a fresh context's c, dc slices and repl are written out: no product
    seen = []
    mul_into = ncalg._mul_into

    def recording(acc, ctx, terms1, terms2):
        seen.append(ctx.dim)
        mul_into(acc, ctx, terms1, terms2)

    monkeypatch.setattr(ncalg, "_mul_into", recording)
    monkeypatch.setattr(sphere, "_mul_into", recording)
    for cache in (central_quadric, _dc_slices, _companion_replacement):
        cache.cache_clear()
    for d in (2, 5, 6, 7):
        for ctx in (DeformationContext(d),
                    DeformationContext(d, commutative=True)):
            central_quadric(ctx)
            _dc_slices(ctx)
            _companion_replacement(ctx, 1)
    assert not seen
    _companion_replacement(ctx, 2)  # the recorder does see products
    assert seen


def test_reduce_mod_c_examples():
    c3 = DeformationContext(3)
    assert reduce_mod_c(central_quadric(c3)) == Element.one(c3)
    assert reduce_mod_c((central_quadric(c3) - Element.one(c3))
                        * Element.x(c3, 2)).is_zero()
    g = Element.x(c3, 2, 2) + (Element.x(c3, 1) * Element.x(c3, 3)).scale(2)
    assert reduce_mod_c(g) == Element.one(c3)
    assert reduce_mod_c(Element.dx(c3, 1)) == Element.dx(c3, 1)


def test_reduce_mod_c_idempotent_and_sound():
    rng = random.Random(1)
    for d in (2, 3, 4, 5):
        ctx = DeformationContext(d)
        cc = central_quadric(ctx)
        rel = cc - Element.one(ctx)
        for k in range(d + 1):
            for _ in range(25):
                f = random_element(ctx, rng, 4, k, 3)
                r = reduce_mod_c(f)
                assert reduce_mod_c(r) == r
                assert reduce_mod_c(rel * f).is_zero()
                # normal form never contains the eliminated companion product
                for (exps, _) in r.coefficients():
                    assert not (exps[0] and exps[d - 1])


def _contexts(dims):
    for dim in dims:
        yield DeformationContext(dim)
        yield DeformationContext(dim, commutative=True)


def test_reduce_mod_c_matches_round_by_round_reference():
    # forms of every degree 0..D and of mixed degree, x-degree up to 4, and
    # terms holding (x^1 x^D)^2, ^3 and ^4 in each, so that one call strips
    # several powers; the reference rewrites them in two to four rounds
    rng = random.Random(21)
    for ctx in _contexts(range(2, 10)):
        d = ctx.dim
        for k in range(d + 1) if d < 8 else (0, 1, d // 2, d - 1):
            dxs = tuple(range(1, k + 1))
            powers = Element.zero(ctx)
            for p in (2, 3, 4):
                pair = (p,) + (0,) * (d - 2) + (p,)
                powers = powers + Element.monomial(ctx, (pair, dxs))
            for _ in range(3 if d < 8 else 1):
                f = random_element(ctx, rng, 4, k, 4) + powers
                mixed = f + random_element(ctx, rng, 4, rng.randint(0, d), 3)
                for form in (f, mixed, f - f):
                    got = reduce_mod_c(form)
                    assert got == reduce_mod_c_by_term(form), (ctx, k, form)
                    assert reduce_mod_c(got) == got


def test_membership_matches_by_parts_reference():
    # the decision against the earlier one that copies each homogeneous part,
    # multiplies it by dc in full and reduces round by round: members, some
    # with (x^1 x^D)^p (p <= 3) in alpha so that the normal form of omega
    # does work; members spoiled by a constant or by a random form, so that
    # the first nonzero block of omega ^ dc falls in different places;
    # random and mixed-degree forms; and sphere_equal on pairs whose shared
    # terms cancel in a - b and on mixed-degree pairs.  D = 8 and 9 in three
    # degrees each
    rng = random.Random(22)
    first_blocks = set()
    for ctx in _contexts(range(2, 10)):
        d = ctx.dim
        cm1 = central_quadric(ctx) - Element.one(ctx)
        dc = central_quadric(ctx).d()
        verdicts = set()
        members = []
        for k in range(d + 1) if d < 8 else (1, d // 2, d - 2):
            member = cm1 * random_element(ctx, rng, 2, k, 2)
            if k:
                member = member + dc * random_element(ctx, rng, 2, k - 1, 2)
            members.append(member)
            p = rng.randint(1, 3)
            pair = (p,) + (0,) * (d - 2) + (p,)
            dxs = tuple(sorted(rng.sample(range(1, d + 1), k)))
            powered = member + cm1 * Element.monomial(ctx, (pair, dxs))
            forms = [member, powered,
                     member + random_element(ctx, rng, 0, k, 2),
                     powered + random_element(ctx, rng, 2, k, 2),
                     random_element(ctx, rng, 4, k, 3)]
            for el in forms if d < 8 else forms[1:4]:
                got = in_quotient_ideal(el)
                assert got is in_quotient_ideal_by_parts(el), (ctx, k, el)
                verdicts.add(got)
                if not got and 0 < k < d - 1:
                    first_blocks.add(next(
                        j for j, r in enumerate(_block_residues(el)) if r))
        for _ in range(6 if d < 8 else 2):
            shared = random_element(ctx, rng, 3, rng.randint(0, d), 3)
            a = shared + rng.choice(members) + random_element(
                ctx, rng, 2, rng.randint(0, d), 2)
            b = shared + rng.choice(members)
            assert a - b == a + (-b)
            for el in (a, a - shared, a - b):
                got = in_quotient_ideal(el)
                assert got is in_quotient_ideal_by_parts(el), (ctx, el)
            assert sphere_equal(a, b) is in_quotient_ideal_by_parts(a + (-b))
            assert sphere_equal(a, a) and sphere_equal(b + members[0], b)
            # a mixed-degree pair: two members and a form of a third degree
            # on one side, that form and maybe a spoiler on the other
            mixed = random_element(ctx, rng, 2, rng.randint(0, d), 2)
            a = rng.choice(members) + rng.choice(members) + mixed
            b = mixed + rng.choice((0, 1)) * random_element(
                ctx, rng, 1, rng.randint(0, d - 1), 2)
            assert sphere_equal(a, b) is \
                in_quotient_ideal_by_parts(a + (-b)), (ctx, a, b)
        assert verdicts == {True, False}, ctx
    assert len(first_blocks) > 2, first_blocks


def test_omega_duality():
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        v = volume_element(ctx)
        for k in range(1, d + 1):
            om = omega_form(ctx, k)
            for l in range(1, d + 1):
                got = om * Element.dx(ctx, l)
                assert got == (v if l == k else Element.zero(ctx))
        with pytest.raises(IndexError):
            omega_form(ctx, d + 1)


def test_volume_against_normal_direction():
    for d in (3, 4, 5):
        ctx = DeformationContext(d)
        vol = volume_form(ctx)
        dc = central_quadric(ctx).d()
        assert vol * dc == (central_quadric(ctx) * volume_element(ctx)).scale(2)
        assert top_decompose(vol) == central_quadric(ctx)
        assert integrate_form(vol) == ctx.scalar_one()


def test_top_decompose_examples():
    ctx = DeformationContext(3)
    assert top_decompose(Element.zero(ctx)).is_zero()
    # single term x^3 omega_3: decomposition agrees with direct reordering
    om = Element.x(ctx, 3) * omega_form(ctx, 3)
    f = top_decompose(om)
    dc = central_quadric(ctx).d()
    assert om * dc == (f * volume_element(ctx)).scale(2)
    with pytest.raises(ValueError):
        top_decompose(Element.dx(ctx, 1))


def test_top_decompose_matches_full_product():
    # random (D-1)-forms with several terms per missing index, and forms
    # dc ^ beta whose products cancel between the groups, against om * dc
    rng = random.Random(17)
    for d in range(2, 8):
        ctx = DeformationContext(d)
        dc = central_quadric(ctx).d()
        multi = False
        for _ in range(6):
            om = Element.zero(ctx)
            for _ in range(rng.randint(1, 3)):
                om = om + random_element(ctx, rng, 2, d - 1, rng.randint(1, 4))
            missing = [sum(range(1, d + 1)) - sum(dxs) for _, dxs in om.coefficients()]
            multi |= len(missing) > len(set(missing))
            beta = random_element(ctx, rng, 1, d - 2, 2) + Element.monomial(
                ctx, ((1,) + (0,) * (d - 1), tuple(range(2, d))))
            exact = dc * beta
            assert exact and top_decompose(exact).is_zero()
            for form in (om, om - om, om + exact):
                assert top_decompose(form) == \
                    top_decompose_full_product(form), (d, form)
        assert multi, d
        with pytest.raises(ValueError):
            top_decompose(Element.one(ctx))


def test_stokes():
    rng = random.Random(2)
    for n in (2, 3, 4):
        ctx = DeformationContext(n + 1)
        for _ in range(18):
            th = random_element(ctx, rng, 4, n - 1, 3)
            assert integrate_form(th.d()).is_zero()


def test_integral_is_tracial_and_representative_independent():
    rng = random.Random(3)
    for n in (2, 3):
        ctx = DeformationContext(n + 1)
        cc = central_quadric(ctx)
        dc = cc.d()
        for _ in range(12):
            a = random_monomial(ctx, rng, 2)
            om = random_element(ctx, rng, 2, n, 2)
            assert integrate_form(a * om) == integrate_form(om * a)
            al = random_element(ctx, rng, 2, n, 2)
            be = random_element(ctx, rng, 2, n - 1, 2)
            pert = om + (cc - Element.one(ctx)) * al + dc * be
            assert integrate_form(pert) == integrate_form(om)


def test_sphere_equality_examples():
    ctx = DeformationContext(5)
    vol = volume_form(ctx)
    cc = central_quadric(ctx)
    rng = random.Random(4)
    assert sphere_equal(cc * vol, vol)
    assert in_quotient_ideal(cc.d() * random_element(ctx, rng, 2, 1, 2))
    assert sphere_equal(vol, vol)
    assert not in_quotient_ideal(vol)
    assert not in_quotient_ideal(Element.x(ctx, 1))
    assert not in_quotient_ideal(Element.dx(ctx, 1))
    with pytest.raises(ValueError):
        sphere_equal(vol, volume_form(DeformationContext(4)))


def test_middle_degree_membership():
    rng = random.Random(5)
    for n in (2, 3, 4):
        ctx = DeformationContext(n + 1)
        cc = central_quadric(ctx)
        dc = cc.d()
        one = Element.one(ctx)
        for k in range(1, n):
            for _ in range(5):
                member = (cc - one) * random_element(ctx, rng, 2, k, 2) \
                    + dc * random_element(ctx, rng, 2, k - 1, 2)
                assert in_quotient_ideal(member), (n, k)
        assert not in_quotient_ideal(Element.dx(ctx, 1))


def test_middle_degree_rejects_perturbed_members():
    # a true ideal member plus a form with a nonzero class must be rejected
    rng = random.Random(7)
    for n in (2, 3, 4):
        ctx = DeformationContext(n + 1)
        cc = central_quadric(ctx)
        dc = cc.d()
        one = Element.one(ctx)
        for k in range(1, n):
            member = (cc - one) * random_element(ctx, rng, 2, k, 2) \
                + dc * random_element(ctx, rng, 2, k - 1, 2)
            spoiler = Element.one(ctx)
            for a in range(1, k + 1):
                spoiler = spoiler * Element.dx(ctx, a)
            assert not in_quotient_ideal(member + spoiler), (n, k)
            # sanity: the spoiler class is numerically nonzero too
            from twistcalc.oracle import BatchChecker
            bc = BatchChecker(ctx, points=4)
            assert bc.sphere_sup(member + spoiler) > 1e-6


def test_membership_matches_reference_solver():
    # the decision against the linear solve over the generators, in every
    # sphere degree 0..N and in the ambient top degree D (where every form is
    # in J); members, members spoiled by a constant form, random forms
    rng = random.Random(10)
    edge_verdicts = {"0": set(), "N": set()}
    for dim in range(3, 8):
        for ctx in (DeformationContext(dim),
                    DeformationContext(dim, commutative=True)):
            cc = central_quadric(ctx)
            dc = cc.d()
            one = Element.one(ctx)
            verdicts = set()
            for k in range(dim):
                edge = {0: "0", dim - 1: "N"}.get(k)
                member = (cc - one) * random_element(ctx, rng, 1, k, 2)
                if k:
                    member = member + dc * random_element(ctx, rng, 1, k - 1, 2)
                spoiled = member + random_element(ctx, rng, 0, k, 2)
                for el in (member, spoiled, random_element(ctx, rng, 2, k, 3)):
                    got = in_quotient_ideal(el)
                    assert got is _middle_degree_membership(el, k), \
                        (ctx, k, str(el))
                    verdicts.add(got)
                    if edge:
                        edge_verdicts[edge].add(got)
            top = random_element(ctx, rng, 1, dim, 2)
            assert in_quotient_ideal(top)
            assert _middle_degree_membership(top, dim)
            assert verdicts == {True, False}, ctx
    assert edge_verdicts == {"0": {True, False}, "N": {True, False}}


def test_ideal_generators_stay_in_their_signature_block():
    # the reference solver skips a monomial m outside the target block
    # before forming (c-1)*m and dc*m; that is exact only if every term of
    # both products has the signature of m
    for dim in range(2, 8):
        ctx = DeformationContext(dim)
        cm1 = central_quadric(ctx) - Element.one(ctx)
        dc = central_quadric(ctx).d()
        for k in range(dim + 1):
            for key in _monomials(ctx, 2, k):
                m = Element.monomial(ctx, key)
                sig = _signature(ctx, key)
                for gen in (cm1 * m, dc * m):
                    for term in gen.coefficients():
                        assert _signature(ctx, term) == sig, (dim, key, term)


def test_membership_solver_against_numeric_rank():
    # cross-validate the exact solve with least-squares residuals of the
    # same linear system evaluated at random unit phases
    import cmath

    import numpy as np

    rng = random.Random(9)
    ctx = DeformationContext(5)
    cc = central_quadric(ctx)
    dc = cc.d()
    one = Element.one(ctx)

    def numeric_residual(el, theta):
        # generators keep the signature block of their monomial (see
        # test_ideal_generators_stay_in_their_signature_block), so the
        # system splits into blocks; a block holding no monomial of el has a
        # zero right-hand side and residual, and only el's blocks are solved
        k = el.form_degree()
        dmax = el.x_degree()
        blocks = {_signature(ctx, m): [] for m in el.coefficients()}
        for gen, keys in ((cc - one, _monomials(ctx, dmax, k)),
                          (dc, _monomials(ctx, dmax + 1, k - 1))):
            for key in keys:
                gens = blocks.get(_signature(ctx, key))
                if gens is not None:
                    g = gen * Element.monomial(ctx, key)
                    if g:
                        gens.append(g)
        squares = 0.0
        for sig, gens in blocks.items():
            target = {m: cf for m, cf in el.coefficients().items()
                      if _signature(ctx, m) == sig}
            monos = {}
            for g in gens + [Element(ctx, target)]:
                for m in g.coefficients():
                    monos.setdefault(m, len(monos))
            a = np.zeros((len(monos), len(gens)), dtype=complex)
            b = np.zeros(len(monos), dtype=complex)
            for j, g in enumerate(gens):
                for m, cf in g.coefficients().items():
                    a[monos[m], j] = cf.eval(theta)
            for m, cf in target.items():
                b[monos[m]] = cf.eval(theta)
            sol, *_ = np.linalg.lstsq(a, b, rcond=None)
            squares += float(np.linalg.norm(a @ sol - b)) ** 2
        return squares ** 0.5

    for trial in range(4):
        k = rng.randint(1, 2)
        member = (cc - one) * random_element(ctx, rng, 1, k, 2) \
            + dc * random_element(ctx, rng, 1, k - 1, 2)
        spoiled = member + Element(
            ctx, {((0,) * 5, tuple(range(1, k + 1))): ctx.scalar_one()})
        for el, expected in ((member, True), (spoiled, False)):
            if el.is_zero():
                continue
            got = _middle_degree_membership(el, k)
            assert got is expected, (trial, k, expected)
            residuals = [numeric_residual(el, [rng.uniform(0, 2 * cmath.pi)])
                         for _ in range(2)]
            if expected:
                assert max(residuals) < 1e-8, (trial, k, residuals)
            else:
                assert min(residuals) > 1e-6, (trial, k, residuals)


def test_scalar_span_with_non_unit_pivots():
    """Every entry has two phase terms, so no pivot is a unit and each
    elimination step cross-multiplies: a combination of the generators is
    in their span, and adding a fourth basis vector takes it out."""
    ctx = DeformationContext(4)
    one, q = ctx.scalar_one(), ctx.q_power(1, 2)
    a, b, c = one + q, one - q, one.scale(2) + q
    gens = [{"m1": a, "m2": b, "m3": a * b, "m4": c},
            {"m1": b, "m2": c, "m3": b * c, "m4": a},
            {"m1": c, "m2": a, "m3": b, "m4": b * b}]
    coeffs = [q, one - q, q * q + one]
    target = {}
    for t, g in zip(coeffs, gens):
        for m, v in g.items():
            w = target.get(m, ctx.scalar_zero()) + t * v
            if w:
                target[m] = w
            else:
                target.pop(m, None)
    assert _in_scalar_span(target, gens)
    assert _in_scalar_span(target, gens + [{"m4": a}])
    assert not _in_scalar_span({**target, "m3": target["m3"] + b}, gens[:2])
    assert not _in_scalar_span({"m4": a}, gens[:2])
    assert not _in_scalar_span(target, gens[:2])


def test_quotient_ideal_closed_under_d_and_star():
    rng = random.Random(6)
    for n in (2, 3):
        ctx = DeformationContext(n + 1)
        cc = central_quadric(ctx)
        dc = cc.d()
        one = Element.one(ctx)
        for _ in range(8):
            k = rng.randint(0, n - 1)
            m1 = (cc - one) * random_element(ctx, rng, 1, k, 2)
            m2 = dc * random_element(ctx, rng, 1, k, 2)
            for memb in (m1, m2):
                assert in_quotient_ideal(memb.d())
                assert in_quotient_ideal(memb.star())


def test_volume_class_is_real():
    for n in (2, 3, 4):
        ctx = DeformationContext(n + 1)
        vol = volume_form(ctx)
        assert sphere_equal(vol.star(), vol)


def test_connes_landi_coordinate_relations():
    # dimension 5 with one parameter: the explicit exchange table of the
    # deformed 4-sphere, plus the unit quadric after substitution
    ctx = DeformationContext(5)
    x = lambda a: Element.x(ctx, a)
    q = ctx.q_power(1, 2)
    assert x(1) * x(2) == (x(2) * x(1)) * q
    assert x(1) * x(4) == (x(4) * x(1)) * ctx.q_power(1, 2, -1)
    assert x(1) * x(5) == x(5) * x(1)
    assert x(2) * x(5) == (x(5) * x(2)) * q
    assert x(4) * x(5) == (x(5) * x(4)) * ctx.q_power(1, 2, -1)
    assert x(2) * x(4) == x(4) * x(2)
    for a in range(1, 6):
        assert x(3) * x(a) == x(a) * x(3)
    quad = (x(1) * x(5) + x(2) * x(4)).scale(2) + Element.x(ctx, 3, 2)
    assert reduce_mod_c(quad) == Element.one(ctx)
