"""The catalogue of verified identities: each family is declared here once.

An ``Identity`` is one equation ``lhs = rhs`` of a kind:

- ``scalar``: two ``ExactScalar`` values, equal exactly;
- ``element``: two ambient ``Element`` values, equal exactly;
- ``sphere``: two ambient representatives with the same sphere class.

``holds`` is the one decision for every kind.  A family generator takes a
context (or a gamma representation, or a half-dimension) plus any random
inputs its caller has already drawn, and yields identities; it draws nothing
itself.  ``group`` names the family instance and ``label`` the single
identity: a suite makes one case of each run of identities sharing a group,
and an acceptance criterion checks each identity, and exports ``lhs - rhs``
to the numeric oracle, under its label.  Both sides stay apart so that exact
checks are equality tests.

Every identity a suite checks is declared here, from the phase table to the
character of the integration cycle: the identities of the twisted limit of
Connes-Landi (CMP 221, 2001) and Connes-Dubois-Violette (CMP 230, 2002).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import comb, factorial
from operator import mul
from typing import NamedTuple

from .chern import (character_tau, charge, charge_from_curvature,
                    charge_integral, clifford_trace, curvature,
                    instanton_projector)
from .exprio import format_element, parse_expr
from .haar import haar_plane, lambda_coefficient, laplacian, partial_derivative
from .ncalg import Element
from .qphase import DeformationContext, ExactScalar, _C_ONE
from .sphere import (central_quadric, hodge_sphere, integrate_form,
                     omega_form, pairing_sphere, reduce_mod_c, sphere_equal,
                     top_decompose, volume_form)
from .tensorcalc import (antisym_w, antisym_w_bruteforce, antisym_w_column,
                         braid_word, epsilon_q, epsilon_qinv, hodge_plane,
                         pairing_plane, volume_element)


class Identity(NamedTuple):
    group: str
    label: str
    kind: str  # "scalar", "element" or "sphere"
    ctx: DeformationContext
    lhs: object
    rhs: object


def holds(identity: Identity) -> bool:
    """The exact decision: equal values, or equal sphere classes."""
    if identity.kind == "sphere":
        return sphere_equal(identity.lhs, identity.rhs)
    return identity.lhs == identity.rhs


def basis_form(ctx, dxs) -> Element:
    return Element.monomial(ctx, ((0,) * ctx.dim, tuple(dxs)))


def _per_rank(draws):
    """(j, upper, lower) per drawn index pair, j counting draws of one rank."""
    seen = Counter()
    for up, lo in draws:
        seen[len(up)] += 1
        yield seen[len(up)] - 1, up, lo


def _singles(kind: str, ctx, cases):
    """A family instance of one identity per (group, lhs, rhs) of ``cases``,
    labelled by its group."""
    for group, lhs, rhs in cases:
        yield Identity(group, group, kind, ctx, lhs, rhs)


def _family(group: str, kind: str, ctx, sides):
    """One family instance: an identity per (lhs, rhs) of ``sides``,
    labelled by the group and its position."""
    for j, (lhs, rhs) in enumerate(sides):
        yield Identity(group, f"{group} #{j}", kind, ctx, lhs, rhs)


# -- phases and the algebra ---------------------------------------------------

def pair_table(ctx):
    """The laws of the phase table: each column multiplies to 1,
    q_(a,b) q_(b,a) = 1, and priming both indices keeps the phase."""
    d, q, one = ctx.dim, ctx.q_power, ctx.scalar_one()
    yield from _singles("scalar", ctx, (
        (f"D={d}: prod_i q_(i,{p}) = 1",
         reduce(mul, (q(i, p) for i in range(1, d + 1))), one)
        for p in range(1, d + 1)))
    for a, b in product(range(1, d + 1), repeat=2):
        yield from _singles("scalar", ctx, (
            (f"D={d}: q_({a},{b}) q_({b},{a}) = 1", q(a, b) * q(b, a), one),
            (f"D={d}: q_({a},{b}) = q_({a}',{b}')", q(a, b),
             q(ctx.primed(a), ctx.primed(b)))))


def phase_examples(ctx, scalars):
    """At D = 5, whose one phase is q = q_(1,2): the table at three pairs,
    conjugation of i q, and conj(conj(s)) = s on each drawn scalar s."""
    q, i = ctx.q_power, ctx.i_unit()
    yield from _singles("scalar", ctx, [
        ("D=5: q_(4,5)", q(4, 5), ExactScalar({(-1,): _C_ONE})),
        ("D=5: q_(3,1) trivial", q(3, 1), ExactScalar({(0,): _C_ONE})),
        ("D=5: q_(1,2) generator", q(1, 2), ExactScalar({(1,): _C_ONE})),
        ("conj(i q) = -i q^-1", (i * q(1, 2)).conj(), (-i) * q(1, 2, -1)),
        ("q_(1,2) q_(2,1) - 1", q(1, 2) * q(2, 1), ctx.scalar_one())]
        + [(f"conj(conj(s)) = s #{j}", s.conj().conj(), s)
           for j, s in enumerate(scalars)])


def algebra_relations(ctx):
    """The defining relation on x1, x2, dx1 ^ dx1 = 0, d on x1 and Leibniz
    on x1 x2; at D = 5 also dx3 x1 = x1 dx3, of the middle index."""
    x, dx = (lambda a: Element.x(ctx, a)), (lambda a: Element.dx(ctx, a))
    cases = [
        ("x2*x1 = q^-1 x1x2", x(2) * x(1), (x(1) * x(2)) * ctx.q_power(2, 1)),
        ("dx1^dx1", dx(1) * dx(1), Element.zero(ctx)),
        ("d(x1) = dx1", x(1).d(), dx(1)),
        ("Leibniz on x1x2", (x(1) * x(2)).d(),
         x(1).d() * x(2) + x(1) * x(2).d())]
    if ctx.dim == 5:
        cases.append(("dx3*x1 = x1*dx3", dx(3) * x(1), x(1) * dx(3)))
    return _singles("element", ctx, cases)


def confluence(ctx, words):
    """A word's product does not depend on the association: left to right
    equals right to left, on each drawn word of ("x" or "dx", index)."""
    gen = {"x": Element.x, "dx": Element.dx}
    for j, word in enumerate(words):
        left = right = Element.one(ctx)
        for kind, a in word:
            left = left * gen[kind](ctx, a)
        for kind, a in reversed(word):
            right = gen[kind](ctx, a) * right
        yield from _singles("element", ctx, [
            (f"D={ctx.dim} confluence of {word} #{j}", left, right)])


def basis_counts(ctx):
    """The exterior algebra has dimension 2^D: the products of k distinct
    dx, in every order, reorder onto C(D, k) basis forms.  Each ordering's
    product extends its prefix's by one dx, so every ordering costs one
    product."""
    d = ctx.dim
    keys = [set() for _ in range(d + 1)]

    def extend(idx, form):
        keys[len(idx)].update(mono[1] for mono, _ in form.terms)
        for a in range(1, d + 1):
            if a not in idx:
                extend(idx + (a,), form * Element.dx(ctx, a))

    extend((), Element.one(ctx))
    for k in range(d + 1):
        yield from _singles("scalar", ctx, [
            (f"degree-{k} basis count C({d},{k})", ctx.scalar(len(keys[k])),
             ctx.scalar(comb(d, k)))])


def volume_form_laws(ctx):
    """The volume element V commutes with every x^a and is real."""
    d, v, x = ctx.dim, volume_element(ctx), Element.x
    yield from _family(f"D={d}: volume form central", "element", ctx, (
        (x(ctx, a) * v, v * x(ctx, a)) for a in range(1, d + 1)))
    yield from _singles("element", ctx, [
        (f"D={d}: volume form real", v.star(), v)])


def form_laws(ctx, forms, printed):
    """At D = 5: the star of x1 and of dx1 ^ dx2; on each drawn form f,
    f** = f, (df)* = d(f*) and ddf = 0; and the printed form of the element
    ``printed`` parses back to it."""
    x, dx, zero = Element.x, Element.dx, Element.zero(ctx)
    yield from _singles("element", ctx, [
        ("star(x1) = x5", x(ctx, 1).star(), x(ctx, 5)),
        ("star(dx1^dx2) = -dx4^dx5", (dx(ctx, 1) * dx(ctx, 2)).star(),
         -(dx(ctx, 4) * dx(ctx, 5)))])
    for j, f in enumerate(forms):
        yield from _singles("element", ctx, [
            (f"star(star(f)) = f #{j}", f.star().star(), f),
            (f"star(d f) = d(star f) #{j}", f.d().star(), f.star().d()),
            (f"dd f #{j}", f.d().d(), zero)])
    yield from _singles("element", ctx, [
        ("print/parse round trip", parse_expr(ctx, format_element(printed)),
         printed)])


# -- Haar functional ----------------------------------------------------------

def haar_well_defined(ctx, max_deg: int):
    """h((c-1) m) = 0 for every monomial m of degree at most max_deg."""
    d = ctx.dim
    group = f"D={d}: h((c-1) f) = 0 up to degree {max_deg}"
    rel = central_quadric(ctx) - Element.one(ctx)
    zero = ctx.scalar_zero()
    for total in range(max_deg + 1):
        for combo in combinations_with_replacement(range(d), total):
            e = [0] * d
            for j in combo:
                e[j] += 1
            m = Element.monomial(ctx, (tuple(e), ()))
            yield Identity(group, f"D={d} h((c-1)m) {tuple(e)}", "scalar",
                           ctx, haar_plane(ctx, rel * m), zero)


def haar_trace(ctx, pairs):
    """h(fg) = h(gf) for each drawn pair (f, g)."""
    d = ctx.dim
    for j, (f, g) in enumerate(pairs):
        yield Identity(f"D={d}: h(fg) = h(gf)", f"D={d} trace #{j}", "scalar",
                       ctx, haar_plane(ctx, f * g), haar_plane(ctx, g * f))


def haar_reality(ctx, fs):
    """conj h(f) = h(f*) for each drawn f."""
    d = ctx.dim
    for j, f in enumerate(fs):
        yield Identity(f"D={d}: conj h(f) = h(f*)", f"D={d} reality #{j}",
                       "scalar", ctx, haar_plane(ctx, f).conj(),
                       haar_plane(ctx, f.star()))


def haar_moments(ctx):
    """h(x^i x^i') = 1/D for each i, one family instance per i."""
    d = ctx.dim
    for i in range(1, d + 1):
        e = [0] * d
        e[i - 1] += 1
        e[ctx.primed(i) - 1] += 1
        m = Element.monomial(ctx, (tuple(e), ()))
        yield Identity(f"D={d}: h(x{i} x{i}*) = 1/{d}",
                       f"D={d} h(x{i} x{i}') = 1/{d}", "scalar", ctx,
                       haar_plane(ctx, m), ctx.scalar(Fraction(1, d)))


def haar_square_moments(ctx):
    """h((x^i)^2) = 0 for each i other than its own partner i'."""
    d = ctx.dim
    for i in range(1, d + 1):
        if i != ctx.primed(i):
            e = [0] * d
            e[i - 1] = 2
            m = Element.monomial(ctx, (tuple(e), ()))
            yield Identity(f"D={d}: h((x{i})^2) = 0", f"D={d} h((x{i})^2) = 0",
                           "scalar", ctx, haar_plane(ctx, m),
                           ctx.scalar_zero())


def haar_units(ctx):
    """h(1) = h(c) = 1."""
    d, one = ctx.dim, ctx.scalar_one()
    yield from _singles("scalar", ctx, [
        (f"D={d}: h(1) = 1", haar_plane(ctx, Element.one(ctx)), one),
        (f"D={d}: h(c) = 1", haar_plane(ctx, central_quadric(ctx)), one)])


def haar_values(ctx):
    """At D = 5: h(x3 x3) = h(x1 x5) = 1/5 and lambda_1(5) = 1/10."""
    x, fifth = Element.x, ctx.scalar(Fraction(1, 5))
    yield from _singles("scalar", ctx, [
        ("D=5: h(x3 x3) = 1/5", haar_plane(ctx, x(ctx, 3, 2)), fifth),
        ("D=5: h(x1 x5) = 1/5", haar_plane(ctx, x(ctx, 1) * x(ctx, 5)), fifth),
        ("lambda_1(5) = 1/10", ctx.scalar(lambda_coefficient(5, 1)),
         ctx.scalar(Fraction(1, 10)))])


def derivative_laws(ctx, draws):
    """The Laplacian kills x1, and d_a d_b f = q_ab d_b d_a f on each drawn
    (a, b, f)."""
    d, da = ctx.dim, (lambda a, f: partial_derivative(ctx, a, f))
    yield from _singles("element", ctx, [
        (f"D={d}: Delta(x1) = 0", laplacian(Element.x(ctx, 1)),
         Element.zero(ctx))])
    yield from _family(f"D={d}: derivative exchange relation", "element", ctx, (
        (da(a, da(b, f)), da(b, da(a, f)) * ctx.q_power(a, b))
        for a, b, f in draws))


# -- sphere integral ----------------------------------------------------------

def stokes(ctx, thetas):
    """The sphere integral of d(theta) vanishes, theta of degree N - 1."""
    zero = ctx.scalar_zero()
    for j, th in enumerate(thetas):
        yield Identity("Stokes: integral d(theta) = 0",
                       f"N={ctx.dim - 1} Stokes #{j}", "scalar", ctx,
                       integrate_form(th.d()), zero)


def sphere_relations(ctx):
    """The sphere's defining data: c reduces to 1 and (c-1) x2 to 0 (and at
    D = 3, x2^2 + 2 x1 x3 to 1), omega_k ^ dx^l = delta_kl V, and the volume
    form vol = sum_k x^k omega_k has vol ^ dc = 2 c V, top part c and
    integral 1; its class is real and that of c vol."""
    one, cc, v = Element.one(ctx), central_quadric(ctx), volume_element(ctx)
    vol, x, c3 = volume_form(ctx), Element.x, DeformationContext(3)
    yield from _singles("element", ctx, [
        ("reduce(c) = 1", reduce_mod_c(cc), one),
        ("reduce((c-1) x2)", reduce_mod_c((cc - one) * x(ctx, 2)),
         Element.zero(ctx))])
    yield from _singles("element", c3, [
        ("D=3: reduce(x2^2 + 2 x1x3) = 1", reduce_mod_c(
            x(c3, 2, 2) + (x(c3, 1) * x(c3, 3)).scale(2)), Element.one(c3))])
    yield from _family("omega_k ^ dx^l = delta V", "element", ctx, (
        (omega_form(ctx, k) * Element.dx(ctx, l),
         v if l == k else Element.zero(ctx))
        for k, l in product(range(1, ctx.dim + 1), repeat=2)))
    yield from _singles("element", ctx, [
        ("sum_k x^k omega_k ^ dc = 2 c V", vol * cc.d(), (cc * v).scale(2)),
        ("top_decompose(volume) = c", top_decompose(vol), cc)])
    yield from _singles("scalar", ctx, [
        ("integral of the volume = 1", integrate_form(vol), ctx.scalar_one())])
    yield from _singles("sphere", ctx, [
        ("[c w] = [w]", cc * vol, vol), ("[volume] = [volume]", vol, vol),
        ("volume class is real", vol.star(), vol)])


def integral_laws(ctx, pairs, triples):
    """The integral is a trace, integral[a w] = integral[w a] on each drawn
    function a and top form w; and sees only the class: w and
    w + (c-1) a + dc ^ b have one integral on each drawn (w, a, b)."""
    cm1, dc = central_quadric(ctx) - Element.one(ctx), central_quadric(ctx).d()
    yield from _family("integral[a w] = integral[w a]", "scalar", ctx, (
        (integrate_form(a * w), integrate_form(w * a)) for a, w in pairs))
    yield from _family("integral independent of the representative", "scalar",
                       ctx, ((integrate_form(w + cm1 * a + dc * b),
                              integrate_form(w)) for w, a, b in triples))


def ideal_laws(ctx, beta, fs):
    """J holds dc ^ beta, and is a differential star ideal: d m and m* lie
    in J for m = (c-1) f, f each drawn form."""
    cc, zero = central_quadric(ctx), Element.zero(ctx)
    yield from _singles("sphere", ctx, [
        ("[dc ^ beta] = 0", cc.d() * beta, zero)])
    members = [(cc - Element.one(ctx)) * f for f in fs]
    yield from _family("J is a differential star ideal (samples)", "sphere",
                       ctx, ((m2, zero) for m in members
                             for m2 in (m.d(), m.star())))


def connes_landi_s4(ctx):
    """At D = 5 the coordinates are those of the Connes-Landi 4-sphere:
    x_a x_b = q^k x_b x_a with q = q_(1,2) and the exponents k below (x3 is
    central), and 2 (x1 x5 + x2 x4) + x3^2 reduces to 1."""
    x = lambda a: Element.x(ctx, a)
    exps = {(1, 2): 1, (1, 4): -1, (1, 5): 0, (2, 5): 1, (4, 5): -1, (2, 4): 0}
    exps.update({(3, a): 0 for a in range(1, 6)})
    sides = [(x(a) * x(b), (x(b) * x(a)) * ctx.q_power(1, 2, k))
             for (a, b), k in exps.items()]
    sides.append((reduce_mod_c((x(1) * x(5) + x(2) * x(4)).scale(2)
                               + Element.x(ctx, 3, 2)), Element.one(ctx)))
    yield from _family("S^4 coordinate relations match the torus-sphere form",
                       "element", ctx, sides)


# -- Hodge stars on full bases ------------------------------------------------

_PLANE_NAMES = ("** = graded sign on all basis forms", "a^*b = sign *a^b",
                "<a,b> = <*a,*b>", "<*a,g> = <a^g,V>", "*(a*) = (*a)*",
                "defining relation a^*b = <a,b>V")
_SPHERE_NAMES = ("** = graded sign", "t^*e = sign *t^e", "<t,e> = <*t,*e>",
                 "<*t,n> = <t^n,volume>", "*(t*) = (*t)*", "defining relation")


def _basis(ctx, n: int, star) -> dict:
    """{dx indices: (basis form, its star)} for every degree k <= n, by
    degree and then in lexicographic order; each star is computed once."""
    out = {}
    for k in range(n + 1):
        for s in combinations(range(1, ctx.dim + 1), k):
            form = basis_form(ctx, s)
            out[s] = form, star(form)
    return out


def _primed(ctx, s: tuple) -> tuple:
    """u' of a dx word u: the primed indices, reversed (again ascending)."""
    return tuple(ctx.primed(a) for a in reversed(s))


def _complement(ctx, s: tuple) -> tuple:
    return tuple(a for a in range(1, ctx.dim + 1) if a not in s)


def _hodge_family(ctx, n, basis, kind, head, names, star, pairing, vol,
                  partners, complements):
    """The identities of a Hodge star on n-forms, on every basis form and on
    the pairs of basis forms where a side can be nonzero; one family
    instance per identity, in the order of ``names``: **, exchange,
    isometry, duality, reality, defining relation.

    The exchange, isometry and defining relation pair each word s with the
    words ``partners(s)`` of its degree k, and duality pairs it with
    ``complements(s)`` of degree n - k, both in lexicographic order.  Every
    pair left out is zero on both sides; the callers prove their rules.
    """

    def eq(i, label, lhs, rhs):
        return Identity(f"{head}: {names[i]}", f"{head} {label}", kind, ctx,
                        lhs, rhs)

    def singles():
        for s, (a, sa) in basis.items():
            sign = -1 if len(s) * (n - len(s)) % 2 else 1
            yield sign, f"{s}", a, sa

    def pairs(complement=False):
        for s, (a, sa) in basis.items():
            sign = -1 if len(s) * (n - len(s)) % 2 else 1
            for t in (complements if complement else partners)(s):
                yield (sign, f"{s}|{t}", a, sa) + basis[t]

    # a^*b and <a,b> of each pair, formed once for the exchange and the
    # isometry and read again by the defining relation
    wedges, inner = [], []
    for sign, s, a, sa in singles():
        yield eq(0, f"**{s}", star(sa), a.scale(sign))
    for sign, st, a, sa, b, sb in pairs():
        wedges.append(a * sb)
        yield eq(1, f"exchange {st}", wedges[-1], (sa * b).scale(sign))
    for _, st, a, sa, b, sb in pairs():
        inner.append(pairing(a, b))
        yield eq(2, f"isometry {st}", inner[-1], pairing(sa, sb))
    for _, st, a, sa, b, sb in pairs(complement=True):
        yield eq(3, f"duality {st}", pairing(sa, b), pairing(a * b, vol))
    for _, s, a, sa in singles():
        yield eq(4, f"*conj {s}", star(a.star()), sa.star())
    for (_, st, *_), wedge, ab in zip(pairs(), wedges, inner):
        yield eq(5, f"defining {st}", wedge, ab * vol)


def hodge_plane_units(ctx):
    """*1 = V and *V = 1 on the plane."""
    d, v, one = ctx.dim, volume_element(ctx), Element.one(ctx)
    yield Identity(f"D={d}: *1 = V", f"D={d} *1 - V", "element", ctx,
                   hodge_plane(one), v)
    yield Identity(f"D={d}: *V = 1", f"D={d} *V - 1", "element", ctx,
                   hodge_plane(v), one)


def hodge_plane_basis(ctx):
    """The plane Hodge identities on full bases.

    A pair of basis forms is taken only where a side can be nonzero: u = v'
    for the exchange, isometry and defining relation on dx^u, dx^v, and
    t = the complement of u for duality on dx^u, dx^t.  *dx^v is a multiple
    of dx^{(complement of v)'} (``tensorcalc._hodge_basis``), and the prime
    is a bijection of {1..D}, so for u, v of one degree:
    - dx^u ^ *dx^v needs u to miss (complement of v)', so u lies in v' and,
      of its size, is v'; (*dx^u) ^ dx^v needs v = u' alike;
    - <dx^u, dx^v> pairs dx^u with dx^{u'} alone (``pairing_plane``), and
      <*dx^u, *dx^v> needs (complement of v)' = complement of u, which is
      v = u' again;
    - <*dx^u, dx^t> needs t = ((complement of u)')' = complement of u, and
      dx^u ^ dx^t needs t to miss u, which of degree D - k is the same.
    """
    d = ctx.dim
    yield from _hodge_family(
        ctx, d, _basis(ctx, d, hodge_plane), "element", f"D={d}",
        _PLANE_NAMES, hodge_plane, pairing_plane, volume_element(ctx),
        lambda s: (_primed(ctx, s),), lambda s: (_complement(ctx, s),))


def hodge_sphere_units(ctx):
    """*1 = volume and *volume = 1 as sphere classes."""
    n, vol, one = ctx.dim - 1, volume_form(ctx), Element.one(ctx)
    yield Identity(f"N={n}: *1 = volume", f"N={n} *1 - vol", "sphere", ctx,
                   hodge_sphere(one), vol)
    yield Identity(f"N={n}: *volume = 1", f"N={n} *vol - 1", "sphere", ctx,
                   hodge_sphere(vol), one)


def _sphere_partners(ctx, u: tuple) -> list:
    """The words v of u's degree with |u' - v| <= 1: u' and each word one
    index away from it, in lexicographic order."""
    up = _primed(ctx, u)
    out = {up}
    for a in up:
        for b in _complement(ctx, up):
            out.add(tuple(sorted(set(up) - {a} | {b})))
    return sorted(out)


def hodge_sphere_basis(ctx):
    """The sphere Hodge identities on full bases, as sphere classes, led by
    the explicit star against the star through the normal,
    (-1)^(N-k)/2 *(theta ^ dc).

    A pair of basis forms is taken only where a side can be nonzero, as an
    ambient element: |u' - v| <= 1 for the exchange, isometry and defining
    relation on dx^u, dx^v, and u, t disjoint for duality on dx^u, dx^t.
    *dx^v has one term per a outside v, a multiple of x^{a'} times
    dx^{(complement of v+a)'} (``sphere._hodge_sphere_basis``), and the
    terms of distinct a have distinct x parts.  For u, v of one degree, so
    that |u - v'| = |v - u'| = |u' - v|:
    - dx^u ^ *dx^v: the term of a needs u to lie in v' + a', so
      |u - v'| <= 1; (*dx^u) ^ dx^v needs v in u' + a', the same rule;
    - <dx^u, dx^v> is nonzero only for |v - u'| <= 1
      (``_pairing_sphere_basis``), which rules the isometry's left side and
      the defining relation's right side;
    - <dx^u ^ dx^t, volume> is zero unless u and t are disjoint.
    The two sides left, <*dx^u, *dx^v> and <*dx^u, dx^t>, vanish by
    cancellation between terms.  Classically, with n = dc/2 the metric dual
    of the position vector X, *theta = +-*(theta ^ n), <a, b> =
    <a ^ n, b ^ n> on the plane, and i_X(g ^ n) = (i_X g) ^ n +- c g.  The
    plane's duality kills every term holding n ^ n, so <*theta, *eta> =
    c <theta, eta> and <*theta, nu> = +-c <theta ^ nu ^ n, V> as
    polynomials: zero where <theta, eta> is, and where theta ^ nu is.  The
    twist keeps each zero: c, dc and the metric have weight zero, so by the
    cocycle lemma (``qphase`` docstring) they act classically up to a
    diagonal phase rescaling of the monomial basis.
    """
    n = ctx.dim - 1
    dc = central_quadric(ctx).d()
    basis = _basis(ctx, n, hodge_sphere)
    for s, (th, sth) in basis.items():
        yield Identity(f"N={n}: explicit star = star through the normal",
                       f"N={n} normal-route {s}", "sphere", ctx, sth,
                       hodge_plane(th * dc).scale(
                           Fraction((-1) ** (n - len(s)), 2)))
    yield from _hodge_family(
        ctx, n, basis, "sphere", f"N={n}", _SPHERE_NAMES, hodge_sphere,
        pairing_sphere, volume_form(ctx), lambda s: _sphere_partners(ctx, s),
        lambda s: combinations(_complement(ctx, s), n - len(s)))


def plane_volume_norm(ctx):
    """<V, V> = 1 on the plane."""
    v = volume_element(ctx)
    yield from _singles("element", ctx, [
        (f"D={ctx.dim}: <V,V> = 1", pairing_plane(v, v), Element.one(ctx))])


def hodge_bilinearity(ctx, draws):
    """The sphere star is bilinear over functions: *(f theta h) =
    f (*theta) h as classes, on each drawn (dx indices of theta, f, h)."""
    yield from _family(f"N={ctx.dim - 1}: function bilinearity of the star",
                       "sphere", ctx, (
        (hodge_sphere(f * basis_form(ctx, s) * h),
         f * hodge_sphere(basis_form(ctx, s)) * h) for s, f, h in draws))


# -- braid matrix and q-antisymmetrizer ---------------------------------------

def braid_squares(ctx):
    """lambda^2 = 1: the coefficient of e_t in lambda^2 e_t is 1."""
    d = ctx.dim
    for t in product(range(1, d + 1), repeat=2):
        u, exps = braid_word(ctx, t, (0, 0))
        yield Identity(f"D={d}: braid matrix squares to identity",
                       f"D={d} braid^2 {t}", "scalar", ctx,
                       ExactScalar({exps: _C_ONE}) if u == t
                       else ctx.scalar_zero(),
                       ctx.scalar_one())


def braid_equation(ctx):
    """lambda_1 lambda_2 lambda_1 = lambda_2 lambda_1 lambda_2 on e_t: both
    sides have the same coefficient at the basis tensor the left one hits."""
    d = ctx.dim
    for t in product(range(1, d + 1), repeat=3):
        ua, ea = braid_word(ctx, t, (0, 1, 0))
        ub, eb = braid_word(ctx, t, (1, 0, 1))
        yield Identity(f"D={d}: braid equation", f"D={d} braid eq {t}",
                       "scalar", ctx, ExactScalar({ea: _C_ONE}),
                       ExactScalar({eb: _C_ONE}) if ub == ua
                       else ctx.scalar_zero())


def _contraction_row(ctx, up: tuple, cyclic: bool = False) -> dict:
    """{lo: sum_l eps_q(up l) eps_qinv(lo l)} over the D - k trailing slots,
    or of eps_q(l up) eps_qinv(l lo) over the leading ones when cyclic.

    Both epsilons vanish on every tuple with a repeated index, so the sum
    runs over the (D - k)! orders l of the complement of up alone, and the
    row is empty when up repeats an index.  It holds the lo that order the
    index set of up, the only lo whose sum can be nonzero: any other lo
    repeats an index or holds one of the complement, which every l repeats.
    """
    if len(set(up)) < len(up):
        return {}
    los = list(permutations(up))
    row = dict.fromkeys(los, ctx.scalar_zero())
    for l in permutations([a for a in range(1, ctx.dim + 1) if a not in up]):
        e = epsilon_q(ctx, l + up if cyclic else up + l)
        for lo in los:
            row[lo] = row[lo] + e * epsilon_qinv(ctx, l + lo if cyclic
                                                 else lo + l)
    return row


def epsilon_contraction(ctx):
    """eps . eps contracted over D - k slots = (D-k)! W, for every pair of
    index tuples of every rank k.

    Only the pairs where a side can be nonzero are yielded: for each upper
    tuple up, the lo that key its contraction row or its row of (D-k)! W.
    Every other pair is zero on both sides.  The contraction vanishes when up
    or lo repeats an index, or when lo does not order the index set of up
    (``_contraction_row``); W keeps its index multiset, and its row holds
    every nonzero entry read from the columns.  So a nonzero W entry off the
    contraction's support is still yielded, and fails against a zero sum.
    """
    d = ctx.dim
    group = f"D={d}: epsilon contraction = (D-k)! W, exhaustive"
    zero = ctx.scalar_zero()
    for k in range(d + 1):
        fact = factorial(d - k)
        tuples = list(product(range(1, d + 1), repeat=k))
        # (D-k)! W, read one column per lower tuple and transposed into rows
        w_rows: dict = {}
        for lo in tuples:
            for up, w in antisym_w_column(ctx, lo).items():
                w_rows.setdefault(up, {})[lo] = w.scale(fact)
        for up in tuples:
            row = _contraction_row(ctx, up)
            w_row = w_rows.get(up, {})
            for lo in sorted(row.keys() | w_row.keys()):
                yield Identity(group, f"D={d} contraction {up}|{lo}", "scalar",
                               ctx, row.get(lo, zero), w_row.get(lo, zero))


def epsilon_contraction_draws(ctx, draws):
    """The contraction identity on drawn (upper, lower) pairs, over trailing
    and over leading slots; one family instance per identity."""
    d = ctx.dim
    zero = ctx.scalar_zero()
    for j, (up, lo) in enumerate(draws):
        w = antisym_w(ctx, up, lo).scale(factorial(d - len(up)))
        for tag, cyclic in (("", False), ("cyclic ", True)):
            yield Identity(f"D={d} {tag}contraction {up}|{lo} #{j}",
                           f"D={d} {tag}contraction #{j}", "scalar", ctx,
                           _contraction_row(ctx, up, cyclic).get(lo, zero), w)


def w_partial_traces(ctx, draws):
    """sum_m W^{up m}_{lo m} = sum_m W^{m up}_{m lo} = (D-k+1) W^{up}_{lo}
    with k = len(up) + 1, on drawn (up, lo) pairs."""
    d = ctx.dim
    zero = ctx.scalar_zero()
    cases = [(j, up, lo, antisym_w(ctx, up, lo).scale(d - len(up)))
             for j, up, lo in _per_rank(draws)]
    for j, up, lo, want in cases:
        yield Identity(f"D={d}: trailing partial trace of W",
                       f"D={d} k={len(up) + 1} trace-last #{j}", "scalar", ctx,
                       sum((antisym_w(ctx, up + (m,), lo + (m,))
                            for m in range(1, d + 1)), zero), want)
    for j, up, lo, want in cases:
        yield Identity(f"D={d}: leading partial trace of W",
                       f"D={d} k={len(up) + 1} trace-first #{j}", "scalar",
                       ctx, sum((antisym_w(ctx, (m,) + up, (m,) + lo)
                                 for m in range(1, d + 1)), zero), want)


def w_recursion(ctx, draws):
    """W as the quotient r(u) r(l)^-1 of reorder coefficients
    (``tensorcalc`` docstring) equals the alternating sum over the
    permutation operators, on drawn (upper, lower) pairs; one family
    instance per draw.  The labels keep the name "recursion", from the
    braid recursion that computed W before."""
    for j, up, lo in _per_rank(draws):
        rank = " (k=4)" if len(up) == 4 else ""
        yield Identity(f"W^{up}_{lo} recursion = permutation sum{rank} #{j}",
                       f"W rec vs sum k={len(up)} #{j}", "scalar", ctx,
                       antisym_w(ctx, up, lo),
                       antisym_w_bruteforce(ctx, up, lo))


def metric_epsilon(ctx, orders):
    """The metric/epsilon lemma.  The q-determinant of the metric is
    eps_q(1', ..., D'), the one term of the permutation sum whose metric
    entries are all nonzero, and equals det g = (-1)^[D/2]; on each drawn
    order idx of 1..D, priming the indices multiplies eps_q by det g, and
    eps_qinv(idx) = det g eps_q(idx reversed)."""
    d = ctx.dim
    det = -1 if (d // 2) % 2 else 1
    yield from _singles("scalar", ctx, [
        (f"D={d}: q-determinant of the metric",
         epsilon_q(ctx, tuple(map(ctx.primed, range(1, d + 1)))),
         ctx.scalar(det))])
    yield from _family(f"D={d}: priming indices multiplies epsilon by det g",
                       "scalar", ctx, (
        (epsilon_q(ctx, tuple(map(ctx.primed, idx))),
         epsilon_q(ctx, idx).scale(det)) for idx in orders))
    yield from _family(f"D={d}: inverse-phase epsilon = reversed epsilon det g",
                       "scalar", ctx, (
        (epsilon_qinv(ctx, idx), epsilon_q(ctx, idx[::-1]).scale(det))
        for idx in orders))


def pairing_symmetry(ctx, draws):
    """The wedge/tensor pairing is symmetric: W^{i reversed}_{a'} =
    W^a_{i primed} on each drawn index pair (a, i), a' = ``_primed(a)``."""
    yield from _singles("scalar", ctx, (
        (f"wedge/tensor pairing symmetry {a}|{i} #{j}",
         antisym_w(ctx, i[::-1], _primed(ctx, a)),
         antisym_w(ctx, a, tuple(map(ctx.primed, i))))
        for j, (a, i) in enumerate(draws)))


# -- Clifford algebra ---------------------------------------------------------

def clifford_relations(rep):
    """gamma^i gamma^j + q_ji gamma^j gamma^i = 2 g^ij, entry by entry."""
    n, ctx = rep.n, rep.ctx
    group = f"n={n}: Clifford relations hold"
    zero = ctx.scalar_zero()
    for i in range(1, ctx.dim + 1):
        for j in range(1, ctx.dim + 1):
            defect = rep.relation_defect(i, j)
            for a, b in product(range(2 ** n), repeat=2):
                yield Identity(group, f"n={n} relation ({i},{j})[{a}{b}]",
                               "scalar", ctx, defect.get((a, b), zero), zero)


def clifford_traces(rep, draws=None):
    """Tr(gamma^{i_1} ... gamma^{i_D}) = 2^n eps_qinv(i) on drawn index
    tuples, or on every tuple when ``draws`` is None."""
    n, ctx = rep.n, rep.ctx
    if draws is None:
        group = f"n={n}: trace formula exhaustive"
        items = [(f"n={n} trace {idx}", idx)
                 for idx in product(range(1, ctx.dim + 1), repeat=ctx.dim)]
    else:
        group = f"n={n}: trace formula random"
        items = [(f"n={n} trace #{j}", idx) for j, idx in enumerate(draws)]
    for label, idx in items:
        yield Identity(group, label, "scalar", ctx, clifford_trace(rep, idx),
                       epsilon_qinv(ctx, idx).scale(2 ** n))


# -- instanton projector and the character of the integration cycle -----------

def projector_laws(n: int):
    """The instanton projector e of half-dimension n is idempotent over the
    sphere and hermitian, entry by entry."""
    rep, e = instanton_projector(n)
    ee, entries = e * e, list(product(range(2 ** n), repeat=2))
    yield from _family(f"n={n}: projector idempotent", "sphere", rep.ctx,
                       ((ee[a, b], e[a, b]) for a, b in entries))
    yield from _family(f"n={n}: projector hermitian", "element", rep.ctx,
                       ((e[a, b].star(), e[b, a]) for a, b in entries))


def curvature_laws(n: int):
    """The curvature F = e de de is antihermitian over the sphere, entry by
    entry, and the charge computed from it is 1."""
    rep, e = instanton_projector(n)
    f = curvature(e)
    entries = product(range(2 ** n), repeat=2)
    yield from _family(f"n={n}: curvature antihermitian", "sphere", rep.ctx,
                       ((f[a, b].star(), -f[b, a]) for a, b in entries))
    yield from _singles("scalar", rep.ctx, [
        (f"n={n}: charge via curvature", charge_from_curvature(n),
         rep.ctx.scalar_one())])


def charge_laws(n: int):
    """integral Tr[e (de)^2n] = (2n)! i^n / 2^(n+1), the charge is 1, and the
    piece Stokes discards, integral Tr[(de)^2n], is 0."""
    rep, e = instanton_projector(n)
    ctx, de = rep.ctx, e.map(lambda f: f.d())
    head = reduce(mul, [de] * (2 * n - 1))  # (de)^2n = head * de
    yield from _singles("scalar", ctx, [
        (f"n={n}: integral Tr[e(de)^{2 * n}] = (2n)! i^n / 2^(n+1)",
         charge_integral(n),
         ctx.i_power(n).scale(Fraction(factorial(2 * n), 2 ** (n + 1)))),
        (f"n={n}: charge = 1", charge(n), ctx.scalar_one()),
        (f"n={n}: integral Tr[(de)^{2 * n}]",
         integrate_form(head.trace_mul(de)), ctx.scalar_zero())])


def character_laws(ctx, tuples, fs):
    """The character tau of the integration cycle on the N-sphere:
    tau(a_0, ..., a_N) = (-1)^N tau(a_N, a_0, ..., a_{N-1}) on each drawn
    tuple of N + 1 sphere functions, and tau(1, f, 1, ..., 1) = 0 on each
    drawn function f, since d1 = 0."""
    n, one = ctx.dim - 1, Element.one(ctx)
    yield from _family(
        f"N={n}: character invariant under the signed cyclic shift", "scalar",
        ctx, ((character_tau(t), character_tau([t[-1]] + t[:-1]).scale(
            (-1) ** n)) for t in tuples))
    yield from _family("tau vanishes when a later entry is 1", "scalar", ctx, (
        (character_tau([one, f] + [one] * (n - 1)), ctx.scalar_zero())
        for f in fs))
