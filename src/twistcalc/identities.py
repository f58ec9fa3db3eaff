"""The catalogue of verified identities: each family is declared here once.

An ``Identity`` is one equation ``lhs = rhs`` of a kind:

- ``scalar``: two ``ExactScalar`` values, equal exactly;
- ``element``: two ambient ``Element`` values, equal exactly;
- ``sphere``: two ambient representatives with the same sphere class.

``holds`` is the one decision for every kind.  A family generator takes a
context (or a gamma representation) plus any random inputs its caller has
already drawn, and yields identities; it draws nothing itself.  ``group``
names the family instance and ``label`` the single identity: a suite makes one
case of each run of identities sharing a group, and an acceptance criterion
checks each identity, and exports ``lhs - rhs`` to the numeric oracle, under
its label.  Both sides stay apart so that exact checks are equality tests.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import (combinations, combinations_with_replacement,
                       permutations, product)
from math import factorial
from typing import NamedTuple

from .chern import clifford_trace
from .haar import haar_plane
from .ncalg import Element
from .qphase import DeformationContext, ExactScalar, _C_ONE
from .sphere import (central_quadric, hodge_sphere, integrate_form,
                     pairing_sphere, sphere_equal, volume_form)
from .tensorcalc import (antisym_w, antisym_w_bruteforce, antisym_w_column,
                         apply_lambda, epsilon_q, epsilon_qinv, hodge_plane,
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


# -- sphere integral ----------------------------------------------------------

def stokes(ctx, thetas):
    """The sphere integral of d(theta) vanishes, theta of degree N - 1."""
    zero = ctx.scalar_zero()
    for j, th in enumerate(thetas):
        yield Identity("Stokes: integral d(theta) = 0",
                       f"N={ctx.dim - 1} Stokes #{j}", "scalar", ctx,
                       integrate_form(th.d()), zero)


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
    twist keeps each zero: it rescales the monomial basis by phases, and
    c, dc and the metric have weight zero (see the ``sphere`` docstring).
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


# -- braid matrix and q-antisymmetrizer ---------------------------------------

def _braid_word(ctx, t: tuple, word):
    """(basis tuple, phase) of the basis tensor e_t after the braid matrix
    acts on the slots (pos, pos + 1) of each pos in ``word``, in turn."""
    acc = [0] * ctx.nparams
    for pos in word:
        t, red = apply_lambda(ctx, t, pos)
        if red is not None:
            acc[red[0]] += red[1]
    return t, ExactScalar({tuple(acc): _C_ONE})


def braid_squares(ctx):
    """lambda^2 = 1: the coefficient of e_t in lambda^2 e_t is 1."""
    d = ctx.dim
    for t in product(range(1, d + 1), repeat=2):
        u, phase = _braid_word(ctx, t, (0, 0))
        yield Identity(f"D={d}: braid matrix squares to identity",
                       f"D={d} braid^2 {t}", "scalar", ctx,
                       phase if u == t else ctx.scalar_zero(),
                       ctx.scalar_one())


def braid_equation(ctx):
    """lambda_1 lambda_2 lambda_1 = lambda_2 lambda_1 lambda_2 on e_t: both
    sides have the same coefficient at the basis tensor the left one hits."""
    d = ctx.dim
    for t in product(range(1, d + 1), repeat=3):
        ua, pa = _braid_word(ctx, t, (0, 1, 0))
        ub, pb = _braid_word(ctx, t, (1, 0, 1))
        yield Identity(f"D={d}: braid equation", f"D={d} braid eq {t}",
                       "scalar", ctx, pa,
                       pb if ub == ua else ctx.scalar_zero())


def _contraction(ctx, up: tuple, lo: tuple, cyclic: bool = False):
    """sum_l eps_q(up l) eps_qinv(lo l) over the D - k trailing slots, or
    eps_q(l up) eps_qinv(l lo) over the leading ones when cyclic.

    Both epsilons vanish on every tuple with a repeated index, so the sum is
    zero at once when up or lo repeats one, and otherwise runs over the
    (D - k)! orders l of the complement of up alone.
    """
    s = ctx.scalar_zero()
    if len(set(up)) < len(up) or len(set(lo)) < len(lo):
        return s
    for l in permutations([a for a in range(1, ctx.dim + 1) if a not in up]):
        u, v = (l + up, l + lo) if cyclic else (up + l, lo + l)
        s = s + epsilon_q(ctx, u) * epsilon_qinv(ctx, v)
    return s


def _contraction_row(ctx, up: tuple) -> dict:
    """{lo: _contraction(ctx, up, lo)} over the lo that order the index set
    of up, which are the only lo whose sum can be nonzero: any other
    repeat-free lo holds an index of the complement, which every complement
    order l repeats.  Empty when up repeats an index."""
    if len(set(up)) < len(up):
        return {}
    los = list(permutations(up))
    row = dict.fromkeys(los, ctx.scalar_zero())
    for l in permutations([a for a in range(1, ctx.dim + 1) if a not in up]):
        e = epsilon_q(ctx, up + l)
        for lo in los:
            row[lo] = row[lo] + e * epsilon_qinv(ctx, lo + l)
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
    for j, (up, lo) in enumerate(draws):
        w = antisym_w(ctx, up, lo).scale(factorial(d - len(up)))
        yield Identity(f"D={d} contraction {up}|{lo} #{j}",
                       f"D={d} contraction #{j}", "scalar", ctx,
                       _contraction(ctx, up, lo), w)
        yield Identity(f"D={d} cyclic contraction {up}|{lo} #{j}",
                       f"D={d} cyclic contraction #{j}", "scalar", ctx,
                       _contraction(ctx, up, lo, cyclic=True), w)


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
    """W by its recursion equals the sum over permutations, on drawn
    (upper, lower) pairs; one family instance per draw."""
    for j, up, lo in _per_rank(draws):
        rank = " (k=4)" if len(up) == 4 else ""
        yield Identity(f"W^{up}_{lo} recursion = permutation sum{rank} #{j}",
                       f"W rec vs sum k={len(up)} #{j}", "scalar", ctx,
                       antisym_w(ctx, up, lo),
                       antisym_w_bruteforce(ctx, up, lo))


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
                               "scalar", ctx, defect[a, b], zero)


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
