"""The twisted sphere as a quotient: functions mod (c-1), forms mod J.

c = sum_a x^a x^{a'} is central; the sphere's differential algebra is the
ambient one modulo J = (c-1)*Omega + dc ^ Omega.  One rule decides sphere
classes in every form degree:

    omega lies in J  <=>  omega ^ dc lies in (c-1)*Omega.

(=>) dc ^ dc = 0, dc graded-commutes with every form and c-1 is central,
so ((c-1) alpha + dc ^ beta) ^ dc = (c-1) (alpha ^ dc).  (<=) Classically, the Euler contraction i_E
(E = sum_a x^a d_a) is a degree -1 antiderivation with i_E dc = 2c, so

    2c omega = i_E(dc ^ omega) + dc ^ i_E omega.

If dc ^ omega = (c-1) gamma, then omega = (c-1)(i_E gamma / 2 - omega) +
dc ^ (i_E omega / 2), which lies in J (this is the Koszul complex of the
x^a, exact on the sphere because they generate the unit ideal there).  The
twist does not change this: c, dc and E have weight zero, so by the
cocycle lemma (``qphase`` docstring) left multiplication by each is the
classical map up to the diagonal phase rescaling m -> q^(-Q(m)) m of the
monomial basis, and J of the twisted algebra is the image of the classical
J under that rescaling.
The terms of c, dc and repl are 1, x^a x^{a'} and x^{a'} dx^a, all with
Q = 0 (q_{aa'} = 1): they carry no phase and are written out, not multiplied.

(c-1)*Omega is the direct sum over dx sets T of (c-1)*A*dx^T, so
``reduce_mod_c`` decides the right-hand side dx monomial by dx monomial, in
one substitution: each term's highest power (x^1 x^D)^p becomes repl^p,
where repl = x^1 x^D - (c-1)/2 holds neither x^1 nor x^D, so no product
holds both and nothing is left to rewrite.  J is graded by form degree, so
``in_quotient_ideal`` decides each homogeneous part alone (a form of one
degree is read in place) and takes the residue of f_omega with
omega ^ dc/2 = f_omega * V at the sphere's top degree N (each term
x^e dx^{[D]-j} times the one term 2 x^{j'} dx^j of dc), and of omega ^ dc
in every other degree, functions included; at the ambient top degree D the
product is zero.

In a degree k < N two facts let the residue of omega ^ dc be read one block
at a time, and stop early.  (1) omega may be replaced by its normal
form N(omega) = ``reduce_mod_c(omega)``: omega - N(omega) = (c-1) alpha, and
(c-1) alpha ^ dc lies in (c-1)*Omega since c-1 is central, so omega ^ dc and
N(omega) ^ dc have the same residue.  (2) The residue splits by target dx
set: the dx set of a term of N(omega) ^ dc is that of the N(omega) term
plus the one index a of the dc term x^{a'} dx^a, and ``reduce_mod_c`` keeps
each dx set, so the residue's dx^T part is the residue of the block
sum_{a in T} N(omega)_{T - {a}} x^{a'} dx^a alone.  By the direct sum,
omega ^ dc lies in (c-1)*Omega iff every block reduces to zero, so the first
nonzero block is a complete "no" (``_block_residues``).

The integral of a top form is the Haar value of f_omega; the sphere Hodge
star and pairing push the plane ones through the normal direction dc/2.

The pairing <alpha, beta> = (1/4)<alpha ^ dc, beta ^ dc> is bilinear over
functions: <sum_u f_u dx^u, sum_v dx^v g_v> = sum_{u,v} f_u S(u,v) g_v with
S(u,v) = <dx^u, dx^v>.  This is exact because dc is central in the x's (c is
central and d a derivation), dc graded-commutes with every dx, and the plane
pairing is left-linear in its first slot and right-linear in its second.
dc = 2 sum_a x^{a'} dx^a, and the plane pairs dx^w only with dx^{w'}, so
S(u,v) is nonzero only when u and v' differ in at most one index: for
u = v' it is one sum over a outside u of x^{a'} x^a terms, and otherwise a
single term.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub

from .haar import haar_plane
from .ncalg import Element, _finish, _mono_mul, _mul_into
from .qphase import (_C_MINUS_ONE, _C_ONE, _C_TWO, DeformationContext,
                     ExactScalar, _c_add, _c_mul, _c_neg, _c_scale)
from .tensorcalc import _pairing_slots, epsilon_q, epsilon_qinv

__all__ = [
    "central_quadric", "reduce_mod_c", "omega_form", "volume_form",
    "top_decompose", "integrate_form", "in_quotient_ideal", "sphere_equal",
    "pairing_sphere", "hodge_sphere",
]


@lru_cache(maxsize=None)
def central_quadric(ctx: DeformationContext) -> Element:
    """c = sum_a x^a x^{a'}, written out as 2 x^a x^{a'} for a < a' and
    (x^m)^2 for the middle index m of odd D; central in the whole
    differential algebra.  Cached per context: the result is shared between
    callers and must not be mutated.
    """
    dim = ctx.dim
    return _finish(ctx, {
        ((tuple((j == a - 1) + (j == dim - a) for j in range(dim)), ()),
         ctx._zero_exps): _C_ONE if 2 * a > dim else _C_TWO
        for a in range(1, (dim + 1) // 2 + 1)})


@lru_cache(maxsize=None)
def _companion_replacement(ctx: DeformationContext, p: int) -> Element:
    """repl^p, where repl = x^1 x^D - (c-1)/2 is the degree-0 element equal
    to x^1 x^D modulo (c-1) (cached per context and p, shared).

    c holds x^1 x^D as its term 2 x^1 x^D, so repl is -1/2 times c's other
    terms, plus 1/2, and holds neither x^1 nor x^D.
    """
    if p == 1:
        terms = {(mono, k): _c_scale(v, -1, 2) for (mono, k), v in
                 central_quadric(ctx).terms.items() if not mono[0][0]}
        terms[(((0,) * ctx.dim, ()), ctx._zero_exps)] = (1, 0, 0, 0, 2)
        return _finish(ctx, terms)
    return _companion_replacement(ctx, p - 1) * _companion_replacement(ctx, 1)


def reduce_mod_c(f: Element) -> Element:
    """Normal form of a form of any degree modulo (c-1)*Omega.

    A term whose x part holds (x^1 x^D)^p and no higher power is, up to a
    phase, a monomial times (x^1 x^D)^p, and (x^1 x^D)^p is replaced by
    repl^p, its value mod (c-1).  repl holds neither x^1 nor x^D, so no
    product holds both and one substitution is the normal form.  x^1 x^D and
    repl have torus weight zero, so they commute with dx^S (the cocycle lemma
    of the ``qphase`` docstring): f -> f dx^S carries (c-1)*A onto
    (c-1)*A*dx^S and the normal form of functions onto this one.  The terms
    of one p are stripped of (x^1 x^D)^p (distinct terms give distinct
    stripped monomials) and multiplied by repl^p in one product; the other
    terms go straight into the result.
    """
    ctx = f.ctx
    last = ctx.dim - 1
    if not last:
        raise ValueError("the sphere quotient needs ambient dimension >= 2")
    if not any(exps[0] and exps[last] for (exps, _), _ in f.terms):
        return f  # already in normal form
    acc: dict = {}
    groups: dict[int, dict] = {}
    for key, v in f.terms.items():
        mono, k = key
        exps = mono[0]
        p = min(exps[0], exps[last])
        if not p:
            acc[key] = v
            continue
        rest = ((exps[0] - p,) + exps[1:last] + (exps[last] - p,), mono[1])
        pair_key = ((p,) + (0,) * (last - 1) + (p,), ())
        # rest * (x^1 x^D)^p = phase * monomial: undo that phase
        shift, sign, prod_key = _mono_mul(ctx, rest, pair_key)
        if prod_key != mono or sign != 1:
            raise AssertionError("x^1 x^D does not split off the term")
        groups.setdefault(p, {})[(rest, tuple(map(sub, k, shift)))] = v
    for p, pieces in groups.items():
        _mul_into(acc, ctx, pieces, _companion_replacement(ctx, p).terms)
    return _finish(ctx, acc)


# -- volume data ----------------------------------------------------------------

@lru_cache(maxsize=None)
def omega_form(ctx: DeformationContext, k: int) -> Element:
    """The N-form dual to dx^k: omega_k ^ dx^l = delta^l_k V_D.

    omega_k = i^{D//2}/N! sum_s eps_qinv(s k) dx^{s_1}...dx^{s_N} over the
    orders s of the other indices.  Reordering dx^s to ascending order undoes
    the phase that s contributes to eps_qinv, so every order gives the
    ascending one's term (see ``tensorcalc._hodge_basis``).
    """
    ctx.check_index(k)
    rest = tuple(a for a in range(1, ctx.dim + 1) if a != k)
    coeff = epsilon_qinv(ctx, rest + (k,)) * ctx.i_power(ctx.dim // 2)
    return Element(ctx, {((0,) * ctx.dim, rest): coeff})


@lru_cache(maxsize=None)
def volume_form(ctx: DeformationContext) -> Element:
    """Representative of the sphere volume: sum_k x^k omega_k."""
    acc: dict = {}
    for k in range(1, ctx.dim + 1):
        _mul_into(acc, ctx, Element.x(ctx, k).terms, omega_form(ctx, k).terms)
    return _finish(ctx, acc)


@lru_cache(maxsize=None)
def _dc_slices(ctx: DeformationContext) -> dict:
    """{a: flat terms of 2 x^{a'} dx^a}: the one term of dc, the degree-1
    generator of J, holding dx^a (cached, shared)."""
    dim = ctx.dim
    return {a: {((tuple(int(j == dim - a) for j in range(dim)), (a,)),
                 ctx._zero_exps): _C_TWO} for a in range(1, dim + 1)}


def top_decompose(om: Element) -> Element:
    """The unique function with om ^ dc/2 = f * V_D (om of degree D-1).

    A term x^e dx^{[D] - j} of om meets a repeated dx in every term of dc but
    2 x^{j'} dx^j, so each term is multiplied by that one term of
    ``_dc_slices`` alone.  dc's factor 2 and the 1/2 of dc/2 cancel, and
    V_D = i^{D//2} dx^1...dx^D, so every product is scaled by i^{-D//2}.
    """
    ctx = om.ctx
    if om.terms and om.form_degree() != ctx.dim - 1:
        raise ValueError("top decomposition needs a form of degree D-1")
    full = tuple(range(1, ctx.dim + 1))
    index_sum = sum(full)
    slices = _dc_slices(ctx)
    norm = ctx.i_power(-(ctx.dim // 2)).terms[ctx._zero_exps]
    acc: dict = {}
    for (mono, k), v in om.terms.items():
        ((dc_mono, _), _), = slices[index_sum - sum(mono[1])].items()
        shift, sign, (exps, dxs) = _mono_mul(ctx, mono, dc_mono)
        if dxs != full:
            raise AssertionError("top product is not proportional to the volume")
        key = ((exps, ()), tuple(map(add, k, shift)))
        v = _c_mul(v if sign > 0 else _c_neg(v), norm)
        u = acc.get(key)
        acc[key] = v if u is None else _c_add(u, v)
    return _finish(ctx, acc)


def integrate_form(om: Element) -> ExactScalar:
    """Integral of a top sphere form given by an ambient representative."""
    ctx = om.ctx
    return haar_plane(ctx, top_decompose(om))


# -- the quotient ideal ------------------------------------------------------------

def in_quotient_ideal(el: Element) -> bool:
    """Exact membership of an ambient form in J (sphere class zero).

    Each homogeneous part is in J iff its residue mod (c-1) is zero: of
    f_omega at degree N and of omega ^ dc in every other degree (see the
    module docstring).  There omega ^ dc is never formed whole.  omega is
    first replaced by its normal form N(omega), which keeps the verdict:
    omega - N(omega) lies in (c-1)*Omega, inside J.  Then N(omega) ^ dc is
    reduced one target dx set at a time, and the first nonzero block
    answers "no": (c-1)*Omega is the direct sum of the (c-1)*A*dx^T and
    ``reduce_mod_c`` keeps every dx set, so the form is in J iff every
    block reduces to zero.
    """
    return _first_residue(el) is None


def _first_residue(el: Element) -> Element | None:
    """The first nonzero residue that puts ``el`` outside J, or None: parts
    in increasing degree, f_omega at degree N, and in every other degree the
    blocks of ``_block_residues`` in their order.  A function f has no
    block when it lies in (c-1)*A, where N(f) = 0; otherwise its first
    nonzero block is the residue of N(f) x^{a'} dx^a, a 1-form."""
    ctx = el.ctx
    degrees = el.form_degrees()
    for k in sorted(degrees):
        part = el if len(degrees) == 1 else el.homogeneous_part(k)
        if k == ctx.dim - 1:
            residues = (reduce_mod_c(top_decompose(part)),)
        else:
            residues = _block_residues(part)
        for residue in residues:
            if residue:
                return residue
    return None


def _block_residues(om: Element):
    """The residue mod (c-1) of om ^ dc, one target dx set T at a time in
    sorted order, lazily: a caller may stop at the first nonzero one.

    The block of T is sum_{a in T} N(om)_{T - {a}} x^{a'} dx^a, the terms of
    N(om) ^ dc with dx set T, for N(om) = ``reduce_mod_c(om)`` (the module
    docstring proves both steps).  At degree D there is no block.
    """
    ctx = om.ctx
    slices = _dc_slices(ctx)
    by_dxs: dict = {}
    for key, v in reduce_mod_c(om).terms.items():
        by_dxs.setdefault(key[0][1], {})[key] = v
    blocks: dict = {}
    for s in by_dxs:
        for a in slices.keys() - s:
            blocks.setdefault(tuple(sorted(s + (a,))), []).append((s, a))
    for t in sorted(blocks):
        acc: dict = {}
        for s, a in blocks[t]:
            _mul_into(acc, ctx, by_dxs[s], slices[a])
        yield reduce_mod_c(_finish(ctx, acc))


def sphere_equal(a: Element, b: Element) -> bool:
    """Equality of the sphere classes of two ambient representatives."""
    if a.ctx != b.ctx:
        raise ValueError("forms live over different contexts")
    return in_quotient_ideal(a - b)


# -- sphere pairing and Hodge star ---------------------------------------------------

def pairing_sphere(alpha: Element, beta: Element) -> Element:
    """Representative of <[alpha],[beta]> = (1/4)[<alpha^dc, beta^dc>].

    Bilinear over functions: <sum_u f_u dx^u, sum_v dx^v g_v> is
    sum_{u,v} f_u S(u,v) g_v, with S(u,v) = <dx^u, dx^v> on the sphere read
    from ``_pairing_sphere_basis`` and g_v beta's coefficient moved right
    through dx^v, as in ``pairing_plane``.
    """
    ctx = alpha.ctx
    _, lefts, rights = _pairing_slots(alpha, beta)
    # sum_u f_u S(u,v) per v, then times g_v
    mids: dict[tuple, dict] = {}
    for u, left in lefts.items():
        for v, s_uv in _pairing_sphere_basis(ctx, u).items():
            if v in rights:
                _mul_into(mids.setdefault(v, {}), ctx, left, s_uv)
    acc: dict = {}
    for v, mid in mids.items():
        _mul_into(acc, ctx, _finish(ctx, mid).terms, rights[v])
    return _finish(ctx, acc)


@lru_cache(maxsize=None)
def _pairing_sphere_basis(ctx: DeformationContext, u: tuple) -> dict:
    """{v: terms of S(u,v)} for every v with S(u,v) = <dx^u, dx^v> nonzero.

    dc = 2 sum_a x^{a'} dx^a, so dx^u ^ dc/2 is the sum over a outside u of
    phi_a x^{a'} dx^{u+a}.  The plane pairing matches dx^{u+a} only with
    dx^{(u+a)'}, and dx^v ^ dc/2 holds dx^{(u+a)'} once for each b in
    (u+a)' with v = (u+a)' - b.  Each pair (a, b) gives one term
    +-phases x^{a'} x^{b'}: v = u' for b = a' (one sum over a outside u),
    and otherwise v differs from u' in one index.  Cached per context and
    basis word; callers share the results.
    """
    dim = ctx.dim
    zero = (0,) * dim
    sign = -1 if ((len(u) + 1) // 2) % 2 else 1  # the plane's (-1)^{(k+1)//2}
    acc: dict[tuple, dict] = {}
    for a in range(1, dim + 1):
        if a in u:
            continue
        xa = tuple(int(j == dim - a) for j in range(dim))  # x^{a'}
        shift, s, (_, big) = _mono_mul(ctx, (zero, u), (xa, (a,)))
        left = {((xa, ()), shift): _C_ONE if s == sign else _C_MINUS_ONE}
        partner = tuple(ctx.primed(w) for w in reversed(big))
        for b in partner:
            xb = tuple(int(j == dim - b) for j in range(dim))  # x^{b'}
            v = tuple(w for w in partner if w != b)
            shift, s, _ = _mono_mul(ctx, (zero, v), (xb, (b,)))
            # the right slot's x^{b'} leaves rightward through dx^{(u+a)'}
            back = _mono_mul(ctx, (zero, partner), (xb, ()))[0]
            right = {((xb, ()), tuple(map(sub, shift, back))):
                     _C_ONE if s > 0 else _C_MINUS_ONE}
            _mul_into(acc.setdefault(v, {}), ctx, left, right)
    out = {}
    for v, slot in acc.items():
        terms = _finish(ctx, slot).terms
        if terms:
            out[v] = terms
    return out


@lru_cache(maxsize=None)
def _hodge_sphere_basis(ctx: DeformationContext, dxs: tuple) -> Element:
    """Sphere star of a basis wedge monomial (representative).

    For each a outside ``dxs`` the star sums eps_q(dxs a l) times the
    primed, reversed dx word of l over the (N-k)! orders l of the remaining
    indices, times x^{a'}, and divides by (N-k)!; as on the plane every
    order gives the ascending one's term, whose primed, reversed word is
    ascending (see ``tensorcalc._hodge_basis``).
    """
    dim = ctx.dim
    m = dim - 1 - len(dxs)
    rest = [a for a in range(1, dim + 1) if a not in dxs]
    norm = ctx.i_power(-(dim // 2)).scale(-1 if (m // 2 + m) % 2 else 1)
    acc: dict = {}
    for a in rest:
        tail = tuple(l for l in rest if l != a)
        dx_tail = ((0,) * dim, tuple(ctx.primed(t) for t in reversed(tail)))
        _mul_into(acc, ctx, Element.monomial(
            ctx, dx_tail, epsilon_q(ctx, dxs + (a,) + tail)).terms,
            Element.x(ctx, ctx.primed(a)).terms)
    return _finish(ctx, acc) * norm


def hodge_sphere(el: Element) -> Element:
    """Sphere Hodge star on a degree-k representative (degree N-k result)."""
    ctx = el.ctx
    if el.is_zero():
        return el
    k = el.form_degree()
    if k > ctx.dim - 1:
        raise ValueError("sphere forms have degree at most D-1")
    # the star is left-linear over functions: one product per dx set
    lefts: dict = {}
    for ((exps, dxs), k), v in el.terms.items():
        lefts.setdefault(dxs, {})[((exps, ()), k)] = v
    acc: dict = {}
    for dxs, left in lefts.items():
        _mul_into(acc, ctx, left, _hodge_sphere_basis(ctx, dxs).terms)
    return _finish(ctx, acc)
