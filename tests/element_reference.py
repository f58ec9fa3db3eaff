"""Reference Element products: one ExactScalar per term pair, sums with +.

The product path the engine used before its fused kernel: ``mono_mul``
normal-orders two monomials without a cache, ``element_mul`` multiplies the
two coefficients of every term pair as ``ExactScalar``s and adds each result
into the output, and the pairing, the plane Hodge star and the matrix
product sum their pieces with ``out = out + x``.  The pairing reads the
antisymmetrizer W for every pair of basis forms, and the plane and sphere
Hodge stars and the volume forms sum the q-epsilon tensor over every order
of the complementary indices, dividing by the number of orders afterwards.
The sphere pairing forms alpha ^ dc and beta ^ dc and pairs them on the
plane.
``d``, ``star``, ``partial_derivative`` and ``dx_sort`` count their exchange
phases with their own loops over the pair table, as the engine did before
every phase came from its normal-ordering kernel.  ``neg``, ``sub``,
``scale`` and ``homogeneous_part`` are the per-monomial loops the engine ran
before an element stored its terms flat, one ``ExactScalar`` per monomial.
Every function reads an element through its per-monomial view
``Element.coefficients``.  The tests compare the engine against these
functions.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from twistcalc.ncalg import Element
from twistcalc.tensorcalc import antisym_w, epsilon_q, epsilon_qinv


def mono_mul(ctx, m1, m2):
    """``(exps, sign, key)`` of the normal-ordered product, or None."""
    (e1, s1), (e2, s2) = m1, m2
    table = ctx._pair_table
    acc = [0] * ctx.nparams
    for a in s1:
        for b, f in enumerate(e2, start=1):
            if f:
                red = table[(a, b)]
                if red is not None:
                    acc[red[0]] += red[1] * f
    for b, f in enumerate(e2, start=1):
        if f:
            for a in range(b + 1, ctx.dim + 1):
                ea = e1[a - 1]
                if ea:
                    red = table[(a, b)]
                    if red is not None:
                        acc[red[0]] += red[1] * ea * f
    sign = 1
    if s1 and s2:
        for a in s1:
            for b in s2:
                if a == b:
                    return None
                if a > b:
                    sign = -sign
                    red = table[(a, b)]
                    if red is not None:
                        acc[red[0]] += red[1]
        dxs = tuple(sorted(s1 + s2))
    else:
        dxs = s1 or s2
    exps = tuple(x + y for x, y in zip(e1, e2))
    return tuple(acc), sign, (exps, dxs)


def dx_sort(ctx, seq):
    """Sort a dx index tuple to ascending order, tracking sign and phases.

    Returns ``(shift, sign, sorted_tuple)`` or ``None`` if an index repeats.
    Each adjacent swap of (u, v) with u > v contributes -q_{uv}.
    """
    seq = list(seq)
    n = len(seq)
    if len(set(seq)) != n:
        return None
    acc = [0] * ctx.nparams
    sign = 1
    table = ctx._pair_table
    for i in range(1, n):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            u, v = seq[j - 1], seq[j]
            sign = -sign
            red = table[(u, v)]
            if red is not None:
                acc[red[0]] += red[1]
            seq[j - 1], seq[j] = v, u
            j -= 1
    return tuple(acc), sign, tuple(seq)


def d(el: Element) -> Element:
    """Exterior derivative: dx^b leaves the x block past x^a for a > b, then
    enters the dx set past dx^s for s < b, picking up -q_{bs} each."""
    ctx = el.ctx
    table = ctx._pair_table
    out = {}
    for (exps, dxs), coeff in el.coefficients().items():
        for b in range(1, ctx.dim + 1):
            eb = exps[b - 1]
            if not eb or b in dxs:
                continue
            acc = [0] * ctx.nparams
            for a in range(b + 1, ctx.dim + 1):
                ea = exps[a - 1]
                if ea:
                    red = table[(b, a)]
                    if red is not None:
                        acc[red[0]] += red[1] * ea
            sign = 1
            for s in dxs:
                if s < b:
                    sign = -sign
                    red = table[(b, s)]
                    if red is not None:
                        acc[red[0]] += red[1]
                else:
                    break
            new_exps = list(exps)
            new_exps[b - 1] -= 1
            key = (tuple(new_exps), tuple(sorted(dxs + (b,))))
            v = coeff.shifted(tuple(acc), sign).scale(eb)
            u = out.get(key)
            w = v if u is None else u + v
            if w:
                out[key] = w
            elif u is not None:
                del out[key]
    return Element(ctx, out)


def star(el: Element) -> Element:
    """Conjugation: the primed x block commutes left through the primed dx
    block, and k dx's reverse with sign (-1)^{k(k-1)/2}."""
    ctx = el.ctx
    table = ctx._pair_table
    out = {}
    for (exps, dxs), coeff in el.coefficients().items():
        k = len(dxs)
        pexps = tuple(exps[ctx.dim - a] for a in range(1, ctx.dim + 1))
        pdxs = tuple(sorted(ctx.dim + 1 - s for s in dxs))
        acc = [0] * ctx.nparams
        for a in pdxs:
            for b, f in enumerate(pexps, start=1):
                if f:
                    red = table[(a, b)]
                    if red is not None:
                        acc[red[0]] += red[1] * f
        sign = -1 if (k * (k - 1) // 2) % 2 else 1
        v = coeff.conj().shifted(tuple(acc), sign)
        key = (pexps, pdxs)
        u = out.get(key)
        w = v if u is None else u + v
        if w:
            out[key] = w
        elif u is not None:
            del out[key]
    return Element(ctx, out)


def partial_derivative(ctx, s: int, f: Element) -> Element:
    """Twisted derivative along x^s: q_{as} for each x^a with a < s."""
    table = ctx._pair_table
    out = {}
    for (exps, dxs), coeff in f.coefficients().items():
        es = exps[s - 1]
        if not es:
            continue
        acc = [0] * ctx.nparams
        for a in range(1, s):
            ea = exps[a - 1]
            if ea:
                red = table[(a, s)]
                if red is not None:
                    acc[red[0]] += red[1] * ea
        new = list(exps)
        new[s - 1] -= 1
        key = (tuple(new), ())
        v = coeff.shifted(tuple(acc)).scale(es)
        u = out.get(key)
        w = v if u is None else u + v
        if w:
            out[key] = w
        elif u is not None:
            del out[key]
    return Element(ctx, out)


def neg(el: Element) -> Element:
    return Element(el.ctx, {m: -c for m, c in el.coefficients().items()})


def sub(a: Element, b: Element) -> Element:
    out = a.coefficients()
    for m, c in b.coefficients().items():
        u = out.get(m)
        if u is None:
            out[m] = -c
        else:
            w = u - c
            if w:
                out[m] = w
            else:
                del out[m]
    return Element(a.ctx, out)


def scale(el: Element, s) -> Element:
    """el times a rational or an ExactScalar, monomial by monomial."""
    out = {}
    for m, c in el.coefficients().items():
        w = c.scale(s) if isinstance(s, (int, Fraction)) else c * s
        if w:
            out[m] = w
    return Element(el.ctx, out)


def homogeneous_part(el: Element, form_deg: int) -> Element:
    return Element(el.ctx, {m: c for m, c in el.coefficients().items()
                            if len(m[1]) == form_deg})


def element_mul(a: Element, b: Element) -> Element:
    if a.ctx != b.ctx:
        raise ValueError("elements live over different contexts")
    ctx = a.ctx
    out = {}
    for m1, c1 in a.coefficients().items():
        for m2, c2 in b.coefficients().items():
            r = mono_mul(ctx, m1, m2)
            if r is None:
                continue
            shift, sign, key = r
            v = (c1 * c2).shifted(shift, sign)
            u = out.get(key)
            w = v if u is None else u + v
            if w:
                out[key] = w
            elif u is not None:
                del out[key]
    return Element(ctx, out)


def _pairing_basis(ctx, u: tuple, v: tuple):
    k = len(u)
    if k == 0:
        return ctx.scalar_one()
    lower = tuple(ctx.primed(a) for a in reversed(u))
    w = antisym_w(ctx, v, lower)
    if not w:
        return w
    return w.scale(-1 if ((k // 2) % 2) else 1)


def pairing_plane(alpha: Element, beta: Element) -> Element:
    ctx = alpha.ctx
    if alpha.is_zero() or beta.is_zero():
        return Element.zero(ctx)
    table = ctx._pair_table
    out = Element.zero(ctx)
    for (e1, u), c1 in alpha.coefficients().items():
        left = Element(ctx, {(e1, ()): c1})
        for (e2, v), c2 in beta.coefficients().items():
            w = _pairing_basis(ctx, u, v)
            if not w:
                continue
            acc = [0] * ctx.nparams
            for a in v:
                for b, f in enumerate(e2, start=1):
                    if f:
                        red = table[(a, b)]
                        if red is not None:
                            acc[red[0]] -= red[1] * f
            right = Element(ctx, {(e2, ()): c2.shifted(tuple(acc))})
            out = out + element_mul(left, right).scale(w)
    return out


def _hodge_basis(ctx, u: tuple) -> Element:
    rest = [a for a in range(1, ctx.dim + 1) if a not in u]
    out = Element.zero(ctx)
    for l_tuple in permutations(rest):
        eps = epsilon_q(ctx, u + l_tuple)
        if not eps:
            continue
        target = tuple(ctx.primed(a) for a in reversed(l_tuple))
        r = dx_sort(ctx, target)
        if r is None:
            continue
        shift, sign, dxs = r
        out = out + Element(ctx, {((0,) * ctx.dim, dxs): eps.shifted(shift, sign)})
    return out


def hodge_plane(alpha: Element) -> Element:
    ctx = alpha.ctx
    k = alpha.form_degree()
    dim = ctx.dim
    half_sign = -1 if (((dim - k) // 2) % 2) else 1
    const = ctx.i_power(-(dim // 2)).scale(
        Fraction(half_sign, factorial(dim - k)))
    out = Element.zero(ctx)
    for (e, u), c in alpha.coefficients().items():
        star_u = _hodge_basis(ctx, u).scale(const)
        out = out + element_mul(Element(ctx, {(e, ()): c}), star_u)
    return out


def omega_form(ctx, k: int) -> Element:
    """omega_k = i^{D//2}/N! sum_s eps_qinv(s k) dx^{s_1}...dx^{s_N}."""
    rest = [a for a in range(1, ctx.dim + 1) if a != k]
    out = Element.zero(ctx)
    for s in permutations(rest):
        shift, sign, dxs = dx_sort(ctx, s)
        eps = epsilon_qinv(ctx, s + (k,))
        out = out + Element(ctx, {((0,) * ctx.dim, dxs): eps.shifted(shift, sign)})
    n_deg = ctx.dim - 1
    return out.scale(ctx.i_power(ctx.dim // 2).scale(Fraction(1, factorial(n_deg))))


def _hodge_sphere_basis(ctx, dxs: tuple) -> Element:
    dim = ctx.dim
    n_deg = dim - 1
    k = len(dxs)
    rest = [a for a in range(1, dim + 1) if a not in dxs]
    out = Element.zero(ctx)
    for a in rest:
        tail = [l for l in rest if l != a]
        xa = Element.x(ctx, ctx.primed(a))
        for l in permutations(tail):
            eps = epsilon_q(ctx, dxs + (a,) + l)
            target = tuple(ctx.primed(t) for t in reversed(l))
            shift, sign, sorted_dxs = dx_sort(ctx, target)
            piece = Element(ctx, {((0,) * dim, sorted_dxs): eps.shifted(shift, sign)})
            out = out + element_mul(piece, xa)
    sign = -1 if ((n_deg - k) // 2 + (n_deg - k)) % 2 else 1
    return out.scale(ctx.i_power(-(dim // 2)).scale(
        Fraction(sign, factorial(n_deg - k))))


def hodge_sphere(el: Element) -> Element:
    ctx = el.ctx
    out = Element.zero(ctx)
    for (exps, dxs), coeff in el.coefficients().items():
        out = out + element_mul(Element(ctx, {(exps, ()): coeff}),
                                _hodge_sphere_basis(ctx, dxs))
    return out


@lru_cache(maxsize=None)
def quadric_d(ctx) -> Element:
    """dc for c = sum_a x^a x^{a'}."""
    c = Element.zero(ctx)
    for a in range(1, ctx.dim + 1):
        c = c + element_mul(Element.x(ctx, a), Element.x(ctx, ctx.primed(a)))
    return d(c)


def pairing_sphere(alpha: Element, beta: Element) -> Element:
    """(1/4) <alpha ^ dc, beta ^ dc>, both products formed on every call."""
    dc = quadric_d(alpha.ctx)
    return pairing_plane(element_mul(alpha, dc),
                         element_mul(beta, dc)).scale(Fraction(1, 4))


def matrix_mul(a, b):
    """Rows of the product of two square matrices of Elements (lists of rows)."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = element_mul(a[i][0], b[0][j])
            for l in range(1, n):
                acc = acc + element_mul(a[i][l], b[l][j])
            row.append(acc)
        out.append(row)
    return out
