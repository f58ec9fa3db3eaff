"""q-epsilon tensors, the braid matrix, the antisymmetrizer and plane Hodge.

The involutive braid matrix L^{ab}_{cd} = q_{ab} d^a_d d^b_c generates a
representation of the symmetric group; the antisymmetrizer W built from it
expresses wedge monomials inside tensor products.  The q-epsilon tensor is the
coefficient of the reordering of a top wedge monomial onto dx^1...dx^D, and
the Hodge star on the plane contracts it with the anti-diagonal metric.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial

from .ncalg import Element
from .qphase import DeformationContext, ExactScalar, _C_MINUS_ONE, _C_ONE

__all__ = [
    "lambda_entry", "apply_lambda", "epsilon_q", "epsilon_qinv",
    "antisym_w", "antisym_w_bruteforce", "pairing_plane", "hodge_plane",
    "volume_element", "dx_sort",
]


def lambda_entry(ctx: DeformationContext, a, b, c, d) -> ExactScalar:
    """Braid matrix entry L^{ab}_{cd} = q_{ab} if (a,b) == (d,c) else 0."""
    for idx in (a, b, c, d):
        ctx.check_index(idx)
    if a != d or b != c:
        return ctx.scalar_zero()
    return ctx.q_power(a, b)


def apply_lambda(ctx, t: tuple, pos: int):
    """Act with the braid matrix on slots (pos, pos+1) of a basis tuple.

    The result is a single basis tuple with a phase: the slots swap and pick
    up q_{cd'} where (c, d) were the incoming indices, i.e. the output pair
    (d, c) carries q_{dc}.
    """
    c, d = t[pos], t[pos + 1]
    out = t[:pos] + (d, c) + t[pos + 2:]
    return out, ctx.pair_reduction(d, c)


@lru_cache(maxsize=None)
def _w_on_basis(ctx: DeformationContext, k: int, lower: tuple):
    """W_{1..k} applied to a basis tensor: dict upper-tuple -> ExactScalar."""
    if k == 1:
        return {lower: ctx.scalar_one()}
    prev = _w_on_basis(ctx, k - 1, lower[:-1])
    out: dict[tuple, ExactScalar] = {}
    last = lower[-1]
    for t, c in prev.items():
        for u, cc in _i_on_basis(ctx, k, t + (last,)).items():
            v = c * cc
            w = out.get(u)
            w = v if w is None else w + v
            if w:
                out[u] = w
            elif u in out:
                del out[u]
    return out


@lru_cache(maxsize=None)
def _i_on_basis(ctx: DeformationContext, k: int, t: tuple):
    """The recursion step I_{1..k} = I - I_{1..k-1} L_{k-1,k} on a basis tuple."""
    if k == 1:
        return {t: ctx.scalar_one()}
    out = {t: ctx.scalar_one()}
    swapped, red = apply_lambda(ctx, t, k - 2)
    shift = [0] * ctx.nparams
    if red is not None:
        shift[red[0]] = red[1]
    shift = tuple(shift)
    for u, c in _i_on_basis(ctx, k - 1, swapped[:-1]).items():
        v = c.shifted(shift, -1)
        key = u + (swapped[-1],)
        w = out.get(key)
        w = v if w is None else w + v
        if w:
            out[key] = w
        elif key in out:
            del out[key]
    return out


def antisym_w(ctx: DeformationContext, upper, lower) -> ExactScalar:
    """Entry W^{upper}_{lower} of the quantum antisymmetrizer (recursion)."""
    upper, lower = tuple(upper), tuple(lower)
    if len(upper) != len(lower):
        raise ValueError("antisymmetrizer entry needs equal index counts")
    if not upper:
        return ctx.scalar_one()
    _check_indices(ctx, upper + lower)
    got = _w_on_basis(ctx, len(lower), lower).get(upper)
    return got if got is not None else ctx.scalar_zero()


def _reduced_word(perm: tuple) -> list[int]:
    """Adjacent-transposition word (0-based positions) sorting ``perm``."""
    word = []
    p = list(perm)
    for i in range(len(p)):
        j = p.index(i)
        while j > i:
            p[j - 1], p[j] = p[j], p[j - 1]
            word.append(j - 1)
            j -= 1
    return word[::-1]


def antisym_w_bruteforce(ctx, upper, lower) -> ExactScalar:
    """Alternating sum over all k! permutation operators, each realised as a
    product of braid transpositions along a reduced word.  Independent check
    of the recursion."""
    upper, lower = tuple(upper), tuple(lower)
    k = len(lower)
    if k != len(upper):
        raise ValueError("antisymmetrizer entry needs equal index counts")
    if k == 0:
        return ctx.scalar_one()
    total = ctx.scalar_zero()
    for perm in permutations(range(k)):
        word = _reduced_word(perm)
        t = lower
        acc = [0] * ctx.nparams
        for pos in word:
            t, red = apply_lambda(ctx, t, pos)
            if red is not None:
                acc[red[0]] += red[1]
        if t == upper:
            sign = -1 if len(word) % 2 else 1
            total = total + ExactScalar({tuple(acc): _C_ONE}).scale(sign)
    return total


# -- epsilon tensors ---------------------------------------------------------

def dx_sort(ctx: DeformationContext, seq):
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


def _check_indices(ctx: DeformationContext, indices: tuple) -> None:
    """Raise IndexError unless every index lies in 1..D."""
    if min(indices) < 1 or max(indices) > ctx.dim:
        for a in indices:
            ctx.check_index(a)


def _perm_or_none(ctx: DeformationContext, indices):
    """The validated index tuple if it is repeat-free, else None."""
    indices = tuple(indices)
    if len(indices) != ctx.dim:
        raise ValueError("epsilon tensor needs exactly D indices")
    _check_indices(ctx, indices)
    return indices if len(set(indices)) == ctx.dim else None


def epsilon_q(ctx: DeformationContext, indices) -> ExactScalar:
    """Coefficient of dx^1...dx^D in the reordering of dx^{i_1}...dx^{i_D}."""
    perm = _perm_or_none(ctx, indices)
    if perm is None:
        return ctx.scalar_zero()
    return _epsilon_perm(ctx, perm)


def epsilon_qinv(ctx: DeformationContext, indices) -> ExactScalar:
    """Same as :func:`epsilon_q` with every phase exponent negated."""
    perm = _perm_or_none(ctx, indices)
    if perm is None:
        return ctx.scalar_zero()
    return _epsilon_perm_inv(ctx, perm)


# Only repeat-free index tuples reach these caches, so each holds at most D!
# entries per context; callers share the results, which are never mutated.
@lru_cache(maxsize=None)
def _epsilon_perm(ctx: DeformationContext, indices: tuple) -> ExactScalar:
    shift, sign, _ = dx_sort(ctx, indices)
    return ExactScalar({shift: _C_ONE if sign == 1 else _C_MINUS_ONE})


@lru_cache(maxsize=None)
def _epsilon_perm_inv(ctx: DeformationContext, indices: tuple) -> ExactScalar:
    return _epsilon_perm(ctx, indices).invert_phases()


def volume_element(ctx: DeformationContext) -> Element:
    """V_D = i^{D//2} dx^1 dx^2 ... dx^D."""
    key = ((0,) * ctx.dim, tuple(range(1, ctx.dim + 1)))
    return Element(ctx, {key: ctx.i_power(ctx.dim // 2)})


# -- pairing and Hodge star on the plane --------------------------------------

def _pairing_basis(ctx, u: tuple, v: tuple) -> ExactScalar:
    """<dx^{u_1}..dx^{u_k}, dx^{v_1}..dx^{v_k}> on basis wedge monomials."""
    k = len(u)
    if k == 0:
        return ctx.scalar_one()
    lower = tuple(ctx.primed(a) for a in reversed(u))
    w = antisym_w(ctx, v, lower)
    if not w:
        return w
    sign = -1 if ((k // 2) % 2) else 1
    return w.scale(sign)


def pairing_plane(alpha: Element, beta: Element) -> Element:
    """Metric pairing of two equal-degree forms, valued in functions.

    The first slot's coefficients come out on the left, the second slot's on
    the right; on basis forms the value is the (sign-weighted) antisymmetrizer
    entry with primed, reversed lower indices.
    """
    ctx = alpha.ctx
    if ctx != beta.ctx:
        raise ValueError("pairing of elements over different contexts")
    if alpha.is_zero() or beta.is_zero():
        return Element.zero(ctx)
    k = alpha.form_degree()
    if k != beta.form_degree():
        raise ValueError("pairing needs equal form degrees")
    table = ctx._pair_table
    out = Element.zero(ctx)
    for (e1, u), c1 in alpha.terms.items():
        left = Element(ctx, {(e1, ()): c1})
        for (e2, v), c2 in beta.terms.items():
            w = _pairing_basis(ctx, u, v)
            if not w:
                continue
            # the second slot's function leaves rightward through its dx's
            acc = [0] * ctx.nparams
            for a in v:
                for b, f in enumerate(e2, start=1):
                    if f:
                        red = table[(a, b)]
                        if red is not None:
                            acc[red[0]] -= red[1] * f
            right = Element(ctx, {(e2, ()): c2.shifted(tuple(acc))})
            out = out + (left * right).scale(w)
    return out


def _half_sign(m: int) -> int:
    return -1 if ((m // 2) % 2) else 1


def hodge_plane(alpha: Element) -> Element:
    """Hodge star on the plane: degree k -> degree D-k.

    On a basis form the star contracts the q-epsilon tensor with the metric;
    function coefficients pass through unchanged on the left.
    """
    ctx = alpha.ctx
    k = alpha.form_degree()
    dim = ctx.dim
    # C_{D,k} = (-i)^{D//2} (-1)^{(D-k)//2} / (D-k)!
    const = ctx.i_power(-(dim // 2)).scale(
        Fraction(_half_sign(dim - k), factorial(dim - k)))
    out = Element.zero(ctx)
    cache: dict[tuple, Element] = {}
    for (e, u), c in alpha.terms.items():
        star_u = cache.get(u)
        if star_u is None:
            star_u = _hodge_basis(ctx, u) * const
            cache[u] = star_u
        out = out + Element(ctx, {(e, ()): c}) * star_u
    return out


def _hodge_basis(ctx, u: tuple) -> Element:
    """Unnormalised star of a basis wedge monomial dx^{u}."""
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
        coeff = eps.shifted(shift, sign)
        out = out + Element(ctx, {((0,) * ctx.dim, dxs): coeff})
    return out
