"""Reference for the exchange phases: the orbit closure and the W recursion.

``reduce_pair_orbit`` is how ``DeformationContext`` reduced each q_{ab}
before the pair table came from the torus-weight formula of the cocycle
lemma (``qphase`` docstring): it closes the orbit of (a, b) under the
defining relations of the phases.  ``w_on_basis`` is how
``tensorcalc.antisym_w_column`` computed a column of the antisymmetrizer
before it became the quotient r(u) r(l)^-1 of reorder coefficients: the
recursion W_{1..k} = W_{1..k-1} I_{1..k}, I_{1..k} = I - I_{1..k-1}
L_{k-1,k}, on basis tensors through the braid matrix.  The tests compare
the engine with both.
"""

from functools import lru_cache

from twistcalc.tensorcalc import braid_word


def reduce_pair_orbit(ctx, a: int, b: int):
    """Reduce q_{ab} to ``(param, sign)`` or ``None`` (phase 1).

    Closes the orbit of (a, b) under the rewrite moves
    (x,y) -> (x',y') [exponent kept], (x,y) -> (y,x) [negated],
    (x,y) -> (x,y') [negated].  A pair reaching (x,x) or (x,x'), or the
    same pair with both signs (forcing q^2 = 1), collapses to phase 1.
    """
    if ctx.commutative:
        return None
    seen = {(a, b): 1}
    stack = [((a, b), 1)]
    hit = None
    while stack:
        (x, y), s = stack.pop()
        if x == y or y == ctx.dim + 1 - x:
            return None
        p = (x, y)
        if p in ctx.param_index:
            if hit is None:
                hit = (ctx.param_index[p], s)
            elif hit != (ctx.param_index[p], s):
                return None
        xp, yp = ctx.dim + 1 - x, ctx.dim + 1 - y
        for np_, ns in (((xp, yp), s), ((y, x), -s), ((x, yp), -s)):
            prev = seen.get(np_)
            if prev is None:
                seen[np_] = ns
                stack.append((np_, ns))
            elif prev != ns:
                return None  # q^2 = 1 forced
    if hit is None:
        raise AssertionError(f"pair ({a},{b}) did not reduce in D={ctx.dim}")
    return hit


@lru_cache(maxsize=None)
def w_on_basis(ctx, k: int, lower: tuple) -> dict:
    """W_{1..k} applied to a basis tensor: dict upper-tuple -> ExactScalar."""
    if k == 1:
        return {lower: ctx.scalar_one()}
    prev = w_on_basis(ctx, k - 1, lower[:-1])
    out = {}
    last = lower[-1]
    for t, c in prev.items():
        for u, cc in i_on_basis(ctx, k, t + (last,)).items():
            v = c * cc
            w = out.get(u)
            w = v if w is None else w + v
            if w:
                out[u] = w
            elif u in out:
                del out[u]
    return out


@lru_cache(maxsize=None)
def i_on_basis(ctx, k: int, t: tuple) -> dict:
    """The recursion step I_{1..k} = I - I_{1..k-1} L_{k-1,k} on a basis tuple."""
    if k == 1:
        return {t: ctx.scalar_one()}
    out = {t: ctx.scalar_one()}
    swapped, shift = braid_word(ctx, t, (k - 2,))
    for u, c in i_on_basis(ctx, k - 1, swapped[:-1]).items():
        v = c.shifted(shift, -1)
        key = u + (swapped[-1],)
        w = out.get(key)
        w = v if w is None else w + v
        if w:
            out[key] = w
        elif key in out:
            del out[key]
    return out


def w_column(ctx, lower: tuple) -> dict:
    """The nonzero entries {upper: W^{upper}_{lower}} by the recursion."""
    if not lower:
        return {(): ctx.scalar_one()}
    return w_on_basis(ctx, len(lower), lower)
