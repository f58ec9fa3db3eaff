"""References for the sphere quotient: membership by an exact linear solve,
and the top decomposition by the full product with dc.

``twistcalc.sphere.in_quotient_ideal`` decides omega in
J = (c-1)*Omega + dc ^ Omega on the normal form of omega mod (c-1): it
reduces that normal form ^ dc mod (c-1) one target dx set at a time and
stops at the first nonzero block.  This module keeps the earlier,
independent procedure: build the generators
(c-1)*m and dc*m up to the form's x-degree and solve for omega in their
span, exactly and fraction-free, split into blocks by the companion-pair
multidegree invariants that c-1 and dc both preserve.  Tests compare the
two.

``top_decompose_full_product`` forms om ^ dc with every term of dc, as
``twistcalc.sphere.top_decompose`` did before it multiplied each term of om
by the one term of dc that can survive.

``reduce_mod_c_by_term`` and ``in_quotient_ideal_by_parts`` keep the earlier
decision path: x^1 x^D rewritten round by round, one product with its
replacement per rewritten term, the replacement built by its explicit
formula rather than read off c, and a copied homogeneous part per form
degree, multiplied by dc in full as it stands (not in normal form) before
anything is reduced, with f_omega read off the full product with dc.
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from twistcalc.ncalg import Element, Monomial, _finish, _mono_mul, _mul_into
from twistcalc.qphase import DeformationContext, ExactScalar, _add_into
from twistcalc.sphere import central_quadric


def top_decompose_full_product(om: Element) -> Element:
    """The function f with om ^ dc/2 = f * V_D, read off om * dc."""
    ctx = om.ctx
    if om.terms and om.form_degree() != ctx.dim - 1:
        raise ValueError("top decomposition needs a form of degree D-1")
    top = om * central_quadric(ctx).d()
    full = tuple(range(1, ctx.dim + 1))
    norm = ctx.i_power(-(ctx.dim // 2)).scale(Fraction(1, 2))
    out = {}
    for (exps, dxs), coeff in top.coefficients().items():
        if dxs != full:
            raise AssertionError("top product is not proportional to the volume")
        out[(exps, ())] = coeff * norm
    return Element(ctx, out)


def companion_replacement(ctx: DeformationContext) -> Element:
    """x^1 x^D mod (c-1), as (1 - 2 sum_{2<=a<=D/2} x^a x^{a'} -
    [D odd] (x^mid)^2) / 2."""
    out = Element.one(ctx)
    for a in range(2, ctx.dim // 2 + 1):
        out = out - (Element.x(ctx, a) * Element.x(ctx, ctx.primed(a))).scale(2)
    if ctx.dim % 2:
        out = out - Element.x(ctx, ctx.dim // 2 + 1, 2)
    return out.scale(Fraction(1, 2))


def reduce_mod_c_by_term(f: Element) -> Element:
    """Normal form of f modulo (c-1)*Omega, rewriting x^1 x^D round by
    round with one product per rewritten term."""
    ctx = f.ctx
    repl = companion_replacement(ctx)
    last = ctx.dim - 1
    pair_key = (tuple(1 if j in (0, last) else 0 for j in range(ctx.dim)), ())
    pending = f
    done: dict = {}
    while pending.terms:
        acc: dict = {}
        for (exps, dxs), coeff in pending.coefficients().items():
            if exps[0] and exps[last]:
                stripped = list(exps)
                stripped[0] -= 1
                stripped[last] -= 1
                key = (tuple(stripped), dxs)
                shift, sign, prod_key = _mono_mul(ctx, key, pair_key)
                if prod_key != (exps, dxs) or sign != 1:
                    raise AssertionError("x^1 x^D does not split off the term")
                piece = {key: coeff.shifted(tuple(-s for s in shift))}
                _mul_into(acc, ctx, Element(ctx, piece).terms, repl.terms)
            else:
                _add_into(done, Element(ctx, {(exps, dxs): coeff}).terms)
        pending = _finish(ctx, acc)
    return _finish(ctx, done)


def in_quotient_ideal_by_parts(el: Element) -> bool:
    """Membership in J: the residue of each copied homogeneous part (degree
    0), of its f_omega (degree N) or of its product with dc."""
    ctx = el.ctx
    dc = central_quadric(ctx).d()
    for k in sorted(el.form_degrees()):
        part = el.homogeneous_part(k)
        if k == 0:
            residue = reduce_mod_c_by_term(part)
        elif k == ctx.dim - 1:
            residue = reduce_mod_c_by_term(top_decompose_full_product(part))
        else:
            residue = reduce_mod_c_by_term(part * dc)
        if residue:
            return False
    return True


def _signature(ctx: DeformationContext, key: Monomial):
    """Block invariant preserved by multiplication with c-1 and dc."""
    exps, dxs = key
    n = list(exps)
    for a in dxs:
        n[a - 1] += 1
    half = ctx.dim // 2
    sig = tuple(n[a - 1] - n[ctx.dim - a] for a in range(1, half + 1))
    if ctx.dim % 2:
        sig = sig + (n[half] % 2,)
    return sig


def _monomials(ctx, max_xdeg: int, form_deg: int):
    for total in range(max_xdeg + 1):
        for combo in combinations_with_replacement(range(ctx.dim), total):
            exps = [0] * ctx.dim
            for j in combo:
                exps[j] += 1
            for dxs in combinations(range(1, ctx.dim + 1), form_deg):
                yield (tuple(exps), dxs)


def _in_scalar_span(target: dict, gens: list[dict]) -> bool:
    """Exact solvability of sum_j t_j gen_j = target over the scalar field.

    Fraction-free row elimination; rows are only ever scaled by exact unit
    inverses (single-term scalars) or cross-multiplied by nonzero scalars, so
    solvability over the fraction field of the phase ring is decided exactly.
    """
    monos: dict[Monomial, int] = {}
    for g in gens:
        for m in g:
            monos.setdefault(m, len(monos))
    for m in target:
        if m not in monos:
            return False  # target sticks out of the span's support
    nrows = len(monos)
    rows: list[dict[int, ExactScalar] | None] = [dict() for _ in range(nrows)]
    rhs: list[ExactScalar | None] = [None] * nrows
    for j, g in enumerate(gens):
        for m, cf in g.items():
            rows[monos[m]][j] = cf
    for m, cf in target.items():
        rhs[monos[m]] = cf
    col_rows: dict[int, set[int]] = {}
    for ri, row in enumerate(rows):
        for j in row:
            col_rows.setdefault(j, set()).add(ri)
    used = [False] * nrows
    for col in sorted(col_rows):
        cands = [ri for ri in col_rows.get(col, ()) if not used[ri]]
        if not cands:
            continue
        # prefer unit pivots with sparse rows: no growth, exact normalisation
        cands.sort(key=lambda ri: (not rows[ri][col].is_single_term(),
                                   len(rows[ri])))
        pi = cands[0]
        used[pi] = True
        prow, prhs = rows[pi], rhs[pi]
        pval = prow[col]
        unit = pval.is_single_term()
        if unit:
            inv = pval.inverse()
            prow = rows[pi] = {j: inv * v for j, v in prow.items()}
            if prhs is not None:
                prhs = rhs[pi] = inv * prhs
        for ri in list(col_rows[col]):
            if used[ri]:
                continue
            row = rows[ri]
            factor = row.pop(col)
            col_rows[col].discard(ri)
            if not unit:
                # cross-multiply instead of dividing: the row stays in the ring
                for j, v in row.items():
                    row[j] = pval * v
                if rhs[ri] is not None:
                    rhs[ri] = pval * rhs[ri]
            # row -= factor * prow, which clears column col
            for j, v in prow.items():
                if j == col:
                    continue
                u = row.get(j)
                w = (u - factor * v) if u is not None else -(factor * v)
                if w:
                    if u is None:
                        col_rows.setdefault(j, set()).add(ri)
                    row[j] = w
                elif u is not None:
                    del row[j]
                    col_rows[j].discard(ri)
            if prhs is not None:
                r = rhs[ri]
                w = (r - factor * prhs) if r is not None else -(factor * prhs)
                rhs[ri] = w if w else None
    for ri in range(nrows):
        if not used[ri] and not rows[ri] and rhs[ri] is not None:
            return False
    return True


def _middle_degree_membership(part: Element, k: int) -> bool:
    """Membership of a homogeneous k-form in J by an exact linear solve.

    Every generator (c-1)*m and dc*m whose monomial m has x-degree at most
    that of ``part`` (one more for dc) is built, and ``part`` is tested
    against their span block by block.  At k = 0 only the (c-1)*m
    generators exist.
    """
    ctx = part.ctx
    dmax = part.x_degree()
    cm1 = central_quadric(ctx) - Element.one(ctx)
    dc = central_quadric(ctx).d()
    targets: dict[tuple, dict] = {}
    for key, cf in part.coefficients().items():
        targets.setdefault(_signature(ctx, key), {})[key] = cf
    # Each term of c and of dc raises n_a and n_{a'} together (x^a x^{a'},
    # dx^a x^{a'}, x^a dx^{a'}), so (c-1)*m and dc*m keep every entry
    # n_a - n_{a'} of _signature(m) and the parity of the middle index: a
    # generator lies in the block of its monomial m, and monomials of other
    # blocks are skipped before multiplying.
    for sig, tgt in targets.items():
        gens = []
        for key in _monomials(ctx, dmax, k):
            if _signature(ctx, key) != sig:
                continue
            g = cm1 * Element.monomial(ctx, key)
            if g:
                gens.append(g.coefficients())
        for key in _monomials(ctx, dmax + 1, k - 1) if k else ():
            if _signature(ctx, key) != sig:
                continue
            g = dc * Element.monomial(ctx, key)
            if g:
                gens.append(g.coefficients())
        if not _in_scalar_span(tgt, gens):
            return False
    return True
