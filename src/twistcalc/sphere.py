"""The twisted sphere as a quotient: functions mod (c-1), forms mod J.

c = sum_a x^a x^{a'} is central; the sphere's differential algebra is the
ambient one modulo J = (c-1)*Omega + {omega : omega ^ dc = 0}.  Equality of
sphere forms is decided degree by degree:

* degree 0: confluent rewrite eliminating x^1 x^D (complete: J meets the
  functions exactly in (c-1) times functions),
* top degree N: omega ^ dc/2 = f_omega * V, and [omega] = 0 iff f_omega
  reduces to 0 mod (c-1) (complete, both directions),
* intermediate degrees: an exact sparse linear solve for
  delta = (c-1)*alpha + dc ^ beta over the scalar ring, split into blocks by
  the companion-pair multidegree invariants that c-1 and dc both preserve.

The integral of a top form is the Haar value of f_omega; the sphere Hodge
star and pairing push the plane ones through the normal direction dc/2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement

from .haar import haar_plane
from .ncalg import Element, Monomial, _add_into, _finish, _mono_mul, _mul_into
from .qphase import DeformationContext, ExactScalar
from .tensorcalc import epsilon_q, epsilon_qinv

__all__ = [
    "central_quadric", "reduce_mod_c", "omega_form", "volume_form",
    "top_decompose", "integrate_form", "in_quotient_ideal", "sphere_equal",
    "pairing_sphere", "hodge_sphere", "SphereForm",
]


@lru_cache(maxsize=None)
def central_quadric(ctx: DeformationContext) -> Element:
    """c = sum_a x^a x^{a'}; central in the whole differential algebra.

    Cached per context: the result is shared between callers and must not
    be mutated.
    """
    out = Element.zero(ctx)
    for a in range(1, ctx.dim + 1):
        out = out + Element.x(ctx, a) * Element.x(ctx, ctx.primed(a))
    return out


@lru_cache(maxsize=None)
def _quadric_minus_one(ctx: DeformationContext) -> Element:
    """c - 1, the degree-0 generator of J (cached, shared)."""
    return central_quadric(ctx) - Element.one(ctx)


@lru_cache(maxsize=None)
def _quadric_d(ctx: DeformationContext) -> Element:
    """dc, the degree-1 generator of J (cached, shared)."""
    return central_quadric(ctx).d()


@lru_cache(maxsize=None)
def _companion_replacement(ctx: DeformationContext) -> Element:
    """The degree-0 element equal to x^1 x^D modulo (c-1).

    c = 2 x^1 x^D + 2 sum_{2<=a<=D//2} x^a x^{a'} + [D odd] (x^mid)^2, so
    x^1 x^D rewrites to (1 - the rest)/2 once c is set to 1.
    """
    if ctx.dim < 2:
        raise ValueError("the sphere quotient needs ambient dimension >= 2")
    out = Element.one(ctx)
    for a in range(2, ctx.dim // 2 + 1):
        out = out - (Element.x(ctx, a) * Element.x(ctx, ctx.primed(a))).scale(2)
    if ctx.dim % 2:
        mid = ctx.dim // 2 + 1
        out = out - Element.x(ctx, mid, 2)
    return out.scale(Fraction(1, 2))


def reduce_mod_c(f: Element) -> Element:
    """Normal form of a degree-0 element modulo the ideal (c-1)."""
    ctx = f.ctx
    if any(dxs for (_, dxs) in f.terms):
        raise ValueError("reduce_mod_c acts on functions only")
    repl = _companion_replacement(ctx)
    last = ctx.dim - 1
    pair_key = (tuple(1 if j in (0, last) else 0 for j in range(ctx.dim)), ())
    pending = f
    done: dict = {}
    while pending.terms:
        acc: dict = {}
        for (exps, dxs), coeff in pending.terms.items():
            if exps[0] and exps[last]:
                stripped = list(exps)
                stripped[0] -= 1
                stripped[last] -= 1
                key = (tuple(stripped), dxs)
                # stripped * (x^1 x^D) = phase * monomial: undo that phase
                shift, sign, prod_key = _mono_mul(ctx, key, pair_key)
                assert prod_key == (exps, dxs) and sign == 1
                piece = {key: coeff.shifted(tuple(-s for s in shift))}
                _mul_into(acc, ctx, piece, repl.terms)
            else:
                _add_into(done, {(exps, dxs): coeff})
        pending = _finish(ctx, acc)
    return _finish(ctx, done)


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


def top_decompose(om: Element) -> Element:
    """The unique function with om ^ dc/2 = f * V_D (om of degree D-1)."""
    ctx = om.ctx
    if om.terms and om.form_degree() != ctx.dim - 1:
        raise ValueError("top decomposition needs a form of degree D-1")
    top = om * _quadric_d(ctx)
    full = tuple(range(1, ctx.dim + 1))
    out: dict[Monomial, ExactScalar] = {}
    norm = ctx.i_power(-(ctx.dim // 2)).scale(Fraction(1, 2))
    for (exps, dxs), coeff in top.terms.items():
        if dxs != full:
            raise AssertionError("top product is not proportional to the volume")
        out[(exps, ())] = coeff * norm
    res = Element.__new__(Element)
    res.ctx, res.terms = ctx, out
    return res


def integrate_form(om: Element) -> ExactScalar:
    """Integral of a top sphere form given by an ambient representative."""
    ctx = om.ctx
    return haar_plane(ctx, top_decompose(om))


# -- the quotient ideal ------------------------------------------------------------

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


def in_quotient_ideal(el: Element) -> bool:
    """Exact membership of an ambient form in J (sphere class zero)."""
    ctx = el.ctx
    if el.is_zero():
        return True
    n_deg = ctx.dim - 1
    for k in sorted(el.form_degrees()):
        part = el.homogeneous_part(k)
        if k == 0:
            if reduce_mod_c(part):
                return False
        elif k == n_deg:
            if reduce_mod_c(top_decompose(part)):
                return False
        elif k == ctx.dim:
            continue  # top ambient degree dies on the sphere
        elif not _middle_degree_membership(part, k):
            return False
    return True


def _middle_degree_membership(part: Element, k: int) -> bool:
    ctx = part.ctx
    dmax = part.x_degree()
    cm1 = _quadric_minus_one(ctx)
    dc = _quadric_d(ctx)
    targets: dict[tuple, dict] = {}
    for key, cf in part.terms.items():
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
                gens.append(g.terms)
        for key in _monomials(ctx, dmax + 1, k - 1):
            if _signature(ctx, key) != sig:
                continue
            g = dc * Element.monomial(ctx, key)
            if g:
                gens.append(g.terms)
        if not _in_scalar_span(tgt, gens):
            return False
    return True


def sphere_equal(a: Element, b: Element) -> bool:
    """Equality of the sphere classes of two ambient representatives."""
    if a.ctx != b.ctx:
        raise ValueError("forms live over different contexts")
    return in_quotient_ideal(a - b)


# -- sphere pairing and Hodge star ---------------------------------------------------

def pairing_sphere(alpha: Element, beta: Element) -> Element:
    """Representative of <[alpha],[beta]> = (1/4)[<alpha^dc, beta^dc>]."""
    from .tensorcalc import pairing_plane
    dc = _quadric_d(alpha.ctx)
    return pairing_plane(alpha * dc, beta * dc).scale(Fraction(1, 4))


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
        _mul_into(acc, ctx, {dx_tail: epsilon_q(ctx, dxs + (a,) + tail)},
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
    acc: dict = {}
    for (exps, dxs), coeff in el.terms.items():
        _mul_into(acc, ctx, {(exps, ()): coeff},
                  _hodge_sphere_basis(ctx, dxs).terms)
    return _finish(ctx, acc)


class SphereForm:
    """A form on the twisted sphere: ambient representative + J-coset equality."""

    __slots__ = ("rep",)

    def __init__(self, rep: Element):
        if rep.terms and max(len(s) for (_, s) in rep.terms) > rep.ctx.dim - 1:
            raise ValueError("sphere forms have degree at most D-1")
        self.rep = rep

    @property
    def ctx(self) -> DeformationContext:
        return self.rep.ctx

    @property
    def sphere_dim(self) -> int:
        return self.rep.ctx.dim - 1

    def degree(self) -> int:
        return self.rep.form_degree()

    def __add__(self, other):
        return SphereForm(self.rep + _rep_of(other, self.ctx))

    __radd__ = __add__

    def __sub__(self, other):
        return SphereForm(self.rep - _rep_of(other, self.ctx))

    def __rsub__(self, other):
        return SphereForm(_rep_of(other, self.ctx) - self.rep)

    def __neg__(self):
        return SphereForm(-self.rep)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return SphereForm(self.rep.scale(other))
        return SphereForm(self.rep * _rep_of(other, self.ctx))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return SphereForm(self.rep.scale(other))
        return NotImplemented

    def scale(self, s):
        return SphereForm(self.rep.scale(s))

    def d(self) -> "SphereForm":
        return SphereForm(self.rep.d())

    def star(self) -> "SphereForm":
        return SphereForm(self.rep.star())

    def hodge(self) -> "SphereForm":
        return SphereForm(hodge_sphere(self.rep))

    def integrate(self) -> ExactScalar:
        return integrate_form(self.rep)

    def is_zero_class(self) -> bool:
        return in_quotient_ideal(self.rep)

    def __eq__(self, other):
        if isinstance(other, SphereForm):
            return sphere_equal(self.rep, other.rep)
        if isinstance(other, Element):
            return sphere_equal(self.rep, other)
        return NotImplemented

    __hash__ = None

    def __str__(self):
        return f"[{self.rep}]"

    def __repr__(self):
        return f"<SphereForm N={self.sphere_dim}: {self}>"


def _rep_of(other, ctx) -> Element:
    if isinstance(other, SphereForm):
        return other.rep
    if isinstance(other, Element):
        return other
    raise TypeError(f"cannot combine SphereForm with {type(other).__name__}")
