"""Clifford representation, instanton projector, curvature and the charge.

The odd-dimensional twisted Clifford algebra gamma^i gamma^j + q_{ji}
gamma^j gamma^i = 2 g^{ij} acts irreducibly on (C^2)^{tensor n}; the
hermitian idempotent e = (1 + gamma^i x^j g_{ij})/2 over the even sphere is
the instanton projector.  Its top character pairing

    (1/n!) tau(Tr e x ... x e) = (normalisation) * integral Tr[e (de)^{2n}]

is computed fully symbolically and equals 1.

Each gamma is a Kronecker product of n scalar 2 x 2 factors, one per bit of
the basis of (C^2)^{x n}; ``GammaRep`` stores those.  The column views of
the gammas and e, of 2^n columns, are composed only when a caller asks.

``charge_integral`` builds neither.  Write 2 de as the sum of the blocks
Gamma_a = gamma^a (x) dx^{a'}, grouped as P_a = Gamma_a + Gamma_{a'} (a <= n)
and Gamma_{n+1}.  Every term of Gamma_a^2 or P_a^3 repeats a dx, so these
vanish for any gamma.  As dx^{b'} dx^{a'} = -q_{ba} dx^{a'} dx^{b'}, the
blocks commute iff gamma^a gamma^b = -q_{ba} gamma^b gamma^a (b not in
{a, a'}), and then

    (de)^{2n} = 2^{-2n} (2n)!/2^n [ prod_a P_a^2
                                    + 2 sum_j P_j Gamma_{n+1} prod_{a != j} P_a^2 ]

with P_a^2 = delta_a (x) dx^a dx^{a'}, delta_a = gamma^{a'} gamma^a -
gamma^a gamma^{a'}.  Three facts (L the lower shift, |r| the number of set
bits of r):

1. delta_a is +2 where bit a is clear and -2 where it is set: gamma^{a'}
   gamma^a has the factor 2 diag(1, 0) at bit a and 1 elsewhere, gamma^a
   gamma^{a'} 2 diag(0, 1).  Below bit a the factors are diag(-q_{aj}, 1)
   and its conjugate, of product 1 as |q_{aj}| = 1; at a, sqrt2 L and its
   adjoint; above a, 1.
2. Every entry s of gamma^b (b != n+1) is sqrt2 times phases: s s^bar = 2.
3. e's entry opposite s is x^b s^bar/2: gamma^{b'} holds s^bar there, and no
   other gamma does, as gamma^a and gamma^{a'} change only bit a, gamma^b
   only one way.  The only diagonal gamma is gamma^{n+1} = diag(1, -1)^{x n},
   so e's diagonal is 1/2 + (-1)^{|r|} x^{n+1}/2.

The bit factorisation.  If U and V have the factors u_k and v_k, UV has the
factors u_k v_k, and Tr UV = prod_k tr(u_k v_k): the trace sums, over the
2^n basis indices, products of one diagonal entry per bit, so it is a
product over the bits of two-term sums.  By 1, prod_a delta_a has the factor
diag(2, -2) at every bit, and gamma^b gamma^{n+1} prod_{a != j} delta_a has
gamma^b's factors times diag(1, -1) at bit j and diag(2, 2) elsewhere.  2e
is 1 plus the x^{i'} gamma^i, so Tr[e M] is 2n + 2 such products, each zero
once a bit's u_k v_k is off the diagonal or traceless.  By 3 one survives:
for the top term the chirality's, 4^n x^{n+1}/2; for the half Gamma_b of P_j
(b = j, j') that of gamma^{b'}, by 2 x^b times the diagonal summed over the
columns of gamma^b, +-4^{n-1} x^b.  ``_expansion_trace`` checks the
commutation and fact 1 factor by factor and raises if either fails (2 and 3
only say which products survive), in O(n^3) scalar products.
``charge_from_curvature`` keeps the full matrix products of e, de and F as
the independent second computation (the last one traced, not formed).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, partial, reduce
from itertools import accumulate
from math import factorial
from operator import mul

from .ncalg import Element, _finish, _mul_into
from .qphase import DeformationContext, ExactScalar, _add_into
from .sphere import integrate_form, reduce_mod_c

__all__ = [
    "Matrix", "GammaRep", "clifford_trace",
    "instanton_projector", "curvature", "character_tau",
    "charge_integral", "charge",
]


class Matrix:
    """Sparse square matrix of forms: ``Element`` entries over one context.

    ``rows`` maps a row to {column: entry} and holds only the nonzero
    entries; every other entry is ``zero``, the zero element.  Each entry's
    context is checked against zero's once, here, so a product only compares
    the two zeros' contexts.  Rows given as a function are built on first
    use: ``instanton_projector`` gives e so, and ``charge_integral``, which
    reads only the gamma factors, never builds it.
    """

    def __init__(self, size: int, zero: Element, rows=None):
        self.size, self.zero, self._build = size, zero, rows
        if not callable(rows):
            self.rows, self._build = self._checked(rows or {}), None

    @cached_property
    def rows(self):
        return self._checked(self._build())

    def _checked(self, rows):
        rows = {r: kept for r, row in rows.items()
                if (kept := {c: x for c, x in row.items() if x})}
        if any(x.ctx is not self.zero.ctx
               for row in rows.values() for x in row.values()):
            raise ValueError("elements live over different contexts")
        return rows

    def __getitem__(self, rc):
        r, c = rc
        return self.rows.get(r, {}).get(c, self.zero)

    def __bool__(self):
        return bool(self.rows)

    def __add__(self, other):
        rows = {r: dict(row) for r, row in self.rows.items()}
        for r, row in other.rows.items():
            out = rows.setdefault(r, {})
            for c, x in row.items():
                out[c] = out[c] + x if c in out else x
        return Matrix(self.size, self.zero, rows)

    def __sub__(self, other):
        return self + other.map(lambda x: -x)

    def __mul__(self, other):
        ctx = self.zero.ctx
        if other.zero.ctx is not ctx:
            raise ValueError("elements live over different contexts")
        rows = {}
        for r, row in self.rows.items():
            accs: dict = {}
            for k, x in row.items():
                for c, y in other.rows.get(k, {}).items():
                    # each entry is one sum of products: one accumulator
                    _mul_into(accs.setdefault(c, {}), ctx, x.terms, y.terms)
            rows[r] = {c: _finish(ctx, acc) for c, acc in accs.items()}
        return Matrix(self.size, self.zero, rows)

    def map(self, fn):
        """Apply ``fn`` to every stored entry.  ``fn`` must send zero to zero
        (d, star, reduce_mod_c and scaling do); fn(zero) is the new zero."""
        return Matrix(self.size, fn(self.zero),
                      {r: {c: fn(x) for c, x in row.items()}
                       for r, row in self.rows.items()})

    def trace(self) -> Element:
        acc: dict = {}
        for r, row in self.rows.items():
            if r in row:
                _add_into(acc, row[r].terms)
        return _finish(self.zero.ctx, acc)

    def trace_mul(self, other) -> Element:
        """Tr(self * other): the sum of self[r, k] other[k, r] in one
        accumulator, with no entry of the product formed."""
        ctx = self.zero.ctx
        if other.zero.ctx is not ctx:
            raise ValueError("elements live over different contexts")
        acc: dict = {}
        for r, row in self.rows.items():
            for k, x in row.items():
                if (y := other.rows.get(k, {}).get(r)) is not None:
                    _mul_into(acc, ctx, x.terms, y.terms)
        return _finish(ctx, acc)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.size == other.size
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.size}, {self.rows!r})"


# Largest half-dimension n that GammaRep builds: the charge takes O(n^3)
# scalar products on phase exponents of n(n-1)/2 entries.  On a 2-vCPU guest
# (Python 3.11) `twistcalc charge --n` 30 took 0.6 s and 36 MB, 64 6.0-6.8 s
# and 118 MB (two single runs each).
MAX_HALF_DIM = 64
# Largest n of the column views and e, which have 2^n columns (n = 13: e
# stores 14 * 8192 entries).
MAX_VIEW_HALF_DIM = 13


class GammaRep:
    """Irreducible representation of the twisted Clifford generators.

    For ambient dimension D = 2n+1 and i <= n,

        gamma^i = diag(-q_{i1},1) x ... x diag(-q_{i,i-1},1)
                  x sqrt2 L x 1 x ... x 1,      L = [[0, 0], [1, 0]],

    gamma^{i'} is the conjugate transpose of gamma^i and gamma^{n+1} is the
    chirality diag(1, -1)^{x n}.  ``factors[a]`` holds the n factors of
    gamma^a, factor k on bit k (of weight 2^{n-k}) of the basis index, each as
    (flip, (d_0, d_1)): column x holds d_x (maybe zero) in row x ^ flip.
    ``gamma(a)`` composes the column view {column: (row, entry)} on first use.
    """

    __slots__ = ("n", "ctx", "factors", "views")

    def __init__(self, n: int, ctx: DeformationContext | None = None):
        if n < 1:
            raise ValueError("the half-dimension must be at least 1")
        if n > MAX_HALF_DIM:
            raise ValueError(f"half-dimension n = {n} exceeds the limit "
                             f"{MAX_HALF_DIM}, where the charge takes 6-7 s")
        if ctx is None:
            ctx = DeformationContext(2 * n + 1)
        if ctx.dim != 2 * n + 1:
            raise ValueError("context dimension must be 2n+1")
        one, zero, s2 = ctx.scalar_one(), ctx.scalar_zero(), ctx.sqrt2()
        self.factors = {n + 1: ((0, (one, -one)),) * n}
        for i in range(1, n + 1):
            # gamma^i, then its adjoint: conj(q_{ij}) = q_{ij}^{-1}
            for a, shift, k in ((i, (s2, zero), 1),
                                (ctx.primed(i), (zero, s2), -1)):
                self.factors[a] = tuple(
                    (0, (-ctx.q_power(i, j, k), one)) for j in range(1, i)
                ) + ((1, shift),) + ((0, (one, one)),) * (n - i)
        self.n, self.ctx, self.views = n, ctx, {}

    def gamma(self, i: int) -> dict:
        """The column view {column: (row, entry)} of gamma^i."""
        self.ctx.check_index(i)
        if self.n > MAX_VIEW_HALF_DIM:
            raise ValueError(f"n = {self.n} exceeds the limit "
                             f"{MAX_VIEW_HALF_DIM} of the 2^n-column views")
        if i not in self.views:
            view = {0: (0, self.ctx.scalar_one())}
            for flip, d in self.factors[i]:
                view = {2 * c + x: (2 * r + (x ^ flip), s * d[x])
                        for c, (r, s) in view.items() for x in (0, 1) if d[x]}
            self.views[i] = view
        return self.views[i]

    def relation_defect(self, i: int, j: int) -> dict:
        """The nonzero entries {(row, col): entry} of
        gamma^i gamma^j + q_{ji} gamma^j gamma^i - 2 g^{ij}; empty iff the
        relation holds."""
        ctx, zero = self.ctx, self.ctx.scalar_zero()
        gi, gj = self.gamma(i), self.gamma(j)
        out: dict = {}
        for view in (_compose(gi, gj), _compose(gj, gi, ctx.q_power(j, i))):
            for c, (r, s) in view.items():
                out[r, c] = out.get((r, c), zero) + s
        gij = ctx.scalar(2 * ctx.metric(i, j))
        for r in range(2 ** self.n):
            out[r, r] = out.get((r, r), zero) - gij
        return {rc: s for rc, s in out.items() if s}


def _compose(u: dict, v: dict, scale: ExactScalar | None = None) -> dict:
    """The column view of u v, times scale if given, for column views u, v."""
    uv = {c: (u[k][0], u[k][1] * s) for c, (k, s) in v.items() if k in u}
    return uv if scale is None else {c: (r, scale * x)
                                     for c, (r, x) in uv.items()}


def _mul2(u, v):
    """The product u v of two factors (flip, (d_0, d_1)): column x goes to
    row x ^ v-flip, then on to x ^ v-flip ^ u-flip."""
    return u[0] ^ v[0], (u[1][v[0]] * v[1][0], u[1][1 ^ v[0]] * v[1][1])


def _commutes(us, vs, scale: ExactScalar) -> bool:
    """Whether (x us)(x vs) = scale (x vs)(x us), shown bit by bit: diagonal
    factors commute; elsewhere u_k v_k is a nonzero multiple of v_k u_k, and
    the multiples, read at each u_k v_k's first nonzero entry, multiply to
    scale."""
    lhs, rhs = scale.ctx.scalar_one(), scale
    for u, v in zip(us, vs):
        if u[0] or v[0]:
            (_, a), (_, b) = _mul2(u, v), _mul2(v, u)
            k = 0 if a[0] else 1
            if not a[k] or a[k] * b[1 - k] != a[1 - k] * b[k]:
                return False
            lhs, rhs = lhs * a[k], rhs * b[k]
    return lhs == rhs


def _kron_trace(us, vs) -> ExactScalar | None:
    """Tr[(x us)(x vs)] = prod_k tr(u_k v_k), each a two-term sum; None, and
    no product, when some u_k v_k is off the diagonal or traceless."""
    if any(u[0] != v[0] for u, v in zip(us, vs)):
        return None
    ts = [a[p] * b[0] + a[1 ^ p] * b[1] for (_, a), (p, b) in zip(us, vs)]
    return reduce(mul, ts) if all(ts) else None


def clifford_trace(rep: GammaRep, indices) -> ExactScalar:
    """Trace of a product of 2n+1 gamma matrices, 2^n times the inverse-phase
    epsilon tensor of the index tuple: the first 2n gammas' factors multiplied
    bit by bit, traced against the last one's (no 2^n-column view)."""
    indices = tuple(indices)
    if len(indices) != 2 * rep.n + 1:
        raise ValueError("the trace formula needs exactly 2n+1 indices")
    for i in indices:
        rep.ctx.check_index(i)
    us = rep.factors[indices[0]]
    for i in indices[1:-1]:
        us = list(map(_mul2, us, rep.factors[i]))
    t = _kron_trace(us, rep.factors[indices[-1]])
    return rep.ctx.scalar_zero() if t is None else t


def instanton_projector(n: int, ctx: DeformationContext | None = None):
    """The hermitian idempotent e = (1 + gamma^i x^{i'})/2 over the sphere.

    Returns ``(rep, e)`` with e a matrix of degree-0 ambient elements: 1/2
    on the diagonal plus x^{i'}/2 times each gamma^i entry, (n+1) 2^n entries
    composed from the column views on first use, which raises for n above
    MAX_VIEW_HALF_DIM.
    """
    rep = GammaRep(n, ctx)
    ctx, half = rep.ctx, Fraction(1, 2)

    def rows():
        # the views first: they refuse an n over their limit before anything
        # of size 2^n is built
        views = [rep.gamma(i) for i in range(1, ctx.dim + 1)]
        h = Element.one(ctx).scale(half)
        rows = {r: {r: h} for r in range(2 ** n)}
        for i, view in enumerate(views, 1):
            xi = Element.x(ctx, ctx.primed(i)).scale(half)
            # entries with equal values share one element (no Matrix
            # operation mutates an entry in place)
            scaled = {s: xi.scale(s) for s in {s for _, s in view.values()}}
            for c, (r, s) in view.items():
                row = rows[r]
                row[c] = row[c] + scaled[s] if c in row else scaled[s]
        return rows
    return rep, Matrix(2 ** n, Element.zero(ctx), rows)


def is_projector(e: Matrix) -> bool:
    """Whether e*e - e reduces to zero mod (c-1): e is a sphere projector."""
    return not (e * e - e).map(reduce_mod_c)


def curvature(e: Matrix) -> Matrix:
    """F = e de de (entrywise exterior derivative)."""
    if not is_projector(e):
        raise ValueError("curvature needs an idempotent over the sphere")
    de = e.map(lambda f: f.d())
    return e * de * de


def character_tau(funcs) -> ExactScalar:
    """Character of the integration cycle on N+1 sphere functions.

    tau(a_0,...,a_N) = 2^{[N/2]+1} [N/2]! / (i^{[N/2]} N!) * int a_0 da_1...da_N.
    """
    funcs = list(funcs)
    if not funcs:
        raise ValueError("need at least one function")
    ctx = funcs[0].ctx
    n_deg = ctx.dim - 1
    if len(funcs) != n_deg + 1:
        raise ValueError(f"need exactly {n_deg + 1} functions")
    om = funcs[0]
    for f in funcs[1:]:
        om = om * f.d()
    return integrate_form(om) * _pairing_norm(ctx).scale(factorial(n_deg // 2))


def _pairing_norm(ctx: DeformationContext) -> ExactScalar:
    """2^{[N/2]+1} / (i^{[N/2]} N!) on the N-sphere, N = D - 1: the
    normalisation of the Chern pairing (1/[N/2]!) tau."""
    half = (ctx.dim - 1) // 2
    return ctx.i_power(-half).scale(
        Fraction(2 ** (half + 1), factorial(ctx.dim - 1)))


def _expansion_trace(rep: GammaRep) -> Element:
    """Tr[e (de)^{2n}] by the block expansion and the bit factorisation
    (module docstring), after checking the lemma and fact 1 on the factors."""
    ctx, n, f, primed = rep.ctx, rep.n, rep.factors, rep.ctx.primed
    one, zero, two = ctx.scalar_one(), ctx.scalar_zero(), ctx.scalar(2)
    ident, delta = (0, (one, one)), (0, (two, -two))
    for a in range(1, ctx.dim + 1):
        for b in range(a + 1, ctx.dim + 1):
            if b != primed(a) and not _commutes(f[a], f[b],
                                                -ctx.q_power(b, a)):
                raise ValueError(f"block lemma fails: gamma^{a} gamma^{b} "
                                 f"!= -q({b},{a}) gamma^{b} gamma^{a}")
    for a in range(1, n + 1):
        for u, v, d in ((primed(a), a, (two, zero)),
                        (a, primed(a), (zero, two))):
            if list(map(_mul2, f[u], f[v])) != \
                    [ident] * (a - 1) + [(0, d)] + [ident] * (n - a):
                raise ValueError(f"block lemma fails: gamma^{u} gamma^{v} "
                                 f"!= diag({d[0]}, {d[1]}) at bit {a}")
    # 2e = 1 + sum_i x^{i'} gamma^i, as (element, factors) terms
    terms = [(Element.one(ctx), [ident] * n)] + [
        (Element.x(ctx, primed(i)), f[i]) for i in range(1, ctx.dim + 1)]

    def trace_term(ms, form):
        """Tr[2e M] (x) form, M the Kronecker product of the factors ms."""
        return sum((x.scale(t) for x, g in terms if (t := _kron_trace(g, ms))),
                   Element.zero(ctx)) * form

    dx = partial(Element.dx, ctx)
    pairs = [dx(a) * dx(primed(a)) for a in range(1, n + 1)]
    # heads[j - 1] = 2dx^{n+1} prod_{a<j} dx^a dx^{a'}; tail the a > j part
    heads = list(accumulate(pairs[:-1], mul, initial=dx(n + 1).scale(2)))
    total, tail = Element.zero(ctx), Element.one(ctx)
    for j in range(n, 0, -1):
        # 2 Tr[e P_j Gamma_{n+1} prod_{a != j} P_a^2], by halves Gamma_b of
        # P_j; diag holds the factors of gamma^{n+1} prod_{a != j} delta_a
        diag = [c if k == j else _mul2(c, delta)
                for k, c in enumerate(f[n + 1], 1)]
        rest = heads[j - 1] * tail
        for b in (j, primed(j)):
            total = total + trace_term(list(map(_mul2, f[b], diag)),
                                       dx(primed(b)) * rest)
        tail = pairs[j - 1] * tail
    total = total + trace_term([delta] * n, tail)  # tail: every pair
    return total.scale(Fraction(factorial(2 * n), 2 ** (3 * n + 1)))


def charge_integral(n: int, ctx: DeformationContext | None = None) -> ExactScalar:
    """The symbolic integral of Tr[e (de)^{2n}], through the commuting-block
    expansion of (de)^{2n} (see the module docstring); e is never built."""
    rep, _ = instanton_projector(n, ctx)
    return integrate_form(_expansion_trace(rep))


def charge(n: int, ctx: DeformationContext | None = None) -> ExactScalar:
    """Chern pairing of the instanton projector with the cycle character.

    Combines the character normalisation with 1/n!; the result is exactly 1
    for every n with all phase exponents cancelled.
    """
    value = charge_integral(n, ctx)
    return value * _pairing_norm(value.ctx)


def charge_from_curvature(n: int, ctx: DeformationContext | None = None) -> ExactScalar:
    """Same pairing computed as (normalisation/n!) * int Tr(F^n)."""
    rep, e = instanton_projector(n, ctx)
    f = curvature(e)
    trace = f.trace() if n == 1 else reduce(mul, [f] * (n - 1)).trace_mul(f)
    return integrate_form(trace) * _pairing_norm(rep.ctx)
