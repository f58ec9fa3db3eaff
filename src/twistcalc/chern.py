"""Clifford representation, instanton projector, curvature and the charge.

The odd-dimensional twisted Clifford algebra gamma^i gamma^j + q_{ji}
gamma^j gamma^i = 2 g^{ij} acts irreducibly on (C^2)^{tensor n}; the
hermitian idempotent e = (1 + gamma^i x^j g_{ij})/2 over the even sphere is
the instanton projector.  Its top character pairing

    (1/n!) tau(Tr e x ... x e) = (normalisation) * integral Tr[e (de)^{2n}]

is computed fully symbolically and equals 1.

Each gamma^a is a generalized permutation matrix: it has at most one
nonzero entry per column, so ``GammaRep`` stores it as its column view
{column: (row, entry)}, written down from its closed form, with 2^{n-1}
entries (2^n for the chirality gamma^{n+1}).  A product of two views is
again one, found column by column (``_compose``); the trace formula, the
Clifford relations and the block lemma below are all read from composed
views.  e, de and the curvature are matrices of forms (``Matrix``, which
stores only the nonzero entries); e stores (n+1) 2^n entries, so memory
grows like n 2^n.

``charge_integral`` multiplies no matrices.  Write 2 de as the sum of the
blocks Gamma_a = gamma^a (x) dx^{a'} and group them as
P_a = Gamma_a + Gamma_{a'} (a <= n) and Gamma_{n+1}.  These n+1 blocks
commute pairwise, P_a^3 = 0 and Gamma_{n+1}^2 = 0, so the multinomial
expansion of (de)^{2n} keeps two shapes:

    (de)^{2n} = 2^{-2n} (2n)!/2^n [ prod_a P_a^2
                                    + 2 sum_j P_j Gamma_{n+1} prod_{a != j} P_a^2 ].

Of these facts only the commutation is a condition on the gammas.  Every
term of Gamma_a^2 or P_a^3 repeats dx^a or dx^{a'} (every term of
Gamma_{n+1}^2 repeats dx^{n+1}), and a repeated dx is zero, so these
products vanish for any gamma.  Scalars are central and
dx^{b'} dx^{a'} = -q_{ba} dx^{a'} dx^{b'}, so Gamma_a and Gamma_b commute,
for b not in {a, a'}, iff gamma^a gamma^b = -q_{ba} gamma^b gamma^a.

On the column views ``_expansion_trace`` checks gamma^a gamma^b =
-q_{ba} gamma^b gamma^a for every b not in {a, a'}, and that
gamma^a gamma^{a'}, gamma^{a'} gamma^a and gamma^{n+1} are diagonal; a
failure raises instead of answering.  Then, as
dx^{a'} dx^a = -q_{a'a} dx^a dx^{a'} with q_{a'a} = 1,

    P_a^2 = delta_a (x) dx^a dx^{a'},   delta_a = gamma^{a'} gamma^a - gamma^a gamma^{a'},

with delta_a diagonal, and Gamma_{n+1} = gamma^{n+1} (x) dx^{n+1}.  So the
top term is the scalar diagonal prod_a delta_a times the fixed form
prod_a dx^a dx^{a'}, and the half Gamma_b (b = j, j') of P_j gives gamma^b
times the diagonal gamma^{n+1} prod_{a != j} delta_a, times the fixed form
dx^{b'} dx^{n+1} prod_{a != j} dx^a dx^{a'}.  The trace against e sums e's
entries against these scalars and multiplies each sum by its form once.
The check takes O(n^2 2^n) scalar products and the expansion O(n 2^n);
neither makes a matrix product.  ``charge_from_curvature`` keeps the product
of the full matrices e, de and F as the independent second computation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial, reduce
from math import factorial
from operator import mul

from .ncalg import Element, _add_into, _finish, _mul_into
from .qphase import DeformationContext, ExactScalar
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
    the two zeros' contexts.
    """

    __slots__ = ("size", "zero", "rows")

    def __init__(self, size: int, zero: Element, rows=None):
        self.size, self.zero = size, zero
        self.rows = {}
        for r, row in (rows or {}).items():
            kept = {c: x for c, x in row.items() if x}
            if any(x.ctx is not zero.ctx for x in kept.values()):
                raise ValueError("elements live over different contexts")
            if kept:
                self.rows[r] = kept

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

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.size == other.size
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.size}, {self.rows!r})"


# Largest half-dimension n that GammaRep builds.  The views and e store
# O(n 2^n) entries and checking the block lemma takes O(n^2 2^n) scalar
# products, so each step in n costs about 2.5 times the time and 2 times the
# memory: on a 2-vCPU guest (Python 3.11) `twistcalc charge --n 11` took
# 3.7 s and 77 MB, n = 12 10.9 s and 132 MB, and n = 13 28.9 s and 263 MB
# (single runs).
MAX_HALF_DIM = 13


class GammaRep:
    """Irreducible representation of the twisted Clifford generators.

    For ambient dimension D = 2n+1 and i <= n,

        gamma^i = sqrt2 * diag(-q_{i1},1) x ... x diag(-q_{i,i-1},1)
                         x lower_shift x 1 x ... x 1,

    gamma^{i'} is the conjugate transpose of gamma^i and gamma^{n+1} is the
    diagonal chirality matrix.  Each is stored as its column view
    {column: (row, entry)} (``columns[a]``, read by ``gamma(a)``), written
    down from the closed form: number the basis of (C^2)^{x n} in binary,
    bit j (weight 2^{n-j}) for the j-th factor.  gamma^i sends each column
    with bit i clear to the row with bit i set, with entry
    sqrt2 * prod_{j<i} (-q_{ij} if bit j is clear, else 1); gamma^{i'} is
    the conjugate-transposed view {r: (c, s.conj())}, and gamma^{n+1} is
    {r: (r, (-1)^{number of set bits of r})}.
    """

    __slots__ = ("n", "ctx", "columns")

    def __init__(self, n: int, ctx: DeformationContext | None = None):
        if n < 1:
            raise ValueError("the half-dimension must be at least 1")
        if n > MAX_HALF_DIM:
            raise ValueError(
                f"half-dimension n = {n} exceeds the limit {MAX_HALF_DIM}: "
                f"beyond it the instanton charge takes over a minute")
        self.n = n
        self.ctx = ctx if ctx is not None else DeformationContext(2 * n + 1)
        if self.ctx.dim != 2 * n + 1:
            raise ValueError("context dimension must be 2n+1")
        size, one = 2 ** n, self.ctx.scalar_one()
        self.columns = {n + 1: {r: (r, -one if bin(r).count("1") % 2 else one)
                                for r in range(size)}}
        for i in range(1, n + 1):
            # the entry for each value of the bits 1..i-1, bit 1 highest
            entries = [self.ctx.sqrt2()]
            for j in range(1, i):
                mq = -self.ctx.q_power(i, j)
                entries = [s for e in entries for s in (e * mq, e)]
            low = n - i  # bit i has weight 2^low
            bit = 1 << low
            g = self.columns[i] = {col: (col | bit, entries[col >> (low + 1)])
                                   for col in range(size) if not col & bit}
            self.columns[self.ctx.primed(i)] = {r: (c, s.conj())
                                                for c, (r, s) in g.items()}

    def gamma(self, i: int) -> dict:
        """The column view {column: (row, entry)} of gamma^i."""
        self.ctx.check_index(i)
        return self.columns[i]

    def relation_defect(self, i: int, j: int) -> dict:
        """The nonzero entries {(row, col): entry} of
        gamma^i gamma^j + q_{ji} gamma^j gamma^i - 2 g^{ij}; empty iff the
        relation holds."""
        ctx, zero = self.ctx, self.ctx.scalar_zero()
        gi, gj = self.columns[i], self.columns[j]
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


def clifford_trace(rep: GammaRep, indices) -> ExactScalar:
    """Trace of a product of 2n+1 gamma matrices: the diagonal sum of the
    composed column view.

    Equals 2^n times the inverse-phase epsilon tensor of the index tuple.
    """
    indices = tuple(indices)
    if len(indices) != 2 * rep.n + 1:
        raise ValueError("the trace formula needs exactly 2n+1 indices")
    view = reduce(_compose, map(rep.gamma, indices))
    return sum((s for c, (r, s) in view.items() if r == c),
               rep.ctx.scalar_zero())


def instanton_projector(n: int, ctx: DeformationContext | None = None):
    """The hermitian idempotent e = (1 + gamma^i x^{i'})/2 over the sphere.

    Returns ``(rep, e)`` with e a matrix of degree-0 ambient elements: 1/2
    on the diagonal plus x^{i'}/2 times each gamma^i entry, so e stores
    (n+1) 2^n entries.
    """
    rep = GammaRep(n, ctx)
    ctx = rep.ctx
    size = 2 ** n
    half = Fraction(1, 2)
    h = Element.one(ctx).scale(half)
    rows = {r: {r: h} for r in range(size)}
    for i in range(1, ctx.dim + 1):
        xi = Element.x(ctx, ctx.primed(i)).scale(half)
        # gamma^i has few distinct entry values: entries with equal values
        # share one element (no Matrix operation mutates an entry in place)
        scaled: dict = {}
        for c, (r, s) in rep.gamma(i).items():
            t = scaled.get(s)
            if t is None:
                t = scaled[s] = xi.scale(s)
            out = rows[r]
            out[c] = out[c] + t if c in out else t
    return rep, Matrix(size, Element.zero(ctx), rows)


def projector_defect(e: Matrix) -> Matrix:
    """e*e - e reduced mod (c-1); all-zero iff e is a sphere projector."""
    return (e * e - e).map(reduce_mod_c)


def is_projector(e: Matrix) -> bool:
    return not projector_defect(e)


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


def _expansion_trace(rep: GammaRep, e: Matrix) -> Element:
    """Tr[e (de)^{2n}] through the commuting-block expansion (module
    docstring), after checking the lemma behind it on the gamma entries."""
    ctx, n = rep.ctx, rep.n
    size, dx = 2 ** n, partial(Element.dx, ctx)
    zero, one = ctx.scalar_zero(), ctx.scalar_one()
    cols = rep.columns
    for a in range(1, ctx.dim + 1):
        for b in range(a + 1, ctx.dim + 1):
            if b != ctx.primed(a) and _compose(cols[a], cols[b]) != \
                    _compose(cols[b], cols[a], -ctx.q_power(b, a)):
                raise ValueError(f"block lemma fails: gamma^{a} gamma^{b} "
                                 f"!= -q({b},{a}) gamma^{b} gamma^{a}")

    def diagonal(*factors):
        """The diagonal of the product of the gamma^f, f in factors; raise
        unless the product is diagonal."""
        view = reduce(_compose, map(cols.get, factors))
        if any(r != c for c, (r, _) in view.items()):
            name = " ".join(f"gamma^{f}" for f in factors)
            raise ValueError(f"block lemma fails: {name} is not diagonal")
        return [view[r][1] if r in view else zero for r in range(size)]

    def trace_term(view, diag, form):
        """Tr[e M] (x) form, where M[r, c] = s diag[c] for c: (r, s) in view."""
        acc: dict = {}
        for c, (r, s) in view.items():
            _add_into(acc, e[c, r].scale(s * diag[c]).terms)
        return _finish(ctx, acc) * form

    # P_a^2 = delta_a (x) pairs[a-1]
    deltas = [[x - y for x, y in zip(diagonal(ctx.primed(a), a),
                                     diagonal(a, ctx.primed(a)))]
              for a in range(1, n + 1)]
    pairs = [dx(a) * dx(ctx.primed(a)) for a in range(1, n + 1)]
    # for the block P_j: before = gamma^{n+1} delta_1 ... delta_{j-1} and
    # after[j-1] = delta_{j+1} ... delta_n
    after = [[one] * size]
    for d in reversed(deltas[1:]):
        after.insert(0, [x * y for x, y in zip(d, after[0])])
    before = diagonal(n + 1)
    total = trace_term({r: (r, d) for r, d in enumerate(deltas[0])},
                       after[0], reduce(mul, pairs))
    for j, (d, tail) in enumerate(zip(deltas, after), 1):
        # twice Tr[e P_j Gamma_{n+1} prod_{a != j} P_a^2], one term per
        # half Gamma_b of P_j
        diag = [x * y for x, y in zip(before, tail)]
        rest = reduce(mul, pairs[:j - 1] + pairs[j:], dx(n + 1).scale(2))
        for b in (j, ctx.primed(j)):
            total = total + trace_term(cols[b], diag, dx(ctx.primed(b)) * rest)
        before = [x * y for x, y in zip(before, d)]
    return total.scale(Fraction(factorial(2 * n), 2 ** (3 * n)))


def charge_integral(n: int, ctx: DeformationContext | None = None) -> ExactScalar:
    """The symbolic integral of Tr[e (de)^{2n}], through the commuting-block
    expansion of (de)^{2n} (see the module docstring)."""
    rep, e = instanton_projector(n, ctx)
    return integrate_form(_expansion_trace(rep, e))


def charge(n: int, ctx: DeformationContext | None = None) -> ExactScalar:
    """Chern pairing of the instanton projector with the cycle character.

    Combines the character normalisation with 1/n!; the result is exactly 1
    for every n with all phase exponents cancelled.
    """
    if ctx is None:
        ctx = DeformationContext(2 * n + 1)
    return charge_integral(n, ctx) * _pairing_norm(ctx)


def charge_from_curvature(n: int, ctx: DeformationContext | None = None) -> ExactScalar:
    """Same pairing computed as (normalisation/n!) * int Tr(F^n)."""
    rep, e = instanton_projector(n, ctx)
    ctx = rep.ctx
    m = reduce(mul, [curvature(e)] * n)
    return integrate_form(m.trace()) * _pairing_norm(ctx)
