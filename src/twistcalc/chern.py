"""Clifford representation, instanton projector, curvature and the charge.

The odd-dimensional twisted Clifford algebra gamma^i gamma^j + q_{ji}
gamma^j gamma^i = 2 g^{ij} acts irreducibly on (C^2)^{tensor n}; the
hermitian idempotent e = (1 + gamma^i x^j g_{ij})/2 over the even sphere is
the instanton projector.  Its top character pairing

    (1/n!) tau(Tr e x ... x e) = (normalisation) * integral Tr[e (de)^{2n}]

is computed fully symbolically and equals 1.

Every matrix is a sparse ``Matrix``: it stores only its nonzero entries.
Each gamma^i is written down entry by entry from its closed form (see
``GammaRep``), with 2^{n-1} entries (2^n for the chirality gamma^{n+1}), and
e stores (n+1) 2^n entries, so memory grows like n 2^n.

``charge_integral`` multiplies no dense matrices.  Write 2 de as the sum
of the blocks Gamma_a = gamma^a (x) dx^{a'} and group them as
P_a = Gamma_a + Gamma_{a'} (a <= n) and Gamma_{n+1}.  These n+1 blocks
commute pairwise, P_a^3 = 0 and Gamma_{n+1}^2 = 0, so the multinomial
expansion of (de)^{2n} keeps two shapes:

    (de)^{2n} = 2^{-2n} (2n)!/2^n [ prod_a P_a^2
                                    + 2 sum_j P_j Gamma_{n+1} prod_{a != j} P_a^2 ].

Each P_a^2 and Gamma_{n+1} is diagonal, so the trace against e takes O(n)
entrywise products of length 2^n, and reads only the diagonal of e and its
entries where some P_j is nonzero.  Before answering, the lemma behind the
expansion is checked exactly on the sparse gamma blocks: Gamma_a^2 = 0,
Gamma_a Gamma_b = Gamma_b Gamma_a for b not in {a, a'} (that is,
gamma^a gamma^b = -q_{ba} gamma^b gamma^a), gamma^a gamma^{a'},
gamma^{a'} gamma^a and gamma^{n+1} diagonal, and P_a^3 = 0; a failure
raises instead of answering.  ``charge_from_curvature`` keeps the product
of the full matrices e, de and F as the independent second computation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import factorial

from .ncalg import Element, _add_into, _finish, _mul_into
from .qphase import DeformationContext, ExactScalar
from .sphere import integrate_form, reduce_mod_c

__all__ = [
    "Matrix", "GammaRep", "clifford_trace",
    "instanton_projector", "curvature", "character_tau",
    "charge_integral", "charge",
]


class Matrix:
    """Sparse square matrix over any ring with +, -, * (scalars or forms).

    ``rows`` maps a row to {column: entry} and holds only the nonzero
    entries; every other entry is ``zero``, the zero of the ring.
    """

    __slots__ = ("size", "zero", "rows")

    def __init__(self, size: int, zero, rows=None):
        self.size, self.zero = size, zero
        self.rows = {}
        for r, row in (rows or {}).items():
            kept = {c: x for c, x in row.items() if x}
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
        ctx = _element_ctx(self, other)
        rows = {}
        for r, row in self.rows.items():
            accs: dict = {}
            for k, x in row.items():
                for c, y in other.rows.get(k, {}).items():
                    if ctx is not None:
                        # each entry is one sum of products: one accumulator
                        _mul_into(accs.setdefault(c, {}), ctx, x.terms,
                                  y.terms)
                    else:
                        accs[c] = accs[c] + x * y if c in accs else x * y
            rows[r] = (accs if ctx is None else
                       {c: _finish(ctx, acc) for c, acc in accs.items()})
        return Matrix(self.size, self.zero, rows)

    def map(self, fn):
        """Apply ``fn`` to every stored entry.  ``fn`` must send zero to zero
        (d, star, reduce_mod_c and scaling do); fn(zero) is the new zero."""
        return Matrix(self.size, fn(self.zero),
                      {r: {c: fn(x) for c, x in row.items()}
                       for r, row in self.rows.items()})

    def trace(self):
        diag = [row[r] for r, row in self.rows.items() if r in row]
        ctx = _element_ctx(self)
        if ctx is not None:
            acc: dict = {}
            for x in diag:
                _add_into(acc, x.terms)
            return _finish(ctx, acc)
        acc = self.zero
        for x in diag:
            acc = acc + x
        return acc

    def dagger(self):
        """Conjugate transpose (entries must provide .conj())."""
        rows: dict = {}
        for r, row in self.rows.items():
            for c, x in row.items():
                rows.setdefault(c, {})[r] = x.conj()
        return Matrix(self.size, self.zero, rows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.size == other.size
                and self.rows == other.rows)

    def __repr__(self):
        return f"Matrix({self.size}, {self.rows!r})"


def _element_ctx(*matrices) -> DeformationContext | None:
    """The common context when every entry is an ``Element``, else None."""
    ctx = None
    for m in matrices:
        for x in chain((m.zero,), *(row.values() for row in m.rows.values())):
            if type(x) is not Element:
                return None
            if ctx is None:
                ctx = x.ctx
            elif x.ctx is not ctx:
                raise ValueError("elements live over different contexts")
    return ctx


# Largest half-dimension n that GammaRep builds.  The matrices store O(n 2^n)
# entries, but checking the block lemma takes O(n^2) sparse products, so each
# step in n costs about 2.5 times the time and 2 times the memory: on a 2-vCPU
# guest (Python 3.11) `twistcalc charge --n 12` takes about 23 s and 306 MB,
# and n = 13 about 62 s and 664 MB.
MAX_HALF_DIM = 12


class GammaRep:
    """Irreducible representation of the twisted Clifford generators.

    For ambient dimension D = 2n+1 and i <= n,

        gamma^i = sqrt2 * diag(-q_{i1},1) x ... x diag(-q_{i,i-1},1)
                         x lower_shift x 1 x ... x 1,

    gamma^{i'} is the conjugate transpose of gamma^i and gamma^{n+1} is the
    diagonal chirality matrix.  Each is written down entry by entry: number
    the basis of (C^2)^{x n} in binary, bit j (weight 2^{n-j}) for the j-th
    factor.  gamma^i sends each column with bit i clear to the row with bit
    i set, with entry sqrt2 * prod_{j<i} (-q_{ij} if bit j is clear, else
    1), and gamma^{n+1} = diag((-1)^{number of set bits}).
    """

    __slots__ = ("n", "ctx", "matrices")

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
        self.matrices = {}
        size = 2 ** n
        zero, one = self.ctx.scalar_zero(), self.ctx.scalar_one()
        for i in range(1, n + 1):
            # the entry for each value of the bits 1..i-1, bit 1 highest
            entries = [self.ctx.sqrt2()]
            for j in range(1, i):
                mq = -self.ctx.q_power(i, j)
                entries = [s for e in entries for s in (e * mq, e)]
            low = n - i  # bit i has weight 2^low
            bit = 1 << low
            self.matrices[i] = Matrix(size, zero, {
                col | bit: {col: entries[col >> (low + 1)]}
                for col in range(size) if not col & bit})
        self.matrices[n + 1] = Matrix(size, zero, {
            r: {r: -one if bin(r).count("1") % 2 else one}
            for r in range(size)})
        for i in range(1, n + 1):
            self.matrices[self.ctx.primed(i)] = self.matrices[i].dagger()

    def gamma(self, i: int) -> Matrix:
        self.ctx.check_index(i)
        return self.matrices[i]

    def relation_defect(self, i: int, j: int) -> Matrix:
        """gamma^i gamma^j + q_{ji} gamma^j gamma^i - 2 g^{ij}; zero iff ok."""
        ctx = self.ctx
        gi, gj = self.matrices[i], self.matrices[j]
        lhs = gi * gj + (gj * gi).map(lambda s: s * ctx.q_power(j, i))
        gij = ctx.scalar(2 * ctx.metric(i, j))
        return lhs - Matrix(lhs.size, lhs.zero,
                            {a: {a: gij} for a in range(lhs.size)})


def clifford_trace(rep: GammaRep, indices) -> ExactScalar:
    """Trace of a product of 2n+1 gamma matrices.

    Equals 2^n times the inverse-phase epsilon tensor of the index tuple.
    """
    indices = tuple(indices)
    if len(indices) != 2 * rep.n + 1:
        raise ValueError("the trace formula needs exactly 2n+1 indices")
    m = rep.gamma(indices[0])
    for i in indices[1:]:
        m = m * rep.gamma(i)
    return m.trace()


def instanton_projector(n: int, ctx: DeformationContext | None = None):
    """The hermitian idempotent e = (1 + gamma^i x^{i'})/2 over the sphere.

    Returns ``(rep, e)`` with e a matrix of degree-0 ambient elements: 1/2
    on the diagonal plus x^{i'}/2 times each nonzero gamma^i entry, so e
    stores (n+1) 2^n entries.
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
        for r, row in rep.gamma(i).rows.items():
            out = rows[r]
            for c, s in row.items():
                t = scaled.get(s)
                if t is None:
                    t = scaled[s] = xi.scale(s)
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


def _diagonal(m: Matrix, what: str) -> list:
    """The diagonal of m as a list of terms; raise unless every other entry
    is zero."""
    if any(c != r for r, row in m.rows.items() for c in row):
        raise ValueError(f"block lemma fails: {what} is not diagonal")
    return [m[r, r].terms for r in range(m.size)]


def _diag_mul(ctx: DeformationContext, u: list, v: list) -> list:
    out = []
    for t1, t2 in zip(u, v):
        acc: dict = {}
        _mul_into(acc, ctx, t1, t2)
        out.append(_finish(ctx, acc).terms)
    return out


def _expansion_trace(rep: GammaRep, e: Matrix) -> Element:
    """Tr[e (de)^{2n}] through the commuting-block expansion (module
    docstring), after checking the lemma behind it on the gamma blocks."""
    ctx, n = rep.ctx, rep.n
    size = 2 ** n
    # the blocks Gamma_a = gamma^a (x) dx^{a'} of 2 de
    gam = {a: rep.gamma(a).map(Element.dx(ctx, ctx.primed(a)).scale)
           for a in range(1, ctx.dim + 1)}
    for a in range(1, ctx.dim + 1):
        if gam[a] * gam[a]:
            raise ValueError(f"block lemma fails: Gamma_{a}^2 != 0")
        for b in range(a + 1, ctx.dim + 1):
            if b != ctx.primed(a) and gam[a] * gam[b] != gam[b] * gam[a]:
                raise ValueError(
                    f"block lemma fails: Gamma_{a}, Gamma_{b} do not commute")
    blocks, squares = [], []
    for a in range(1, n + 1):
        ap = ctx.primed(a)
        _diagonal(gam[a] * gam[ap], f"gamma^{a} gamma^{ap}")
        _diagonal(gam[ap] * gam[a], f"gamma^{ap} gamma^{a}")
        p = gam[a] + gam[ap]
        p2 = p * p
        if p2 * p:
            raise ValueError(f"block lemma fails: P_{a}^3 != 0")
        blocks.append(p)
        squares.append(_diagonal(p2, f"P_{a}^2"))
    # for the block P_j: before = Gamma_{n+1} P_1^2 ... P_{j-1}^2 and
    # after[j-1] = P_{j+1}^2 ... P_n^2
    after = [[{((0,) * ctx.dim, ()): ctx.scalar_one()}] * size]
    for sq in reversed(squares[1:]):
        after.append(_diag_mul(ctx, sq, after[-1]))
    after.reverse()
    before = _diagonal(gam[n + 1], f"gamma^{n + 1}")
    top: dict = {}    # Tr[e prod_a P_a^2]
    for r, t in enumerate(_diag_mul(ctx, squares[0], after[0])):
        _mul_into(top, ctx, e[r, r].terms, t)
    mixed: dict = {}  # sum_j Tr[e P_j Gamma_{n+1} prod_{a != j} P_a^2]
    for p, sq, tail in zip(blocks, squares, after):
        diag = _diag_mul(ctx, before, tail)
        for c, row in p.rows.items():
            for r, x in row.items():
                entry: dict = {}  # (P_j diag)[c][r]
                _mul_into(entry, ctx, x.terms, diag[r])
                _mul_into(mixed, ctx, e[r, c].terms,
                          _finish(ctx, entry).terms)
        before = _diag_mul(ctx, before, sq)
    total = _finish(ctx, top) + _finish(ctx, mixed).scale(2)
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
    f = curvature(e)
    m = f
    for _ in range(n - 1):
        m = m * f
    return integrate_form(m.trace()) * _pairing_norm(ctx)
