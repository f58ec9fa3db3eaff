"""Clifford representation, instanton projector, curvature and the charge.

The odd-dimensional twisted Clifford algebra gamma^i gamma^j + q_{ji}
gamma^j gamma^i = 2 g^{ij} acts irreducibly on (C^2)^{tensor n}; the
hermitian idempotent e = (1 + gamma^i x^j g_{ij})/2 over the even sphere is
the instanton projector.  Its top character pairing

    (1/n!) tau(Tr e x ... x e) = (normalisation) * integral Tr[e (de)^{2n}]

is computed fully symbolically and equals 1.

``charge_integral`` never multiplies dense matrices.  Write 2 de as the sum
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
raises instead of answering.  ``charge_from_curvature`` keeps the dense
product of matrices as the independent second computation.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .ncalg import Element, _add_into, _finish, _mul_into
from .qphase import DeformationContext, ExactScalar
from .sphere import integrate_form, reduce_mod_c

__all__ = [
    "Matrix", "GammaRep", "gamma_rep", "clifford_trace",
    "instanton_projector", "curvature", "character_tau",
    "charge_integral", "charge",
]


class Matrix:
    """Dense square matrix over any ring with +, -, * (scalars or forms)."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        self.rows = [list(r) for r in rows]
        n = len(self.rows)
        if any(len(r) != n for r in self.rows):
            raise ValueError("matrix must be square")

    @property
    def size(self):
        return len(self.rows)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def __add__(self, other):
        return Matrix([[a + b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Matrix([[a - b for a, b in zip(ra, rb)]
                       for ra, rb in zip(self.rows, other.rows)])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            n = self.size
            ctx = _element_ctx(self, other)
            if ctx is not None:
                # each entry is one sum of products: one accumulator for it
                out = []
                for ra in self.rows:
                    row = []
                    for j in range(n):
                        acc: dict = {}
                        for x, rb in zip(ra, other.rows):
                            _mul_into(acc, ctx, x.terms, rb[j].terms)
                        row.append(_finish(ctx, acc))
                    out.append(row)
                return Matrix(out)
            out = []
            for i in range(n):
                row = []
                for j in range(n):
                    acc = self.rows[i][0] * other.rows[0][j]
                    for l in range(1, n):
                        acc = acc + self.rows[i][l] * other.rows[l][j]
                    row.append(acc)
                out.append(row)
            return Matrix(out)
        return Matrix([[a * other for a in r] for r in self.rows])

    def scale(self, s):
        return Matrix([[a.scale(s) for a in r] for r in self.rows])

    def map(self, fn):
        return Matrix([[fn(a) for a in r] for r in self.rows])

    def trace(self):
        ctx = _element_ctx(self)
        if ctx is not None:
            acc: dict = {}
            for i, row in enumerate(self.rows):
                _add_into(acc, row[i].terms)
            return _finish(ctx, acc)
        acc = self.rows[0][0]
        for i in range(1, self.size):
            acc = acc + self.rows[i][i]
        return acc

    def dagger(self):
        """Conjugate transpose (entries must provide .conj())."""
        n = self.size
        return Matrix([[self.rows[j][i].conj() for j in range(n)]
                       for i in range(n)])

    def __eq__(self, other):
        return isinstance(other, Matrix) and self.rows == other.rows

    def __repr__(self):
        return f"Matrix({self.rows!r})"


def _element_ctx(*matrices) -> DeformationContext | None:
    """The common context when every entry is an ``Element``, else None."""
    ctx = None
    for m in matrices:
        for row in m.rows:
            for x in row:
                if type(x) is not Element:
                    return None
                if ctx is None:
                    ctx = x.ctx
                elif x.ctx is not ctx and x.ctx != ctx:
                    raise ValueError("elements live over different contexts")
    return ctx


# Largest half-dimension n that GammaRep builds.  Its 2n+1 matrices are
# dense 2^n x 2^n lists, so each step in n costs about four times the time
# and memory: charge(8) peaks near 115 MB and charge(9) near 400 MB, and
# n = 10 would ask for about 1.6 GB.
MAX_HALF_DIM = 9


def _kron(a: Matrix, b: Matrix, mul) -> Matrix:
    na, nb = a.size, b.size
    out = [[None] * (na * nb) for _ in range(na * nb)]
    for i in range(na):
        for j in range(na):
            for k in range(nb):
                for l in range(nb):
                    out[i * nb + k][j * nb + l] = mul(a.rows[i][j], b.rows[k][l])
    return Matrix(out)


class GammaRep:
    """Irreducible representation of the twisted Clifford generators.

    For ambient dimension D = 2n+1 and i <= n,

        gamma^i = sqrt2 * diag(-q_{i1},1) x ... x diag(-q_{i,i-1},1)
                         x lower_shift x 1 x ... x 1,

    gamma^{i'} is the conjugate transpose of gamma^i and gamma^{n+1} is the
    diagonal chirality matrix.
    """

    __slots__ = ("n", "ctx", "matrices")

    def __init__(self, n: int, ctx: DeformationContext | None = None):
        if n < 1:
            raise ValueError("the half-dimension must be at least 1")
        if n > MAX_HALF_DIM:
            raise ValueError(
                f"half-dimension n = {n} exceeds the limit {MAX_HALF_DIM}: "
                f"the Clifford matrices are dense 2^n x 2^n")
        self.n = n
        self.ctx = ctx if ctx is not None else DeformationContext(2 * n + 1)
        if self.ctx.dim != 2 * n + 1:
            raise ValueError("context dimension must be 2n+1")
        self.matrices = {}
        zero, one = self.ctx.scalar_zero(), self.ctx.scalar_one()
        lower = Matrix([[zero, zero], [one, zero]])
        ident = Matrix([[one, zero], [zero, one]])
        chir = Matrix([[one, zero], [zero, -one]])
        mul = lambda a, b: a * b
        for i in range(1, n + 1):
            factors = [Matrix([[-self.ctx.q_power(i, j), zero], [zero, one]])
                       for j in range(1, i)]
            factors.append(lower)
            factors.extend([ident] * (n - i))
            m = factors[0]
            for f in factors[1:]:
                m = _kron(m, f, mul)
            self.matrices[i] = m * self.ctx.sqrt2()
        chi = chir
        for _ in range(n - 1):
            chi = _kron(chi, chir, mul)
        self.matrices[n + 1] = chi
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
        n = lhs.size
        diag = Matrix([[gij if a == b else ctx.scalar_zero()
                        for b in range(n)] for a in range(n)])
        return lhs - diag


def gamma_rep(n: int) -> GammaRep:
    return GammaRep(n)


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

    Returns ``(rep, e)`` with e a matrix of degree-0 ambient elements.
    """
    rep = GammaRep(n, ctx)
    ctx = rep.ctx
    dim = ctx.dim
    size = 2 ** n
    entries = [[Element.zero(ctx) for _ in range(size)] for _ in range(size)]
    for i in range(1, dim + 1):
        xi = Element.x(ctx, ctx.primed(i))
        g = rep.gamma(i)
        for a in range(size):
            for b in range(size):
                s = g.rows[a][b]
                if s:
                    entries[a][b] = entries[a][b] + xi.scale(s)
    for a in range(size):
        entries[a][a] = entries[a][a] + Element.one(ctx)
    e = Matrix(entries).scale(Fraction(1, 2))
    return rep, e


def projector_defect(e: Matrix) -> Matrix:
    """e*e - e reduced mod (c-1); all-zero iff e is a sphere projector."""
    return (e * e - e).map(reduce_mod_c)


def is_projector(e: Matrix) -> bool:
    defect = projector_defect(e)
    return all(x.is_zero() for row in defect.rows for x in row)


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
    half = n_deg // 2
    norm = ctx.i_power(-half).scale(
        Fraction(2 ** (half + 1) * factorial(half), factorial(n_deg)))
    return integrate_form(om) * norm


def _gamma_blocks(rep: GammaRep) -> dict:
    """The blocks Gamma_a = gamma^a (x) dx^{a'} of 2 de, as sparse matrices
    {row: {col: terms}} holding only the nonzero entries."""
    ctx = rep.ctx
    zero = (0,) * ctx.dim
    blocks = {}
    for a in range(1, ctx.dim + 1):
        key = (zero, (ctx.primed(a),))
        rows = {}
        for r, row in enumerate(rep.gamma(a).rows):
            entries = {c: {key: s} for c, s in enumerate(row) if s}
            if entries:
                rows[r] = entries
        blocks[a] = rows
    return blocks


def _sparse_mul(ctx: DeformationContext, m1: dict, m2: dict) -> dict:
    """Product of two sparse matrices of forms (see ``_gamma_blocks``)."""
    out = {}
    for r, row in m1.items():
        accs: dict = {}
        for k, t1 in row.items():
            for c, t2 in m2.get(k, {}).items():
                _mul_into(accs.setdefault(c, {}), ctx, t1, t2)
        entries = {}
        for c, acc in accs.items():
            terms = _finish(ctx, acc).terms
            if terms:
                entries[c] = terms
        if entries:
            out[r] = entries
    return out


def _sparse_add(ctx: DeformationContext, m1: dict, m2: dict) -> dict:
    accs: dict = {}
    for m in (m1, m2):
        for r, row in m.items():
            for c, terms in row.items():
                _add_into(accs.setdefault((r, c), {}), terms)
    out: dict = {}
    for (r, c), acc in accs.items():
        terms = _finish(ctx, acc).terms
        if terms:
            out.setdefault(r, {})[c] = terms
    return out


def _diagonal(m: dict, size: int, what: str) -> list:
    """The diagonal of a sparse matrix as a list of terms; raise unless every
    other entry is zero."""
    if any(c != r for r, row in m.items() for c in row):
        raise ValueError(f"block lemma fails: {what} is not diagonal")
    return [m.get(r, {}).get(r, {}) for r in range(size)]


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
    gam = _gamma_blocks(rep)
    for a in range(1, ctx.dim + 1):
        if _sparse_mul(ctx, gam[a], gam[a]):
            raise ValueError(f"block lemma fails: Gamma_{a}^2 != 0")
        for b in range(a + 1, ctx.dim + 1):
            if b != ctx.primed(a) and (_sparse_mul(ctx, gam[a], gam[b])
                                       != _sparse_mul(ctx, gam[b], gam[a])):
                raise ValueError(
                    f"block lemma fails: Gamma_{a}, Gamma_{b} do not commute")
    blocks, squares = [], []
    for a in range(1, n + 1):
        ap = ctx.primed(a)
        _diagonal(_sparse_mul(ctx, gam[a], gam[ap]), size,
                  f"gamma^{a} gamma^{ap}")
        _diagonal(_sparse_mul(ctx, gam[ap], gam[a]), size,
                  f"gamma^{ap} gamma^{a}")
        p = _sparse_add(ctx, gam[a], gam[ap])
        p2 = _sparse_mul(ctx, p, p)
        if _sparse_mul(ctx, p2, p):
            raise ValueError(f"block lemma fails: P_{a}^3 != 0")
        blocks.append(p)
        squares.append(_diagonal(p2, size, f"P_{a}^2"))
    # for the block P_j: before = Gamma_{n+1} P_1^2 ... P_{j-1}^2 and
    # after[j-1] = P_{j+1}^2 ... P_n^2
    after = [[{((0,) * ctx.dim, ()): ctx.scalar_one()}] * size]
    for sq in reversed(squares[1:]):
        after.append(_diag_mul(ctx, sq, after[-1]))
    after.reverse()
    before = _diagonal(gam[n + 1], size, f"gamma^{n + 1}")
    rows = e.rows
    top: dict = {}    # Tr[e prod_a P_a^2]
    for r, t in enumerate(_diag_mul(ctx, squares[0], after[0])):
        _mul_into(top, ctx, rows[r][r].terms, t)
    mixed: dict = {}  # sum_j Tr[e P_j Gamma_{n+1} prod_{a != j} P_a^2]
    for p, sq, tail in zip(blocks, squares, after):
        diag = _diag_mul(ctx, before, tail)
        for c, row in p.items():
            for r, t in row.items():
                entry: dict = {}  # (P_j diag)[c][r]
                _mul_into(entry, ctx, t, diag[r])
                _mul_into(mixed, ctx, rows[r][c].terms,
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
    val = charge_integral(n, ctx)
    norm = ctx.i_power(-n).scale(Fraction(2 ** (n + 1), factorial(2 * n)))
    return val * norm


def charge_from_curvature(n: int, ctx: DeformationContext | None = None) -> ExactScalar:
    """Same pairing computed as (normalisation/n!) * int Tr(F^n)."""
    rep, e = instanton_projector(n, ctx)
    ctx = rep.ctx
    f = curvature(e)
    m = f
    for _ in range(n - 1):
        m = m * f
    val = integrate_form(m.trace())
    half = n  # the sphere dimension is 2n
    norm = ctx.i_power(-half).scale(
        Fraction(2 ** (half + 1) * factorial(half),
                 factorial(2 * n) * factorial(n)))
    return val * norm
