"""Clifford representation, instanton projector, curvature and the charge.

The odd-dimensional twisted Clifford algebra gamma^i gamma^j + q_{ji}
gamma^j gamma^i = 2 g^{ij} acts irreducibly on (C^2)^{tensor n}; the
hermitian idempotent e = (1 + gamma^i x^j g_{ij})/2 over the even sphere is
the instanton projector.  Its top character pairing

    (1/n!) tau(Tr e x ... x e) = (normalisation) * integral Tr[e (de)^{2n}]

is computed fully symbolically and equals 1.
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


def charge_integral(n: int, ctx: DeformationContext | None = None) -> ExactScalar:
    """The symbolic integral of Tr[e (de)^{2n}]."""
    rep, e = instanton_projector(n, ctx)
    de = e.map(lambda f: f.d())
    m = de * de
    for _ in range(n - 1):
        m = m * de * de
    return integrate_form((e * m).trace())


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
