"""Dense references for the Clifford matrices and the instanton charge.

``kron_gammas`` builds every gamma^a as a dense 2^n x 2^n list of rows by
Kronecker products of 2 x 2 factors, the construction ``chern.GammaRep``
used before it wrote each nonzero entry down in closed form; the tests
compare the two on every entry, zeros included, for n <= 6.

``block_lemma_reference`` is the check of the block lemma that
``chern._expansion_trace`` made before it read the scalar gamma entries:
products of the Element-valued blocks Gamma_a = gamma^a (x) dx^{a'}.  Two of
its checks, Gamma_a^2 = 0 and P_a^3 = 0 with P_a = Gamma_a + Gamma_{a'},
cannot fail for any gamma: every term of either product repeats dx^a or
dx^{a'}.  ``nilpotent_products`` returns those products so that the tests can
show them zero on broken representations too.

``dense_trace`` is the chain of 2n products of the full 2^n x 2^n matrices
of forms e and de that ``chern.charge_integral`` used before it took the
commuting-block expansion of (de)^{2n}.  Its cost grows about 8x per step
in n; the tests compare the expansion with it for n <= 4.

``column_expansion_trace`` is the commuting-block expansion as
``chern._expansion_trace`` computed it before it read the factors of the
gammas: on their column views, with the lemma checked on composed views and
each term of Tr[e M] a sum over the 2^n columns, O(n^2 2^n) scalar
products.  It takes e as a matrix, so 1 - e and the identity give the
anti-instanton and the Stokes integrand Tr[(de)^{2n}] directly; the factor
path gets 1 - e from the gammas of ``negated``.
"""

from fractions import Fraction
from functools import partial, reduce
from math import factorial
from operator import mul

from twistcalc import Element
from twistcalc.chern import Matrix, _compose, instanton_projector
from twistcalc.ncalg import _finish
from twistcalc.qphase import _add_into
from twistcalc.sphere import integrate_form


def _kron(a, b):
    """Kronecker product of two dense lists of rows: entry
    (i nb + k, j nb + l) is a[i][j] * b[k][l]."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def kron_gammas(n, ctx):
    """{a: gamma^a as a dense list of rows} for a = 1..2n+1.

    gamma^i = sqrt2 * diag(-q_{i1},1) x ... x diag(-q_{i,i-1},1)
                     x lower_shift x 1 x ... x 1   (i <= n),
    gamma^{n+1} = diag(1,-1)^{x n} and gamma^{i'} is the conjugate
    transpose of gamma^i.
    """
    zero, one = ctx.scalar_zero(), ctx.scalar_one()
    lower = [[zero, zero], [one, zero]]
    ident = [[one, zero], [zero, one]]
    chir = [[one, zero], [zero, -one]]
    gammas = {}
    for i in range(1, n + 1):
        factors = [[[-ctx.q_power(i, j), zero], [zero, one]]
                   for j in range(1, i)]
        factors.append(lower)
        factors.extend([ident] * (n - i))
        m = factors[0]
        for f in factors[1:]:
            m = _kron(m, f)
        gammas[i] = [[x * ctx.sqrt2() for x in row] for row in m]
    chi = chir
    for _ in range(n - 1):
        chi = _kron(chi, chir)
    gammas[n + 1] = chi
    size = 2 ** n
    for i in range(1, n + 1):
        m = gammas[i]
        gammas[ctx.primed(i)] = [[m[c][r].conj() for c in range(size)]
                                 for r in range(size)]
    return gammas


def dense_trace(n, ctx=None):
    """Tr[e (de)^{2n}] as one element, by products of full matrices."""
    rep, e = instanton_projector(n, ctx)
    de = e.map(lambda f: f.d())
    m = de * de
    for _ in range(n - 1):
        m = m * de * de
    return (e * m).trace()


def dense_charge_integral(n, ctx=None):
    """The integral of Tr[e (de)^{2n}] by products of full matrices."""
    return integrate_form(dense_trace(n, ctx))


def _blocks(rep):
    """{a: Gamma_a = gamma^a (x) dx^{a'}} as matrices of forms, built from
    the column views of the gammas."""
    ctx = rep.ctx
    blocks = {}
    for a in range(1, ctx.dim + 1):
        form, rows = Element.dx(ctx, ctx.primed(a)), {}
        for c, (r, s) in rep.gamma(a).items():
            rows.setdefault(r, {})[c] = form.scale(s)
        blocks[a] = Matrix(2 ** rep.n, Element.zero(ctx), rows)
    return blocks


def nilpotent_products(rep):
    """Every Gamma_a^2 and every P_a^3 (a <= n)."""
    ctx, gam = rep.ctx, _blocks(rep)
    out = [gam[a] * gam[a] for a in gam]
    for a in range(1, rep.n + 1):
        p = gam[a] + gam[ctx.primed(a)]
        out.append(p * p * p)
    return out


def block_lemma_reference(rep):
    """Raise ValueError("block lemma fails: ...") unless Gamma_a^2 = 0, the
    blocks Gamma_a, Gamma_b commute for b not in {a, a'}, gamma^a gamma^{a'},
    gamma^{a'} gamma^a and gamma^{n+1} are diagonal, and P_a^3 = 0."""
    ctx, n, gam = rep.ctx, rep.n, _blocks(rep)

    def diagonal(m, what):
        if any(c != r for r, row in m.rows.items() for c in row):
            raise ValueError(f"block lemma fails: {what} is not diagonal")

    for a in range(1, ctx.dim + 1):
        if gam[a] * gam[a]:
            raise ValueError(f"block lemma fails: Gamma_{a}^2 != 0")
        for b in range(a + 1, ctx.dim + 1):
            if b != ctx.primed(a) and gam[a] * gam[b] != gam[b] * gam[a]:
                raise ValueError(
                    f"block lemma fails: Gamma_{a}, Gamma_{b} do not commute")
    for a in range(1, n + 1):
        ap = ctx.primed(a)
        diagonal(gam[a] * gam[ap], f"gamma^{a} gamma^{ap}")
        diagonal(gam[ap] * gam[a], f"gamma^{ap} gamma^{a}")
        p = gam[a] + gam[ap]
        p2 = p * p
        if p2 * p:
            raise ValueError(f"block lemma fails: P_{a}^3 != 0")
        diagonal(p2, f"P_{a}^2")
    diagonal(gam[n + 1], f"gamma^{n + 1}")


def column_expansion_trace(rep, e):
    """Tr[e (de)^{2n}] through the commuting-block expansion on the column
    views of rep's gammas, after checking the lemma behind it on composed
    views; e is any matrix of forms of rep's size."""
    ctx, n = rep.ctx, rep.n
    size, dx = 2 ** n, partial(Element.dx, ctx)
    zero, one = ctx.scalar_zero(), ctx.scalar_one()
    cols = {a: rep.gamma(a) for a in range(1, ctx.dim + 1)}
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


def identity(rep):
    """The identity matrix of forms of rep's size."""
    one = Element.one(rep.ctx)
    return Matrix(2 ** rep.n, Element.zero(rep.ctx),
                  {r: {r: one} for r in range(2 ** rep.n)})


def negated(rep):
    """rep with every gamma negated, in its first factor: its projector
    (1 - gamma^i x^{i'})/2 is 1 - e, and d(1 - e) = -de."""
    for a, g in rep.factors.items():
        flip, d = g[0]
        rep.factors[a] = ((flip, tuple(-s for s in d)),) + g[1:]
    return rep
