"""Dense references for the Clifford matrices and the instanton charge.

``kron_gammas`` builds every gamma^a as a dense 2^n x 2^n list of rows by
Kronecker products of 2 x 2 factors, the construction ``chern.GammaRep``
used before it wrote each nonzero entry down in closed form; the tests
compare the two on every entry, zeros included, for n <= 6.

``dense_trace`` is the chain of 2n products of the full 2^n x 2^n matrices
of forms e and de that ``chern.charge_integral`` used before it took the
commuting-block expansion of (de)^{2n}.  Its cost grows about 8x per step
in n; the tests compare the expansion with it for n <= 4.
"""

from twistcalc.chern import instanton_projector
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
