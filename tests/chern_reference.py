"""Dense reference for the instanton charge integral.

The chain of 2n products of dense 2^n x 2^n matrices of forms that
``chern.charge_integral`` used before it took the commuting-block expansion
of (de)^{2n}.  Its cost grows about 8x per step in n; the tests compare the
expansion with it for n <= 4.
"""

from twistcalc.chern import instanton_projector
from twistcalc.sphere import integrate_form


def dense_trace(n, ctx=None):
    """Tr[e (de)^{2n}] as one element, by dense matrix products."""
    rep, e = instanton_projector(n, ctx)
    de = e.map(lambda f: f.d())
    m = de * de
    for _ in range(n - 1):
        m = m * de * de
    return (e * m).trace()


def dense_charge_integral(n, ctx=None):
    """The integral of Tr[e (de)^{2n}] by dense matrix products."""
    return integrate_form(dense_trace(n, ctx))
