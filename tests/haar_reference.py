"""Reference for the Haar functional: its defining Laplacian recursion.

``haar_by_laplacian`` is the path ``haar.haar_plane`` took before it read
each monomial's value off the classical sphere moment: group the terms by
total degree, apply the Laplacian n times to the degree-2n part and weight
the scalar left over by lambda_n.  Its cost grows with n Laplacian passes
over a support that keeps growing; the tests compare the closed form with
it on every monomial of low degree.
"""

from twistcalc import Element
from twistcalc.haar import lambda_coefficient, laplacian


def haar_by_laplacian(ctx, f):
    """h(f) = sum over n of lambda_n * Laplacian^n(degree-2n part of f)."""
    if f.ctx != ctx:
        raise ValueError("element belongs to a different context")
    if any(dxs for (_, dxs) in f.coefficients()):
        raise ValueError("the Haar functional is defined on functions only")
    by_degree = {}
    for key, coeff in f.coefficients().items():
        by_degree.setdefault(sum(key[0]), {})[key] = coeff
    total = ctx.scalar_zero()
    for deg, terms in by_degree.items():
        if deg % 2:
            continue
        n = deg // 2
        part = Element(ctx, terms)
        for _ in range(n):
            part = laplacian(part)
        left = part.coefficients().get(((0,) * ctx.dim, ()), ctx.scalar_zero())
        total = total + left.scale(lambda_coefficient(ctx.dim, n))
    return total
