"""Twisted partial derivatives, the Laplacian and the Haar functional.

The derivatives obey the deformed Leibniz rule

    d_s(x^a f) = delta^a_s f + q_{as} x^a d_s f,

the Laplacian is the metric contraction of two of them, and the invariant
normalised integral of a degree-2n monomial on the sphere is lambda_n times
its n-th Laplacian power, with

    lambda_n = 1 / (2^n n! (D,2)_n),   (x,a)_n = x (x+a) ... (x+(n-1)a),

where D is the dimension of the ambient plane.  Odd monomials integrate to
zero.  The same recursion 1/lambda ratio 2(n+1)(D+2n) is what kills (c-1),
making the functional well defined on the sphere.
"""

from __future__ import annotations

from fractions import Fraction

from .ncalg import Element, _add_into, _finish, _mono_mul
from .qphase import DeformationContext, ExactScalar

__all__ = ["partial_derivative", "laplacian", "lambda_coefficient", "haar_plane"]


def partial_derivative(ctx: DeformationContext, s: int, f: Element) -> Element:
    """Twisted derivative along x^s of a degree-0 element."""
    ctx.check_index(s)
    if f.ctx != ctx:
        raise ValueError("element belongs to a different context")
    unit_s = (0,) * (s - 1) + (1,) + (0,) * (ctx.dim - s)
    out: dict = {}
    for (exps, dxs), coeff in f.terms.items():
        if dxs:
            raise ValueError("partial derivative needs form degree 0")
        es = exps[s - 1]
        if not es:
            continue
        # d_s passes x^{<s} with q_{as} each: undo the phase of x^s x^{<s}
        low = exps[:s - 1] + (0,) * (ctx.dim - s + 1)
        shift = _mono_mul(ctx, (unit_s, ()), (low, ()))[0]
        # lowering x^s is injective on monomials: no two terms share a key
        key = (exps[:s - 1] + (es - 1,) + exps[s:], ())
        out[key] = coeff.shifted(tuple(-x for x in shift)).scale(es)
    res = Element.__new__(Element)
    res.ctx, res.terms = ctx, out
    return res


def laplacian(f: Element) -> Element:
    """Metric Laplacian: the sum over a of d_a d_{a'}."""
    ctx = f.ctx
    acc: dict = {}
    for a in range(1, ctx.dim + 1):
        _add_into(acc, partial_derivative(
            ctx, a, partial_derivative(ctx, ctx.primed(a), f)).terms)
    return _finish(ctx, acc)


def lambda_coefficient(dim: int, n: int) -> Fraction:
    """lambda_n for the ambient dimension; lambda_0 = 1."""
    if n < 0:
        raise ValueError("negative order")
    denom = 1
    shifted = 1
    for j in range(n):
        denom *= 2 * (j + 1)
        shifted *= dim + 2 * j
    return Fraction(1, denom * shifted)


def haar_plane(ctx: DeformationContext, f: Element) -> ExactScalar:
    """Invariant integral of a degree-0 element, via Laplacian powers.

    Linear; a monomial of odd total degree gives 0, one of degree 2n gives
    lambda_n * Laplacian^n(monomial).
    """
    if f.ctx != ctx:
        raise ValueError("element belongs to a different context")
    if any(dxs for (_, dxs) in f.terms):
        raise ValueError("the Haar functional is defined on functions only")
    # group by total degree so each Laplacian power is applied once
    by_degree: dict[int, Element] = {}
    for key, coeff in f.terms.items():
        deg = sum(key[0])
        part = by_degree.setdefault(deg, Element.zero(ctx))
        part.terms[key] = coeff
    total = ctx.scalar_zero()
    for deg, part in by_degree.items():
        if deg % 2:
            continue
        n = deg // 2
        for _ in range(n):
            part = laplacian(part)
        total = total + part.scalar_part().scale(lambda_coefficient(ctx.dim, n))
    return total
