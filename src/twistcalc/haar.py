"""Twisted partial derivatives, the Laplacian and the Haar functional.

The derivatives obey the deformed Leibniz rule

    d_s(x^a f) = delta^a_s f + q_{as} x^a d_s f,

the Laplacian is the metric contraction of two of them, and the invariant
normalised integral h is defined on a degree-2n monomial of the sphere as
lambda_n times its n-th Laplacian power, with

    lambda_n = 1 / (2^n n! (D,2)_n),   (x,a)_n = x (x+a) ... (x+(n-1)a),

where D is the dimension of the ambient plane.  Odd monomials integrate to
zero.  The same recursion 1/lambda ratio 2(n+1)(D+2n) is what kills (c-1),
making the functional well defined on the sphere.

``haar_plane`` does not run that recursion: h(x^e) is the classical sphere
moment m(e) of the exponent vector, and no phase enters.

Why no phase: by the cocycle lemma (``qphase`` docstring) the theta-product
is the classical one in the rescaled basis x^e~ = q^(-Q(x^e)) x^e, and the
twisted integral is the classical one on that identification (Connes-Landi;
Rieffel).  The integral of a monomial of nonzero weight vanishes, so only e
with e_a = e_a' for every a <= D/2 counts, and for such e, Q(x^e) = 0.  In
the canonical word 1 ... D/2, mid, (D/2)' ... 1' a letter a before a letter
b has B(w(a), w(b)) nonzero only for a <= D/2 and b on a larger axis c: it
is +1 at q_{ac} for b = c, and -1 for b = c', and e_c = e_c' cancels the
two.

The classical moment comes from a Gaussian vector y in R^D, whose homogeneous
degree-2n polynomials average (D,2)_n times their sphere mean.  With
v_a = (y_a + i y_a~)/sqrt2, |v_a|^2 is exponential, so E|v_a|^{2k} = k!,
E v_a^k conj(v_a)^l = 0 for k != l, and E y_mid^g = (g-1)!! for even g.
Hence

    m(e) = prod_{a <= D/2} e_a! * (g-1)!! / (D,2)_n,   n = |e|/2,

where g is the middle exponent (g = 0 for even D), and m(e) = 0 unless
e_a = e_a' for every a <= D/2 and g is even.  The tests check it against
the Laplacian recursion on every monomial of low degree.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import sub

from .ncalg import Element, _finish, _mono_mul
from .qphase import (DeformationContext, ExactScalar, _add_into, _c_add,
                     _c_scale)

__all__ = ["partial_derivative", "laplacian", "lambda_coefficient", "haar_plane"]


def partial_derivative(ctx: DeformationContext, s: int, f: Element) -> Element:
    """Twisted derivative along x^s of a degree-0 element."""
    ctx.check_index(s)
    if f.ctx != ctx:
        raise ValueError("element belongs to a different context")
    unit_s = (0,) * (s - 1) + (1,) + (0,) * (ctx.dim - s)
    out: dict = {}
    for ((exps, dxs), k), v in f.terms.items():
        if dxs:
            raise ValueError("partial derivative needs form degree 0")
        es = exps[s - 1]
        if not es:
            continue
        # d_s passes x^{<s} with q_{as} each: undo the phase of x^s x^{<s}
        low = exps[:s - 1] + (0,) * (ctx.dim - s + 1)
        shift = _mono_mul(ctx, (unit_s, ()), (low, ()))[0]
        # lowering x^s is injective on monomials: no two terms share a key
        key = ((exps[:s - 1] + (es - 1,) + exps[s:], ()),
               tuple(map(sub, k, shift)))
        out[key] = _c_scale(v, es)
    return _finish(ctx, out)


def laplacian(f: Element) -> Element:
    """Metric Laplacian: the sum over a of d_a d_{a'}."""
    ctx = f.ctx
    acc: dict = {}
    for a in range(1, ctx.dim + 1):
        _add_into(acc, partial_derivative(
            ctx, a, partial_derivative(ctx, ctx.primed(a), f)).terms)
    return _finish(ctx, acc)


def lambda_coefficient(dim: int, n: int) -> Fraction:
    """lambda_n for the ambient dimension; lambda_0 = 1.

    The weight of the defining recursion h = lambda_n Laplacian^n on
    degree 2n; ``haar_plane`` evaluates the closed form instead."""
    if n < 0:
        raise ValueError("negative order")
    denom = 1
    shifted = 1
    for j in range(n):
        denom *= 2 * (j + 1)
        shifted *= dim + 2 * j
    return Fraction(1, denom * shifted)


def _moment(dim: int, exps: tuple[int, ...]) -> tuple[int, int]:
    """The classical sphere moment m(exps) as (numerator, denominator)."""
    half = dim // 2
    num = 1
    for a in range(half):
        ea = exps[a]
        if ea != exps[dim - 1 - a]:
            return 0, 1
        num *= factorial(ea)
    n = sum(exps[:half])
    if dim % 2:
        g = exps[half]
        if g % 2:
            return 0, 1
        # (g - 1)!! = g! / (2^(g/2) (g/2)!)
        num *= factorial(g) // (factorial(g // 2) << (g // 2))
        n += g // 2
    den = 1
    for j in range(n):
        den *= dim + 2 * j
    return num, den


def haar_plane(ctx: DeformationContext, f: Element) -> ExactScalar:
    """Invariant integral of a degree-0 element: sum of c_e m(e) over the
    terms c_e x^e of f (closed form, see the module docstring)."""
    if f.ctx != ctx:
        raise ValueError("element belongs to a different context")
    acc: dict = {}
    for ((exps, dxs), k), v in f.terms.items():
        if dxs:
            raise ValueError("the Haar functional is defined on functions only")
        p, q = _moment(ctx.dim, exps)
        if not p:
            continue
        w = _c_scale(v, p, q)
        u = acc.get(k)
        acc[k] = w if u is None else _c_add(u, w)
    return ExactScalar(acc)
