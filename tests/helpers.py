"""Shared test utilities: random elements and independent classical oracles."""

from fractions import Fraction
from itertools import permutations

from twistcalc import DeformationContext, Element
from twistcalc.identities import basis_form
from twistcalc.suites import random_element, random_index_pair, random_monomial

__all__ = [
    "basis_form", "random_element", "random_index_pair", "random_monomial",
    "classical_sphere_moment", "classical_gram_pairing", "central",
]


def central(ctx: DeformationContext) -> Element:
    out = Element.zero(ctx)
    for a in range(1, ctx.dim + 1):
        out = out + Element.x(ctx, a) * Element.x(ctx, ctx.primed(a))
    return out


def _double_fact(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def _real_moment(dim: int, powers) -> Fraction:
    """E[prod y_i^{p_i}] over the uniform unit sphere in R^dim, exact."""
    if any(p % 2 for p in powers):
        return Fraction(0)
    total = sum(powers) // 2
    num = 1
    for p in powers:
        num *= _double_fact(p - 1)
    den = 1
    for j in range(1, total + 1):
        den *= dim + 2 * j - 2
    return Fraction(num, den)


def classical_sphere_moment(dim: int, exps) -> Fraction:
    """Exact classical integral of a quadric-coordinate monomial.

    The quadric coordinates are v_a = (y_{2j-1} + i y_{2j})/sqrt2 per
    companion pair and v_mid = y_dim; the integral over the unit sphere is
    nonzero only when each pair is balanced, and then reduces to real
    moments of |v_a|^2 = (y^2 + y'^2)/2.
    """
    exps = tuple(exps)
    half = dim // 2
    betas = []
    for j in range(half):
        a, ap = exps[j], exps[dim - 1 - j]
        if a != ap:
            return Fraction(0)
        betas.append(a)
    gamma = exps[half] if dim % 2 else 0
    if dim % 2 and gamma % 2:
        return Fraction(0)

    # expand prod_j ((y^2 + y'^2)/2)^beta_j into real moments
    def expand(j, acc_powers, acc_coeff):
        if j == len(betas):
            powers = acc_powers + ([gamma] if dim % 2 else [])
            return acc_coeff * _real_moment(dim, powers)
        b = betas[j]
        total = Fraction(0)
        from math import comb
        for t in range(b + 1):
            total += expand(j + 1, acc_powers + [2 * t, 2 * (b - t)],
                            acc_coeff * Fraction(comb(b, t), 2 ** b))
        return total

    return expand(0, [], Fraction(1))


def classical_gram_pairing(ctx: DeformationContext, u, v) -> int:
    """det(g^{u_r v_s}) — the classical metric pairing of two basis forms."""
    k = len(u)
    if k != len(v):
        raise ValueError("equal degrees required")
    total = 0
    for perm in permutations(range(k)):
        sign = 1
        for i in range(k):
            for j in range(i + 1, k):
                if perm[i] > perm[j]:
                    sign = -sign
        term = sign
        for r in range(k):
            term *= ctx.metric(u[r], v[perm[r]])
        total += term
    return total
