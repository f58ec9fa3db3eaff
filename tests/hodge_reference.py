"""Reference for the Hodge families on full bases: every pair of basis forms.

``hodge_plane_every_pair`` and ``hodge_sphere_every_pair`` are the paths
``identities.hodge_plane_basis`` and ``identities.hodge_sphere_basis`` took
before the pair identities were yielded only where a side can be nonzero:
the exchange, isometry and defining relation on every pair of basis forms of
one degree, and duality on every pair of complementary degrees.  The tests
compare the two families record by record.
"""

from fractions import Fraction
from itertools import combinations

from twistcalc.identities import (_PLANE_NAMES, _SPHERE_NAMES, Identity,
                                  basis_form)
from twistcalc.sphere import (central_quadric, hodge_sphere, pairing_sphere,
                              volume_form)
from twistcalc.tensorcalc import hodge_plane, pairing_plane, volume_element


def _basis(ctx, n: int, star):
    """{k: [(dx indices, basis form, its star)]} for k <= n."""
    out = {}
    for k in range(n + 1):
        out[k] = []
        for s in combinations(range(1, ctx.dim + 1), k):
            form = basis_form(ctx, s)
            out[k].append((s, form, star(form)))
    return out


def _hodge_family(ctx, n, basis, kind, head, names, star, pairing, vol):
    """The identities of a Hodge star on n-forms, on every basis form and
    pair of basis forms; one family instance per identity, in the order of
    ``names``: **, exchange, isometry, duality, reality, defining relation."""

    def eq(i, label, lhs, rhs):
        return Identity(f"{head}: {names[i]}", f"{head} {label}", kind, ctx,
                        lhs, rhs)

    def singles():
        for k in range(n + 1):
            sign = -1 if k * (n - k) % 2 else 1
            for s, a, sa in basis[k]:
                yield sign, f"{s}", a, sa

    def pairs(complement=False):
        for k in range(n + 1):
            sign = -1 if k * (n - k) % 2 else 1
            for s, a, sa in basis[k]:
                for t, b, sb in basis[n - k if complement else k]:
                    yield sign, f"{s}|{t}", a, sa, b, sb

    wedges, inner = [], []
    for sign, s, a, sa in singles():
        yield eq(0, f"**{s}", star(sa), a.scale(sign))
    for sign, st, a, sa, b, sb in pairs():
        wedges.append(a * sb)
        yield eq(1, f"exchange {st}", wedges[-1], (sa * b).scale(sign))
    for _, st, a, sa, b, sb in pairs():
        inner.append(pairing(a, b))
        yield eq(2, f"isometry {st}", inner[-1], pairing(sa, sb))
    for _, st, a, sa, b, sb in pairs(complement=True):
        yield eq(3, f"duality {st}", pairing(sa, b), pairing(a * b, vol))
    for _, s, a, sa in singles():
        yield eq(4, f"*conj {s}", star(a.star()), sa.star())
    for (_, st, *_), wedge, ab in zip(pairs(), wedges, inner):
        yield eq(5, f"defining {st}", wedge, ab * vol)


def hodge_plane_every_pair(ctx):
    """The plane Hodge identities on every basis form and pair."""
    d = ctx.dim
    yield from _hodge_family(ctx, d, _basis(ctx, d, hodge_plane), "element",
                             f"D={d}", _PLANE_NAMES, hodge_plane,
                             pairing_plane, volume_element(ctx))


def hodge_sphere_every_pair(ctx):
    """The sphere Hodge identities on every basis form and pair, led by the
    explicit star against the star through the normal."""
    n = ctx.dim - 1
    dc = central_quadric(ctx).d()
    basis = _basis(ctx, n, hodge_sphere)
    for k in range(n + 1):
        for s, th, sth in basis[k]:
            yield Identity(f"N={n}: explicit star = star through the normal",
                           f"N={n} normal-route {s}", "sphere", ctx, sth,
                           hodge_plane(th * dc).scale(
                               Fraction((-1) ** (n - k), 2)))
    yield from _hodge_family(ctx, n, basis, "sphere", f"N={n}",
                             _SPHERE_NAMES, hodge_sphere, pairing_sphere,
                             volume_form(ctx))
