"""The cocycle lemma of the ``qphase`` docstring, checked against the kernel
and against the references it replaced.

W(m) is the torus-weight sum of a monomial's letters, B(u, v) the bilinear
form with exponent u_i v_j at q_{ij} (i < j <= D//2), and Q(m) the sum of
B over the letter pairs of m's canonical word.  The lemma says that
``_mono_mul(m1, m2)`` has phase B(W1, W2) + Q(m1) + Q(m2) - Q(m1 m2) and
the classical Grassmann sign.  W, B and Q live here only; the engine builds
its pair table from the same weights and reads every other phase from
``_mono_mul``.
"""

import random
from functools import lru_cache
from itertools import combinations, permutations, product

from phase_reference import reduce_pair_orbit, w_column
from twistcalc import DeformationContext
from twistcalc.ncalg import _mono_mul
from twistcalc.tensorcalc import antisym_w, antisym_w_column


def _weight(ctx, a: int) -> tuple:
    """+e_a for a <= D//2, -e_{a'} for a' = D+1-a, 0 for the middle."""
    w = [0] * (ctx.dim // 2)
    if 2 * a <= ctx.dim:
        w[a - 1] = 1
    elif 2 * a > ctx.dim + 1:
        w[ctx.dim - a] = -1
    return tuple(w)


def _b(ctx, u: tuple, v: tuple) -> tuple:
    """B(u, v) over the independent phases (none in the classical limit)."""
    return tuple(u[i - 1] * v[j - 1] for i, j in ctx.params)


def _letters(m) -> list:
    """The indices of the letters of m's canonical word, in order."""
    exps, dxs = m
    return [a for a, e in enumerate(exps, start=1) for _ in range(e)] + list(dxs)


@lru_cache(maxsize=None)
def _weight_sum(ctx, m) -> tuple:
    return tuple(map(sum, zip(*([(0,) * (ctx.dim // 2)] + [
        _weight(ctx, a) for a in _letters(m)]))))


@lru_cache(maxsize=None)
def _q(ctx, m) -> tuple:
    """Q(m): B summed over the letter pairs i < j of m's canonical word."""
    total = [0] * ctx.nparams
    before = (0,) * (ctx.dim // 2)
    for a in _letters(m):
        w = _weight(ctx, a)
        total = [t + x for t, x in zip(total, _b(ctx, before, w))]
        before = tuple(p + x for p, x in zip(before, w))
    return tuple(total)


@lru_cache(maxsize=None)
def _grassmann_sign(s1: tuple, s2: tuple) -> int:
    return (-1) ** sum(a > b for a in s1 for b in s2)


def _lemma(ctx, m1, m2):
    """(phase, sign, key) of m1 m2 by the lemma, or None on a repeated dx."""
    (e1, s1), (e2, s2) = m1, m2
    if set(s1) & set(s2):
        return None
    sign = _grassmann_sign(s1, s2)
    key = (tuple(x + y for x, y in zip(e1, e2)), tuple(sorted(s1 + s2)))
    parts = (_b(ctx, _weight_sum(ctx, m1), _weight_sum(ctx, m2)),
             _q(ctx, m1), _q(ctx, m2), tuple(-x for x in _q(ctx, key)))
    return tuple(map(sum, zip(*parts))), sign, key


def _contexts(dims):
    for d in dims:
        for commutative in (False, True):
            yield DeformationContext(d, commutative=commutative)


def test_lemma_on_every_small_pair():
    # every pair of monomials whose x parts have total degree <= 2, with
    # any dx sets, at D <= 5 on both planes
    for ctx in _contexts(range(1, 6)):
        d = ctx.dim
        xs = [e for e in product(range(3), repeat=d) if sum(e) <= 2]
        dxs = [s for k in range(d + 1) for s in combinations(range(1, d + 1), k)]
        for e1, e2 in product(xs, repeat=2):
            if sum(e1) + sum(e2) > 2:
                continue
            for s1, s2 in product(dxs, repeat=2):
                m1, m2 = (e1, s1), (e2, s2)
                assert _mono_mul(ctx, m1, m2) == _lemma(ctx, m1, m2), (m1, m2)


def test_lemma_on_random_pairs():
    rng = random.Random(23)
    for ctx in _contexts(range(6, 12)):
        d = ctx.dim
        for _ in range(150):
            m1, m2 = [(tuple(rng.choice((0, 0, 1, 2, 3)) for _ in range(d)),
                       tuple(sorted(rng.sample(range(1, d + 1),
                                               rng.randint(0, d)))))
                      for _ in range(2)]
            assert _mono_mul(ctx, m1, m2) == _lemma(ctx, m1, m2), (m1, m2)


def test_pair_table_matches_the_orbit_closure():
    for ctx in _contexts(range(1, 25)):
        assert ctx._pair_table == {
            (a, b): reduce_pair_orbit(ctx, a, b)
            for a in range(1, ctx.dim + 1) for b in range(1, ctx.dim + 1)}


def _lowers(d: int, lengths):
    for k in lengths:
        yield from product(range(1, d + 1), repeat=k)


def test_w_columns_match_the_recursion():
    # every lower tuple, repeats included: every length at D <= 4, lengths
    # <= 4 at D = 5..7
    for d in range(1, 8):
        ctx = DeformationContext(d)
        for lower in _lowers(d, range(d + 1) if d <= 4 else range(5)):
            assert antisym_w_column(ctx, lower) == w_column(ctx, lower), lower


def test_w_entries_match_their_column():
    # antisym_w reads one entry by the same quotient: every (upper, lower)
    # pair of each length at D <= 4, and the reorderings at D = 5
    for d in range(1, 5):
        ctx = DeformationContext(d)
        for lower in _lowers(d, range(d + 1)):
            column = antisym_w_column(ctx, lower)
            for upper in product(range(1, d + 1), repeat=len(lower)):
                assert antisym_w(ctx, upper, lower) == column.get(
                    upper, ctx.scalar_zero())
    ctx = DeformationContext(5)
    for lower in permutations(range(1, 6), 4):
        column = antisym_w_column(ctx, lower)
        assert len(column) == 24
        for upper, w in column.items():
            assert antisym_w(ctx, upper, lower) == w
