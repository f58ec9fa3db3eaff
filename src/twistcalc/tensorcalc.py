"""q-epsilon tensors, the braid matrix, the antisymmetrizer and plane Hodge.

The involutive braid matrix L^{ab}_{cd} = q_{ab} d^a_d d^b_c generates a
representation of the symmetric group, and the antisymmetrizer W is the
alternating sum of its permutation operators.  W and the q-epsilon tensor
come from one reorder coefficient: for a repeat-free index tuple t, r(t) is
the sign and phase with dx^{t_1} ... dx^{t_k} = r(t) dx^{sorted t}.  By the
cocycle lemma (``qphase`` docstring) a swap by L changes A (B summed over
the letter pairs) of a basis tuple by the exponent of the phase it picks
up, so a permutation taking the tuple l to u acts by q^(A(u) - A(l))
whatever word realises it, r(t) is +-q^(A(t) - A(sorted t)), and

    W^{u}_{l} = r(u) r(l)^-1

when u reorders a repeat-free l, and 0 otherwise: W keeps the index
multiset, and on a tuple that repeats an index the two permutations that
differ by swapping the equal indices cancel (q_{aa} = 1), so its column is
empty.  The q-epsilon tensor, the coefficient of the reordering of a top
wedge monomial onto dx^1...dx^D, is r at k = D, from the same cache;
``antisym_w_bruteforce`` sums the permutation operators as the independent
check.  The Hodge star on the plane contracts the q-epsilon tensor with
the anti-diagonal metric.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

from .ncalg import Element, _finish, _mono_mul, _mul_into
from .qphase import (_C_MINUS_ONE, _C_ONE, DeformationContext, ExactScalar,
                     _c_mul, _key_div, _key_mul, _scalar)

__all__ = [
    "lambda_entry", "apply_lambda", "braid_word", "epsilon_q", "epsilon_qinv",
    "antisym_w", "antisym_w_column", "antisym_w_bruteforce", "pairing_plane",
    "hodge_plane", "volume_element",
]


def lambda_entry(ctx: DeformationContext, a, b, c, d) -> ExactScalar:
    """Braid matrix entry L^{ab}_{cd} = q_{ab} if (a,b) == (d,c) else 0."""
    for idx in (a, b, c, d):
        ctx.check_index(idx)
    if a != d or b != c:
        return ctx.scalar_zero()
    return ctx.q_power(a, b)


def apply_lambda(ctx, t: tuple, pos: int):
    """Act with the braid matrix on slots (pos, pos+1) of a basis tuple.

    The result is a single basis tuple with a phase: the slots swap and pick
    up q_{cd'} where (c, d) were the incoming indices, i.e. the output pair
    (d, c) carries q_{dc}.
    """
    c, d = t[pos], t[pos + 1]
    out = t[:pos] + (d, c) + t[pos + 2:]
    return out, ctx.pair_reduction(d, c)


def braid_word(ctx, t: tuple, word) -> tuple:
    """(basis tuple, phase exponents) of the basis tensor e_t after the
    braid matrix acts on the slots (pos, pos + 1) of each pos in ``word``,
    in turn: the phase is the monomial with one exponent per parameter."""
    acc = [0] * ctx.nparams
    for pos in word:
        t, red = apply_lambda(ctx, t, pos)
        if red is not None:
            acc[red[0]] += red[1]
    return t, tuple(acc)


def antisym_w(ctx: DeformationContext, upper, lower) -> ExactScalar:
    """Entry W^{upper}_{lower} of the quantum antisymmetrizer."""
    if type(upper) is not tuple:
        upper = tuple(upper)
    if type(lower) is not tuple:
        lower = tuple(lower)
    if len(upper) != len(lower):
        raise ValueError("antisymmetrizer entry needs equal index counts")
    for t in (upper, lower):
        if not ctx._indices.issuperset(t):
            _check_indices(ctx, t)  # raises: an index lies outside 1..D
    seen = set(lower)
    if len(seen) < len(lower) or seen != set(upper):
        return ctx.scalar_zero()
    return _reorder(ctx, upper) * _reorder_inv(ctx, lower)


def antisym_w_column(ctx: DeformationContext, lower: tuple) -> dict:
    """The nonzero entries {upper: W^{upper}_{lower}} of one column of W:
    r(u) r(lower)^-1 at every reordering u of a repeat-free lower tuple,
    none when it repeats an index."""
    if not lower:
        return {(): ctx.scalar_one()}
    if not ctx._indices.issuperset(lower):
        _check_indices(ctx, lower)  # raises: an index lies outside 1..D
    if len(set(lower)) < len(lower):
        return {}
    inv = _reorder_inv(ctx, lower)
    return {u: _reorder(ctx, u) * inv for u in permutations(lower)}


def _reduced_word(perm: tuple) -> list[int]:
    """Adjacent-transposition word (0-based positions) sorting ``perm``."""
    word = []
    p = list(perm)
    for i in range(len(p)):
        j = p.index(i)
        while j > i:
            p[j - 1], p[j] = p[j], p[j - 1]
            word.append(j - 1)
            j -= 1
    return word[::-1]


def antisym_w_bruteforce(ctx, upper, lower) -> ExactScalar:
    """Alternating sum over all k! permutation operators, each realised as a
    product of braid transpositions along a reduced word.  Independent check
    of the reorder quotient of ``antisym_w``."""
    upper, lower = tuple(upper), tuple(lower)
    k = len(lower)
    if k != len(upper):
        raise ValueError("antisymmetrizer entry needs equal index counts")
    if k == 0:
        return ctx.scalar_one()
    total = ctx.scalar_zero()
    for perm in permutations(range(k)):
        word = _reduced_word(perm)
        t, exps = braid_word(ctx, lower, word)
        if t == upper:
            total = total + ctx.scalar((-1) ** len(word)).shifted(exps)
    return total


# -- epsilon tensors ---------------------------------------------------------

def _check_indices(ctx: DeformationContext, indices: tuple) -> None:
    """Raise IndexError unless every index lies in 1..D."""
    if min(indices) < 1 or max(indices) > ctx.dim:
        for a in indices:
            ctx.check_index(a)


def _perm_or_none(ctx: DeformationContext, indices):
    """The validated index tuple if it is repeat-free, else None."""
    if type(indices) is not tuple:
        indices = tuple(indices)
    if len(indices) != ctx.dim:
        raise ValueError("epsilon tensor needs exactly D indices")
    seen = set(indices)
    if not seen <= ctx._indices:
        _check_indices(ctx, indices)  # raises: an index lies outside 1..D
        return None
    # D indices drawn from 1..D are a permutation exactly when none repeats
    return indices if len(seen) == ctx.dim else None


def epsilon_q(ctx: DeformationContext, indices) -> ExactScalar:
    """Coefficient of dx^1...dx^D in the reordering of dx^{i_1}...dx^{i_D}."""
    perm = _perm_or_none(ctx, indices)
    if perm is None:
        return ctx.scalar_zero()
    return _reorder(ctx, perm)


def epsilon_qinv(ctx: DeformationContext, indices) -> ExactScalar:
    """Same as :func:`epsilon_q` with every phase exponent negated."""
    perm = _perm_or_none(ctx, indices)
    if perm is None:
        return ctx.scalar_zero()
    return _reorder_inv(ctx, perm)


# Only repeat-free index tuples reach these caches, so each holds at most
# D!/(D-k)! entries of length k per context (D! for the epsilons); callers
# share the results, which are never mutated.
@lru_cache(maxsize=None)
def _reorder(ctx: DeformationContext, t: tuple) -> ExactScalar:
    """r(t): dx^{t_1} ... dx^{t_k} = r(t) dx^{sorted t}, t repeat-free."""
    # multiply the word out left to right through the kernel
    zero, one = (0,) * ctx.dim, ctx.one_key
    shift, sign, word = one, 1, (zero, t[:1])
    for a in t[1:]:
        step, step_sign, word = _mono_mul(ctx, word, (zero, (a,)))
        shift, sign = _key_mul(one, shift, step), sign * step_sign
    return _scalar(ctx, {shift: _C_ONE if sign == 1 else _C_MINUS_ONE})


@lru_cache(maxsize=None)
def _reorder_inv(ctx: DeformationContext, t: tuple) -> ExactScalar:
    """r(t)^-1, which is r(t) with every phase exponent negated."""
    return _reorder(ctx, t).invert_phases()


def volume_element(ctx: DeformationContext) -> Element:
    """V_D = i^{D//2} dx^1 dx^2 ... dx^D."""
    key = ((0,) * ctx.dim, tuple(range(1, ctx.dim + 1)))
    return Element(ctx, {key: ctx.i_power(ctx.dim // 2)})


# -- pairing and Hodge star on the plane --------------------------------------

def _half_sign(m: int) -> int:
    return -1 if ((m // 2) % 2) else 1


def pairing_plane(alpha: Element, beta: Element) -> Element:
    """Metric pairing of two equal-degree forms, valued in functions.

    The first slot's coefficients come out on the left, the second slot's on
    the right.  On basis forms <dx^u, dx^v> = (-1)^{k//2} W^{v}_{u'} with u'
    the primed, reversed u.  W^{v}_{u'} = r(v) r(u')^-1 is nonzero only when
    v reorders u'; u is ascending, so u' is already sorted and W^{u'}_{u'} = 1.
    Hence dx^u pairs with dx^{u'} alone, to (-1)^{k//2}.
    """
    ctx = alpha.ctx
    k, lefts, rights = _pairing_slots(alpha, beta)
    # each left group pairs with the one right group of its primed dx set
    acc: dict = {}
    for u, left in lefts.items():
        right = rights.get(tuple(ctx.primed(a) for a in reversed(u)))
        if right is not None:
            _mul_into(acc, ctx, left, right)
    out = _finish(ctx, acc)
    return out if _half_sign(k) == 1 else -out


def _pairing_slots(alpha: Element, beta: Element):
    """The two slots of a pairing <alpha, beta>, grouped by dx set.

    Checks that the forms share a context and, unless one is zero, a form
    degree k.  Returns (k, lefts, rights): lefts[u] holds alpha's functions
    of dx^u, which stay on the left, and rights[v] beta's functions of dx^v
    moved right through dx^v (the phase of dx^v x^e undone), each as flat
    terms of x^e.  Both are empty when a form is zero.
    """
    ctx = alpha.ctx
    if ctx is not beta.ctx:
        raise ValueError("pairing of elements over different contexts")
    if alpha.is_zero() or beta.is_zero():
        return 0, {}, {}
    k = alpha.form_degree()
    if k != beta.form_degree():
        raise ValueError("pairing needs equal form degrees")
    zero, one = (0,) * ctx.dim, ctx.one_key
    lefts: dict[tuple, dict] = {}
    for ((e1, u), k1), c1 in alpha.terms.items():
        lefts.setdefault(u, {})[((e1, ()), k1)] = c1
    rights: dict[tuple, dict] = {}
    for ((e2, v), k2), c2 in beta.terms.items():
        k2 = _key_div(one, k2, _mono_mul(ctx, (zero, v), (e2, ()))[0])
        rights.setdefault(v, {})[((e2, ()), k2)] = c2
    return k, lefts, rights


def hodge_plane(alpha: Element) -> Element:
    """Hodge star on the plane: degree k -> degree D-k.

    On a basis form the star contracts the q-epsilon tensor with the metric;
    function coefficients pass through unchanged on the left.
    """
    ctx = alpha.ctx
    k = alpha.form_degree()  # raises on mixed-degree input
    dim = ctx.dim
    # C_{D,k} = (-i)^{D//2} (-1)^{(D-k)//2}; the 1/(D-k)! of the contraction
    # cancels against the (D-k)! equal terms of _hodge_basis
    const = ctx.i_power(-(dim // 2)).scale(_half_sign(dim - k))
    out = {}
    for ((e, u), k1), c in alpha.terms.items():
        # x^e dx^{dxs} is already in normal order; distinct u give distinct dxs
        dxs, phase = _hodge_basis(ctx, u)
        (k2, c2), = (phase * const).terms.items()
        out[((e, dxs), _key_mul(ctx.one_key, k1, k2))] = _c_mul(c, c2)
    return _finish(ctx, out)


def _hodge_basis(ctx, u: tuple):
    """Unnormalised star of dx^{u}, as its dx set and its one phase.

    The star sums eps_q(u l) dx^{l'_m}...dx^{l'_1} over the m! orders l of
    the complement of u (m = D - k) and divides by m!.  Every order gives
    the same term: swapping the neighbours a, b of l multiplies eps_q(u l)
    by -q_{ab} and the primed, reversed dx word by -q_{b'a'} = -q_{ba}, and
    q_{ab} q_{ba} = 1.  So the inversions cancel, the sum is m! times the
    ascending order's term, and the m! goes.  The same cancellation is why
    contracting two epsilons over m slots gives m! W.  For ascending l the
    primed, reversed word is ascending too, so it needs no reordering.
    """
    rest = tuple(a for a in range(1, ctx.dim + 1) if a not in u)
    return (tuple(ctx.primed(a) for a in reversed(rest)),
            epsilon_q(ctx, u + rest))
