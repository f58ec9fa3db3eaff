"""Noncommutative normal ordering for the twisted Euclidean plane.

Generators x^1..x^D and differentials dx^1..dx^D obey

    x^a x^b   =  q_{ab} x^b x^a
    dx^a x^b  =  q_{ab} x^b dx^a
    dx^a dx^b = -q_{ab} dx^b dx^a          (so dx^a dx^a = 0)

The canonical word has all x factors first in ascending index order, then the
dx factors as a strictly ascending set.  A monomial is the pair (x exponents,
dx index set).  An element is one flat dict

    {(monomial, phase exponents): Q(i, sqrt2) coefficient 5-tuple}

(``qphase`` gives the 5-tuple form), with no zero coefficient stored: a term
is a rational combination of 1, i, sqrt2 and i sqrt2 times one phase
monomial times one canonical monomial.  ``ExactScalar`` stays the scalar
type, but no element holds one: the constructor takes {monomial:
ExactScalar}, and ``Element.coefficients`` gives that per-monomial view back
to code off the hot path.

``_mono_mul`` is the only function that computes exchange phases.  The
exterior derivative, the star, the twisted derivatives and the plane
pairing each read theirs from one ``_mono_mul`` call, and the q-epsilon
tensor and W from one per factor, instead of counting them over the table.

Every product of elements runs one kernel.  ``_mul_into`` walks the term
pairs once: per pair one ``_mono_mul`` call, whose results sit in an LRU
cache of ``MONO_CACHE_SIZE`` entries (a fixed bound, whatever the input
size: the engine's products repeat a few thousand monomial pairs many times
over), one coefficient product and one update of a flat accumulator of the
same shape as an element.  ``_finish`` drops what cancelled.  A sum of
products (pairings, Hodge stars, matrix entries) feeds all of its products
into one accumulator, so no intermediate element is built or copied.  Sums,
negation and rational scaling of flat terms are ``qphase``'s, shared with
``ExactScalar``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add, sub

from .qphase import (DeformationContext, ExactScalar, _add_into, _c_add,
                     _c_conj, _c_mul, _c_neg, _c_scale, _neg_terms,
                     _scale_terms)

__all__ = ["Element", "Monomial", "normal_order"]

# A monomial key is (xexp, dxs): a tuple of D non-negative ints and a strictly
# ascending tuple of indices in 1..D.
Monomial = tuple[tuple[int, ...], tuple[int, ...]]

# Bound of the normal-ordering cache.  In one cold pass of the benchmark's
# exact workload (seed 1) 2048 entries answer 67.3% of its 21,478 monomial
# products; 16,384 entries answer 71.7%, and when the bound was chosen they
# were no faster and cost 5 MB of peak memory.
MONO_CACHE_SIZE = 2048


@lru_cache(maxsize=MONO_CACHE_SIZE)
def _mono_mul(ctx: DeformationContext, m1: Monomial, m2: Monomial):
    """Normal-order the concatenation of two canonical monomials (cached;
    callers share the result tuples).

    Returns ``(exps, sign, key)`` where the product equals
    sign * (phase with the given exponents) * key, or ``None`` when a
    differential index repeats.
    """
    (e1, s1), (e2, s2) = m1, m2
    table = ctx._pair_table
    acc = [0] * ctx.nparams
    # dx block of m1 moves right past the x block of m2: dx^a x^b -> q_{ab}
    for a in s1:
        for b, f in enumerate(e2, start=1):
            if f:
                red = table[(a, b)]
                if red is not None:
                    acc[red[0]] += red[1] * f
    # merge x exponents: each x^b of m2 passes the x^a of m1 with a > b
    for b, f in enumerate(e2, start=1):
        if f:
            for a in range(b + 1, ctx.dim + 1):
                ea = e1[a - 1]
                if ea:
                    red = table[(a, b)]
                    if red is not None:
                        acc[red[0]] += red[1] * ea * f
    # merge dx sets: count inversions between s1 and s2, phase -q_{ab} each
    sign = 1
    if s1 and s2:
        for a in s1:
            for b in s2:
                if a == b:
                    return None
                if a > b:
                    sign = -sign
                    red = table[(a, b)]
                    if red is not None:
                        acc[red[0]] += red[1]
        dxs = tuple(sorted(s1 + s2))
    else:
        dxs = s1 or s2
    exps = tuple(map(add, e1, e2))
    return tuple(acc), sign, (exps, dxs)


def _mul_into(acc: dict, ctx: DeformationContext, terms1: dict,
              terms2: dict) -> None:
    """Add the product (sum terms1) * (sum terms2) into ``acc``.

    All three are flat term dicts (see the module docstring); the products
    are summed raw and may cancel to zero, which ``_finish`` drops.  Callers
    have checked that both sides live over ``ctx``.
    """
    zero = ctx._zero_exps
    right = terms2.items()
    for (m1, k1), v1 in terms1.items():
        n1 = _c_neg(v1)
        for (m2, k2), v2 in right:
            r = _mono_mul(ctx, m1, m2)
            if r is None:
                continue
            shift, sign, mono = r
            k = k1 if k2 == zero else k2 if k1 == zero else tuple(
                map(add, k1, k2))
            if shift != zero:
                k = tuple(map(add, k, shift))
            key = (mono, k)
            v = _c_mul(v1 if sign > 0 else n1, v2)
            u = acc.get(key)
            acc[key] = v if u is None else _c_add(u, v)


def _finish(ctx: DeformationContext, acc: dict) -> "Element":
    """The element summed up in ``acc``, with every zero coefficient dropped."""
    res = Element.__new__(Element)
    res.ctx = ctx
    res.terms = {k: v for k, v in acc.items() if v[0] or v[1] or v[2] or v[3]}
    return res


class Element:
    """Sparse sum of canonical monomials with exact scalar coefficients,
    stored flat as {(monomial, phase exponents): coefficient 5-tuple}."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: DeformationContext, terms: dict | None = None):
        """The element sum_m terms[m] m of {monomial: ExactScalar}."""
        self.ctx = ctx
        self.terms = {(mono, k): v for mono, s in (terms or {}).items()
                      for k, v in s.terms.items()}

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, ctx) -> "Element":
        return cls(ctx)

    @classmethod
    def one(cls, ctx) -> "Element":
        return cls.monomial(ctx, ((0,) * ctx.dim, ()))

    @classmethod
    def from_scalar(cls, ctx, s) -> "Element":
        if isinstance(s, (int, Fraction)):
            s = ctx.scalar(s)
        return cls(ctx, {((0,) * ctx.dim, ()): s})

    @classmethod
    def x(cls, ctx, a: int, power: int = 1) -> "Element":
        ctx.check_index(a)
        if power < 0:
            raise ValueError("negative coordinate power")
        exps = [0] * ctx.dim
        exps[a - 1] = power
        return cls.monomial(ctx, (tuple(exps), ()))

    @classmethod
    def dx(cls, ctx, a: int) -> "Element":
        ctx.check_index(a)
        return cls.monomial(ctx, ((0,) * ctx.dim, (a,)))

    @classmethod
    def monomial(cls, ctx, key: Monomial, coeff=None) -> "Element":
        return cls(ctx, {key: coeff if coeff is not None else ctx.scalar_one()})

    def coefficients(self) -> dict:
        """The per-monomial view {monomial: ExactScalar}, each scalar's
        phases in stored order; ``Element(ctx, view)`` is this element."""
        out: dict = {}
        for (mono, k), v in self.terms.items():
            slot = out.get(mono)
            if slot is None:
                slot = out[mono] = {}
            slot[k] = v
        return {mono: ExactScalar(slot) for mono, slot in out.items()}

    # -- ring structure --------------------------------------------------------

    def _check_ctx(self, other: "Element"):
        if other.ctx is not self.ctx:
            raise ValueError("elements live over different contexts")

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check_ctx(other)
        res = Element.__new__(Element)
        res.ctx, res.terms = self.ctx, dict(self.terms)
        _add_into(res.terms, other.terms)
        return res

    def __neg__(self) -> "Element":
        res = Element.__new__(Element)
        res.ctx, res.terms = self.ctx, _neg_terms(self.terms)
        return res

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        if type(other) is Element:
            self._check_ctx(other)
            acc: dict = {}
            _mul_into(acc, self.ctx, self.terms, other.terms)
            return _finish(self.ctx, acc)
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, ExactScalar)):
            return self.scale(other)  # scalars are central
        return NotImplemented

    def scale(self, s) -> "Element":
        if isinstance(s, (int, Fraction)):
            res = Element.__new__(Element)
            res.ctx, res.terms = self.ctx, _scale_terms(self.terms, s)
            return res
        zero = self.ctx._zero_exps
        acc: dict = {}
        for (mono, k1), v1 in self.terms.items():
            for k2, v2 in s.terms.items():
                key = (mono, k1 if k2 == zero else tuple(map(add, k1, k2)))
                v = _c_mul(v1, v2)
                u = acc.get(key)
                acc[key] = v if u is None else _c_add(u, v)
        return _finish(self.ctx, acc)

    # -- calculus -----------------------------------------------------------

    def d(self) -> "Element":
        """Exterior derivative, graded Leibniz with d(x^a) = dx^a."""
        ctx = self.ctx
        zero = (0,) * ctx.dim
        acc: dict = {}
        for ((exps, dxs), k), v in self.terms.items():
            for b, eb in enumerate(exps, start=1):
                if not eb or b in dxs:
                    continue
                # dx^b exits the x block past x^{>b}, then merges into dx^S
                shift, sign, (_, new_dxs) = _mono_mul(
                    ctx, (zero, (b,)), (zero[:b] + exps[b:], dxs))
                key = ((exps[:b - 1] + (eb - 1,) + exps[b:], new_dxs),
                       tuple(map(add, k, shift)))
                w = _c_scale(v, eb * sign)
                u = acc.get(key)
                acc[key] = w if u is None else _c_add(u, w)
        return _finish(ctx, acc)

    def star(self) -> "Element":
        """Conjugation: antilinear, x^a -> x^a', dx^a -> dx^a', and on
        products star(uv) = (-1)^{|u||v|} star(v) star(u)."""
        ctx = self.ctx
        zero = (0,) * ctx.dim
        out: dict = {}
        for ((exps, dxs), k), v in self.terms.items():
            n = len(dxs)
            # normal-order dx^{S'} x^{e'}; priming maps distinct monomials
            # to distinct keys, so each term is written once
            pdxs = tuple(ctx.primed(s) for s in reversed(dxs))
            shift, _, mono = _mono_mul(ctx, (zero, pdxs), (exps[::-1], ()))
            v = _c_conj(v)
            out[(mono, tuple(map(sub, shift, k)))] = (
                _c_neg(v) if (n * (n - 1) // 2) % 2 else v)
        res = Element.__new__(Element)
        res.ctx, res.terms = ctx, out
        return res

    # -- structure queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Element):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def form_degree(self) -> int:
        """Common form degree; raises on mixed-degree input."""
        degs = self.form_degrees()
        if not degs:
            return 0
        if len(degs) > 1:
            raise ValueError(f"element has mixed form degrees {sorted(degs)}")
        return degs.pop()

    def form_degrees(self) -> set[int]:
        return {len(mono[1]) for mono, _ in self.terms}

    def x_degree(self) -> int:
        return max((sum(mono[0]) for mono, _ in self.terms), default=0)

    def homogeneous_part(self, form_deg: int) -> "Element":
        return _finish(self.ctx, {key: v for key, v in self.terms.items()
                                  if len(key[0][1]) == form_deg})

    # -- printing -----------------------------------------------------------

    def __str__(self):
        from .exprio import format_element
        return format_element(self)

    def __repr__(self):
        return f"<Element D={self.ctx.dim}: {self}>"


def normal_order(ctx: DeformationContext, word) -> Element:
    """Canonical element for a word of generator symbols.

    Each symbol is ``("x", a)`` or ``("dx", a)``; the word is multiplied out
    left to right, accumulating the exchange phases.
    """
    result = Element.one(ctx)
    for kind, a in word:
        if kind == "x":
            result = result * Element.x(ctx, a)
        elif kind == "dx":
            result = result * Element.dx(ctx, a)
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
    return result
