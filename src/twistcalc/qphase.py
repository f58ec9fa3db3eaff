"""Deformation phases q_{ab} and the exact scalar ring built on them.

A twisted Euclidean plane in dimension D carries unit-modulus phases q_{ab}
subject to q_{aa} = q_{aa'} = 1, q_{ab} = q_{a'b'} = q_{ba}^-1 = q_{ab'}^-1,
where a' = D+1-a.  The independent phases are q_{ab} with a < b <= D//2; every
other q_{ab} reduces to an integer power of an independent one (or to 1).

The cocycle lemma.  The theta-product is a 2-cocycle twist of the classical
one on torus weights (Rieffel; Connes-Landi; Connes-Dubois-Violette).  Give
each index a weight in Z^h, h = D//2: w(a) = +e_a for a <= h, w(a') = -e_a
for its partner, and 0 for the middle index of odd D; x^a and dx^a carry
w(a).  Let B(u, v) have exponent u_i v_j at q_{ij} for i < j <= h.  Then

    q_{ab} = q^(B(w(a), w(b)) - B(w(b), w(a))),

whose exponent u_i v_j - u_j v_i at q_{ij} (u = w(a), v = w(b)) is nonzero
for at most one i < j: this is how the pair table is built.  Exchanging
neighbours s, t of a word multiplies it by q_{st} and changes
A(word) = sum of B(w_i, w_j) over its letter pairs i < j by the same
exponent, so a word is q^(A(word) - A(canonical word)) times its canonical
word, with the classical Grassmann sign.  A is additive up to
B(W(m1), W(m2)) under concatenation, W(m) the weight sum of m's letters,
so with Q(m) = A(canonical word of m) the normal-ordered product is

    m1 m2 = +-q^(B(W(m1), W(m2)) + Q(m1) + Q(m2) - Q(m1 m2)) (m1 m2).

In the rescaled basis m~ = q^(-Q(m)) m this reads m1~ m2~ =
+-q^B(W(m1), W(m2)) (m1 m2)~, the classical product wherever a factor has
weight zero.  So a monomial of weight zero graded-commutes with every
other, and c, dc and the metric (weight zero and Q = 0 on each of their
terms) act as in the classical algebra up to that diagonal rescaling.
``_mono_mul`` in ``ncalg`` computes these phases; the tests check them
against the lemma.

Scalars are finite sums of terms

    (p + q*i + r*sqrt2 + s*i*sqrt2) * q_{a1 b1}^{k1} * q_{a2 b2}^{k2} * ...

with p, q, r, s rational.  This is the full coefficient ring of the engine:
i enters through volume normalisations, sqrt2 through the Clifford matrices,
and nothing else irrational ever appears.

Each Q(i, sqrt2) coefficient is stored as a 5-tuple of ints (a, b, c, d, n)
meaning (a + b*i + c*sqrt2 + d*i*sqrt2)/n, always in canonical form: n > 0
and gcd(a, b, c, d, n) = 1, so zero is (0, 0, 0, 0, 1).  Equal coefficients
are therefore equal tuples, which keeps ``==`` and ``hash`` of scalars exact.
Arithmetic runs on ints and takes a single gcd at the end (none when the
denominator is 1); a Fraction appears only where a rational enters
(``scalar`` and ``scale``).  The text form of a scalar is the expression
grammar (``exprio.format_scalar``); ``repr`` shows the context and the
stored terms.

A scalar lives over one context, as an element does, and its phase keys
only mean exponents over that context's parameters: arithmetic across
contexts raises ``ValueError``, and scalars of two contexts are not equal.
Each context has one zero, whose terms are a read-only view, so a caller
that tried to fill it in place would raise instead of corrupting it.

A term's phase key is this module's form: only its key functions build,
combine or unpack one.  The exponent vector over ``ctx.params`` is the
boundary form, taken by ``shifted`` and ``reduce_pair`` and read by printing
and evaluation.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd
from operator import add, sub
from types import MappingProxyType

__all__ = [
    "DeformationContext",
    "ExactScalar",
]

_RT2 = 2.0 ** 0.5

# Largest dimension a context is built for: its pair table has D^2 entries,
# so an unbounded D would exhaust memory.  129 is the ambient dimension of
# the largest instanton charge, n = 64 (``chern.MAX_HALF_DIM``).
MAX_DIM = 129

# coefficients in Q(i, sqrt2): see the module docstring for the 5-tuple form
_C_ONE = (1, 0, 0, 0, 1)
_C_MINUS_ONE = (-1, 0, 0, 0, 1)
_C_TWO = (2, 0, 0, 0, 1)


def _c_reduce(a, b, c, d, n):
    """Canonical tuple of (a + b i + c sqrt2 + d i sqrt2)/n, given n > 0."""
    if n == 1:
        return (a, b, c, d, 1)
    g = gcd(a, b, c, d, n)
    if g == 1:
        return (a, b, c, d, n)
    return (a // g, b // g, c // g, d // g, n // g)


def _c_add(u, v):
    n, m = u[4], v[4]
    if n == m:
        return _c_reduce(u[0] + v[0], u[1] + v[1], u[2] + v[2],
                         u[3] + v[3], n)
    return _c_reduce(u[0] * m + v[0] * n, u[1] * m + v[1] * n,
                     u[2] * m + v[2] * n, u[3] * m + v[3] * n, n * m)


def _c_neg(u):
    return (-u[0], -u[1], -u[2], -u[3], u[4])


def _c_scale(u, p, q=1):
    """u times the rational p/q, given q > 0."""
    return _c_reduce(u[0] * p, u[1] * p, u[2] * p, u[3] * p, u[4] * q)


def _c_mul(u, v):
    a, b, c, d, n = u
    e, f, g, h, m = v
    n *= m
    # most coefficients are rational: scale the other factor componentwise
    if not (f or g or h):
        if not (b or c or d):
            a *= e
            if n == 1:
                return (a, 0, 0, 0, 1)
            k = gcd(a, n)
            return (a // k, 0, 0, 0, n // k)
        a, b, c, d = a * e, b * e, c * e, d * e
    elif not (b or c or d):
        a, b, c, d = a * e, a * f, a * g, a * h
    else:
        a, b, c, d = (a * e - b * f + 2 * (c * g - d * h),
                      a * f + b * e + 2 * (c * h + d * g),
                      a * g + c * e - b * h - d * f,
                      a * h + d * e + b * g + c * f)
    return _c_reduce(a, b, c, d, n)


def _c_conj(u):
    return (u[0], -u[1], u[2], -u[3], u[4])


def _c_inv(u):
    # multiply the numerator by its three Galois conjugates; the norm is an
    # integer, and the inverse is n * (that product) / norm
    a, b, c, d, n = u
    w = _c_mul(_c_mul((a, -b, c, -d, 1), (a, b, -c, -d, 1)),
               (a, -b, -c, d, 1))
    norm = _c_mul((a, b, c, d, 1), w)
    if norm[1] or norm[2] or norm[3] or not norm[0]:
        raise ZeroDivisionError("coefficient is not invertible")
    s = n if norm[0] > 0 else -n
    return _c_reduce(w[0] * s, w[1] * s, w[2] * s, w[3] * s, abs(norm[0]))


def _c_eval(u) -> complex:
    a, b, c, d, n = u
    return complex(a / n + _RT2 * (c / n), b / n + _RT2 * (d / n))


# -- phase keys: only these functions know a key's form, today the tuple of
# exponents.  Products and quotients test factors with ``==`` against ``one``,
# a context's ``one_key`` of exponents zero.

def _phase_key(exps) -> tuple:
    return tuple(exps)


def _phase_exps(k, n: int) -> tuple:
    """The exponent vector, over n parameters, of the key k."""
    return k


def _key_mul(one, k1, k2, k3=None):
    k = k1 if k2 == one else k2 if k1 == one else tuple(map(add, k1, k2))
    return k if k3 is None or k3 == one else tuple(map(add, k, k3))


def _key_div(one, k1, k2):
    return k1 if k2 == one else tuple(map(sub, k1, k2))


def _key_inv(k):
    return tuple(-x for x in k)


# -- flat term dicts, a scalar's {phase key: coefficient} or an element's
# {(monomial, phase key): coefficient}: the one sum, negation, scaling

def _add_into(acc: dict, terms: dict) -> None:
    """Add flat terms into ``acc`` in place, deleting each key that cancels."""
    for key, v in terms.items():
        u = acc.get(key)
        if u is None:
            acc[key] = v
            continue
        w = _c_add(u, v)
        if w[0] or w[1] or w[2] or w[3]:
            acc[key] = w
        else:
            del acc[key]


def _neg_terms(terms: dict) -> dict:
    return {k: _c_neg(v) for k, v in terms.items()}


def _scale_terms(terms: dict, r) -> dict:
    """Flat terms times the rational r (int or Fraction); empty for r = 0."""
    if type(r) is int:
        p, q = r, 1
    else:
        r = Fraction(r)
        p, q = r.numerator, r.denominator
    if not p:
        return {}
    return {k: _c_scale(v, p, q) for k, v in terms.items()}


def _term_at_roots(k, u, roots) -> complex:
    """Value of the term u * q^k with the phase for parameter j at roots[j]."""
    z = 1 + 0j
    for e, r in zip(_phase_exps(k, len(roots)), roots):
        z *= r ** e
    return _c_eval(u) * z


class DeformationContext:
    """Dimension D, the primed-index involution and the independent phases.

    There is one context per (dimension, commutativity flag):
    ``DeformationContext(D)`` returns the same object on every call, so
    contexts compare, and key caches, by identity, and the pair table is
    reduced once.  With ``commutative=True`` every phase reduces to 1 and
    the engine computes in the classical limit.
    """

    __slots__ = ("dim", "params", "param_index", "nparams", "commutative",
                 "one_key", "_zero", "_pair_table", "_indices")

    # {(dim, commutative): the context}
    _instances: dict = {}

    def __new__(cls, dim: int, commutative: bool = False):
        key = (dim, bool(commutative))
        self = cls._instances.get(key)
        if self is not None:
            return self
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        if dim > MAX_DIM:
            raise ValueError(f"dimension D = {dim} exceeds the limit "
                             f"{MAX_DIM} of a deformation context")
        self = super().__new__(cls)
        self.dim, self.commutative = key
        self._indices = frozenset(range(1, dim + 1))
        half = dim // 2
        if self.commutative:
            self.params: list[tuple[int, int]] = []
        else:
            self.params = [(a, b) for a in range(1, half + 1)
                           for b in range(a + 1, half + 1)]
        self.param_index = {p: i for i, p in enumerate(self.params)}
        self.nparams = len(self.params)
        self.one_key = _phase_key((0,) * self.nparams)
        self._zero = _scalar(self, MappingProxyType({}))
        self._pair_table: dict[tuple[int, int], tuple[int, int] | None] = {
            (a, b): self._pair_phase(a, b)
            for a in range(1, dim + 1) for b in range(1, dim + 1)}
        cls._instances[key] = self
        return self

    # -- basic structure ---------------------------------------------------

    def primed(self, a: int) -> int:
        return self.dim + 1 - a

    def check_index(self, a: int) -> None:
        if not 1 <= a <= self.dim:
            raise IndexError(f"index {a} out of range 1..{self.dim}")

    def metric(self, a: int, b: int) -> int:
        """g_{ab} = g^{ab} = 1 iff b is the primed partner of a."""
        return 1 if b == self.dim + 1 - a else 0

    def __reduce__(self):
        # a copy or an unpickled context is the one context of its key
        return DeformationContext, (self.dim, self.commutative)

    def __repr__(self):
        tag = ", commutative=True" if self.commutative else ""
        return f"DeformationContext({self.dim}{tag})"

    # -- phase reduction ---------------------------------------------------

    def _weight(self, a: int) -> tuple[int, int] | None:
        """Torus weight of index a as (axis, sign): +e_a for a <= D//2,
        -e_{a'} for a' = D+1-a, or None (zero) for the middle index."""
        if 2 * a <= self.dim:
            return a, 1
        if 2 * a > self.dim + 1:
            return self.dim + 1 - a, -1
        return None

    def _pair_phase(self, a: int, b: int) -> tuple[int, int] | None:
        """q_{ab} as ``(param, sign)``, or ``None`` (phase 1), by the
        cocycle formula of the module docstring."""
        u, v = self._weight(a), self._weight(b)
        if self.commutative or u is None or v is None or u[0] == v[0]:
            return None
        if u[0] < v[0]:
            return self.param_index[(u[0], v[0])], u[1] * v[1]
        return self.param_index[(v[0], u[0])], -u[1] * v[1]

    def pair_reduction(self, a: int, b: int) -> tuple[int, int] | None:
        """``(param_index, sign)`` such that q_{ab} = q_param^sign, or None."""
        self.check_index(a)
        self.check_index(b)
        return self._pair_table[(a, b)]

    def reduce_pair(self, a: int, b: int) -> tuple[int, ...]:
        """Exponent vector of q_{ab} over the independent phases."""
        red = self.pair_reduction(a, b)
        exps = [0] * self.nparams
        if red is not None:
            exps[red[0]] = red[1]
        return tuple(exps)

    # -- scalar factories ----------------------------------------------------

    def scalar_zero(self) -> "ExactScalar":
        return self._zero

    def scalar(self, value) -> "ExactScalar":
        """Rational (int or Fraction) as an exact scalar."""
        if type(value) is int:
            num, den = value, 1
        else:
            v = Fraction(value)
            num, den = v.numerator, v.denominator
        if not num:
            return self._zero
        return _scalar(self, {self.one_key: (num, 0, 0, 0, den)})

    def scalar_one(self) -> "ExactScalar":
        return self.scalar(1)

    def i_unit(self) -> "ExactScalar":
        return _scalar(self, {self.one_key: (0, 1, 0, 0, 1)})

    def i_power(self, k: int) -> "ExactScalar":
        one_i = (1, 0), (0, 1), (-1, 0), (0, -1)
        re, im = one_i[k % 4]
        return _scalar(self, {self.one_key: (re, im, 0, 0, 1)})

    def sqrt2(self) -> "ExactScalar":
        return _scalar(self, {self.one_key: (0, 0, 1, 0, 1)})

    def q_power(self, a: int, b: int, k: int = 1) -> "ExactScalar":
        """The scalar q_{ab}^k, reduced to canonical form."""
        return _scalar(self, {_phase_key(k * e for e in self.reduce_pair(a, b)):
                              _C_ONE})


class ExactScalar:
    """Exact element of Q(i, sqrt2)[q^±1] over a context:
    {phase key -> coefficient}.

    Immutable once built; all arithmetic returns new scalars and never stores
    zero coefficients.
    """

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: DeformationContext, terms: dict):
        self.ctx = ctx
        self.terms = {k: v for k, v in terms.items()
                      if v[0] or v[1] or v[2] or v[3]}

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if other.ctx is not self.ctx:
            raise ValueError("scalars live over different contexts")
        if not self.terms:
            return other
        if not other.terms:
            return self
        terms = dict(self.terms)
        _add_into(terms, other.terms)
        return _scalar(self.ctx, terms)

    def __neg__(self) -> "ExactScalar":
        return _scalar(self.ctx, _neg_terms(self.terms))

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + -other

    def __mul__(self, other):
        if type(other) is not ExactScalar:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            if not isinstance(other, ExactScalar):
                return NotImplemented
        ctx = self.ctx
        if other.ctx is not ctx:
            raise ValueError("scalars live over different contexts")
        if not self.terms:
            return self
        if not other.terms:
            return other
        one = ctx.one_key
        if len(self.terms) == 1 == len(other.terms):
            # one term each: no accumulator, and no zero test, since a
            # product of nonzero coefficients in the field Q(i, sqrt2) is
            # nonzero
            (k1, v1), = self.terms.items()
            (k2, v2), = other.terms.items()
            return _scalar(ctx, {_key_mul(one, k1, k2): _c_mul(v1, v2)})
        out: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = _key_mul(one, k1, k2)
                v = _c_mul(v1, v2)
                u = out.get(k)
                if u is not None:
                    v = _c_add(u, v)
                if v[0] or v[1] or v[2] or v[3]:
                    out[k] = v
                elif u is not None:
                    del out[k]
        return _scalar(ctx, out)

    __rmul__ = __mul__

    def scale(self, r) -> "ExactScalar":
        if r == 1:
            return self
        terms = _scale_terms(self.terms, r)
        return _scalar(self.ctx, terms) if terms else self.ctx._zero

    def shifted(self, shift: tuple[int, ...], sign: int = 1) -> "ExactScalar":
        """Multiply by ±(phase monomial with the given exponents)."""
        one, shift = self.ctx.one_key, _phase_key(shift)
        return _scalar(self.ctx, {
            _key_mul(one, k, shift): v if sign == 1 else _c_neg(v)
            for k, v in self.terms.items()})

    def conj(self) -> "ExactScalar":
        """Antilinear involution: i -> -i, sqrt2 -> sqrt2, q -> q^-1."""
        return _scalar(self.ctx, {_key_inv(k): _c_conj(v)
                                  for k, v in self.terms.items()})

    def invert_phases(self) -> "ExactScalar":
        """Substitute q -> q^-1 in every term, coefficients untouched."""
        return _scalar(self.ctx, {_key_inv(k): v
                                  for k, v in self.terms.items()})

    def inverse(self) -> "ExactScalar":
        """Exact inverse of a single-term scalar (a unit of the ring)."""
        if len(self.terms) != 1:
            raise ZeroDivisionError("only single-term scalars are units")
        (k, v), = self.terms.items()
        return _scalar(self.ctx, {_key_inv(k): _c_inv(v)})

    # -- predicates and accessors ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def is_rational(self) -> bool:
        if not self.terms:
            return True
        if len(self.terms) != 1:
            return False
        (k, v), = self.terms.items()
        return k == self.ctx.one_key and not (v[1] or v[2] or v[3])

    def __eq__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.ctx is other.ctx and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- evaluation ------------------------------------------------------------

    def eval(self, angles=()) -> complex:
        """Numeric value with the phase for parameter j set to e^{i angles[j]}."""
        return self.eval_at_roots([cmath.exp(1j * t) for t in angles])

    def eval_at_roots(self, roots) -> complex:
        """Numeric value with the phase for parameter j set to roots[j]."""
        if len(roots) != self.ctx.nparams:
            raise ValueError(f"{self.ctx!r} has {self.ctx.nparams} phase "
                             f"parameters, got {len(roots)} values")
        total = 0j
        for k, v in self.terms.items():
            total += _term_at_roots(k, v, roots)
        return total

    def __repr__(self):
        # eval(repr(s)) == s with ExactScalar and DeformationContext in scope
        return f"ExactScalar({self.ctx!r}, {dict(self.terms)!r})"


def _scalar(ctx: DeformationContext, terms) -> ExactScalar:
    """The engine's one scalar constructor: ctx and flat terms, none zero."""
    s = ExactScalar.__new__(ExactScalar)
    s.ctx, s.terms = ctx, terms
    return s
