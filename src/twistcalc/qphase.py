"""Deformation phases q_{ab} and the exact scalar ring built on them.

A twisted Euclidean plane in dimension D carries unit-modulus phases q_{ab}
subject to q_{aa} = q_{aa'} = 1, q_{ab} = q_{a'b'} = q_{ba}^-1 = q_{ab'}^-1,
where a' = D+1-a.  The independent phases are q_{ab} with a < b <= D//2; every
other q_{ab} reduces to an integer power of an independent one (or to 1).

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
denominator is 1); Fractions appear only at the boundary (``scalar``,
``rational_value`` and the printers).
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from math import gcd

__all__ = [
    "DeformationContext",
    "PhaseMonomial",
    "ExactScalar",
]

_F0 = Fraction(0)
_RT2 = 2.0 ** 0.5

# coefficients in Q(i, sqrt2): see the module docstring for the 5-tuple form
_C_ONE = (1, 0, 0, 0, 1)
_C_MINUS_ONE = (-1, 0, 0, 0, 1)


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


class DeformationContext:
    """Dimension D, the primed-index involution and the independent phases.

    Two contexts with the same dimension (and commutativity flag) are
    interchangeable.  With ``commutative=True`` every phase reduces to 1 and
    the engine computes in the classical limit.
    """

    __slots__ = ("dim", "params", "param_index", "commutative", "_pair_table")

    def __init__(self, dim: int, commutative: bool = False):
        if dim < 1:
            raise ValueError(f"dimension must be positive, got {dim}")
        self.dim = dim
        self.commutative = bool(commutative)
        half = dim // 2
        if self.commutative:
            self.params: list[tuple[int, int]] = []
        else:
            self.params = [(a, b) for a in range(1, half + 1)
                           for b in range(a + 1, half + 1)]
        self.param_index = {p: i for i, p in enumerate(self.params)}
        self._pair_table: dict[tuple[int, int], tuple[int, int] | None] = {}
        for a in range(1, dim + 1):
            for b in range(1, dim + 1):
                self._pair_table[(a, b)] = self._reduce_pair_orbit(a, b)

    # -- basic structure ---------------------------------------------------

    def primed(self, a: int) -> int:
        return self.dim + 1 - a

    def check_index(self, a: int) -> None:
        if not 1 <= a <= self.dim:
            raise IndexError(f"index {a} out of range 1..{self.dim}")

    def metric(self, a: int, b: int) -> int:
        """g_{ab} = g^{ab} = 1 iff b is the primed partner of a."""
        return 1 if b == self.dim + 1 - a else 0

    @property
    def nparams(self) -> int:
        return len(self.params)

    def __eq__(self, other):
        return (isinstance(other, DeformationContext)
                and other.dim == self.dim
                and other.commutative == self.commutative)

    def __hash__(self):
        return hash((self.dim, self.commutative))

    def __repr__(self):
        tag = ", commutative" if self.commutative else ""
        return f"DeformationContext({self.dim}{tag})"

    # -- phase reduction ---------------------------------------------------

    def _reduce_pair_orbit(self, a: int, b: int) -> tuple[int, int] | None:
        """Reduce q_{ab} to ``(param, sign)`` or ``None`` (phase 1).

        Closes the orbit of (a, b) under the rewrite moves
        (x,y) -> (x',y') [exponent kept], (x,y) -> (y,x) [negated],
        (x,y) -> (x,y') [negated].  A pair reaching (x,x) or (x,x'), or the
        same pair with both signs (forcing q^2 = 1), collapses to phase 1.
        """
        if self.commutative:
            return None
        seen: dict[tuple[int, int], int] = {(a, b): 1}
        stack = [((a, b), 1)]
        hit: tuple[int, int] | None = None
        while stack:
            (x, y), s = stack.pop()
            if x == y or y == self.dim + 1 - x:
                return None
            p = (x, y)
            if p in self.param_index:
                if hit is None:
                    hit = (self.param_index[p], s)
                elif hit != (self.param_index[p], s):
                    return None
            xp, yp = self.dim + 1 - x, self.dim + 1 - y
            for np_, ns in (((xp, yp), s), ((y, x), -s), ((x, yp), -s)):
                prev = seen.get(np_)
                if prev is None:
                    seen[np_] = ns
                    stack.append((np_, ns))
                elif prev != ns:
                    return None  # q^2 = 1 forced
        if hit is None:
            raise AssertionError(f"pair ({a},{b}) did not reduce in D={self.dim}")
        return hit

    def pair_reduction(self, a: int, b: int) -> tuple[int, int] | None:
        """``(param_index, sign)`` such that q_{ab} = q_param^sign, or None."""
        self.check_index(a)
        self.check_index(b)
        return self._pair_table[(a, b)]

    def reduce_pair(self, a: int, b: int) -> "PhaseMonomial":
        """Canonical phase monomial representing q_{ab}."""
        red = self.pair_reduction(a, b)
        exps = [0] * self.nparams
        if red is not None:
            exps[red[0]] = red[1]
        return PhaseMonomial(tuple(exps))

    # -- scalar factories ----------------------------------------------------

    def zero_exps(self) -> tuple[int, ...]:
        return (0,) * self.nparams

    def scalar_zero(self) -> "ExactScalar":
        res = ExactScalar.__new__(ExactScalar)
        res.terms = {}
        return res

    def scalar(self, value) -> "ExactScalar":
        """Rational (int or Fraction) as an exact scalar."""
        if type(value) is int:
            num, den = value, 1
        else:
            v = Fraction(value)
            num, den = v.numerator, v.denominator
        if not num:
            return ExactScalar({})
        return ExactScalar({self.zero_exps(): (num, 0, 0, 0, den)})

    def scalar_one(self) -> "ExactScalar":
        return self.scalar(1)

    def i_unit(self) -> "ExactScalar":
        return ExactScalar({self.zero_exps(): (0, 1, 0, 0, 1)})

    def i_power(self, k: int) -> "ExactScalar":
        one_i = (1, 0), (0, 1), (-1, 0), (0, -1)
        re, im = one_i[k % 4]
        return ExactScalar({self.zero_exps(): (re, im, 0, 0, 1)})

    def sqrt2(self) -> "ExactScalar":
        return ExactScalar({self.zero_exps(): (0, 0, 1, 0, 1)})

    def q_power(self, a: int, b: int, k: int = 1) -> "ExactScalar":
        """The scalar q_{ab}^k, reduced to canonical form."""
        red = self.pair_reduction(a, b)
        exps = [0] * self.nparams
        if red is not None:
            exps[red[0]] = red[1] * k
        return ExactScalar({tuple(exps): _C_ONE})

    def phase_scalar(self, mono: "PhaseMonomial") -> "ExactScalar":
        return ExactScalar({mono.exponents: _C_ONE})


class PhaseMonomial:
    """Integer exponent vector over the independent deformation phases."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[int, ...]):
        self.exponents = tuple(exponents)

    def __mul__(self, other: "PhaseMonomial") -> "PhaseMonomial":
        return PhaseMonomial(tuple(x + y for x, y in
                                   zip(self.exponents, other.exponents)))

    def conj(self) -> "PhaseMonomial":
        return PhaseMonomial(tuple(-x for x in self.exponents))

    inverse = conj  # |q| = 1: the inverse phase is the conjugate

    def is_trivial(self) -> bool:
        return not any(self.exponents)

    def __eq__(self, other):
        return (isinstance(other, PhaseMonomial)
                and other.exponents == self.exponents)

    def __hash__(self):
        return hash(self.exponents)

    def __repr__(self):
        return f"PhaseMonomial{self.exponents!r}"


class ExactScalar:
    """Exact element of Q(i, sqrt2)[q^±1]: {phase exponents -> coefficient}.

    Immutable once built; all arithmetic returns new scalars and never stores
    zero coefficients.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {k: v for k, v in terms.items()
                      if v[0] or v[1] or v[2] or v[3]}

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "ExactScalar") -> "ExactScalar":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for k, v in other.terms.items():
            u = out.get(k)
            if u is None:
                out[k] = v
            else:
                w = _c_add(u, v)
                if w[0] or w[1] or w[2] or w[3]:
                    out[k] = w
                else:
                    del out[k]
        res = ExactScalar.__new__(ExactScalar)
        res.terms = out
        return res

    def __neg__(self) -> "ExactScalar":
        res = ExactScalar.__new__(ExactScalar)
        res.terms = {k: _c_neg(v) for k, v in self.terms.items()}
        return res

    def __sub__(self, other: "ExactScalar") -> "ExactScalar":
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not ExactScalar:
            if isinstance(other, (int, Fraction)):
                return self.scale(other)
            if not isinstance(other, ExactScalar):
                return NotImplemented
        out: dict = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                k = tuple(x + y for x, y in zip(k1, k2))
                v = _c_mul(v1, v2)
                u = out.get(k)
                if u is not None:
                    v = _c_add(u, v)
                if v[0] or v[1] or v[2] or v[3]:
                    out[k] = v
                elif u is not None:
                    del out[k]
        res = ExactScalar.__new__(ExactScalar)
        res.terms = out
        return res

    __rmul__ = __mul__

    def scale(self, r) -> "ExactScalar":
        if r == 1:
            return self
        if r == -1:
            return -self
        if type(r) is int:
            p, q = r, 1
        else:
            r = Fraction(r)
            p, q = r.numerator, r.denominator
        if not p:
            return ExactScalar({})
        res = ExactScalar.__new__(ExactScalar)
        res.terms = {k: _c_reduce(v[0] * p, v[1] * p, v[2] * p, v[3] * p,
                                  v[4] * q)
                     for k, v in self.terms.items()}
        return res

    def shifted(self, shift: tuple[int, ...], sign: int = 1) -> "ExactScalar":
        """Multiply by ±(phase monomial with the given exponents)."""
        res = ExactScalar.__new__(ExactScalar)
        if sign == 1:
            res.terms = {tuple(x + y for x, y in zip(k, shift)): v
                         for k, v in self.terms.items()}
        else:
            res.terms = {tuple(x + y for x, y in zip(k, shift)): _c_neg(v)
                         for k, v in self.terms.items()}
        return res

    def conj(self) -> "ExactScalar":
        """Antilinear involution: i -> -i, sqrt2 -> sqrt2, q -> q^-1."""
        res = ExactScalar.__new__(ExactScalar)
        res.terms = {tuple(-x for x in k): _c_conj(v)
                     for k, v in self.terms.items()}
        return res

    def invert_phases(self) -> "ExactScalar":
        """Substitute q -> q^-1 in every term, coefficients untouched."""
        res = ExactScalar.__new__(ExactScalar)
        res.terms = {tuple(-x for x in k): v for k, v in self.terms.items()}
        return res

    def inverse(self) -> "ExactScalar":
        """Exact inverse of a single-term scalar (a unit of the ring)."""
        if len(self.terms) != 1:
            raise ZeroDivisionError("only single-term scalars are units")
        (k, v), = self.terms.items()
        return ExactScalar({tuple(-x for x in k): _c_inv(v)})

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
        return not any(k) and not (v[1] or v[2] or v[3])

    def rational_value(self) -> Fraction:
        if not self.terms:
            return _F0
        if not self.is_rational():
            raise ValueError(f"scalar {self} is not rational")
        (_, v), = self.terms.items()
        return Fraction(v[0], v[4])

    def __eq__(self, other):
        if not isinstance(other, ExactScalar):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- evaluation ------------------------------------------------------------

    def eval(self, angles=()) -> complex:
        """Numeric value with the phase for parameter j set to e^{i angles[j]}."""
        total = 0j
        for k, v in self.terms.items():
            ph = sum(e * t for e, t in zip(k, angles))
            total += _c_eval(v) * cmath.exp(1j * ph)
        return total

    def eval_at_roots(self, roots) -> complex:
        """Numeric value with the phase for parameter j set to roots[j]."""
        total = 0j
        for k, v in self.terms.items():
            z = 1 + 0j
            for e, r in zip(k, roots):
                z *= r ** e
            total += _c_eval(v) * z
        return total

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        parts = []
        for k in sorted(self.terms):
            phases = _phase_factors(k)
            for piece in _coeff_pieces(self.terms[k]):
                fac = piece + phases
                if len(fac) > 1 and fac[0] == "1":
                    fac = fac[1:]
                parts.append("*".join(fac))
        if not parts:
            return "0"
        return " + ".join(parts)

    __repr__ = __str__


_UNIT_NAMES = (None, "i", "sqrt2", "i*sqrt2")


def _coeff_pieces(v):
    """Expand a Q(i,sqrt2) coefficient into printable factor lists."""
    pieces = []
    for idx, name in enumerate(_UNIT_NAMES):
        if not v[idx]:
            continue
        r = Fraction(v[idx], v[4])
        if name is None:
            fac = [str(r)]
        elif r == 1:
            fac = [name]
        else:
            fac = [str(r), name]
        pieces.append(fac)
    return pieces


def _phase_factors(k):
    out = []
    for j, e in enumerate(k):
        if e:
            out.append(f"@{j}^{e}")
    return out


def format_scalar(s: ExactScalar, ctx: DeformationContext) -> str:
    """Grammar-compatible text form, with @j placeholders resolved to q(a,b)."""
    text = str(s)
    for j in reversed(range(ctx.nparams)):
        a, b = ctx.params[j]
        text = text.replace(f"@{j}^", f"q({a},{b})^")
    return text
