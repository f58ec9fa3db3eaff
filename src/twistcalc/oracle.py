"""Independent numeric model: classical sphere data x torus representations.

Phases become roots of unity, coordinates become classical values times
unitaries, differentials become classical covectors times the same
unitaries.  Every symbolic identity of the engine is Laurent-polynomial in
the phases, so vanishing at enough distinct roots and sample points is an
independent (probabilistic, but sharply bounded) certificate.

The unitaries are Weyl words (generalised clock and shift matrices; J.
Schwinger, "Unitary operator bases", PNAS 46, 1960).  A model of modulus m
works on (Z_m)^s with s = ceil(h/2), h = D//2, so its side is m^s: 13 and
17 at D = 4, 5 and 169 and 289 at D = 6..9 for the default models (side 1
below D = 4, where no phase is left).  Each coordinate a <= h gets a vector
v_a of Z_m^(2s), U^a is the Weyl word W(v_a), U^(a') is its adjoint and the
middle coordinate of odd D acts as the identity, so U^a U^(a') = 1 and c
evaluates to sum_a z_a z_(a').  Weyl words satisfy
W(v) W(w) = zeta^omega(v, w) W(w) W(v) with zeta = e^(2 pi i/m) and omega
the standard symplectic form, so parameter (a, b) takes the root
zeta^omega(v_a, v_b).  The vectors are drawn at random, and redrawn while
any 2 omega(v_a, v_b) = 0 (mod m), so that no q equals 1/q.

What a pass certifies: an identity that holds evaluates to zero in every
model.  One that fails is a nonzero Laurent polynomial in the phases and the
coordinates, and a model sees it at one root of unity of order m per
parameter, all drawn independently, and at the sample points.  It can read
zero there only if that point is a root of the polynomial, or if the words
of distinct monomials coincide (powers of U^a repeat with period m), which
exponents of size m or more can cause.  Two models over distinct primes
(13 and 17 by default) and 20 points make such a false zero unlikely for the
small exponents of the tested identities; no pass certifies an identity at
generic q.

Every Weyl word is a generalized permutation matrix, U e_j = phase[j]
e_{perm[j]}, and is stored as a ``Word`` of two arrays of length side.  Its
perm is a translation of (Z_m)^s, so two words with different perm[0] never
share a matrix entry: the largest entry of sum_t z_t U_t is the largest
|sum_t z_t phase_t| over the classes of equal perm[0].  ``TorusRep.form_sup``
evaluates a form over all sample points of a model at once: each term's
coefficient and word are found once, its classical value is one vector over
the points, and the entries are summed in numpy passes over blocks of at
most 2^14 / side points (at least one).  Over P points that costs
O(terms * P * side) time, in numpy calls per block and dx set rather than
per point and term, and O(side) memory per word plus O(max(2^14, side)) per
dx set of a block.  A model whose 2h + 1 generator words would hold more
than MAX_SIZE entries together is refused before anything is allocated, and
dense side x side matrices are built only on request (``eval_element``,
``monomial_matrix``, ``TorusRep.dense``), for sides up to MAX_DENSE_SIDE.

Sphere-class identities are checked by pulling the evaluated form back to the
tangent space of the quadric c = 1 at each sample point, which kills exactly
the ideal J: one batched product per block with the minors of the tangent
bases, each a stacked determinant over all the points (``Tangents``).

``BatchChecker`` is the one sampling path, with one sup per mode: scalars
(``scalar_sup``), plane elements (``element_sup``) and sphere classes
(``sphere_sup``).  A seed fixes the two models, drawn from
random.Random(seed), and one sample stream, random.Random(seed ^ 0xBA7C4),
which draws the plane points, then the sphere points, then the phase draws
of the scalar checks.  ``check_element`` and ``check_sphere_class`` build
one checker per call.
"""

from __future__ import annotations

import cmath
import math
import random
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .ncalg import Element
from .qphase import DeformationContext, ExactScalar

__all__ = [
    "TorusRep", "Tangents", "Word", "sphere_sample", "plane_sample",
    "check_element", "check_sphere_class", "BatchChecker", "DEFAULT_TOL",
    "MAX_SIZE", "MAX_DENSE_SIDE",
]

DEFAULT_TOL = 1e-9

# The default moduli of the two models are the first two; the phase draws of
# BatchChecker.scalar_sup run over all of them.
_PRIMES = (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)

# Most entries a model's generator words may hold together, side * (2h + 1)
# for the identity, each U^a and its adjoint: 2^21 * 24 bytes (48 MB).
MAX_SIZE = 1 << 21
# Largest side of a dense view: one matrix then takes 2048^2 * 16 B (64 MB).
MAX_DENSE_SIDE = 2048
# Most entries per dx set of one block of form values (points x side, 256 KB):
# a model of side above it takes one point at a time.
_BLOCK_ENTRIES = 1 << 14
# The Weyl vector draw tries at most this many candidates per coordinate, and
# starts afresh at most _DRAW_STARTS times before giving up on a modulus.
_DRAW_TRIES = 256
_DRAW_STARTS = 20


def _model_moduli(moduli) -> tuple[int, int]:
    """Moduli of the two models: moduli[0], then moduli[1], or moduli[0]
    again when only one is given.  Every modulus given must be at least 3."""
    if moduli is None:
        return _PRIMES[0], _PRIMES[1]
    moduli = tuple(moduli)
    if not moduli:
        raise ValueError("need at least one modulus, got none")
    for m in moduli:
        if m < 3:
            # a root of unity of order 1 or 2 has q = 1/q
            raise ValueError(f"modulus {m} cannot tell q from 1/q:"
                             f" every modulus must be at least 3")
    return moduli[0], moduli[1] if len(moduli) > 1 else moduli[0]


class Word(NamedTuple):
    """Generalized permutation matrix U with U e_j = phase[j] e_{perm[j]}."""

    perm: np.ndarray
    phase: np.ndarray

    def __matmul__(self, other: Word) -> Word:
        perm = other.perm
        return Word(self.perm[perm], other.phase * self.phase[perm])

    def adjoint(self) -> Word:
        perm = np.empty_like(self.perm)
        perm[self.perm] = np.arange(len(self.perm))
        phase = np.empty_like(self.phase)
        phase[self.perm] = self.phase.conj()
        return Word(perm, phase)

    def matches(self, other: Word, scale: complex = 1.0) -> bool:
        """Whether this word equals scale * other, up to rounding."""
        return (np.array_equal(self.perm, other.perm)
                and np.allclose(self.phase, scale * other.phase, atol=1e-12))


def _omega(v, w, s: int) -> int:
    """omega(v, w) = p.r' - r.p' of v = (p, r) and w = (p', r') in Z^(2s)."""
    return sum(v[k] * w[s + k] - v[s + k] * w[k] for k in range(s))


def _weyl_vectors(h: int, s: int, m: int, rng: random.Random) -> list:
    """h vectors of Z_m^(2s) with 2 omega(v_a, v_b) != 0 (mod m) for a != b.

    Coordinate by coordinate, the first of _DRAW_TRIES random candidates that
    pairs validly with the vectors drawn so far is kept; a coordinate with no
    valid candidate starts the draw afresh, at most _DRAW_STARTS times."""
    for _ in range(_DRAW_STARTS):
        vecs = []
        for _ in range(h):
            for _ in range(_DRAW_TRIES):
                v = [rng.randrange(m) for _ in range(2 * s)]
                if all(2 * _omega(w, v, s) % m for w in vecs):
                    vecs.append(v)
                    break
            else:
                break
        else:
            return vecs
    raise ValueError(
        f"modulus {m} is too small for {h} coordinates: no Weyl vectors with"
        f" q != 1/q in {_DRAW_STARTS} draws; use a larger modulus")


def _oversized(side: int, m: int, s: int, words: int) -> ValueError:
    return ValueError(
        f"torus model of side {side} (modulus {m}, {s} slots) needs {words}"
        f" words of that side, {words * side} entries, over the cap of"
        f" {MAX_SIZE} entries ({MAX_SIZE * 24 >> 20} MB)")


class TorusRep:
    """Finite-dimensional unitaries U^a with U^a U^b = q_{ab}(roots) U^b U^a.

    A model of one modulus m (``moduli[0]``, 13 by default) on (Z_m)^s with
    s = ceil(h/2), h = D//2, or s = 0 when there is no parameter: side m^s.
    ``vectors[a-1]`` is the exponent vector v_a = (p, r) of Z_m^(2s) of
    coordinate a <= h, and U^a = W(v_a) is the Kronecker product over the s
    slots (first slot outermost) of clock^(p_k) shift^(r_k).  Primed
    partners act as the adjoints and the middle coordinate of odd D as the
    identity.  Parameter (a, b) takes the root zeta^omega(v_a, v_b), zeta =
    e^(2 pi i/m).  ``root_exps`` gives the vectors; by default they are
    drawn from rng, and redrawn while 2 omega(v_a, v_b) = 0 (mod m) for any
    parameter, so that no q equals 1/q.  ``unitaries[a]`` is U^a as a
    ``Word``; ``_mono_cache`` holds the word of each monomial evaluated.
    """

    def __init__(self, ctx: DeformationContext, moduli=None, root_exps=None,
                 rng: random.Random | None = None):
        self.ctx = ctx
        m = self.modulus = _model_moduli(moduli)[0]
        h = ctx.dim // 2
        s = (h + 1) // 2 if ctx.nparams else 0
        self.size = m ** s
        # the words stored: the identity, each U^a and its adjoint.  A side
        # over the cap is refused before the Weyl vector draw, whose cost
        # grows with h; the words together after it, so that a modulus too
        # small for h is named as such
        words = 2 * h + 1
        if self.size > MAX_SIZE:
            raise _oversized(self.size, m, s, words)
        if root_exps is None:
            root_exps = _weyl_vectors(h, s, m, rng or random.Random(0))
        if len(root_exps) != h or any(len(v) != 2 * s for v in root_exps):
            raise ValueError(f"need {h} Weyl vectors of {2 * s} entries")
        if self.size * words > MAX_SIZE:
            raise _oversized(self.size, m, s, words)
        vecs = self.vectors = [tuple(x % m for x in v) for v in root_exps]
        exps = [_omega(vecs[a - 1], vecs[b - 1], s) % m
                for a, b in ctx.params]
        if any(2 * k % m == 0 for k in exps):
            raise ValueError(f"Weyl vectors give q = 1/q modulo {m}")
        zeta_powers = np.exp(2j * np.pi * np.arange(m) / m)
        self.roots = [complex(zeta_powers[k]) for k in exps]
        self._identity = Word(np.arange(self.size),
                              np.ones(self.size, dtype=complex))
        self._build_generators(s, zeta_powers)
        self._mono_cache: dict = {}

    def _build_generators(self, s: int, zeta_powers: np.ndarray):
        ctx, m = self.ctx, self.modulus
        # the slot digits of every basis index, first slot outermost
        digits = np.indices((m,) * s).reshape(s, self.size)
        place = m ** np.arange(s - 1, -1, -1)
        self.unitaries: dict[int, Word] = {
            a: self._identity for a in range(1, ctx.dim + 1)}
        for a, v in enumerate(self.vectors, start=1):
            p, r = np.array(v, dtype=np.intp).reshape(2, s)
            # clock^p shift^r e_j = zeta^(p.(j+r)) e_(j+r), slot by slot
            moved = (digits + r[:, None]) % m
            word = Word(place @ moved, zeta_powers[(p @ moved) % m])
            self.unitaries[a] = word
            self.unitaries[ctx.primed(a)] = word.adjoint()

    def eval_scalar(self, s: ExactScalar) -> complex:
        return s.eval_at_roots(self.roots)

    def word(self, key) -> Word:
        """U-word of a canonical monomial: x powers then dx indices."""
        got = self._mono_cache.get(key)
        if got is None:
            exps, dxs = key
            got = self._identity
            for a, e in enumerate(exps, start=1):
                for _ in range(e):
                    got = got @ self.unitaries[a]
            for a in dxs:
                got = got @ self.unitaries[a]
            self._mono_cache[key] = got
        return got

    def check_dense(self) -> None:
        """Refuse a dense side x side view that would not fit in memory."""
        if self.size > MAX_DENSE_SIDE:
            raise ValueError(
                f"dense torus matrix of side {self.size} (modulus"
                f" {self.modulus}) needs {16 * self.size ** 2 / 2 ** 20:.0f}"
                f" MB; dense views stop at side {MAX_DENSE_SIDE}")

    def dense(self, word: Word) -> np.ndarray:
        """The side x side matrix of a word."""
        self.check_dense()
        mat = np.zeros((self.size, self.size), dtype=complex)
        mat[word.perm, np.arange(self.size)] = word.phase
        return mat

    def monomial_matrix(self, key) -> np.ndarray:
        """Dense U-word of a canonical monomial."""
        return self.dense(self.word(key))

    def term_values(self, el: Element, point: np.ndarray):
        """(key, coefficient times classical monomial value) per term."""
        if el.ctx != self.ctx:
            raise ValueError("element and model contexts differ")
        for key, coeff in el.terms.items():
            z = self.eval_scalar(coeff)
            for a, e in enumerate(key[0]):
                if e:
                    z *= point[a] ** e
            yield key, z

    def eval_element(self, el: Element, point: np.ndarray) -> dict:
        """Dense form data {dx index set -> side x side matrix} at a point."""
        self.check_dense()
        out: dict[tuple, np.ndarray] = {}
        cols = np.arange(self.size)
        for key, z in self.term_values(el, point):
            mat = out.get(key[1])
            if mat is None:
                mat = out[key[1]] = np.zeros((self.size, self.size),
                                             dtype=complex)
            w = self.word(key)
            mat[w.perm, cols] += z * w.phase
        return out

    def form_sup(self, el: Element, points, tangents: Tangents | None = None
                 ) -> float:
        """Largest |matrix entry| of the form el over a stack of points.

        Without ``tangents`` each dx component counts on its own (a plane
        identity).  With the ``Tangents`` of the same points, the form is
        pulled back to the tangent space of the sphere: the components of
        each degree below D are summed against the minors of the tangent
        basis, one sum per subset of tangent vectors.

        Each term's coefficient and word are looked up once, and its
        classical monomial value is one vector over the points.  The points
        are then taken in blocks of at most _BLOCK_ENTRIES // side (at least
        one), and each class of equal perm[0] and dx set (plane) or degree
        (sphere) is one (block, dx sets, side) array, pulled back by one
        batched product with the minors.
        """
        if el.ctx != self.ctx:
            raise ValueError("element and model contexts differ")
        points = np.asarray(points)
        classes: dict = {}
        exps, coeffs = [], []
        for key, coeff in el.terms.items():
            dxs = key[1]
            if tangents is not None and len(dxs) == self.ctx.dim:
                continue  # a top form vanishes on the D-1 tangent vectors
            w = self.word(key)
            group = (dxs if tangents is None else len(dxs), int(w.perm[0]))
            comps = classes.setdefault(group, {})
            comps.setdefault(dxs, []).append((len(exps), w.phase))
            exps.append(key[0])
            coeffs.append(self.eval_scalar(coeff))
        if not exps:
            return 0.0
        # (point, term) -> coefficient times classical monomial value
        vals = np.empty((len(points), len(exps)), dtype=complex)
        vals[:] = coeffs
        exps = np.array(exps)
        for a in range(self.ctx.dim):
            if exps[:, a].any():
                vals *= points[:, a, None] ** exps[:, a]
        # per class: its dx sets in order, and per set the term columns and
        # the (terms, side) stack of their phases
        plan = []
        for comps in classes.values():
            sets = sorted(comps)
            plan.append((sets, [(np.array([t for t, _ in comps[s]]),
                                 np.array([ph for _, ph in comps[s]]))
                                for s in sets]))
        step = max(1, _BLOCK_ENTRIES // self.size)
        worst = 0.0
        for start in range(0, len(points), step):
            block = vals[start:start + step]
            for sets, parts in plan:
                data = np.stack([block[:, cols] @ phases
                                 for cols, phases in parts], axis=1)
                if tangents is not None:
                    minors = np.stack([tangents.minors(s)[start:start + step]
                                       for s in sets], axis=2)
                    data = minors @ data
                worst = max(worst, float(np.abs(data).max()))
        return worst


class Tangents:
    """Tangent bases of the quadric c = 1 at a stack of sphere points.

    ``basis[p]`` holds the D - 1 tangent vectors at point p as rows.
    ``minors(dxs)`` is the (points, subsets) array of the minors of each
    basis on the columns dxs, one per subset of len(dxs) tangent vectors:
    one stacked determinant per dx set, cached.
    """

    def __init__(self, ctx: DeformationContext, points):
        self.basis = np.array([_tangent_basis(ctx, p) for p in points])
        self._minors: dict = {}

    def minors(self, dxs: tuple) -> np.ndarray:
        got = self._minors.get(dxs)
        if got is None:
            combos = list(combinations(range(self.basis.shape[1]), len(dxs)))
            rows = np.array(combos, dtype=np.intp).reshape(len(combos),
                                                           len(dxs))
            cols = np.array(dxs, dtype=np.intp) - 1
            got = np.linalg.det(self.basis[:, rows][..., cols])
            self._minors[dxs] = got
        return got


def _point_from_real(ctx: DeformationContext, y: np.ndarray) -> np.ndarray:
    """Quadric coordinates from real ones: companion pairs become conjugate
    complex pairs so that sum_a v_a v_{a'} = |y|^2."""
    dim = ctx.dim
    v = np.zeros(dim, dtype=complex)
    half = dim // 2
    rt2 = math.sqrt(2.0)
    for j in range(half):
        a = j + 1
        v[a - 1] = (y[2 * j] + 1j * y[2 * j + 1]) / rt2
        v[ctx.primed(a) - 1] = v[a - 1].conjugate()
    if dim % 2:
        v[half] = y[dim - 1]
    return v


def sphere_sample(ctx: DeformationContext, rng: random.Random) -> np.ndarray:
    y = np.array([rng.gauss(0.0, 1.0) for _ in range(ctx.dim)])
    y /= math.sqrt(float(np.dot(y, y)))
    return _point_from_real(ctx, y)


def plane_sample(ctx: DeformationContext, rng: random.Random) -> np.ndarray:
    y = np.array([rng.gauss(0.0, 1.0) for _ in range(ctx.dim)])
    return _point_from_real(ctx, y)


def _tangent_basis(ctx: DeformationContext, point: np.ndarray) -> np.ndarray:
    """Basis of the kernel of dc at the point (rows are tangent vectors)."""
    u = np.array([2.0 * point[ctx.primed(b) - 1]
                  for b in range(1, ctx.dim + 1)], dtype=complex)
    _, _, vh = np.linalg.svd(u.reshape(1, -1))
    return vh[1:].conj()


def _models(ctx, seed: int, moduli=None):
    """The two models of a seed, over the moduli of ``_model_moduli``."""
    rng = random.Random(seed)
    return [TorusRep(ctx, moduli=(m,), rng=rng) for m in _model_moduli(moduli)]


def check_element(el: Element, seed: int = 42, points: int = 20,
                  tol: float = DEFAULT_TOL, moduli=None) -> bool:
    """Numeric vanishing of an ambient element (plane identity)."""
    return BatchChecker(el.ctx, seed, points, moduli).element_sup(el) < tol


def check_sphere_class(el: Element, seed: int = 42, points: int = 20,
                       tol: float = DEFAULT_TOL, moduli=None) -> bool:
    """Numeric vanishing of the sphere class of an ambient representative."""
    return BatchChecker(el.ctx, seed, points, moduli).sphere_sup(el) < tol


def _root_draw(rng: random.Random, nparams: int, j: int) -> tuple:
    """Draw j of the phases: parameter i becomes a random primitive root of
    unity of order _PRIMES[(i + j) % len(_PRIMES)]."""
    roots = []
    for i in range(nparams):
        m = _PRIMES[(i + j) % len(_PRIMES)]
        k = rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])
        roots.append(cmath.exp(2j * cmath.pi * k / m))
    return tuple(roots)


class BatchChecker:
    """The oracle's sampling path: shared samples for any number of checks.

    Holds two torus models over distinct prime moduli, a fixed batch of plane
    and sphere sample points with the cached minors of their tangent bases,
    and ``points`` phase draws for scalars, so that checking thousands of
    identities reuses all the heavy data.  Each sup is the largest absolute
    value over every model and sample of its mode.
    """

    def __init__(self, ctx: DeformationContext, seed: int = 42,
                 points: int = 20, moduli=None):
        if points < 1:
            # no samples cannot show anything zero
            raise ValueError(f"points must be at least 1, got {points}")
        self.ctx = ctx
        self.points = points
        self.models = _models(ctx, seed, moduli)
        rng = random.Random(seed ^ 0xBA7C4)
        self.plane_points = np.array([plane_sample(ctx, rng)
                                      for _ in range(points)])
        self.sphere_points = np.array([sphere_sample(ctx, rng)
                                       for _ in range(points)])
        self.tangents = Tangents(ctx, self.sphere_points)
        self.root_draws = [_root_draw(rng, ctx.nparams, j)
                           for j in range(points)]

    def scalar_sup(self, s: ExactScalar) -> float:
        if not s.terms:
            return 0.0
        return max(abs(s.eval_at_roots(r)) for r in self.root_draws)

    def element_sup(self, el: Element) -> float:
        return max(model.form_sup(el, self.plane_points)
                   for model in self.models)

    def sphere_sup(self, el: Element) -> float:
        return max(model.form_sup(el, self.sphere_points, self.tangents)
                   for model in self.models)
