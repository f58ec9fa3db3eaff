"""Independent numeric model: classical sphere data x torus representations.

Phases become roots of unity, coordinates become classical values times
clock/shift unitaries, differentials become classical covectors times the
same unitaries.  Every symbolic identity of the engine is Laurent-polynomial
in the phases, so vanishing at enough distinct roots and sample points is an
independent (probabilistic, but sharply bounded) certificate.

Every clock/shift word is a generalized permutation matrix, U e_j =
phase[j] e_{perm[j]}, and is stored as a ``Word`` of two arrays of length
side = prod(moduli).  Its perm is a translation of prod Z_m, so two words
with different perm[0] never share a matrix entry: the largest entry of
sum_t z_t U_t is the largest |sum_t z_t phase_t| over the classes of equal
perm[0].  ``TorusRep.form_sup`` evaluates a form over all sample points of a
model at once: each term's coefficient and word are found once, its
classical value is one vector over the points, and the entries are summed
in numpy passes over blocks of at most 2^14 / side points (at least one).
Over P points that costs O(terms * P * side) time, in numpy calls per block
and dx set rather than per point and term, and O(side) memory per word plus
O(max(2^14, side)) per dx set of a block.  A model of more than MAX_SIZE
entries per word is refused before anything is allocated, and dense side x
side matrices are built only on request (``eval_element``,
``monomial_matrix``, ``TorusRep.dense``), for sides up to MAX_DENSE_SIDE.

Sphere-class identities are checked by pulling the evaluated form back to the
tangent space of the quadric c = 1 at each sample point, which kills exactly
the ideal J: one batched product per block with the minors of the tangent
bases, each a stacked determinant over all the points (``Tangents``).
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
    "check_element", "check_sphere_class", "check_scalar",
    "BatchChecker", "DEFAULT_TOL", "MAX_SIZE", "MAX_DENSE_SIDE",
]

DEFAULT_TOL = 1e-9

_PRIMES = (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)

# Largest side a model may have: one word then takes 2^21 * 24 bytes (48 MB).
MAX_SIZE = 1 << 21
# Largest side of a dense view: one matrix then takes 2048^2 * 16 B (64 MB).
MAX_DENSE_SIDE = 2048
# Most entries per dx set of one block of form values (points x side, 256 KB):
# a model of side above it takes one point at a time.
_BLOCK_ENTRIES = 1 << 14


def _moduli_text(moduli) -> str:
    return ", ".join(str(m) for m in moduli)


def _check_count(name: str, n: int) -> None:
    """Raise ValueError unless n >= 1: no samples cannot show anything zero."""
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")


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


def _slot_word(m: int, zeta: complex, role: str) -> tuple:
    """(perm, phase) of one m x m clock/shift slot."""
    j = np.arange(m)
    if role == "clock":
        return j, np.array([zeta ** i for i in range(m)])
    if role == "clock*":
        return j, np.array([zeta ** i for i in range(m)]).conj()
    ones = np.ones(m, dtype=complex)
    if role == "shift":
        return (j + 1) % m, ones
    if role == "shift*":
        return (j - 1) % m, ones
    return j, ones


class TorusRep:
    """Finite-dimensional unitaries U^a with U^a U^b = q_{ab}(roots) U^b U^a.

    One clock/shift slot per independent parameter (r, s): generator r acts
    as the clock, s as the shift, their primed partners as the inverses, and
    every other generator as the identity in that slot.  ``unitaries[a]`` is
    U^a as a ``Word`` on the Kronecker product of the slots (first slot
    outermost); ``_mono_cache`` holds the word of each monomial evaluated.
    """

    def __init__(self, ctx: DeformationContext, moduli=None, root_exps=None,
                 rng: random.Random | None = None):
        self.ctx = ctx
        nparams = ctx.nparams
        if moduli is None:
            moduli = _PRIMES[:nparams]
        for m in moduli:
            if m < 3:
                # a root of unity of order 1 or 2 has q = 1/q
                raise ValueError(f"modulus {m} cannot tell q from 1/q:"
                                 f" every modulus must be at least 3")
        moduli = list(moduli)[:nparams]
        if len(moduli) < nparams:
            raise ValueError(f"need {nparams} moduli, got {len(moduli)}")
        self.size = math.prod(moduli)
        if self.size > MAX_SIZE:
            raise ValueError(
                f"torus model of side {self.size} (moduli"
                f" {_moduli_text(moduli)}) is over the cap of side {MAX_SIZE}")
        if rng is None:
            rng = random.Random(0)
        if root_exps is None:
            root_exps = [rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])
                         for m in moduli]
        self.moduli = moduli
        self.root_exps = list(root_exps)
        self.roots = [cmath.exp(2j * cmath.pi * k / m)
                      for k, m in zip(self.root_exps, moduli)]
        self._identity = Word(np.arange(self.size),
                              np.ones(self.size, dtype=complex))
        self._build_generators()
        self._mono_cache: dict = {}

    def _build_generators(self):
        ctx = self.ctx
        self.unitaries: dict[int, Word] = {}
        for a in range(1, ctx.dim + 1):
            perm = np.zeros(1, dtype=np.intp)
            phase = np.ones(1, dtype=complex)
            for p_idx, (r, s) in enumerate(ctx.params):
                m = self.moduli[p_idx]
                role = {r: "clock", s: "shift", ctx.primed(r): "clock*",
                        ctx.primed(s): "shift*"}.get(a, "identity")
                p_perm, p_phase = _slot_word(m, self.roots[p_idx], role)
                perm = (perm[:, None] * m + p_perm).ravel()
                phase = (phase[:, None] * p_phase).ravel()
            self.unitaries[a] = Word(perm, phase)

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
                f"dense torus matrix of side {self.size} (moduli"
                f" {_moduli_text(self.moduli)}) needs"
                f" {16 * self.size ** 2 / 2 ** 20:.0f} MB; dense views stop"
                f" at side {MAX_DENSE_SIDE}")

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
    rng = random.Random(seed)
    first = TorusRep(ctx, moduli=moduli, rng=rng)
    if moduli is None and ctx.nparams:
        second_moduli = _PRIMES[ctx.nparams:2 * ctx.nparams]
        second = TorusRep(ctx, moduli=second_moduli, rng=rng)
    else:
        second = TorusRep(ctx, moduli=moduli, rng=rng)
    return [first, second]


def check_element(el: Element, seed: int = 42, points: int = 20,
                  tol: float = DEFAULT_TOL, moduli=None) -> bool:
    """Numeric vanishing of an ambient element (plane identity)."""
    return element_sup(el, seed=seed, points=points, moduli=moduli) < tol


def element_sup(el: Element, seed: int = 42, points: int = 20,
                moduli=None) -> float:
    _check_count("points", points)
    ctx = el.ctx
    rng = random.Random(seed ^ 0x5EED)
    worst = 0.0
    for model in _models(ctx, seed, moduli):
        pts = [plane_sample(ctx, rng) for _ in range(points)]
        worst = max(worst, model.form_sup(el, pts))
    return worst


def check_sphere_class(el: Element, seed: int = 42, points: int = 20,
                       tol: float = DEFAULT_TOL, moduli=None) -> bool:
    """Numeric vanishing of the sphere class of an ambient representative."""
    return sphere_class_sup(el, seed=seed, points=points, moduli=moduli) < tol


def sphere_class_sup(el: Element, seed: int = 42, points: int = 20,
                     moduli=None) -> float:
    _check_count("points", points)
    ctx = el.ctx
    rng = random.Random(seed ^ 0xC1A55)
    worst = 0.0
    for model in _models(ctx, seed, moduli):
        pts = [sphere_sample(ctx, rng) for _ in range(points)]
        worst = max(worst, model.form_sup(el, pts, Tangents(ctx, pts)))
    return worst


def _root_draw(rng: random.Random, nparams: int, j: int) -> tuple:
    """Draw j of the phases: parameter i becomes a random primitive root of
    unity of order _PRIMES[(i + j) % len(_PRIMES)]."""
    roots = []
    for i in range(nparams):
        m = _PRIMES[(i + j) % len(_PRIMES)]
        k = rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])
        roots.append(cmath.exp(2j * cmath.pi * k / m))
    return tuple(roots)


def check_scalar(s: ExactScalar, ctx: DeformationContext, seed: int = 42,
                 draws: int = 20, tol: float = DEFAULT_TOL) -> bool:
    """Numeric vanishing of an exact scalar at random root-of-unity phases."""
    _check_count("draws", draws)
    rng = random.Random(seed ^ 0x5CA1A)
    if not ctx.nparams:
        return abs(s.eval_at_roots(())) < tol
    return all(abs(s.eval_at_roots(_root_draw(rng, ctx.nparams, j))) < tol
               for j in range(draws))


class BatchChecker:
    """Shared-sample evaluator for large concordance sweeps.

    Holds two torus models over distinct prime moduli, a fixed batch of plane
    and sphere sample points, and cached tangent minors, so that checking
    thousands of identities reuses all the heavy data.
    """

    def __init__(self, ctx: DeformationContext, seed: int = 42,
                 points: int = 20, moduli=None):
        _check_count("points", points)
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
