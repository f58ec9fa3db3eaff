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
perm[0].  Evaluating an element thus costs O(terms * side) time and O(side)
memory per word.  A model of more than MAX_SIZE entries per word is refused
before anything is allocated, and dense side x side matrices are built only
on request (``eval_element``, ``monomial_matrix``, ``TorusRep.dense``), for
sides up to MAX_DENSE_SIDE.

Sphere-class identities are checked by pulling the evaluated form back to the
tangent space of the quadric c = 1 at each sample point, which kills exactly
the ideal J.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .ncalg import Element
from .qphase import DeformationContext, ExactScalar

__all__ = [
    "TorusRep", "Word", "sphere_sample", "plane_sample",
    "check_identity", "check_element", "check_sphere_class", "check_scalar",
    "BatchChecker", "DEFAULT_TOL", "MAX_SIZE", "MAX_DENSE_SIDE",
]

DEFAULT_TOL = 1e-9

_PRIMES = (13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)

# Largest side a model may have: one word then takes 2^21 * 24 bytes (48 MB).
MAX_SIZE = 1 << 21
# Largest side of a dense view: one matrix then takes 2048^2 * 16 B (64 MB).
MAX_DENSE_SIDE = 2048


def _moduli_text(moduli) -> str:
    return ", ".join(str(m) for m in moduli)


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

    def form_sup(self, el: Element, point: np.ndarray, minors=None) -> float:
        """Largest |matrix entry| of the form el evaluated at a point.

        Without ``minors`` each dx component counts on its own (a plane
        identity).  With it, the form is pulled back to the tangent space
        of the sphere: ``minors(dxs)`` gives the minors of the tangent basis
        on the columns dxs, one per subset of len(dxs) tangent vectors, and
        the components of each degree below D are summed against them.
        """
        classes: dict = {}
        for key, z in self.term_values(el, point):
            dxs = key[1]
            if minors is not None and len(dxs) == self.ctx.dim:
                continue  # a top form vanishes on the D-1 tangent vectors
            w = self.word(key)
            group = (dxs if minors is None else len(dxs), int(w.perm[0]))
            comps = classes.setdefault(group, {})
            if dxs in comps:
                comps[dxs] += z * w.phase
            else:
                comps[dxs] = z * w.phase
        worst = 0.0
        for comps in classes.values():
            if minors is None:
                (vals,) = comps.values()
            else:
                sets = sorted(comps)
                vals = (np.array([minors(dxs) for dxs in sets]).T
                        @ np.array([comps[dxs] for dxs in sets]))
            worst = max(worst, float(np.abs(vals).max()))
        return worst


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


def _tangent_minors(tangent: np.ndarray):
    """dxs -> minors of the tangent basis on the columns dxs, one per subset
    of len(dxs) tangent vectors: the ``minors`` of ``TorusRep.form_sup``."""
    nt = tangent.shape[0]

    @functools.cache
    def minors(dxs):
        combos = list(combinations(range(nt), len(dxs)))
        rows = np.array(combos, dtype=np.intp).reshape(len(combos), len(dxs))
        cols = np.array(dxs, dtype=np.intp) - 1
        return np.linalg.det(tangent[rows][:, :, cols])
    return minors


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
    ctx = el.ctx
    rng = random.Random(seed ^ 0x5EED)
    worst = 0.0
    for model in _models(ctx, seed, moduli):
        for _ in range(points):
            worst = max(worst, model.form_sup(el, plane_sample(ctx, rng)))
    return worst


def check_sphere_class(el: Element, seed: int = 42, points: int = 20,
                       tol: float = DEFAULT_TOL, moduli=None) -> bool:
    """Numeric vanishing of the sphere class of an ambient representative."""
    return sphere_class_sup(el, seed=seed, points=points, moduli=moduli) < tol


def sphere_class_sup(el: Element, seed: int = 42, points: int = 20,
                     moduli=None) -> float:
    ctx = el.ctx
    rng = random.Random(seed ^ 0xC1A55)
    worst = 0.0
    for model in _models(ctx, seed, moduli):
        for _ in range(points):
            pt = sphere_sample(ctx, rng)
            minors = _tangent_minors(_tangent_basis(ctx, pt))
            worst = max(worst, model.form_sup(el, pt, minors))
    return worst


def check_identity(obj, seed: int = 42, points: int = 20,
                   tol: float = DEFAULT_TOL, moduli=None) -> bool:
    """Numeric vanishing of an element or of a sphere-form difference.

    Plain elements are checked as plane identities; sphere forms (or their
    differences) are checked as quotient classes via the tangent pullback.
    """
    from .sphere import SphereForm
    if isinstance(obj, SphereForm):
        return check_sphere_class(obj.rep, seed=seed, points=points, tol=tol,
                                  moduli=moduli)
    return check_element(obj, seed=seed, points=points, tol=tol,
                         moduli=moduli)


def check_scalar(s: ExactScalar, ctx: DeformationContext, seed: int = 42,
                 draws: int = 20, tol: float = DEFAULT_TOL) -> bool:
    """Numeric vanishing of an exact scalar at random root-of-unity phases."""
    rng = random.Random(seed ^ 0x5CA1A)
    if not ctx.nparams:
        return abs(s.eval_at_roots(())) < tol
    for j in range(draws):
        ms = [_PRIMES[(i + j) % len(_PRIMES)] for i in range(ctx.nparams)]
        roots = []
        for m in ms:
            k = rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])
            roots.append(cmath.exp(2j * cmath.pi * k / m))
        if abs(s.eval_at_roots(roots)) >= tol:
            return False
    return True


class BatchChecker:
    """Shared-sample evaluator for large concordance sweeps.

    Holds two torus models over distinct prime moduli, a fixed batch of plane
    and sphere sample points, and cached tangent minors, so that checking
    thousands of identities reuses all the heavy data.
    """

    def __init__(self, ctx: DeformationContext, seed: int = 42,
                 points: int = 20, moduli=None):
        self.ctx = ctx
        self.points = points
        self.models = _models(ctx, seed, moduli)
        rng = random.Random(seed ^ 0xBA7C4)
        self.plane_points = [plane_sample(ctx, rng) for _ in range(points)]
        self.sphere_points = [sphere_sample(ctx, rng) for _ in range(points)]
        self.tangents = [_tangent_basis(ctx, p) for p in self.sphere_points]
        self._minors = [_tangent_minors(t) for t in self.tangents]
        self.root_draws = self._draw_roots(rng)

    def _draw_roots(self, rng):
        draws = []
        n = self.ctx.nparams
        for j in range(self.points):
            roots = []
            for i in range(n):
                m = _PRIMES[(i + j) % len(_PRIMES)]
                k = rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])
                roots.append(cmath.exp(2j * cmath.pi * k / m))
            draws.append(tuple(roots))
        return draws

    def scalar_sup(self, s: ExactScalar) -> float:
        if not s.terms:
            return 0.0
        return max(abs(s.eval_at_roots(r)) for r in self.root_draws)

    def element_sup(self, el: Element) -> float:
        return max((model.form_sup(el, pt) for model in self.models
                    for pt in self.plane_points), default=0.0)

    def sphere_sup(self, el: Element) -> float:
        return max((model.form_sup(el, pt, minors) for model in self.models
                    for pt, minors in zip(self.sphere_points, self._minors)),
                   default=0.0)
