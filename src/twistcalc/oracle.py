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
e_{perm[j]}, stored as a ``Word`` of two arrays of length side.  Its perm is
a translation of (Z_m)^s, so words with different perm[0] share no matrix
entry: the largest entry of sum_t z_t U_t is the largest |sum_t z_t
phase_t| over the classes of equal perm[0].  ``TorusRep.form_sup`` puts the
terms of each group (class and dx set on the plane, class on the sphere) in
one row of a (groups, slots) grid; per form degree and block of points and
columns, the sums are one batched product of the grid of values (times the
tangent minors on the sphere) with the grid of phases, and one abs().max().
That is O(groups * slots * P * side) time over P points, O(side) memory per
word, and at most max(2^17, groups * (slots + 1) * (subsets + 1)) complex
entries per array of a block.  A model whose 2h + 1 generator words would
hold more than MAX_SIZE entries together is refused before anything is
allocated, and ``form_sup`` refuses a form whose table of coordinate powers,
points x D x (top exponent + 1), would pass MAX_SIZE entries before it
builds any word.  Dense side x side matrices are built only on request
(``eval_element``, ``monomial_matrix``, ``TorusRep.dense``), up to side
MAX_DENSE_SIDE.  Sphere classes are checked by pulling the evaluated form
back to the tangent space of the quadric c = 1 at each sample point, which
kills exactly the ideal J, with the minors of the tangent bases.

The sups are absolute.  A value past the float range makes a sup inf (and
numpy warns of the overflow), so an overflow never reads as zero.  Sphere points have |z_a| <= 1, so there high
powers underflow instead: x1^100*dx2 reads about 1e-17 on the sphere, below
DEFAULT_TOL, though it is not zero.  That is a known limit of the absolute
tolerance.

``BatchChecker`` is the one sampling path, with one sup per mode: scalars
(``scalar_sup``), plane elements (``element_sup``) and sphere classes
(``sphere_sup``).  A seed fixes the two models, drawn from
random.Random(seed), and one sample stream, random.Random(seed ^ 0xBA7C4):
the plane points, then the sphere points, each kind converted in one numpy
pass, then the phase draws of the scalar checks.  The phase draws and the
tangent bases are made on first use, so a plane check makes neither and no
value depends on the order of the sups.  More points than MAX_SIZE
tangent-basis entries allow are refused before any draw.
"""

from __future__ import annotations

import cmath
import math
import random
from functools import cached_property
from itertools import chain, combinations, groupby
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .ncalg import Element
from .qphase import DeformationContext, ExactScalar, _term_at_roots

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
# for the identity, each U^a and its adjoint: 2^21 * 24 bytes (48 MB); and
# most entries of a checker's tangent bases, points * (D - 1) * D (32 MB),
# and of a form_sup power table, points * D * (top exponent + 1) (32 MB).
MAX_SIZE = 1 << 21
# Largest side of a dense view: one matrix then takes 2048^2 * 16 B (64 MB).
MAX_DENSE_SIDE = 2048
# Most complex entries of one array of a form_sup block (2 MB).
_BLOCK_ENTRIES = 1 << 17
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
    e^(2 pi i/m).  The vectors are drawn from rng, and redrawn while
    2 omega(v_a, v_b) = 0 (mod m) for any parameter, so that no q equals
    1/q.  ``unitaries[a]`` is U^a as a ``Word``; ``_mono_cache`` holds the
    word of each monomial evaluated.
    """

    def __init__(self, ctx: DeformationContext, moduli=None,
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
        vecs = self.vectors = [tuple(v) for v in _weyl_vectors(
            h, s, m, rng or random.Random(0))]
        if self.size * words > MAX_SIZE:
            raise _oversized(self.size, m, s, words)
        exps = [_omega(vecs[a - 1], vecs[b - 1], s) % m
                for a, b in ctx.params]
        zeta_powers = np.exp(2j * np.pi * np.arange(m) / m)
        self.roots = [complex(zeta_powers[k]) for k in exps]
        self._identity = Word(np.arange(self.size),
                              np.ones(self.size, dtype=complex))
        self._mono_cache: dict = {}
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

    def realises_phases(self) -> bool:
        """Whether U^(a') is the adjoint of U^a and U^a U^b = q_ab U^b U^a
        at the model's roots, for all a, b."""
        u, dim = self.unitaries, self.ctx.dim
        return all(
            u[self.ctx.primed(a)].matches(u[a].adjoint())
            and all((u[a] @ u[b]).matches(
                u[b] @ u[a], scale=self.eval_scalar(self.ctx.q_power(a, b)))
                for b in range(1, dim + 1)) for a in range(1, dim + 1))

    def eval_scalar(self, s: ExactScalar) -> complex:
        return s.eval_at_roots(self.roots)

    def word(self, key) -> Word:
        """U-word of a canonical monomial: x powers then dx indices."""
        got = self._mono_cache.get(key)
        if got is None:
            exps, dxs = key
            one = got = self._identity
            for a in chain(*([a] * e for a, e in enumerate(exps, start=1)),
                           dxs):
                # a product with the identity is bitwise the other factor
                u = self.unitaries[a]
                got = u if got is one else got if u is one else got @ u
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

    def _coefficients_at_roots(self, el: Element) -> dict:
        """{monomial: its coefficient at the model's roots}, each monomial's
        phase terms summed in stored order, as ``eval_scalar`` sums those
        of a scalar."""
        if el.ctx != self.ctx:
            raise ValueError("element and model contexts differ")
        out: dict = {}
        for (mono, k), v in el.terms.items():
            out[mono] = out.get(mono, 0j) + _term_at_roots(k, v, self.roots)
        return out

    def term_values(self, el: Element, point: np.ndarray):
        """(key, coefficient times classical monomial value) per monomial."""
        point = np.asarray(point).tolist()
        for key, z in self._coefficients_at_roots(el).items():
            for a, e in enumerate(key[0]):
                if e:
                    z *= point[a] ** e
            yield key, z

    def multiplies(self, f: Element, g: Element, point: np.ndarray) -> bool:
        """Whether the value of f g at a point is the product of the values
        of f and g, each a sum of scaled words per dx component.  Words of
        equal perm[0] fill the same entries and others share none, so the
        entry vectors summed per (dx indices, perm[0]) are the whole matrix
        of each component."""
        def words(el):
            return [(key[1], z, self.word(key))
                    for key, z in self.term_values(el, point)]

        def sums(terms) -> dict:
            out: dict = {}
            for dxs, z, w in terms:
                key = (dxs, int(w.perm[0]))
                out[key] = out.get(key, 0) + z * w.phase
            return out

        right = words(g)
        lhs = sums(words(f * g))
        rhs = sums((tuple(sorted(s1 + s2)),
                    (-1) ** sum(x > y for x in s1 for y in s2) * z1 * z2,
                    w1 @ w2)
                   for s1, z1, w1 in words(f) for s2, z2, w2 in right
                   if not set(s1) & set(s2))
        return all(np.allclose(lhs.get(key, 0), rhs.get(key, 0), atol=1e-8)
                   for key in lhs.keys() | rhs.keys())

    def eval_element(self, el: Element, point: np.ndarray) -> dict:
        """Dense form data {dx index set -> side x side matrix} at a point."""
        self.check_dense()
        side = self.size
        cols = self._identity.perm  # 0..side-1
        out: dict[tuple, np.ndarray] = {}
        for key, z in self.term_values(el, point):
            flat = out.get(key[1])
            if flat is None:
                flat = out[key[1]] = np.zeros(side * side, dtype=complex)
            w = self.word(key)
            # U e_j = phase[j] e_perm[j]: entry (perm[j], j)
            flat[w.perm * side + cols] += z * w.phase
        return {dxs: flat.reshape(side, side) for dxs, flat in out.items()}

    def form_sup(self, el: Element, points, tangents: Tangents | None = None
                 ) -> float:
        """Largest |matrix entry| of the form el over a stack of points:
        each dx component on its own (a plane identity), or, with the
        ``Tangents`` of the points, the components of each degree below D
        summed against the minors of each subset of tangent vectors (the
        pullback to the sphere).  Cost and memory: see the module docstring.
        """
        points = np.asarray(points)
        sphere = tangents is not None
        dim = self.ctx.dim
        # a top form vanishes on the D-1 tangent vectors
        kept = [(key, z) for key, z in self._coefficients_at_roots(el).items()
                if not (sphere and len(key[1]) == dim)]
        if not kept:
            return 0.0
        exps = np.array([key[0] for key, _ in kept])
        top = int(exps.max())
        entries = len(points) * dim * (top + 1)
        if entries > MAX_SIZE:
            raise ValueError(
                f"x power {top} over {len(points)} points at D = {dim} needs"
                f" a power table of {entries} entries, over the cap of"
                f" {MAX_SIZE} entries")
        # part (form degree on the sphere) -> (group, dx set, term) triples
        parts: dict = {}
        coeffs, phases = [], []
        for t, (key, coeff) in enumerate(kept):
            dxs = key[1]
            w = self.word(key)
            part, group = ((len(dxs), int(w.perm[0])) if sphere
                           else (0, (int(w.perm[0]), dxs)))
            parts.setdefault(part, []).append((group, dxs, t))
            coeffs.append(coeff)
            phases.append(w.phase)
        # (point, term) -> coefficient times classical monomial value, from
        # the powers points[p, a] ** e, e <= top, by repeated products
        powers = np.ones(points.shape + (top + 1,), dtype=complex)
        np.cumprod(np.broadcast_to(points[:, :, None], points.shape + (top,)),
                   axis=2, out=powers[:, :, 1:])
        vals = np.array(coeffs) * powers[:, np.arange(dim), exps].prod(axis=2)
        phases = np.array(phases)
        worst = 0.0
        for terms in parts.values():
            terms.sort()
            sizes = [len(list(g)) for _, g in groupby(terms, itemgetter(0))]
            grid = (len(sizes), max(sizes))
            # the flat (group, slot) place of each term in the grid
            place = [g * grid[1] + k for g, n in enumerate(sizes)
                     for k in range(n)]
            sets: dict = {}
            which = [sets.setdefault(dxs, len(sets)) for _, dxs, _ in terms]
            cols = [t for _, _, t in terms]
            subsets = 1
            if sphere:  # (dx sets, points, subsets)
                minors = np.array([tangents.minors(s) for s in sets])
                subsets = minors.shape[2]
            # columns so that one point's sums and the phases fit a block,
            # then points so that the sums and the weights do
            width = min(self.size, max(1, _BLOCK_ENTRIES
                                       // (grid[0] * (subsets + grid[1]))))
            step = max(1, _BLOCK_ENTRIES // (grid[0] * subsets
                                             * (width + grid[1])))
            for j in range(0, self.size, width):
                grid_phases = np.zeros((grid[0] * grid[1],
                                        min(width, self.size - j)), complex)
                grid_phases[place] = phases[cols, j:j + width]
                for p in range(0, len(points), step):
                    # (terms, points, subsets)
                    weights = vals[p:p + step, cols].T[:, :, None]
                    if sphere:
                        weights = weights * minors[which, p:p + step]
                    grid_weights = np.zeros((grid[0] * grid[1],)
                                            + weights.shape[1:], complex)
                    grid_weights[place] = weights
                    sums = (grid_weights.reshape(grid + (-1,))
                            .transpose(0, 2, 1)
                            @ grid_phases.reshape(grid + (-1,)))
                    block = float(np.abs(sums).max())
                    if not math.isfinite(block):
                        # a value past the float range, inf or nan here,
                        # which max() would drop: never read it as zero
                        return math.inf
                    worst = max(worst, block)
        return worst


class Tangents:
    """Tangent bases of the quadric c = 1 at a stack of sphere points.

    ``basis[p]``: the D - 1 tangent vectors at point p as rows, the trailing
    right singular vectors of the normal dc = 2 (v_1', ..., v_D'), from one
    SVD of the stack.  ``minors(dxs)``: the (points, subsets) minors of each
    basis on the columns dxs, one per subset of len(dxs) tangent vectors,
    from one cached stacked determinant.
    """

    def __init__(self, ctx: DeformationContext, points):
        primed = [ctx.primed(b) - 1 for b in range(1, ctx.dim + 1)]
        normals = 2.0 * np.asarray(points)[:, None, primed]
        self.basis = np.linalg.svd(normals)[2][:, 1:].conj()
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


def _sample(ctx: DeformationContext, rng: random.Random, count: int,
            unit: bool) -> np.ndarray:
    """count rows y of D gaussians from rng (|y| = 1 when unit) as quadric
    coordinates, companion pairs conjugate: sum_a v_a v_{a'} = |y|^2."""
    dim, half = ctx.dim, ctx.dim // 2
    y = np.array([rng.gauss(0.0, 1.0) for _ in range(count * dim)]
                 ).reshape(count, dim)
    if unit:
        # each norm is sqrt(dot(y, y)) of its own row, as for one point: a
        # stacked sum of squares rounds differently
        y /= np.array([math.sqrt(float(np.dot(r, r))) for r in y])[:, None]
    v = np.zeros((count, dim), dtype=complex)
    v[:, :half] = (y[:, 0:2 * half:2] + 1j * y[:, 1:2 * half:2]) / math.sqrt(2)
    v[:, [ctx.primed(a) - 1 for a in range(1, half + 1)]] = v[:, :half].conj()
    if dim % 2:
        v[:, half] = y[:, dim - 1]
    return v


def plane_sample(ctx: DeformationContext, rng: random.Random,
                 count: int) -> np.ndarray:
    """count plane points, one row each."""
    return _sample(ctx, rng, count, unit=False)


def sphere_sample(ctx: DeformationContext, rng: random.Random,
                  count: int) -> np.ndarray:
    """count points of the sphere c = 1, one row each."""
    return _sample(ctx, rng, count, unit=True)


def _models(ctx, seed: int, moduli=None):
    """The two models of a seed, over the moduli of ``_model_moduli``."""
    rng = random.Random(seed)
    return [TorusRep(ctx, moduli=(m,), rng=rng) for m in _model_moduli(moduli)]


def check_element(el: Element, seed: int = 42, points: int = 20,
                  moduli=None) -> bool:
    """Numeric vanishing of an ambient element (plane identity)."""
    checker = BatchChecker(el.ctx, seed, points, moduli)
    return checker.element_sup(el) < DEFAULT_TOL


def check_sphere_class(el: Element, seed: int = 42, points: int = 20,
                       moduli=None) -> bool:
    """Numeric vanishing of the sphere class of an ambient representative."""
    checker = BatchChecker(el.ctx, seed, points, moduli)
    return checker.sphere_sup(el) < DEFAULT_TOL


class BatchChecker:
    """The oracle's sampling path: two torus models over distinct prime
    moduli, ``points`` plane and sphere points, the tangent bases of the
    sphere points and ``points`` phase draws for scalars, shared by any
    number of checks.  Each sup is the largest absolute value over every
    model and sample of its mode.
    """

    def __init__(self, ctx: DeformationContext, seed: int = 42,
                 points: int = 20, moduli=None):
        if points < 1:
            # no samples cannot show anything zero
            raise ValueError(f"points must be at least 1, got {points}")
        entries = points * (ctx.dim - 1) * ctx.dim
        if entries > MAX_SIZE:
            raise ValueError(
                f"{points} points at D = {ctx.dim} need {entries} tangent"
                f" basis entries, over the cap of {MAX_SIZE} entries")
        self.ctx = ctx
        self.points = points
        self.models = _models(ctx, seed, moduli)
        self._stream = random.Random(seed ^ 0xBA7C4)
        self.plane_points = plane_sample(ctx, self._stream, points)
        self.sphere_points = sphere_sample(ctx, self._stream, points)

    @cached_property
    def tangents(self) -> Tangents:
        """The tangent bases of the sphere points, built on first use."""
        return Tangents(self.ctx, self.sphere_points)

    @cached_property
    def root_draws(self) -> list:
        """The phase draws of the scalar checks, the tail of the stream: in
        draw j, parameter i is e^(2 pi i k/m) for a random 0 < k < m, with
        m = _PRIMES[(i + j) % len(_PRIMES)] a prime."""
        rng, nparams = self._stream, self.ctx.nparams
        return [tuple(cmath.exp(2j * cmath.pi * rng.choice(range(1, m)) / m)
                      for m in (_PRIMES[(i + j) % len(_PRIMES)]
                                for i in range(nparams)))
                for j in range(self.points)]

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
