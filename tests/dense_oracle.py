"""Dense and per-point references for the torus oracle.

The Kronecker construction of the Weyl unitaries from clock and shift
matrices, dense monomial products and the tangent pullback by determinants,
without the oracle's (perm, phase) words.  Each function reads only the
parameters of a ``TorusRep`` (context, modulus, Weyl vectors, roots) and the
samples of a ``BatchChecker``, so its sups can be compared with the sparse
ones sample by sample.

Below them, the oracle's samples drawn one point and one draw at a time
(``reference_samples``) and ``TorusRep.form_sup`` summed one class of equal
perm[0] and one dx set at a time (``form_sup``): the stacked passes of the
oracle must give the same samples bit for bit and the same sups to rounding.
"""

import cmath
import math
import random
from itertools import combinations

import numpy as np

from twistcalc.oracle import _PRIMES


def _clock(m: int) -> np.ndarray:
    return np.diag(np.exp(2j * np.pi * np.arange(m) / m))


def _shift(m: int) -> np.ndarray:
    s = np.zeros((m, m), dtype=complex)
    for j in range(m):
        s[(j + 1) % m, j] = 1.0
    return s


class DenseRep:
    """The unitaries of a TorusRep as dense Kronecker products, built from
    the model's Weyl vectors: U^a is the product over the slots of
    clock^p shift^r, U^a' its conjugate transpose, and every other
    coordinate the identity."""

    def __init__(self, model):
        model.check_dense()
        self.model = model
        self.size = model.size
        ctx, m = model.ctx, model.modulus
        clock, shift = _clock(m), _shift(m)
        power = np.linalg.matrix_power
        self.unitaries = {a: np.eye(self.size, dtype=complex)
                          for a in range(1, ctx.dim + 1)}
        for a, v in enumerate(model.vectors, start=1):
            s = len(v) // 2
            u = np.eye(1, dtype=complex)
            for p, r in zip(v[:s], v[s:]):
                u = np.kron(u, power(clock, p) @ power(shift, r))
            self.unitaries[a] = u
            self.unitaries[ctx.primed(a)] = u.conj().T
        self._mono_cache = {}

    def monomial_matrix(self, key) -> np.ndarray:
        got = self._mono_cache.get(key)
        if got is not None:
            return got
        exps, dxs = key
        u = np.eye(self.size, dtype=complex)
        for a, e in enumerate(exps, start=1):
            for _ in range(e):
                u = u @ self.unitaries[a]
        for a in dxs:
            u = u @ self.unitaries[a]
        self._mono_cache[key] = u
        return u

    def eval_element(self, el, point) -> dict:
        out = {}
        for key, coeff in el.terms.items():
            exps, dxs = key
            z = self.model.eval_scalar(coeff)
            for a, e in enumerate(exps):
                if e:
                    z *= point[a] ** e
            mat = out.get(dxs)
            if mat is None:
                out[dxs] = z * self.monomial_matrix(key)
            else:
                mat += z * self.monomial_matrix(key)
        return out


_DENSE = {}


def dense_rep(model) -> DenseRep:
    """DenseRep of a model, shared by the models with the same parameters
    until a model of other parameters comes (the two models of one seed
    stay), so the dense words of one test are built once."""
    key = (model.ctx.dim, model.modulus, tuple(model.vectors))
    if key not in _DENSE:
        if len(_DENSE) >= 2:
            _DENSE.clear()
        _DENSE[key] = DenseRep(model)
    return _DENSE[key]


def plane_sup(data: dict) -> float:
    return max((float(np.abs(mat).max()) for mat in data.values()),
               default=0.0)


def pullback_sup(data: dict, tangent: np.ndarray) -> float:
    """Largest matrix entry of the form evaluated on tangent tuples."""
    worst = 0.0
    by_deg = {}
    for dxs, mat in data.items():
        by_deg.setdefault(len(dxs), {})[dxs] = mat
    for k, comps in by_deg.items():
        if k == 0:
            for mat in comps.values():
                worst = max(worst, float(np.abs(mat).max()))
            continue
        nt = tangent.shape[0]
        if k > nt:
            continue
        for combo in combinations(range(nt), k):
            acc = None
            for dxs, mat in comps.items():
                cols = [s - 1 for s in dxs]
                minor = tangent[list(combo)][:, cols]
                det = complex(np.linalg.det(minor))
                if acc is None:
                    acc = det * mat
                else:
                    acc += det * mat
            if acc is not None:
                worst = max(worst, float(np.abs(acc).max()))
    return worst


def batch_sups(bc, el) -> tuple:
    """(element_sup, sphere_sup) of a BatchChecker, on dense matrices."""
    plane = sphere = 0.0
    for model in bc.models:
        dense = dense_rep(model)
        for pt in bc.plane_points:
            plane = max(plane, plane_sup(dense.eval_element(el, pt)))
        for pt, tangent in zip(bc.sphere_points, bc.tangents.basis):
            sphere = max(sphere, pullback_sup(dense.eval_element(el, pt),
                                              tangent))
    return plane, sphere


# -- per-point samples and per-class sups -------------------------------------

def _point_from_real(ctx, y: np.ndarray) -> np.ndarray:
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


def sphere_sample(ctx, rng: random.Random) -> np.ndarray:
    y = np.array([rng.gauss(0.0, 1.0) for _ in range(ctx.dim)])
    y /= math.sqrt(float(np.dot(y, y)))
    return _point_from_real(ctx, y)


def plane_sample(ctx, rng: random.Random) -> np.ndarray:
    y = np.array([rng.gauss(0.0, 1.0) for _ in range(ctx.dim)])
    return _point_from_real(ctx, y)


def tangent_basis(ctx, point: np.ndarray) -> np.ndarray:
    """Basis of the kernel of dc at the point (rows are tangent vectors)."""
    u = np.array([2.0 * point[ctx.primed(b) - 1]
                  for b in range(1, ctx.dim + 1)], dtype=complex)
    _, _, vh = np.linalg.svd(u.reshape(1, -1))
    return vh[1:].conj()


def _root_draw(rng: random.Random, nparams: int, j: int) -> tuple:
    roots = []
    for i in range(nparams):
        m = _PRIMES[(i + j) % len(_PRIMES)]
        k = rng.choice([k for k in range(1, m) if math.gcd(k, m) == 1])
        roots.append(cmath.exp(2j * cmath.pi * k / m))
    return tuple(roots)


def reference_samples(ctx, seed: int, points: int) -> dict:
    """The samples of BatchChecker(ctx, seed, points), one at a time in
    stream order: plane points, sphere points, then the phase draws."""
    rng = random.Random(seed ^ 0xBA7C4)
    plane = np.array([plane_sample(ctx, rng) for _ in range(points)])
    sphere = np.array([sphere_sample(ctx, rng) for _ in range(points)])
    return {"plane_points": plane, "sphere_points": sphere,
            "basis": np.array([tangent_basis(ctx, p) for p in sphere]),
            "root_draws": [_root_draw(rng, ctx.nparams, j)
                           for j in range(points)]}


def form_sup(model, el, points, tangents=None) -> float:
    """TorusRep.form_sup with one matmul per class of equal perm[0] and dx
    set (plane) or degree (sphere), and one pullback per class."""
    points = np.asarray(points)
    classes: dict = {}
    exps, coeffs = [], []
    for key, coeff in el.terms.items():
        dxs = key[1]
        if tangents is not None and len(dxs) == model.ctx.dim:
            continue
        w = model.word(key)
        group = (dxs if tangents is None else len(dxs), int(w.perm[0]))
        comps = classes.setdefault(group, {})
        comps.setdefault(dxs, []).append((len(exps), w.phase))
        exps.append(key[0])
        coeffs.append(model.eval_scalar(coeff))
    if not exps:
        return 0.0
    vals = np.empty((len(points), len(exps)), dtype=complex)
    vals[:] = coeffs
    exps = np.array(exps)
    for a in range(model.ctx.dim):
        if exps[:, a].any():
            vals *= points[:, a, None] ** exps[:, a]
    worst = 0.0
    for comps in classes.values():
        sets = sorted(comps)
        data = np.stack([vals[:, [t for t, _ in comps[s]]]
                         @ np.array([ph for _, ph in comps[s]])
                         for s in sets], axis=1)
        if tangents is not None:
            minors = np.stack([tangents.minors(s) for s in sets], axis=2)
            data = minors @ data
        worst = max(worst, float(np.abs(data).max()))
    return worst
