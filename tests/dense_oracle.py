"""Dense reference for the torus oracle.

The Kronecker construction of the Weyl unitaries from clock and shift
matrices, dense monomial products and the tangent pullback by determinants,
without the oracle's (perm, phase) words.  Each function reads only the
parameters of a ``TorusRep`` (context, modulus, Weyl vectors, roots) and the
samples of a ``BatchChecker``, so its sups can be compared with the sparse
ones sample by sample.
"""

from itertools import combinations

import numpy as np


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
