"""A phase-key encoding that is not a tuple, to swap in for ``qphase``'s.

A key here is the frozenset of (parameter index, exponent) pairs with a
nonzero exponent, so the one key is the empty set, keys of different
contexts never differ in length, and keys do not sort by their exponents.
``install()`` rebinds ``qphase``'s key functions to these in every
``twistcalc`` module that holds them.  Every module that builds or combines
a key through ``qphase`` then computes the same values; one that builds a
tuple key itself mixes the two encodings, and its sums no longer cancel.

Install it in a fresh interpreter, before any context exists: a context and
the engine's caches keep the keys they were built with.

    PYTHONPATH=src:tests python -c "import frozenset_keys; \\
        frozenset_keys.install(); ..."
"""

import importlib
import pkgutil
import sys

import twistcalc
from twistcalc import qphase


def _phase_key(exps):
    return frozenset((j, e) for j, e in enumerate(exps) if e)


def _phase_exps(k, n):
    exps = [0] * n
    for j, e in k:
        exps[j] = e
    return tuple(exps)


def _key_mul(one, k1, k2, k3=None):
    exps = dict(k1)
    for k in (k2, k3 or ()):
        for j, e in k:
            exps[j] = exps.get(j, 0) + e
    return frozenset((j, e) for j, e in exps.items() if e)


def _key_inv(k):
    return frozenset((j, -e) for j, e in k)


def _key_div(one, k1, k2):
    return _key_mul(one, k1, _key_inv(k2))


KEY_FUNCTIONS = {fn.__name__: fn for fn in (
    _phase_key, _phase_exps, _key_mul, _key_inv, _key_div)}


def install() -> list[str]:
    """Rebind every binding of ``qphase``'s key functions, in every
    ``twistcalc`` module, to the frozenset encoding; returns the rebound
    names as ``module.name``."""
    if qphase.DeformationContext._instances:
        raise RuntimeError("a context exists already: install the key "
                           "encoding in a fresh interpreter")
    for info in pkgutil.iter_modules(twistcalc.__path__, "twistcalc."):
        importlib.import_module(info.name)
    swap = {id(getattr(qphase, name)): fn
            for name, fn in KEY_FUNCTIONS.items()}
    rebound = []
    for name, module in sorted(sys.modules.items()):
        if name.startswith("twistcalc."):
            for attr, value in list(vars(module).items()):
                if id(value) in swap:
                    setattr(module, attr, swap[id(value)])
                    rebound.append(f"{name}.{attr}")
    return rebound
