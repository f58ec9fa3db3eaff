"""Spans around the engine's public entry points, recorded from outside it.

``install(tracer)`` wraps each entry in ``ENTRIES`` and rebinds every name
that still points at the original: in the defining module, in each
``twistcalc`` module that imported it, in class dictionaries (so
``ExactScalar.__rmul__``, an alias of ``__mul__``, is covered) and in
module-level containers.  ``unwrapped_bindings()`` lists any binding left
over; the self-test requires it to be empty.

A span is (name, start, end, parent span, op id).  Spans live in typed arrays
in memory and are written out once, at the end of the pass.  A span's self
time is its duration minus the durations of its direct children; code here is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from array import array
from fractions import Fraction

# metric name -> (module, attribute path) of each wrapped entry point
ENTRIES = (
    ("qphase.scalar_mul", "twistcalc.qphase", "ExactScalar.__mul__"),
    ("qphase.scalar_add", "twistcalc.qphase", "ExactScalar.__add__"),
    ("ncalg.element_mul", "twistcalc.ncalg", "Element.__mul__"),
    ("ncalg.d", "twistcalc.ncalg", "Element.d"),
    ("ncalg.star", "twistcalc.ncalg", "Element.star"),
    ("sphere.in_quotient_ideal", "twistcalc.sphere", "in_quotient_ideal"),
    ("sphere.central_quadric", "twistcalc.sphere", "central_quadric"),
    ("sphere.reduce_mod_c", "twistcalc.sphere", "reduce_mod_c"),
    ("sphere.hodge_sphere", "twistcalc.sphere", "hodge_sphere"),
    ("sphere.integrate_form", "twistcalc.sphere", "integrate_form"),
    ("tensorcalc.antisym_w", "twistcalc.tensorcalc", "antisym_w"),
    ("tensorcalc.hodge_plane", "twistcalc.tensorcalc", "hodge_plane"),
    ("tensorcalc.pairing_plane", "twistcalc.tensorcalc", "pairing_plane"),
    ("tensorcalc.epsilon_q", "twistcalc.tensorcalc", "epsilon_q"),
    ("haar.haar_plane", "twistcalc.haar", "haar_plane"),
    ("haar.laplacian", "twistcalc.haar", "laplacian"),
    ("chern.matrix_mul", "twistcalc.chern", "Matrix.__mul__"),
    ("chern.instanton_projector", "twistcalc.chern", "instanton_projector"),
    ("chern.curvature", "twistcalc.chern", "curvature"),
    ("oracle.batch_init", "twistcalc.oracle", "BatchChecker.__init__"),
    ("oracle.check_one_shot", "twistcalc.oracle", "check_element"),
    ("oracle.check_one_shot", "twistcalc.oracle", "check_sphere_class"),
    ("oracle.eval_element", "twistcalc.oracle", "TorusRep.eval_element"),
    ("oracle.monomial_matrix", "twistcalc.oracle", "TorusRep.monomial_matrix"),
    ("oracle.sphere_sup", "twistcalc.oracle", "BatchChecker.sphere_sup"),
    ("oracle.torus_rep", "twistcalc.oracle", "TorusRep.__init__"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _ in ENTRIES))

_COMPLEX_BYTES = 16


class Tracer:
    """In-memory span store plus the counters measured at the same wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("i")
        self.nested = array("b")  # 1 when a span of the same name encloses it
        self.stack: list[int] = []
        self.depth: list[int] = []
        self.current_op = -1
        self.counts = {"ncalg.element_mul.term_pairs": 0,
                       "qphase.scalar_mul.rational": 0,
                       "oracle.monomial_matrix.hits": 0,
                       "oracle.model_bytes": 0}

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.depth.append(0)
        return self.names.index(name)

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper recording one span per call; ``before(args)`` runs ahead of
        the clock and ``after(args)`` after it, so neither is in the span."""
        nid = self.intern(name)
        name_id, start, end = self.name_id, self.start, self.end
        parent, op, nested = self.parent, self.op, self.nested
        stack, depth, clock = self.stack, self.depth, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            nested.append(1 if depth[nid] else 0)
            end.append(0.0)
            depth[nid] += 1
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
                depth[nid] -= 1
                if after is not None:
                    after(args)

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn, *args):
        """Run ``fn(*args)`` inside a span recorded by the benchmark itself."""
        return self.wrap(name, fn)(*args)

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and total_s per span name, plus the counter ratios.

        total_s counts only the outermost span of each name, so recursion
        is not counted twice; self_s sums every span's own time."""
        import numpy as np
        n = len(self.start)
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        dur = np.frombuffer(self.end, dtype=np.float64, count=n) - start
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        outer = np.frombuffer(self.nested, dtype=np.int8, count=n) == 0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        total_s = np.bincount(nid[outer], weights=dur[outer], minlength=k)
        out: dict[str, float] = {}
        for name in list(SPAN_NAMES) + [x for x in self.names
                                         if x not in SPAN_NAMES]:
            i = self.names.index(name) if name in self.names else None
            out[f"{name}.calls"] = int(calls[i]) if i is not None else 0
            out[f"{name}.self_s"] = float(self_s[i]) if i is not None else 0.0
            out[f"{name}.total_s"] = float(total_s[i]) if i is not None else 0.0
        c = self.counts
        out["ncalg.element_mul.term_pairs"] = c["ncalg.element_mul.term_pairs"]
        out["qphase.scalar_mul.rational"] = c["qphase.scalar_mul.rational"]
        out["qphase.scalar_mul.rational_share"] = _ratio(
            c["qphase.scalar_mul.rational"], out["qphase.scalar_mul.calls"])
        out["oracle.monomial_matrix.hits"] = c["oracle.monomial_matrix.hits"]
        out["oracle.monomial_matrix.hit_ratio"] = _ratio(
            c["oracle.monomial_matrix.hits"], out["oracle.monomial_matrix.calls"])
        out["oracle.model_bytes"] = c["oracle.model_bytes"]
        return out

    def write(self, path) -> None:
        """All spans as one .npz: names, name_id, start, end, parent, op."""
        import numpy as np
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), op=np.asarray(self.op))


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


# -- installing the wrappers -------------------------------------------------------

def twistcalc_modules() -> list:
    """Import and return the package and every submodule, so that each module
    that binds an entry-point name is loaded before the patch."""
    import twistcalc
    for info in pkgutil.iter_modules(twistcalc.__path__, "twistcalc."):
        importlib.import_module(info.name)
    return [m for name, m in sorted(sys.modules.items())
            if name == "twistcalc" or name.startswith("twistcalc.")]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def _namespaces(modules):
    """Every dict-like namespace that can hold a binding: module and class
    dictionaries, and module-level dicts, lists and tuples."""
    seen_classes = set()
    for mod in modules:
        yield vars(mod)
        for value in list(vars(mod).values()):
            if isinstance(value, type) and id(value) not in seen_classes:
                seen_classes.add(id(value))
                yield value
            elif isinstance(value, (dict, list, tuple)):
                yield value


def _rebind(namespaces, swap: dict) -> None:
    for ns in namespaces:
        if isinstance(ns, type):
            for attr, value in list(vars(ns).items()):
                if id(value) in swap:
                    setattr(ns, attr, swap[id(value)])
        elif isinstance(ns, dict):
            for key, value in list(ns.items()):
                if id(value) in swap:
                    ns[key] = swap[id(value)]
        elif isinstance(ns, list):
            for i, value in enumerate(ns):
                if id(value) in swap:
                    ns[i] = swap[id(value)]
        # tuples are immutable: unwrapped_bindings() reports them


def _bindings(namespaces, targets: dict):
    for ns in namespaces:
        if isinstance(ns, type):
            items = vars(ns).items()
            where = f"{ns.__module__}.{ns.__qualname__}"
        elif isinstance(ns, dict):
            items = ns.items()
            where = ns.get("__name__", "dict")
        else:
            items = enumerate(ns)
            where = type(ns).__name__
        for key, value in list(items):
            if id(value) in targets:
                yield f"{where}.{key} -> {targets[id(value)]}"


def install(tracer: Tracer) -> dict:
    """Wrap every entry and rebind all its names; returns id -> original."""
    from twistcalc.ncalg import Element
    modules = twistcalc_modules()
    counts = tracer.counts
    originals, swap = {}, {}

    def count_pairs(args):
        if len(args) > 1 and isinstance(args[1], Element):
            counts["ncalg.element_mul.term_pairs"] += (
                len(args[0].terms) * len(args[1].terms))

    def count_rational(args):
        a, b = args[0], args[1]
        if a.is_rational() and (isinstance(b, (int, Fraction))
                                or (hasattr(b, "is_rational") and b.is_rational())):
            counts["qphase.scalar_mul.rational"] += 1

    def count_hit(args):
        model, key = args[0], args[1]
        if key in getattr(model, "_mono_cache", {}):
            counts["oracle.monomial_matrix.hits"] += 1
        else:
            counts["oracle.model_bytes"] += _COMPLEX_BYTES * model.size ** 2

    def count_model(args):
        model = args[0]
        counts["oracle.model_bytes"] += (_COMPLEX_BYTES * model.size ** 2
                                         * len(model.unitaries))

    hooks = {"qphase.scalar_mul": (count_rational, None),
             "ncalg.element_mul": (count_pairs, None),
             "oracle.monomial_matrix": (count_hit, None),
             "oracle.torus_rep": (None, count_model)}
    for name, module, path in ENTRIES:
        fn = _resolve(module, path)
        before, after = hooks.get(name, (None, None))
        originals[id(fn)] = fn
        swap[id(fn)] = tracer.wrap(name, fn, before, after)
    _rebind(list(_namespaces(modules)), swap)
    return originals


def unwrapped_bindings(originals: dict) -> list[str]:
    """Names in any twistcalc namespace still bound to an original."""
    targets = {i: getattr(fn, "__qualname__", repr(fn))
               for i, fn in originals.items()}
    return list(_bindings(list(_namespaces(twistcalc_modules())), targets))


def cache_stats() -> dict[str, tuple[int, int]]:
    """(hits, misses) of every object with cache_info() in a twistcalc
    namespace, keyed cache.<module>.<qualname>; a wrapper's target counts."""
    out = {}
    seen = set()
    for ns in _namespaces(twistcalc_modules()):
        values = vars(ns).values() if isinstance(ns, type) else (
            ns.values() if isinstance(ns, dict) else ns)
        for value in list(values):
            if not hasattr(value, "cache_info"):
                value = getattr(value, "__wrapped__", None)
            info = getattr(value, "cache_info", None)
            if not callable(info) or id(value) in seen:
                continue
            seen.add(id(value))
            module = getattr(value, "__module__", "twistcalc").rsplit(".", 1)[-1]
            ci = info()
            out[f"cache.{module}.{value.__qualname__}"] = (ci.hits, ci.misses)
    return out
