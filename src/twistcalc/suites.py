"""Named verification suites behind the CLI.

A suite draws random inputs from its seed and passes them to the families of
the ``identities`` catalogue, where every identity is declared; ``r.check``
makes one case of each family instance, and a failing case reports the two
sides of its first identity that does not hold.  The ``expected``, ``got``
and ``residue`` of such a failure record are text of the expression grammar
(``exprio``), which ``parse_expr`` over the identity's context reads back: a
scalar side as ``Element.from_scalar``, a form as itself.  Identical seeds
give identical reports (wall time aside), and every case label is unique.

The cases that are not exact equations are named one-offs of ``r.case``:
the floating-point evaluations ``eval(conj s) = conj(eval s) #{j}``,
``eval(q, pi) = -1`` (qphase) and ``D={d}: h(f* f) real and nonnegative``
(haar); the inequation ``[volume] != 0`` (sphere); and the oracle suite's
numeric checks ``torus unitaries realise the phases``, ``c evaluates to the
identity on sphere samples``, ``evaluation is an algebra homomorphism
(sampled)``, ``defining relation vanishes in the model``, ``check(0) =
true``, ``check(x1) = false``, ``perturbed representative has zero sphere
class`` and ``volume class does not vanish``.  Those that measure a number
(the deviations of the qphase evaluations and the oracle's sups) go through
r.measure: a failing record's "got" is the repr of the measured float and
its "expected" the bound it missed, such as "< 1e-12".  The others record
"expected" True and "got" False.
"""

from __future__ import annotations

import math
import operator
import random
import time
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import filterfalse, groupby
from operator import attrgetter

from . import chern, identities as ids, oracle, sphere
from .exprio import format_element, format_scalar
from .haar import haar_plane
from .ncalg import Element
from .qphase import DeformationContext

# The largest --dim and --n of a suite run.  On a 2-vCPU guest (Python 3.11)
# `suite run all --dim 10` takes 14-16 s and 108 MB (894 cases, the hodge
# suite nearly all of it) and `suite run chern --n 6` 10 s, 69 MB; a step
# costs about 3 times in D (`suite run all --dim 11`: 34 s, 181 MB) and 5
# times in n, for the (2n + 1)^2 4^n Clifford relations of GammaRep(n).
MAX_DIM, MAX_N = 10, 6
# The lowest --dim of the suites that need D >= 2, for the sphere quotient
# and, in the oracle suite, the relation x1 x2 = q12 x2 x1; every other
# suite runs from D = 1.
MIN_DIM = {"sphere": 2, "hodge": 2, "oracle": 2}


@dataclass
class SuiteReport:
    suite: str
    cases: int = 0
    failures: list = field(default_factory=list)
    seed: int = 0
    wall_time_s: float = 0.0
    # per-suite (cases, wall seconds) of an 'all' run, in run order
    suites: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        out = {"suite": self.suite, "cases": self.cases,
               "failures": self.failures, "seed": self.seed,
               "wall_time_s": round(self.wall_time_s, 3)}
        if self.suites:
            out["suites"] = {nm: {"cases": cases,
                                  "wall_time_s": round(wall, 3)}
                             for nm, (cases, wall) in self.suites.items()}
        return out


# the comparisons of r.measure
_BOUNDS = {"<": operator.lt, "<=": operator.le, ">=": operator.ge}


@dataclass
class _Runner:
    report: SuiteReport

    def case(self, expression: str, ok: bool, expected=True, got=False):
        self.report.cases += 1
        if not ok:
            self.report.failures.append({
                "expression": expression,
                "expected": str(expected),
                "got": str(got),
            })

    def measure(self, expression: str, value: float, op: str, bound: float):
        """A one-off numeric case that passes when ``value op bound``; a
        failing record carries the value and the bound."""
        self.case(expression, _BOUNDS[op](value, bound),
                  expected=f"{op} {bound!r}", got=repr(value))

    def check(self, family):
        """One case per run of catalogue identities sharing a group: it
        passes when every identity holds, and a failure reports the sides of
        the first identity that does not, in the expression grammar; a
        failing sphere identity's record also carries the residue that puts
        lhs - rhs outside J."""
        for group, run in groupby(family, key=attrgetter("group")):
            bad = next(filterfalse(ids.holds, run), None)
            if bad is None:
                self.case(group, True)
                continue
            text = format_scalar if bad.kind == "scalar" else format_element
            self.case(group, False, expected=text(bad.rhs), got=text(bad.lhs))
            if bad.kind == "sphere":
                residue = sphere._first_residue(bad.lhs - bad.rhs)
                self.report.failures[-1]["residue"] = format_element(residue)


def random_element(ctx, rng, xdeg=2, form_deg=0, nterms=3):
    """Random sparse element: small rational coefficients, bounded degrees."""
    out = Element.zero(ctx)
    for _ in range(nterms):
        e = [0] * ctx.dim
        for _ in range(rng.randint(0, xdeg)):
            e[rng.randrange(ctx.dim)] += 1
        s = tuple(sorted(rng.sample(range(1, ctx.dim + 1), form_deg)))
        c = ctx.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if ctx.nparams:
            sh = [0] * ctx.nparams
            sh[rng.randrange(ctx.nparams)] = rng.randint(-2, 2)
            c = c.shifted(tuple(sh))
        out = out + Element(ctx, {(tuple(e), s): c})
    return out


def random_monomial(ctx, rng, xdeg=3):
    e = [0] * ctx.dim
    for _ in range(rng.randint(0, xdeg)):
        e[rng.randrange(ctx.dim)] += 1
    return Element(ctx, {(tuple(e), ()): ctx.scalar_one()})


def random_index_pair(rng, d: int, k: int) -> tuple:
    """Two random index tuples of length k over 1..d, upper then lower."""
    return (tuple(rng.randint(1, d) for _ in range(k)),
            tuple(rng.randint(1, d) for _ in range(k)))


def distinct_index_pairs(rng, d: int, low: int, high: int, count: int) -> list:
    """``count`` random index pairs over 1..d, each of a random rank in
    low..high, upper then lower.  A pair drawn before is drawn again, unless
    every one of the sum_k d^(2k) pairs has been drawn already."""
    space = sum(d ** (2 * k) for k in range(low, high + 1))
    out, seen = [], set()
    while len(out) < count:
        pair = random_index_pair(rng, d, rng.randint(low, high))
        if pair not in seen or len(seen) == space:
            seen.add(pair)
            out.append(pair)
    return out


# ---------------------------------------------------------------- suites --

def _suite_qphase(r: _Runner, dim: int, rng: random.Random, moduli, n):
    for d in range(1, 9):
        r.check(ids.pair_table(DeformationContext(d)))
    ctx = DeformationContext(5)
    draws = [((ctx.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
               + ctx.i_unit().scale(rng.randint(-2, 2))).shifted(
                   (rng.randint(-2, 2),)), [rng.uniform(0, 2 * math.pi)])
             for _ in range(20)]
    r.check(ids.phase_examples(ctx, [s for s, _ in draws]))
    for j, (s, th) in enumerate(draws):
        r.measure(f"eval(conj s) = conj(eval s) #{j}",
                  abs(s.conj().eval(th) - s.eval(th).conjugate()), "<", 1e-12)
    r.measure("eval(q, pi) = -1",
              abs(ctx.q_power(1, 2).eval([math.pi]) + 1.0), "<", 1e-12)


def _suite_ncalg(r: _Runner, dim: int, rng: random.Random, moduli, n):
    r.check(ids.algebra_relations(DeformationContext(max(dim, 2))))
    for d in (2, 3, 6):
        r.check(ids.confluence(DeformationContext(d), [
            [("dx" if rng.random() < 0.4 else "x", rng.randint(1, d))
             for _ in range(rng.randint(2, 8))] for _ in range(12)]))
    r.check(ids.basis_counts(DeformationContext(min(dim, 5))))
    for d in range(2, 7):
        r.check(ids.volume_form_laws(DeformationContext(d)))
    c5 = DeformationContext(5)
    r.check(ids.form_laws(c5, [random_element(c5, rng, 2, rng.randint(0, 3), 2)
                               for _ in range(15)],
                          random_element(c5, rng, 2, 1, 3)))


def _suite_tensor(r: _Runner, dim: int, rng: random.Random, moduli, n):
    for d in range(2, 7):
        ctx = DeformationContext(d)
        r.check(ids.braid_squares(ctx))
        r.check(ids.braid_equation(ctx))
    d = min(dim, 5)
    r.check(ids.w_recursion(DeformationContext(d), [
        random_index_pair(rng, d, k) for k, count in ((2, 12), (3, 12), (4, 4))
        for _ in range(count)]))
    for d in (3, 4):
        r.check(ids.epsilon_contraction(DeformationContext(d)))
    r.check(ids.epsilon_contraction_draws(
        DeformationContext(5), distinct_index_pairs(rng, 5, 1, 4, 25)))
    for d in (3, 4, 5):
        r.check(ids.w_partial_traces(DeformationContext(d), [
            random_index_pair(rng, d, k - 1) for k in (2, 3)
            for _ in range(8)]))
    for d in (2, 3, 4, 5):
        r.check(ids.metric_epsilon(DeformationContext(d), [
            tuple(rng.sample(range(1, d + 1), d)) for _ in range(12)]))
    ctx = DeformationContext(min(dim, 5))
    r.check(ids.pairing_symmetry(
        ctx, distinct_index_pairs(rng, ctx.dim, 1, 3, 15)))


def _nonnegative(s, theta) -> bool:
    """s is real, and its value at the angles theta real and nonnegative."""
    v = s.eval(theta)
    return s.conj() == s and abs(v.imag) <= 1e-9 and v.real >= -1e-12


def _suite_haar(r: _Runner, dim: int, rng: random.Random, moduli, n):
    for d in dict.fromkeys((3, 4, dim)):  # once each, also at dim 3 or 4
        ctx = DeformationContext(d)
        r.check(ids.haar_units(ctx))
        r.check(ids.haar_moments(ctx))
        r.check(ids.haar_well_defined(ctx, 4))
        pairs = [(random_monomial(ctx, rng), random_monomial(ctx, rng))
                 for _ in range(40)]
        r.check(ids.haar_trace(ctx, pairs))
        r.check(ids.haar_reality(ctx, [f for f, _ in pairs]))
        positive = [(random_element(ctx, rng, 2, 0, 2),
                     [rng.uniform(0, 2 * math.pi) for _ in range(ctx.nparams)])
                    for _ in range(10)]
        r.case(f"D={d}: h(f* f) real and nonnegative",
               all(_nonnegative(haar_plane(ctx, f.star() * f), th)
                   for f, th in positive))
        r.check(ids.derivative_laws(ctx, [
            (rng.randint(1, d), rng.randint(1, d), random_monomial(ctx, rng, 4))
            for _ in range(15)]))
    r.check(ids.haar_values(DeformationContext(5)))


def _suite_sphere(r: _Runner, dim: int, rng: random.Random, moduli, n):
    n_deg = dim - 1
    ctx = DeformationContext(dim)
    r.check(ids.sphere_relations(ctx))
    r.check(ids.stokes(ctx, [random_element(ctx, rng, 4, n_deg - 1, 3)
                             for _ in range(25)]))
    r.check(ids.integral_laws(ctx, [
        (sphere.reduce_mod_c(random_monomial(ctx, rng, 2)),
         random_element(ctx, rng, 2, n_deg, 2)) for _ in range(10)], [
        (random_element(ctx, rng, 2, n_deg, 2),
         random_element(ctx, rng, 2, n_deg, 2),
         random_element(ctx, rng, 2, n_deg - 1, 2)) for _ in range(8)]))
    r.check(ids.ideal_laws(ctx, random_element(ctx, rng, 2, 1, 2), [
        random_element(ctx, rng, 1, rng.randint(0, n_deg - 1), 2)
        for _ in range(4)]))
    r.case("[volume] != 0",
           not sphere.in_quotient_ideal(sphere.volume_form(ctx)))
    if dim == 5:
        r.check(ids.connes_landi_s4(ctx))


def _suite_hodge(r: _Runner, dim: int, rng: random.Random, moduli, n):
    for d in range(2, dim + 1):
        ctx = DeformationContext(d)
        r.check(ids.hodge_plane_units(ctx))
        r.check(ids.plane_volume_norm(ctx))
        r.check(ids.hodge_plane_basis(ctx))
    ctx = DeformationContext(dim)
    r.check(ids.hodge_sphere_units(ctx))
    r.check(ids.hodge_sphere_basis(ctx))
    r.check(ids.hodge_bilinearity(ctx, [
        (tuple(sorted(rng.sample(range(1, dim + 1), rng.randint(0, dim - 1)))),
         random_element(ctx, rng, 1, 0, 2), random_element(ctx, rng, 1, 0, 2))
        for _ in range(4)]))


def _suite_chern(r: _Runner, dim: int, rng: random.Random, moduli, n):
    n_values = (1, 2) if n is None or n <= 2 else tuple(range(1, n + 1))
    for m in n_values:
        r.check(ids.clifford_relations(chern.GammaRep(m)))
    r.check(ids.clifford_traces(chern.GammaRep(1)))
    r.check(ids.clifford_traces(chern.GammaRep(2), [
        tuple(rng.randint(1, 5) for _ in range(5)) for _ in range(100)]))
    for m in (1, 2):
        r.check(ids.projector_laws(m))
    r.check(ids.curvature_laws(1))
    for m in n_values:
        r.check(ids.charge_laws(m))
    ctx3 = DeformationContext(3)
    r.check(ids.character_laws(ctx3, [
        [sphere.reduce_mod_c(random_monomial(ctx3, rng, 2)) for _ in range(3)]
        for _ in range(10)], [random_monomial(ctx3, rng, 2) for _ in range(3)]))


def _suite_oracle(r: _Runner, dim: int, rng: random.Random, moduli, n):
    ctx = DeformationContext(dim)
    seed = rng.randint(0, 10 ** 6)
    checker = oracle.BatchChecker(ctx, seed, 8, moduli)
    model = checker.models[0]
    r.case("torus unitaries realise the phases", model.realises_phases())
    prng = random.Random(seed + 1)
    pt = oracle.sphere_sample(ctx, prng, 1)
    cc = sphere.central_quadric(ctx)
    r.measure("c evaluates to the identity on sphere samples",
              model.form_sup(cc - Element.one(ctx), pt), "<=", 1e-12)
    draws = [(random_element(ctx, prng, 2, 1, 2),
              random_element(ctx, prng, 2, 1, 2),
              oracle.plane_sample(ctx, prng, 1)[0]) for _ in range(20)]
    r.case("evaluation is an algebra homomorphism (sampled)",
           all(model.multiplies(f, g, p) for f, g, p in draws))
    x1, x2 = Element.x(ctx, 1), Element.x(ctx, 2)
    rel = x1 * x2 - (x2 * x1) * ctx.q_power(1, 2)
    tol = oracle.DEFAULT_TOL
    r.measure("defining relation vanishes in the model",
              checker.element_sup(rel), "<", tol)
    r.measure("check(0) = true", checker.element_sup(Element.zero(ctx)),
              "<", tol)
    r.measure("check(x1) = false", checker.element_sup(Element.x(ctx, 1)),
              ">=", tol)
    memb = (cc - Element.one(ctx)) * random_element(ctx, prng, 2, 2, 2) \
        + cc.d() * random_element(ctx, prng, 2, 1, 2)
    r.measure("perturbed representative has zero sphere class",
              checker.sphere_sup(memb), "<", tol)
    r.measure("volume class does not vanish",
              checker.sphere_sup(sphere.volume_form(ctx)), ">=", tol)


_SUITES = {
    "qphase": _suite_qphase,
    "ncalg": _suite_ncalg,
    "tensor": _suite_tensor,
    "haar": _suite_haar,
    "sphere": _suite_sphere,
    "hodge": _suite_hodge,
    "chern": _suite_chern,
    "oracle": _suite_oracle,
}
SUITE_NAMES = (*_SUITES, "all")


def run_suite(name: str, dim: int = 5, n: int | None = None, seed: int = 42,
              moduli=None) -> SuiteReport:
    """Run one named suite (or 'all'); deterministic for a given seed.  Each
    suite takes the dimension, the chern order n and the oracle moduli.  A
    dimension outside MIN_DIM..MAX_DIM, or n above MAX_N, is refused before
    any suite runs."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if n is not None and n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    lowest = max(MIN_DIM.values()) if name == "all" else MIN_DIM.get(name, 1)
    if dim < lowest:
        raise ValueError(f"dim = {dim} is below the lowest dimension {lowest}"
                         f" of suite {name!r}")
    for what, value, limit in (("dim", dim, MAX_DIM), ("n", n or 1, MAX_N)):
        if value > limit:
            raise ValueError(f"{what} = {value} exceeds the limit {limit}: "
                             f"beyond it a suite takes half a minute or more")
    report = SuiteReport(suite=name, seed=seed)
    runner = _Runner(report)
    started = time.perf_counter()
    for nm in (_SUITES if name == "all" else [name]):
        rng = random.Random(seed ^ zlib.crc32(nm.encode()))
        cases, t0 = report.cases, time.perf_counter()
        _SUITES[nm](runner, dim, rng, moduli, n)
        if name == "all":
            report.suites[nm] = (report.cases - cases, time.perf_counter() - t0)
    report.wall_time_s = time.perf_counter() - started
    return report
