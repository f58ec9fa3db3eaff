"""Named verification suites behind the CLI: each runs a module's invariants.

Every case is (expression, expected, got); a report collects the failures.
The shared identity families come from the ``identities`` catalogue: a suite
draws their random inputs, and each family instance is one case.  Cases are
generated deterministically from the seed, so identical seeds give identical
reports (wall time aside), and every case label is unique.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import filterfalse, groupby, permutations
from operator import attrgetter

import numpy as np

from . import chern, identities, oracle, sphere, tensorcalc
from .exprio import format_element
from .haar import haar_plane, lambda_coefficient, laplacian, partial_derivative
from .identities import basis_form
from .ncalg import Element
from .qphase import DeformationContext

SUITE_NAMES = ("qphase", "ncalg", "tensor", "haar", "sphere", "hodge",
               "chern", "oracle", "all")


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

    def to_dict(self, include_wall_time: bool = True) -> dict:
        out = {
            "suite": self.suite,
            "cases": self.cases,
            "failures": self.failures,
            "seed": self.seed,
        }
        if include_wall_time:
            out["wall_time_s"] = round(self.wall_time_s, 3)
        if self.suites:
            out["suites"] = {}
            for nm, (cases, wall) in self.suites.items():
                entry = {"cases": cases}
                if include_wall_time:
                    entry["wall_time_s"] = round(wall, 3)
                out["suites"][nm] = entry
        return out


class _Runner:
    def __init__(self, report: SuiteReport):
        self.report = report

    def case(self, expression: str, ok: bool, expected="0", got="nonzero"):
        self.report.cases += 1
        if not ok:
            self.report.failures.append({
                "expression": expression,
                "expected": str(expected),
                "got": str(got),
            })

    def equal(self, expression: str, got, expected):
        self.case(expression, got == expected, expected=expected, got=got)

    def zero(self, expression: str, el):
        self.case(expression, not el, expected="0",
                  got=str(el) if el else "0")

    def check(self, family):
        """One case per run of catalogue identities sharing a group: it
        passes when every identity holds, and a failure reports the sides of
        the first identity that does not."""
        for group, run in groupby(family, key=attrgetter("group")):
            bad = next(filterfalse(identities.holds, run), None)
            if bad is None:
                self.case(group, True)
            else:
                self.case(group, False, expected=bad.rhs, got=bad.lhs)


def random_element(ctx, rng, xdeg=2, form_deg=0, nterms=3, with_phases=True):
    """Random sparse element: small rational coefficients, bounded degrees."""
    out = Element.zero(ctx)
    for _ in range(nterms):
        e = [0] * ctx.dim
        for _ in range(rng.randint(0, xdeg)):
            e[rng.randrange(ctx.dim)] += 1
        s = tuple(sorted(rng.sample(range(1, ctx.dim + 1), form_deg)))
        c = ctx.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        if with_phases and ctx.nparams:
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

def _suite_qphase(r: _Runner, dim: int, rng: random.Random, moduli):
    for d in range(1, 9):
        ctx = DeformationContext(d)
        for p in range(1, d + 1):
            acc = [0] * ctx.nparams
            for i in range(1, d + 1):
                red = ctx.pair_reduction(i, p)
                if red is not None:
                    acc[red[0]] += red[1]
            r.case(f"D={d}: prod_i q_(i,{p}) = 1", not any(acc),
                   got=str(acc))
        for a in range(1, d + 1):
            for b in range(1, d + 1):
                ab = ctx.reduce_pair(a, b)
                ba = ctx.reduce_pair(b, a)
                pp = ctx.reduce_pair(d + 1 - a, d + 1 - b)
                r.case(f"D={d}: q_({a},{b}) q_({b},{a}) = 1",
                       all(x + y == 0 for x, y in zip(ab, ba)))
                r.case(f"D={d}: q_({a},{b}) = q_({a}',{b}')", ab == pp)
    ctx = DeformationContext(5)
    r.equal("D=5: q_(4,5)", ctx.reduce_pair(4, 5), (-1,))
    r.equal("D=5: q_(3,1) trivial", ctx.reduce_pair(3, 1), (0,))
    r.equal("D=5: q_(1,2) generator", ctx.reduce_pair(1, 2), (1,))
    s = ctx.i_unit() * ctx.q_power(1, 2)
    r.equal("conj(i q) = -i q^-1", s.conj(),
            (-ctx.i_unit()) * ctx.q_power(1, 2, -1))
    for j in range(20):
        c = ctx.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
        c = c + ctx.i_unit().scale(rng.randint(-2, 2))
        c = c.shifted((rng.randint(-2, 2),))
        r.equal(f"conj(conj(s)) = s #{j}", c.conj().conj(), c)
        th = [rng.uniform(0, 2 * math.pi)]
        r.case(f"eval(conj s) = conj(eval s) #{j}",
               abs(c.conj().eval(th) - c.eval(th).conjugate()) < 1e-12)
    r.case("eval(q, pi) = -1",
           abs(ctx.q_power(1, 2).eval([math.pi]) + 1.0) < 1e-12)
    r.zero("q_(1,2) q_(2,1) - 1", ctx.q_power(1, 2) * ctx.q_power(2, 1)
           - ctx.scalar_one())


def _suite_ncalg(r: _Runner, dim: int, rng: random.Random, moduli):
    ctx = DeformationContext(max(dim, 2))
    x, dx = Element.x, Element.dx
    r.equal("x2*x1 = q^-1 x1x2", x(ctx, 2) * x(ctx, 1),
            (x(ctx, 1) * x(ctx, 2)) * ctx.q_power(2, 1))
    r.zero("dx1^dx1", dx(ctx, 1) * dx(ctx, 1))
    if ctx.dim == 5:
        r.equal("dx3*x1 = x1*dx3", dx(ctx, 3) * x(ctx, 1),
                x(ctx, 1) * dx(ctx, 3))
    r.equal("d(x1) = dx1", x(ctx, 1).d(), dx(ctx, 1))
    f = x(ctx, 1) * x(ctx, 2)
    r.equal("Leibniz on x1x2", f.d(),
            x(ctx, 1).d() * x(ctx, 2) + x(ctx, 1) * x(ctx, 2).d())
    # confluence: word product independent of association, random words
    for d in (2, 3, 6):
        c = DeformationContext(d)
        for j in range(12):
            word = [("dx" if rng.random() < 0.4 else "x", rng.randint(1, d))
                    for _ in range(rng.randint(2, 8))]
            left = Element.one(c)
            for kind, a in word:
                g = Element.x(c, a) if kind == "x" else Element.dx(c, a)
                left = left * g
            right = Element.one(c)
            for kind, a in reversed(word):
                g = Element.x(c, a) if kind == "x" else Element.dx(c, a)
                right = g * right
            r.equal(f"D={d} confluence of {word} #{j}", left, right)
    # basis dimension 2^D: degree-k wedge monomials reorder onto C(D,k) keys
    c = DeformationContext(min(dim, 5))
    for k in range(0, c.dim + 1):
        keys = set()
        for idx in permutations(range(1, c.dim + 1), k):
            el = Element.one(c)
            for a in idx:
                el = el * Element.dx(c, a)
            keys |= {key[1] for key in el.terms}
        r.equal(f"degree-{k} basis count C({c.dim},{k})", len(keys),
                math.comb(c.dim, k))
    # volume form central and real
    for d in range(2, 7):
        c = DeformationContext(d)
        v = tensorcalc.volume_element(c)
        central = all(Element.x(c, a) * v == v * Element.x(c, a)
                      for a in range(1, d + 1))
        r.case(f"D={d}: volume form central", central)
        r.equal(f"D={d}: volume form real", v.star(), v)
    # star examples and properties
    c5 = DeformationContext(5)
    r.equal("star(x1) = x5", Element.x(c5, 1).star(), Element.x(c5, 5))
    r.equal("star(dx1^dx2) = -dx4^dx5",
            (Element.dx(c5, 1) * Element.dx(c5, 2)).star(),
            -(Element.dx(c5, 4) * Element.dx(c5, 5)))
    for j in range(15):
        k = rng.randint(0, 3)
        a = random_element(c5, rng, 2, k, 2)
        r.equal(f"star(star(f)) = f #{j}", a.star().star(), a)
        r.equal(f"star(d f) = d(star f) #{j}", a.d().star(), a.star().d())
        r.zero(f"dd f #{j}", a.d().d())
    text_el = random_element(c5, rng, 2, 1, 3)
    from .exprio import parse_expr
    r.equal("print/parse round trip", parse_expr(c5, format_element(text_el)),
            text_el)


def _suite_tensor(r: _Runner, dim: int, rng: random.Random, moduli):
    for d in range(2, 7):
        ctx = DeformationContext(d)
        r.check(identities.braid_squares(ctx))
        r.check(identities.braid_equation(ctx))
    d = min(dim, 5)
    r.check(identities.w_recursion(DeformationContext(d), [
        random_index_pair(rng, d, k) for k, count in ((2, 12), (3, 12), (4, 4))
        for _ in range(count)]))
    for d in (3, 4):
        r.check(identities.epsilon_contraction(DeformationContext(d)))
    r.check(identities.epsilon_contraction_draws(
        DeformationContext(5), distinct_index_pairs(rng, 5, 1, 4, 25)))
    for d in (3, 4, 5):
        r.check(identities.w_partial_traces(DeformationContext(d), [
            random_index_pair(rng, d, k - 1) for k in (2, 3)
            for _ in range(8)]))
    # metric/epsilon lemma
    for d in (2, 3, 4, 5):
        ctx = DeformationContext(d)
        det_sign = -1 if (d // 2) % 2 else 1
        dets = ctx.scalar_zero()
        for idx in permutations(range(1, d + 1)):
            coef = tensorcalc.epsilon_q(ctx, idx)
            if all(idx[j - 1] == ctx.primed(j) for j in range(1, d + 1)):
                dets = dets + coef
        r.equal(f"D={d}: q-determinant of the metric", dets,
                ctx.scalar(det_sign))
        ok2 = ok3 = True
        for _ in range(12):
            idx = tuple(rng.sample(range(1, d + 1), d))
            primed = tuple(ctx.primed(a) for a in idx)
            lhs = tensorcalc.epsilon_q(ctx, primed)
            rhs = tensorcalc.epsilon_q(ctx, idx).scale(det_sign)
            if lhs != rhs:
                ok2 = False
            lhs3 = tensorcalc.epsilon_qinv(ctx, idx)
            rhs3 = tensorcalc.epsilon_q(ctx, tuple(reversed(idx))).scale(det_sign)
            if lhs3 != rhs3:
                ok3 = False
        r.case(f"D={d}: priming indices multiplies epsilon by det g", ok2)
        r.case(f"D={d}: inverse-phase epsilon = reversed epsilon det g", ok3)
    # mixed tensor/wedge pairing identity
    ctx = DeformationContext(min(dim, 5))
    d = ctx.dim
    for j, (a_idx, i_idx) in enumerate(distinct_index_pairs(rng, d, 1, 3, 15)):
        lhs = tensorcalc.antisym_w(
            ctx, tuple(reversed(i_idx)),
            tuple(ctx.primed(a) for a in reversed(a_idx)))
        rhs = tensorcalc.antisym_w(
            ctx, a_idx, tuple(ctx.primed(i) for i in i_idx))
        r.equal(f"wedge/tensor pairing symmetry {a_idx}|{i_idx} #{j}", lhs,
                rhs)


def _suite_haar(r: _Runner, dim: int, rng: random.Random, moduli):
    for d in dict.fromkeys((3, 4, dim)):  # once each, also at dim 3 or 4
        ctx = DeformationContext(d)
        r.equal(f"D={d}: h(1) = 1", haar_plane(ctx, Element.one(ctx)),
                ctx.scalar_one())
        r.equal(f"D={d}: h(c) = 1",
                haar_plane(ctx, sphere.central_quadric(ctx)), ctx.scalar_one())
        r.check(identities.haar_moments(ctx))
        r.check(identities.haar_well_defined(ctx, 4))
        pairs = [(random_monomial(ctx, rng), random_monomial(ctx, rng))
                 for _ in range(40)]
        r.check(identities.haar_trace(ctx, pairs))
        r.check(identities.haar_reality(ctx, [f for f, _ in pairs]))
        # positivity under numeric evaluation
        ok_pos = True
        for _ in range(10):
            f = random_element(ctx, rng, 2, 0, 2)
            s = haar_plane(ctx, f.star() * f)
            if s.conj() != s:
                ok_pos = False
            th = [rng.uniform(0, 2 * math.pi) for _ in range(ctx.nparams)]
            v = s.eval(th)
            if abs(v.imag) > 1e-9 or v.real < -1e-12:
                ok_pos = False
        r.case(f"D={d}: h(f* f) real and nonnegative", ok_pos)
        r.equal(f"D={d}: Delta(x1) = 0",
                laplacian(Element.x(ctx, 1)), Element.zero(ctx))
        ok_dd = True
        for _ in range(15):
            a, b = rng.randint(1, d), rng.randint(1, d)
            f = random_monomial(ctx, rng, 4)
            lhs = partial_derivative(ctx, a, partial_derivative(ctx, b, f))
            rhs = partial_derivative(
                ctx, b, partial_derivative(ctx, a, f)) * ctx.q_power(a, b)
            if lhs != rhs:
                ok_dd = False
        r.case(f"D={d}: derivative exchange relation", ok_dd)
    ctx = DeformationContext(5)
    r.equal("D=5: h(x3 x3) = 1/5",
            haar_plane(ctx, Element.x(ctx, 3, 2)), ctx.scalar(Fraction(1, 5)))
    r.equal("D=5: h(x1 x5) = 1/5",
            haar_plane(ctx, Element.x(ctx, 1) * Element.x(ctx, 5)),
            ctx.scalar(Fraction(1, 5)))
    r.equal("lambda_1(5) = 1/10", lambda_coefficient(5, 1), Fraction(1, 10))


def _suite_sphere(r: _Runner, dim: int, rng: random.Random, moduli):
    n_deg = dim - 1
    ctx = DeformationContext(dim)
    one = Element.one(ctx)
    cc = sphere.central_quadric(ctx)
    dc = cc.d()
    vol_el = tensorcalc.volume_element(ctx)
    r.equal("reduce(c) = 1", sphere.reduce_mod_c(cc), one)
    r.zero("reduce((c-1) x2)",
           sphere.reduce_mod_c((cc - one) * Element.x(ctx, 2)))
    c3 = DeformationContext(3)
    g3 = Element.x(c3, 2, 2) + (Element.x(c3, 1) * Element.x(c3, 3)).scale(2)
    r.equal("D=3: reduce(x2^2 + 2 x1x3) = 1", sphere.reduce_mod_c(g3),
            Element.one(c3))
    ok = True
    for k in range(1, dim + 1):
        om = sphere.omega_form(ctx, k)
        for l in range(1, dim + 1):
            w = om * Element.dx(ctx, l)
            want = vol_el if l == k else Element.zero(ctx)
            if w != want:
                ok = False
    r.case("omega_k ^ dx^l = delta V", ok)
    vol_form = sphere.volume_form(ctx)
    r.equal("sum_k x^k omega_k ^ dc = 2 c V", vol_form * dc,
            (cc * vol_el).scale(2))
    r.equal("top_decompose(volume) = c", sphere.top_decompose(vol_form), cc)
    r.equal("integral of the volume = 1", sphere.integrate_form(vol_form),
            ctx.scalar_one())
    r.check(identities.stokes(ctx, [random_element(ctx, rng, 4, n_deg - 1, 3)
                                    for _ in range(25)]))
    ok_tr = True
    for _ in range(10):
        a = sphere.reduce_mod_c(random_monomial(ctx, rng, 2))
        om = random_element(ctx, rng, 2, n_deg, 2)
        if sphere.integrate_form(a * om) != sphere.integrate_form(om * a):
            ok_tr = False
    r.case("integral[a w] = integral[w a]", ok_tr)
    ok_ri = True
    for _ in range(8):
        om = random_element(ctx, rng, 2, n_deg, 2)
        al = random_element(ctx, rng, 2, n_deg, 2)
        be = random_element(ctx, rng, 2, n_deg - 1, 2)
        pert = om + (cc - one) * al + dc * be
        if sphere.integrate_form(pert) != sphere.integrate_form(om):
            ok_ri = False
    r.case("integral independent of the representative", ok_ri)
    r.case("[c w] = [w]", sphere.sphere_equal(cc * vol_form, vol_form))
    r.case("[dc ^ beta] = 0", sphere.in_quotient_ideal(
        dc * random_element(ctx, rng, 2, 1, 2)))
    r.case("[volume] = [volume]", sphere.sphere_equal(vol_form, vol_form))
    r.case("[volume] != 0", not sphere.in_quotient_ideal(vol_form))
    ok_j = True
    for _ in range(4):
        k = rng.randint(0, n_deg - 1)
        memb = (cc - one) * random_element(ctx, rng, 1, k, 2)
        if not (sphere.in_quotient_ideal(memb.d())
                and sphere.in_quotient_ideal(memb.star())):
            ok_j = False
    r.case("J is a differential star ideal (samples)", ok_j)
    r.case("volume class is real",
           sphere.sphere_equal(vol_form.star(), vol_form))
    # Connes-Landi relations for the 4-sphere under the standard substitution
    if dim == 5:
        ok_cl = _connes_landi_relations()
        r.case("S^4 coordinate relations match the torus-sphere form", ok_cl)


def _connes_landi_relations():
    ctx = DeformationContext(5)
    x = lambda a: Element.x(ctx, a)
    q = ctx.q_power(1, 2)
    rel = [
        x(1) * x(2) - (x(2) * x(1)) * q,
        x(1) * x(4) - (x(4) * x(1)) * ctx.q_power(1, 2, -1),
        x(1) * x(5) - x(5) * x(1),
        x(2) * x(5) - (x(5) * x(2)) * q,
        x(4) * x(5) - (x(5) * x(4)) * ctx.q_power(1, 2, -1),
        x(2) * x(4) - x(4) * x(2),
    ]
    if any(rel_i for rel_i in rel):
        return False
    for a in range(1, 6):
        if x(3) * x(a) != x(a) * x(3):
            return False
    quad = sphere.reduce_mod_c(
        (x(1) * x(5) + x(2) * x(4)).scale(2) + Element.x(ctx, 3, 2))
    return quad == Element.one(ctx)


def _suite_hodge(r: _Runner, dim: int, rng: random.Random, moduli):
    for d in range(2, dim + 1):
        ctx = DeformationContext(d)
        v = tensorcalc.volume_element(ctx)
        r.check(identities.hodge_plane_units(ctx))
        r.equal(f"D={d}: <V,V> = 1", tensorcalc.pairing_plane(v, v),
                Element.one(ctx))
        r.check(identities.hodge_plane_basis(ctx))
    n_deg = dim - 1
    ctx = DeformationContext(dim)
    r.check(identities.hodge_sphere_units(ctx))
    r.check(identities.hodge_sphere_basis(ctx))
    ok2 = True
    for _ in range(4):
        k = rng.randint(0, n_deg)
        th = basis_form(ctx, tuple(sorted(rng.sample(range(1, dim + 1), k))))
        f = random_element(ctx, rng, 1, 0, 2)
        h = random_element(ctx, rng, 1, 0, 2)
        if not sphere.sphere_equal(sphere.hodge_sphere(f * th * h),
                                   f * sphere.hodge_sphere(th) * h):
            ok2 = False
    r.case(f"N={n_deg}: function bilinearity of the star", ok2)


def _suite_chern(r: _Runner, dim: int, rng: random.Random, moduli, n=2):
    n_values = (1, 2) if n is None or n <= 2 else tuple(range(1, n + 1))
    for m in n_values:
        r.check(identities.clifford_relations(chern.GammaRep(m)))
    r.check(identities.clifford_traces(chern.GammaRep(1)))
    r.check(identities.clifford_traces(chern.GammaRep(2), [
        tuple(rng.randint(1, 5) for _ in range(5)) for _ in range(100)]))
    for m in (1, 2):
        repm, e = chern.instanton_projector(m)
        r.case(f"n={m}: projector idempotent", chern.is_projector(e))
        size = 2 ** m
        herm = all(e[a, b].star() == e[b, a]
                   for a in range(size) for b in range(size))
        r.case(f"n={m}: projector hermitian", herm)
    rep, e = chern.instanton_projector(1)
    F = chern.curvature(e)
    anti = all(sphere.sphere_equal(F[a, b].star(), -F[b, a])
               for a in range(2) for b in range(2))
    r.case("n=1: curvature antihermitian", anti)
    for m in n_values:
        ctx = DeformationContext(2 * m + 1)
        got = chern.charge_integral(m)
        want = ctx.i_power(m).scale(
            Fraction(math.factorial(2 * m), 2 ** (m + 1)))
        r.equal(f"n={m}: integral Tr[e(de)^{2*m}] = (2n)! i^n / 2^(n+1)",
                got, want)
        r.equal(f"n={m}: charge = 1", chern.charge(m), ctx.scalar_one())
        # Stokes-discarded piece vanishes
        repm, em = chern.instanton_projector(m)
        de = em.map(lambda f: f.d())
        acc = de * de
        for _ in range(m - 1):
            acc = acc * de * de
        r.zero(f"n={m}: integral Tr[(de)^{2*m}]",
               Element.from_scalar(ctx, sphere.integrate_form(acc.trace())))
    r.equal("n=1: charge via curvature", chern.charge_from_curvature(1),
            DeformationContext(3).scalar_one())
    # cyclicity of the character on random monomial tuples (N = 2)
    ctx3 = DeformationContext(3)
    ok_cyc = True
    for _ in range(10):
        funcs = [sphere.reduce_mod_c(random_monomial(ctx3, rng, 2))
                 for _ in range(3)]
        t1 = chern.character_tau(funcs)
        t2 = chern.character_tau([funcs[-1]] + funcs[:-1])
        if t1 != t2:
            ok_cyc = False
    r.case("N=2: character invariant under the signed cyclic shift", ok_cyc)
    ok_unit = all(
        not chern.character_tau([Element.one(ctx3),
                                 random_monomial(ctx3, rng, 2),
                                 Element.one(ctx3)])
        for _ in range(3))
    r.case("tau vanishes when a later entry is 1", ok_unit)


def _suite_oracle(r: _Runner, dim: int, rng: random.Random, moduli):
    ctx = DeformationContext(dim)
    seed = rng.randint(0, 10 ** 6)
    checker = oracle.BatchChecker(ctx, seed, 8, moduli)
    model = checker.models[0]
    ok = True
    for a in range(1, dim + 1):
        ua = model.unitaries[a]
        up = model.unitaries[ctx.primed(a)]
        if not up.matches(ua.adjoint()):
            ok = False
        for b in range(1, dim + 1):
            ub = model.unitaries[b]
            z = model.eval_scalar(ctx.q_power(a, b))
            if not (ua @ ub).matches(ub @ ua, scale=z):
                ok = False
    r.case("torus unitaries realise the phases", ok)
    prng = random.Random(seed + 1)
    pt = oracle.sphere_sample(ctx, prng)
    cc = sphere.central_quadric(ctx)
    r.case("c evaluates to the identity on sphere samples",
           model.form_sup(cc - Element.one(ctx), [pt]) <= 1e-12)
    ok_h = True
    zero = np.zeros(model.size)
    for _ in range(20):
        f = random_element(ctx, prng, 2, 1, 2)
        g = random_element(ctx, prng, 2, 1, 2)
        p = oracle.plane_sample(ctx, prng)
        lhs = _word_sums((key[1], z, model.word(key))
                         for key, z in model.term_values(f * g, p))
        rhs = _word_sums(_product_words(model, f, g, p))
        for key in lhs.keys() | rhs.keys():
            if not np.allclose(lhs.get(key, zero), rhs.get(key, zero),
                               atol=1e-8):
                ok_h = False
    r.case("evaluation is an algebra homomorphism (sampled)", ok_h)
    x1, x2 = Element.x(ctx, 1), Element.x(ctx, 2)
    rel = x1 * x2 - (x2 * x1) * ctx.q_power(1, 2)
    tol = oracle.DEFAULT_TOL
    r.case("defining relation vanishes in the model",
           checker.element_sup(rel) < tol)
    r.case("check(0) = true", checker.element_sup(Element.zero(ctx)) < tol)
    r.case("check(x1) = false",
           not checker.element_sup(Element.x(ctx, 1)) < tol)
    memb = (cc - Element.one(ctx)) * random_element(ctx, prng, 2, 2, 2) \
        + cc.d() * random_element(ctx, prng, 2, 1, 2)
    r.case("perturbed representative has zero sphere class",
           checker.sphere_sup(memb) < tol)
    r.case("volume class does not vanish",
           not checker.sphere_sup(sphere.volume_form(ctx)) < tol)


def _product_words(model, f: Element, g: Element, point):
    """(dx indices, value, word) of each term of the model's f times g: the
    words multiply and the dx indices anticommute into ascending order."""
    right = [(key, z, model.word(key))
             for key, z in model.term_values(g, point)]
    for k1, z1 in model.term_values(f, point):
        w1 = model.word(k1)
        for k2, z2, w2 in right:
            s1, s2 = k1[1], k2[1]
            if set(s1) & set(s2):
                continue
            inv = sum(1 for x in s1 for y in s2 if x > y)
            yield tuple(sorted(s1 + s2)), (-1) ** inv * z1 * z2, w1 @ w2


def _word_sums(terms) -> dict:
    """{(dx indices, perm[0]) -> matrix entries} of a sum of scaled words.

    Word perms are translations, so words with equal perm[0] fill the same
    entries and words with different perm[0] share none: the grouped entry
    vectors are the whole matrix of each dx component."""
    out: dict = {}
    for dxs, z, w in terms:
        key = (dxs, int(w.perm[0]))
        vec = z * w.phase
        out[key] = out[key] + vec if key in out else vec
    return out


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


def _stable_seed(seed: int, name: str) -> int:
    import zlib
    return seed ^ zlib.crc32(name.encode())


def run_suite(name: str, dim: int = 5, n: int | None = None, seed: int = 42,
              moduli=None) -> SuiteReport:
    """Run one named suite (or 'all'); deterministic for a given seed."""
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    if n is not None and n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    report = SuiteReport(suite=name, seed=seed)
    runner = _Runner(report)
    started = time.perf_counter()
    names = [s for s in SUITE_NAMES if s != "all"] if name == "all" else [name]
    for nm in names:
        rng = random.Random(_stable_seed(seed, nm))
        fn = _SUITES[nm]
        cases, t0 = report.cases, time.perf_counter()
        if nm == "chern" and n is not None:
            fn(runner, dim, rng, moduli, n=n)
        else:
            fn(runner, dim, rng, moduli)
        if name == "all":
            report.suites[nm] = (report.cases - cases, time.perf_counter() - t0)
    report.wall_time_s = time.perf_counter() - started
    return report
