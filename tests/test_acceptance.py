"""Acceptance criteria.

One test per criterion; each prints a single PASS/FAIL line.  Criteria 3-9
check the identity families of ``twistcalc.identities`` at their own
dimensions and seeds, exactly (zero tolerance); the numeric concordance
criterion re-exports every one of those identities, and the families the
suites alone check exactly, as lhs - rhs, to the torus/classical model and
requires max entry magnitude below 1e-9.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from helpers import (basis_form, classical_gram_pairing,
                     classical_sphere_moment, random_element,
                     random_index_pair, random_monomial)
from twistcalc import DeformationContext, Element
from twistcalc import identities as ids
from twistcalc.chern import (GammaRep, charge, charge_from_curvature,
                             charge_integral)
from twistcalc.haar import haar_plane
from twistcalc.oracle import BatchChecker
from twistcalc.tensorcalc import hodge_plane, pairing_plane, volume_element

TOL = 1e-9


def _finish(num: int, name: str, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)})"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}")
    assert not failures, f"criterion {num} failures: {failures[:10]}"


@lru_cache(maxsize=1)
def _catalogue() -> dict:
    """Criterion -> its identities: catalogue families at the criterion's
    dimensions, on random inputs drawn from the criterion's own seed."""
    ctx = {d: DeformationContext(d) for d in range(2, 7)}
    cat = {f"c{c}": [] for c in range(3, 10)}
    rng4 = random.Random(40)
    for d in (3, 4, 5):
        cat["c3"] += ids.haar_well_defined(ctx[d], 6)
        draws = [(random_monomial(ctx[d], rng4, 3),
                  random_monomial(ctx[d], rng4, 3),
                  random_monomial(ctx[d], rng4, 4)) for _ in range(100)]
        cat["c4"] += ids.haar_trace(ctx[d], [(f, g) for f, g, _ in draws])
        cat["c4"] += ids.haar_reality(ctx[d], [h for _, _, h in draws])
        cat["c5"] += ids.haar_moments(ctx[d])
        cat["c5"] += ids.haar_square_moments(ctx[d])
    rng6 = random.Random(60)
    for n in (2, 3, 4):
        cat["c6"] += ids.stokes(ctx[n + 1], [
            random_element(ctx[n + 1], rng6, 4, n - 1, 3) for _ in range(50)])
    for d in (2, 3, 4, 5):
        cat["c7"] += ids.hodge_plane_units(ctx[d])
        cat["c7"] += ids.hodge_plane_basis(ctx[d])
    for n in (1, 2, 3, 4):
        cat["c7"] += ids.hodge_sphere_units(ctx[n + 1])
        cat["c7"] += ids.hodge_sphere_basis(ctx[n + 1])
    for d in range(2, 7):
        cat["c8"] += ids.braid_squares(ctx[d])
        cat["c8"] += ids.braid_equation(ctx[d])
    for d in (2, 3, 4):
        cat["c8"] += ids.epsilon_contraction(ctx[d])
    rng8 = random.Random(80)
    cat["c8"] += ids.epsilon_contraction_draws(ctx[5], [
        random_index_pair(rng8, 5, rng8.randint(1, 4)) for _ in range(30)])
    for d in (3, 4, 5):
        cat["c8"] += ids.w_partial_traces(ctx[d], [
            random_index_pair(rng8, d, k - 1) for k in (2, 3)
            for _ in range(10)])
    cat["c8"] += ids.w_recursion(ctx[5], [
        random_index_pair(rng8, 5, k) for k in (1, 2, 3, 4)
        for _ in range(10 if k < 4 else 4)])
    for n in (1, 2, 3):
        cat["c9"] += ids.clifford_relations(GammaRep(n))
    cat["c9"] += ids.clifford_traces(GammaRep(1))
    rng9 = random.Random(90)
    cat["c9"] += ids.clifford_traces(GammaRep(2), [
        tuple(rng9.randint(1, 5) for _ in range(5)) for _ in range(500)])
    cat["c10"] = _suite_families(ctx)
    return cat


def _suite_families(ctx) -> list:
    """The families only the suites check exactly, for the oracle: each on
    inputs drawn from its own seed."""
    c3, c5 = ctx[3], ctx[5]
    out = []
    for d in range(2, 7):
        out += ids.pair_table(ctx[d])
        out += ids.volume_form_laws(ctx[d])
    rng = random.Random(100)
    out += ids.phase_examples(c5, [
        (c5.scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
         + c5.i_unit().scale(rng.randint(-2, 2))).shifted(
             (rng.randint(-2, 2),)) for _ in range(20)])
    for d in (2, 3, 4, 5):
        out += ids.algebra_relations(ctx[d])
        out += ids.basis_counts(ctx[d])
        out += ids.plane_volume_norm(ctx[d])
    rng = random.Random(101)
    for d in (2, 3, 5):
        out += ids.confluence(ctx[d], [
            [("dx" if rng.random() < 0.4 else "x", rng.randint(1, d))
             for _ in range(rng.randint(2, 8))] for _ in range(12)])
    rng = random.Random(102)
    out += ids.form_laws(c5, [random_element(c5, rng, 2, rng.randint(0, 3), 2)
                              for _ in range(15)],
                         random_element(c5, rng, 2, 1, 3))
    out += ids.haar_values(c5)
    out += ids.connes_landi_s4(c5)
    rng = random.Random(103)
    for d in (3, 4, 5):
        out += ids.haar_units(ctx[d])
        out += ids.derivative_laws(ctx[d], [
            (rng.randint(1, d), rng.randint(1, d), random_monomial(ctx[d], rng,
                                                                    4))
            for _ in range(15)])
    rng = random.Random(104)
    for d in (3, 4, 5):
        n = d - 1
        out += ids.sphere_relations(ctx[d])
        out += ids.integral_laws(ctx[d], [
            (random_monomial(ctx[d], rng, 2), random_element(ctx[d], rng, 2,
                                                              n, 2))
            for _ in range(10)], [
            (random_element(ctx[d], rng, 2, n, 2),
             random_element(ctx[d], rng, 2, n, 2),
             random_element(ctx[d], rng, 2, n - 1, 2)) for _ in range(8)])
        out += ids.ideal_laws(ctx[d], random_element(ctx[d], rng, 2, 1, 2), [
            random_element(ctx[d], rng, 1, rng.randint(0, n - 1), 2)
            for _ in range(4)])
        out += ids.hodge_bilinearity(ctx[d], [
            (tuple(sorted(rng.sample(range(1, d + 1), rng.randint(0, n)))),
             random_element(ctx[d], rng, 1, 0, 2),
             random_element(ctx[d], rng, 1, 0, 2)) for _ in range(4)])
    rng = random.Random(105)
    for d in (2, 3, 4, 5):
        out += ids.metric_epsilon(ctx[d], [
            tuple(rng.sample(range(1, d + 1), d)) for _ in range(12)])
    out += ids.pairing_symmetry(c5, [
        random_index_pair(rng, 5, rng.randint(1, 3)) for _ in range(15)])
    for n in (1, 2):
        out += ids.projector_laws(n)
        out += ids.charge_laws(n)
    out += ids.curvature_laws(1)
    rng = random.Random(106)
    out += ids.character_laws(c3, [
        [random_monomial(c3, rng, 2) for _ in range(3)] for _ in range(10)],
        [random_monomial(c3, rng, 2) for _ in range(3)])
    return out


def _fails(crit: str) -> list:
    return [i.label for i in _catalogue()[crit] if not ids.holds(i)]


# ------------------------------------------------------------- criteria --

def test_c01_instanton_charge():
    started = time.time()
    failures = []
    for n in (1, 2):
        ctx = DeformationContext(2 * n + 1)
        got = charge(n, ctx)
        if got != ctx.scalar_one():
            failures.append(f"charge({n}) = {got}")
    elapsed = time.time() - started
    if elapsed >= 300:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5 minutes")
    _finish(1, f"instanton charge = 1 exactly (n=1,2; {elapsed:.1f}s)",
            failures)


def test_c02_intermediate_charge_integral():
    failures = []
    for n in (1, 2):
        ctx = DeformationContext(2 * n + 1)
        want = ctx.i_power(n).scale(
            Fraction(math.factorial(2 * n), 2 ** (n + 1)))
        got = charge_integral(n)
        if got != want:
            failures.append(f"n={n}: {got} != {want}")
    _finish(2, "integral Tr[e(de)^2n] = (2n)! i^n / 2^(n+1)", failures)


def test_c03_haar_well_definedness():
    _finish(3, "h((c-1)f) = 0, deg <= 6, D in {3,4,5}", _fails("c3"))


def test_c04_haar_trace_and_reality():
    _finish(4, "h(fg)=h(gf), conj h(f)=h(f*), 100 pairs per dimension",
            _fails("c4"))


def test_c05_classical_moments():
    # the exact moments are catalogue identities; the classical moments they
    # must equal come from the independent sphere integral in helpers
    failures = _fails("c5")
    for d in (3, 4, 5):
        for i in range(1, d + 1):
            pair, square = [0] * d, [0] * d
            pair[i - 1] += 1
            pair[d - i] += 1
            square[i - 1] = 2
            if classical_sphere_moment(d, pair) != Fraction(1, d):
                failures.append(f"classical D={d} h(x{i} x{i}')")
            if i != d + 1 - i and classical_sphere_moment(d, square) != 0:
                failures.append(f"classical D={d} h((x{i})^2)")
    _finish(5, "h(x^i x^i*) = 1/D = classical moment", failures)


def test_c06_stokes():
    _finish(6, "integral d(theta) = 0, 50 random forms per N in {2,3,4}",
            _fails("c6"))


def test_c07_hodge_suites():
    _finish(7, "Hodge identities on full bases (plane D<=5, sphere N<=4)",
            _fails("c7"))


def test_c08_antisymmetrizer_identities():
    _finish(8, "contraction, partial traces, recursion vs sum, braid",
            _fails("c8"))


def test_c09_clifford_suite():
    _finish(9, "Clifford relations (n<=3) and trace formula", _fails("c9"))


def test_c10_oracle_concordance():
    failures = []
    by_ctx: dict = {}
    for crit, identities in _catalogue().items():
        for i in identities:
            by_ctx.setdefault(i.lhs.ctx, []).append((crit, i))
    checked = 0
    for ctx, items in by_ctx.items():
        bc = BatchChecker(ctx, seed=42, points=20)
        sup_of = {"scalar": bc.scalar_sup, "element": bc.element_sup,
                  "sphere": bc.sphere_sup}
        for crit, i in items:
            sup = sup_of[i.kind](i.lhs - i.rhs)
            checked += 1
            if sup >= TOL:
                failures.append(f"{crit}/{i.label}: sup={sup:.2e}")
    _finish(10, f"oracle concordance over {checked} exported identities",
            failures)


def test_c11_commutative_limit():
    failures = []
    # Bott charge with all phases forced to exponent zero
    for n in (1, 2):
        ctx = DeformationContext(2 * n + 1, commutative=True)
        if charge(n, ctx) != ctx.scalar_one():
            failures.append(f"classical charge({n}) != 1")
    if charge_from_curvature(1, DeformationContext(3, commutative=True)) != \
            DeformationContext(3, commutative=True).scalar_one():
        failures.append("classical curvature charge != 1")
    # classical moments, exact
    for d in (3, 4, 5):
        ctx = DeformationContext(d, commutative=True)
        rng = random.Random(110 + d)
        for _ in range(25):
            exps = [0] * d
            for _ in range(rng.randint(0, 2)):
                a = rng.randint(1, d)
                exps[a - 1] += 1
                exps[ctx.primed(a) - 1] += 1
            if rng.random() < 0.3:
                exps[rng.randrange(d)] += 1  # odd/unbalanced cases too
            f = Element(ctx, {(tuple(exps), ()): ctx.scalar_one()})
            got = haar_plane(ctx, f)
            want = ctx.scalar(classical_sphere_moment(d, exps))
            if got != want:
                failures.append(f"classical moment D={d} {exps}")
        failures += [f"classical {i.label}" for i in ids.haar_moments(ctx)
                     if not ids.holds(i)]
    # classical Hodge: the plane Hodge families, and the pairing equals the
    # Gram determinant
    for d in (2, 3, 4):
        ctx = DeformationContext(d, commutative=True)
        failures += [f"classical {i.label}" for i in ids.hodge_plane_basis(ctx)
                     if not ids.holds(i)]
        v = volume_element(ctx)
        for k in range(0, d + 1):
            for u in combinations(range(1, d + 1), k):
                a = basis_form(ctx, u)
                for t in combinations(range(1, d + 1), k):
                    b = basis_form(ctx, t)
                    want = Element.from_scalar(
                        ctx, Fraction(classical_gram_pairing(ctx, u, t)))
                    if pairing_plane(a, b) != want:
                        failures.append(f"classical pairing D={d} {u}|{t}")
                    if a * hodge_plane(b) != want * v:
                        failures.append(f"classical defining D={d} {u}|{t}")
    _finish(11, "commutative limit: Bott charge, moments, classical Hodge",
            failures)
