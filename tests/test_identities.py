"""The identity catalogue: the decision per kind, and one suite case per
family instance."""

import random
from functools import lru_cache
from itertools import product

from contraction_reference import epsilon_contraction_every_pair
from hodge_reference import hodge_plane_every_pair, hodge_sphere_every_pair
from twistcalc import DeformationContext, Element, central_quadric
from twistcalc.exprio import parse_expr
from twistcalc.identities import (Identity, _contraction_row,
                                  epsilon_contraction, hodge_plane_basis,
                                  hodge_sphere_basis, holds)
from twistcalc.sphere import _first_residue, in_quotient_ideal
from twistcalc.suites import (SuiteReport, _Runner, distinct_index_pairs,
                              random_index_pair)
from twistcalc.tensorcalc import (antisym_w_bruteforce, epsilon_q,
                                  epsilon_qinv)


def test_holds_decides_by_kind():
    ctx = DeformationContext(3)
    c, one = central_quadric(ctx), Element.one(ctx)
    assert holds(Identity("g", "c = 1", "sphere", c, one))
    assert not holds(Identity("g", "c = 1", "element", c, one))
    assert holds(Identity("g", "1 = 1", "scalar", ctx.scalar_one(),
                          ctx.scalar(1)))


def test_one_case_per_family_instance():
    ctx = DeformationContext(3)
    one, zero = ctx.scalar_one(), ctx.scalar_zero()
    family = [Identity("first", "a", "scalar", one, one),
              Identity("first", "b", "scalar", one, zero),
              Identity("first", "c", "scalar", zero, one),
              Identity("second", "d", "scalar", zero, zero)]
    report = SuiteReport(suite="test")
    _Runner(report).check(family)
    assert report.cases == 2
    assert report.failures == [
        {"expression": "first", "expected": "0", "got": "1"}]


def test_failing_sphere_identity_records_its_residue():
    # the record of a failing sphere identity carries the first nonzero
    # residue of lhs - rhs, which parses back to a form outside J: a 2-form
    # block for the 1-forms, a 1-form block for the 0-forms.  The expected
    # and got of every failing record, scalar, element or sphere, parse back
    # to the identity's sides
    ctx = DeformationContext(4)
    c, one, dx1 = central_quadric(ctx), Element.one(ctx), Element.dx(ctx, 1)
    q = ctx.q_power(1, 2)
    family = [Identity("relation", "c = 1", "sphere", c, one),
              Identity("relation", "c dx1 = 2 dx1", "sphere", c * dx1,
                       dx1.scale(2)),
              Identity("quadric", "c = 2", "sphere", c, one.scale(2)),
              Identity("phase", "q = i sqrt2 / q", "scalar", q,
                       ctx.i_unit() * ctx.sqrt2() * q.inverse()),
              Identity("product", "c x1 = x1", "element",
                       c * Element.x(ctx, 1), Element.x(ctx, 1))]
    report = SuiteReport(suite="test")
    _Runner(report).check(family)
    assert [f["expression"] for f in report.failures] == [
        "relation", "quadric", "phase", "product"]
    for f, bad in zip(report.failures, family[1:]):
        if bad.kind == "scalar":
            sides = [Element.from_scalar(ctx, s) for s in (bad.rhs, bad.lhs)]
        else:
            sides = [bad.rhs, bad.lhs]
        assert [parse_expr(ctx, f[k]) for k in ("expected", "got")] == sides
        assert ("residue" in f) is (bad.kind == "sphere")
    assert report.failures[2]["expected"] == "i*sqrt2*q(1,2)^-1"
    assert report.failures[1]["residue"] == "-2*x4*dx1"
    for f, bad, degree in zip(report.failures, family[1:3], (2, 1)):
        residue = parse_expr(ctx, f["residue"])
        assert residue == _first_residue(bad.lhs - bad.rhs)
        assert residue and residue.form_degree() == degree
        assert not in_quotient_ideal(residue)


def _full_contraction(ctx, up, lo, cyclic):
    """The contraction summed over every l in {1..D}^(D-k)."""
    s = ctx.scalar_zero()
    for l in product(range(1, ctx.dim + 1), repeat=ctx.dim - len(up)):
        u, v = (l + up, l + lo) if cyclic else (up + l, lo + l)
        s = s + epsilon_q(ctx, u) * epsilon_qinv(ctx, v)
    return s


def test_contraction_sums_over_complement_orders_only():
    # every pair of index tuples at D = 3, random pairs at D = 4 and 5
    ctx = DeformationContext(3)
    zero = ctx.scalar_zero()
    for k in range(4):
        tuples = list(product(range(1, 4), repeat=k))
        for up, lo in product(tuples, repeat=2):
            for cyclic in (False, True):
                assert _contraction_row(ctx, up, cyclic).get(lo, zero) == \
                    _full_contraction(ctx, up, lo, cyclic), (up, lo, cyclic)
    rng = random.Random(12)
    for d in (4, 5):
        ctx = DeformationContext(d)
        zero = ctx.scalar_zero()
        repeats = set()
        for _ in range(30):
            up, lo = random_index_pair(rng, d, rng.randint(0, d))
            repeats.add(len(set(up)) < len(up) or len(set(lo)) < len(lo))
            for cyclic in (False, True):
                assert _contraction_row(ctx, up, cyclic).get(lo, zero) == \
                    _full_contraction(ctx, up, lo, cyclic), (up, lo, cyclic)
        assert repeats == {True, False}


def test_contraction_family_keeps_every_nonzero_pair():
    # the family against the every-pair reference: the same records wherever
    # a side is nonzero, and it drops only pairs comparing the context's zero
    for d in (2, 3, 4):
        ctx = DeformationContext(d)
        kept, dropped = [], []
        for i in epsilon_contraction_every_pair(ctx):
            (kept if i.lhs or i.rhs else dropped).append(i)
        family = list(epsilon_contraction(ctx))
        assert [i.label for i in family] == [i.label for i in kept]
        assert family == kept
        assert all(i.lhs is i.rhs and not i.lhs for i in dropped)


def test_contraction_family_omits_only_zero_pairs():
    # each pair the family omits is zero by the sum over all of {1..D}^(D-k)
    # and by W's permutation sum: every omitted pair at D = 2, 3; at D = 4
    # every repeat-free one and a sample of those with a repeated index
    rng = random.Random(15)
    for d in (2, 3, 4):
        ctx = DeformationContext(d)
        labels = {i.label for i in epsilon_contraction(ctx)}
        free, repeats = [], []
        for k in range(d + 1):
            for up, lo in product(product(range(1, d + 1), repeat=k),
                                  repeat=2):
                if f"D={d} contraction {up}|{lo}" not in labels:
                    (free if len(set(up)) == len(set(lo)) == k
                     else repeats).append((up, lo))
        if d == 4:
            assert len(free) == 564
            repeats = rng.sample(repeats, 200)
        for up, lo in free + repeats:
            assert not _full_contraction(ctx, up, lo, False), (up, lo)
            assert not antisym_w_bruteforce(ctx, up, lo), (up, lo)


@lru_cache(maxsize=1)
def _hodge_cases() -> list:
    """(context, family records, every-pair reference records): the plane
    at D = 2..6, its commutative limit at D = 2..4 and the sphere at
    N = 1..5."""
    cases = [(hodge_plane_basis, hodge_plane_every_pair, DeformationContext(d))
             for d in range(2, 7)]
    cases += [(hodge_plane_basis, hodge_plane_every_pair,
               DeformationContext(d, commutative=True)) for d in (2, 3, 4)]
    cases += [(hodge_sphere_basis, hodge_sphere_every_pair,
               DeformationContext(n + 1)) for n in range(1, 6)]
    return [(ctx, list(family(ctx)), list(reference(ctx)))
            for family, reference, ctx in cases]


def test_hodge_families_keep_the_reference_records():
    # wherever the family yields a record it is the reference's, in the
    # reference's order
    for ctx, got, reference in _hodge_cases():
        labels = {i.label for i in got}
        assert len(labels) == len(got)
        assert got == [i for i in reference if i.label in labels], ctx


def test_hodge_families_omit_only_zero_records():
    # every pair the family leaves out, recomputed by the reference, is zero
    # on both sides as an element; at D = 5 that is 880 plane records and
    # 310 sphere records
    omitted_at_5 = []
    for ctx, got, reference in _hodge_cases():
        labels = {i.label for i in got}
        omitted = [i for i in reference if i.label not in labels]
        assert all(not i.lhs and not i.rhs for i in omitted), ctx
        if ctx.dim == 5 and not ctx.commutative:
            omitted_at_5.append(len(omitted))
    assert omitted_at_5 == [880, 310]


def test_distinct_index_pairs():
    # no pair repeats while unseen pairs remain; a space smaller than the
    # count is used up, then drawn from again
    pairs = distinct_index_pairs(random.Random(3), 5, 1, 4, 25)
    assert len(pairs) == len(set(pairs)) == 25
    assert all(1 <= len(up) == len(lo) <= 4 for up, lo in pairs)
    small = distinct_index_pairs(random.Random(3), 1, 1, 3, 15)
    assert len(small) == 15 and set(small) == {
        ((1,) * k, (1,) * k) for k in (1, 2, 3)}
