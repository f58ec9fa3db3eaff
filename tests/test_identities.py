"""The identity catalogue: the decision per kind, and one suite case per
family instance."""

from twistcalc import DeformationContext, Element, central_quadric
from twistcalc.identities import Identity, holds
from twistcalc.suites import SuiteReport, _Runner


def test_holds_decides_by_kind():
    ctx = DeformationContext(3)
    c, one = central_quadric(ctx), Element.one(ctx)
    assert holds(Identity("g", "c = 1", "sphere", ctx, c, one))
    assert not holds(Identity("g", "c = 1", "element", ctx, c, one))
    assert holds(Identity("g", "1 = 1", "scalar", ctx, ctx.scalar_one(),
                          ctx.scalar(1)))


def test_one_case_per_family_instance():
    ctx = DeformationContext(3)
    one, zero = ctx.scalar_one(), ctx.scalar_zero()
    family = [Identity("first", "a", "scalar", ctx, one, one),
              Identity("first", "b", "scalar", ctx, one, zero),
              Identity("first", "c", "scalar", ctx, zero, one),
              Identity("second", "d", "scalar", ctx, zero, zero)]
    report = SuiteReport(suite="test")
    _Runner(report).check(family)
    assert report.cases == 2
    assert report.failures == [
        {"expression": "first", "expected": str(zero), "got": str(one)}]
