"""Reference for the exhaustive epsilon contraction family: every pair.

``epsilon_contraction_every_pair`` is the path
``identities.epsilon_contraction`` took before it yielded only the pairs
where a side can be nonzero: one identity for every pair of index tuples of
every rank k, the zero pairs comparing the shared ``ctx.scalar_zero()`` with
itself (69,905 records at D = 4).  The tests compare the two families record
by record.
"""

from itertools import product
from math import factorial

from twistcalc.identities import Identity, _contraction_row
from twistcalc.tensorcalc import antisym_w_column


def epsilon_contraction_every_pair(ctx):
    """eps . eps contracted over D - k slots = (D-k)! W, for every pair of
    index tuples of every rank k."""
    d = ctx.dim
    full = range(1, d + 1)
    group = f"D={d}: epsilon contraction = (D-k)! W, exhaustive"
    zero = ctx.scalar_zero()
    for k in range(d + 1):
        fact = factorial(d - k)
        # each tuple's text is formatted once, not once per pair: at D = 4
        # formatting 70k labels would cost a third of the sums
        tuples = [(t, f"{t}") for t in product(full, repeat=k)]
        # (D-k)! W, read one column per lower tuple and transposed into rows
        w_rows: dict = {}
        for lo, _ in tuples:
            for up, w in antisym_w_column(ctx, lo).items():
                w_rows.setdefault(up, {})[lo] = w.scale(fact)
        for up, up_text in tuples:
            row = _contraction_row(ctx, up)
            w_row = w_rows.get(up, {})
            for lo, lo_text in tuples:
                yield Identity(group, f"D={d} contraction {up_text}|{lo_text}",
                               "scalar", ctx, row.get(lo, zero),
                               w_row.get(lo, zero))
