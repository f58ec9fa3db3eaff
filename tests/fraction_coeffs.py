"""Reference Q(i, sqrt2) coefficient arithmetic on 4-tuples of Fractions.

A coefficient here is (p, q, r, s) meaning p + q*i + r*sqrt2 + s*i*sqrt2
with each part a ``Fraction``: the representation the engine used before it
moved to integer numerators over one denominator.  The tests compare the
engine's canonical 5-tuples against these functions and printers.
"""

from fractions import Fraction
from math import lcm


def from_engine(u):
    """Fraction 4-tuple of an engine coefficient (a, b, c, d, n)."""
    return tuple(Fraction(x, u[4]) for x in u[:4])


def to_engine(v):
    """Engine 5-tuple of a Fraction 4-tuple, over the least denominator."""
    n = lcm(*(Fraction(x).denominator for x in v))
    return tuple(int(x * n) for x in v) + (n,)


def c_add(u, v):
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2], u[3] + v[3])


def c_neg(u):
    return (-u[0], -u[1], -u[2], -u[3])


def c_mul(u, v):
    a, b, c, d = u
    e, f, g, h = v
    return (
        a * e - b * f + 2 * (c * g - d * h),
        a * f + b * e + 2 * (c * h + d * g),
        a * g + c * e - b * h - d * f,
        a * h + d * e + b * g + c * f,
    )


def c_conj(u):
    return (u[0], -u[1], u[2], -u[3])


def c_inv(u):
    # multiply by the three Galois conjugates; the norm is rational
    w = c_mul(c_mul((u[0], -u[1], u[2], -u[3]), (u[0], u[1], -u[2], -u[3])),
              (u[0], -u[1], -u[2], u[3]))
    n = c_mul(u, w)
    if n[1] or n[2] or n[3] or not n[0]:
        raise ZeroDivisionError("coefficient is not invertible")
    return tuple(x / n[0] for x in w)


def c_scale(u, r):
    r = Fraction(r)
    return (u[0] * r, u[1] * r, u[2] * r, u[3] * r)


def c_eval(u) -> complex:
    rt2 = 2.0 ** 0.5
    return complex(float(u[0]) + rt2 * float(u[2]),
                   float(u[1]) + rt2 * float(u[3]))


# -- printers, as ``ExactScalar.__str__`` and ``format_scalar`` wrote them ----

_UNIT_NAMES = (None, "i", "sqrt2", "i*sqrt2")


def _coeff_pieces(v):
    pieces = []
    for idx, name in enumerate(_UNIT_NAMES):
        r = v[idx]
        if not r:
            continue
        if name is None:
            fac = [str(r)]
        elif r == 1:
            fac = [name]
        else:
            fac = [str(r), name]
        pieces.append(fac)
    return pieces


def scalar_str(terms) -> str:
    """``str`` of a scalar given as {phase exponents -> Fraction 4-tuple}."""
    parts = []
    for k in sorted(terms):
        phases = [f"@{j}^{e}" for j, e in enumerate(k) if e]
        for piece in _coeff_pieces(terms[k]):
            fac = piece + phases
            if len(fac) > 1 and fac[0] == "1":
                fac = fac[1:]
            parts.append("*".join(fac))
    return " + ".join(parts) if parts else "0"


def format_scalar(terms, ctx) -> str:
    """Grammar text of a scalar given as {phase exponents -> 4-tuple}."""
    parts = []
    for phase in sorted(terms):
        qfacs = [f"q({ctx.params[j][0]},{ctx.params[j][1]})^{e}"
                 for j, e in enumerate(phase) if e]
        for slot, unit in enumerate(_UNIT_NAMES):
            r = terms[phase][slot]
            if not r:
                continue
            facs = []
            if abs(r) != 1 or not (unit or qfacs):
                facs.append(str(abs(r)))
            if unit:
                facs.append(unit)
            facs.extend(qfacs)
            parts.append((1 if r > 0 else -1, "*".join(facs)))
    if not parts:
        return "0"
    sign, text = parts[0]
    out = ("-" if sign < 0 else "") + text
    for sign, text in parts[1:]:
        out += (" - " if sign < 0 else " + ") + text
    return out
