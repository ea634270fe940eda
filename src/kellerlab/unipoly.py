"""Dense univariate polynomials: the ``UniPoly`` result type and rational
roots.

A restriction t -> poly(base + t b) is its coefficient list, built by
``collinear._line_coefficients``; a ``UniPoly`` is built from that list only
for a result (``MPoly.restrict_to_line``, a rank-drop derivative) or a
``rational_roots`` argument over Q.  Its users import this module when they
build one, so ``collide`` and a ``line-check`` over F_p never load it.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Sequence

from .errors import FieldMismatch
from .scalars import Field, Rationals
from .mpoly import _format_term


class UniPoly:
    """Dense univariate polynomial; coefficient ``k`` multiplies ``t^k``."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: Sequence):
        cs = [field.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def evaluate(self, t):
        t = self.field.coerce(t)
        acc = self.field.zero
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def render(self, var: str = "t") -> str:
        if self.is_zero():
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            if not c:
                continue
            mono = "" if k == 0 else (var if k == 1 else f"{var}^{k}")
            parts.append(_format_term(self.field, c, mono, first=not parts))
        return "".join(parts)

    def __repr__(self):
        return self.render()


def rational_roots(poly: UniPoly) -> list:
    """All rational roots of a nonzero polynomial over Q, canonically sorted.

    Classic rational-root test after clearing denominators; the canonical
    order is by (|numerator|, denominator, sign), so 0 < -1 < 1 < -1/2 < ...
    """
    if not isinstance(poly.field, Rationals):
        raise FieldMismatch("rational root search needs a polynomial over Q")
    if poly.is_zero():
        raise ValueError("the zero polynomial vanishes everywhere")
    from fractions import Fraction

    roots = set()
    coeffs = list(poly.coeffs)
    shift = 0
    while not coeffs[0]:
        coeffs.pop(0)
        shift += 1
    if shift:
        roots.add(Fraction(0))
    if len(coeffs) > 1:
        scale = lcm(*[c.denominator for c in coeffs])
        ints = [int(c * scale) for c in coeffs]
        leading = _divisors(abs(ints[-1]))
        for p in _divisors(abs(ints[0])):
            for q in leading:
                if gcd(p, q) != 1:
                    continue
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if poly.evaluate(cand) == 0:
                        roots.add(cand)
    qq = poly.field
    return sorted(roots, key=qq.sort_key)


def _divisors(n: int) -> list:
    divs = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            divs.append(d)
            if d != n // d:
                divs.append(n // d)
        d += 1
    return sorted(divs)
