"""Certificates on a line: ``LineData`` and ``line_restriction``, the
rank-of-C conclusion check and the non-unit-Jacobian certificate of a
collision witness.  No subcommand runs them, so no CLI process compiles them;
they share ``collinear``'s hypothesis checker and line restriction.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Sequence

from .errors import NonSquare, PreconditionFailed, TheoremViolation
from .mpoly import _coerce_point
from .polymap import PolyMap
from .collinear import _check_hypotheses, _direction, _line_coefficients


class LineData(NamedTuple):
    """Coefficient data of G(t) = F(t b) - F(base b).

    ``C`` is the m x len(degrees) matrix with G_i(t) = sum_k C[i][k] *
    t^degrees[k]; the degree list is strictly increasing and covers the
    support of every component.
    """

    b: tuple
    base: object
    degrees: tuple
    C: Matrix


def line_restriction(polymap: PolyMap, b: Sequence, base, degrees=None) -> LineData:
    """Restrict to the line t -> t*b and subtract the value at t = base.

    The degree list defaults to the exact support union of the components;
    callers may pass a covering list instead (for the uses that fix the list
    ahead of time).
    """
    from .field_linalg import Matrix

    field = polymap.field
    p = field.characteristic
    direction = _direction(polymap, b)
    base = field.coerce(base)
    anchor = polymap.evaluate([base * x for x in direction])
    origin, coerced = [0] * polymap.n, _coerce_point(field, direction)
    restrictions = [_line_coefficients(c, origin, coerced, p) or [0] for c in polymap.components]
    for u, v in zip(restrictions, _coerce_point(field, anchor)):
        u[0] -= v  # a residue difference, zero iff the residues agree
    support = {d for u in restrictions for d, c in enumerate(u) if c}
    if degrees is None:
        degrees = tuple(sorted(support))
    else:
        degrees = tuple(degrees)
        if any(d2 <= d1 for d1, d2 in zip(degrees, degrees[1:])):
            raise PreconditionFailed("the degree list must be strictly increasing")
        if not support <= set(degrees):
            raise PreconditionFailed(
                f"degree list {degrees} does not cover the support {sorted(support)}"
            )
    coeff_rows = [[u[d] if d < len(u) else 0 for d in degrees] for u in restrictions]
    matrix = Matrix(field, coeff_rows, ncols=len(degrees))
    return LineData(b=tuple(direction), base=base, degrees=degrees, C=matrix)


def verify_coefficient_rank(line: LineData, params: Sequence) -> bool:
    """Check: rk C <= 1 and, when C is nonzero, its last column is nonzero.

    Hypotheses (each checked, with a named failure): the degree list is
    nonnegative and strictly increasing of length r + 1, G vanishes at every
    parameter, and the generalized Vandermonde matrix of the parameters
    against the first r degrees has full rank r.  Under those hypotheses the
    conclusion is a theorem; a failing conclusion therefore raises
    TheoremViolation instead of returning False.
    """
    field = line.C.field
    values = [field.coerce(a) for a in params]
    degrees = tuple(line.degrees)
    # G vanishes at every parameter iff its images there all equal the zero
    # vector; G_i(a) is row i of C against the powers of a at the degree
    # list, evaluated only once that list has passed
    images = itertools.chain(
        [(field.zero,) * line.C.nrows],
        (tuple(sum((c * a**d for c, d in zip(row, degrees)), field.zero) for row in line.C.rows)
         for a in values),
    )
    _check_hypotheses(field, values, degrees, images)
    if line.C.rank() > 1:
        raise TheoremViolation("coefficient matrix has rank above 1")
    if not line.C.is_zero() and not any(line.C.column(len(degrees) - 1)):
        raise TheoremViolation("nonzero coefficient matrix with a zero last column")
    return True


def verify_collision_obstruction(polymap: PolyMap, witness: CollisionWitness) -> bool:
    """Check that det jac F is not a nonzero constant, given a valid witness.

    Hypotheses (checked, in this order): the map is square, the direction
    has one coordinate per variable and is nonzero, the witness degree list
    is nonnegative and strictly increasing of length r + 1, contains 0 and
    covers the term degrees of the map translated to the witness base, the
    translated map takes equal values at the params[i] * b, the generalized
    Vandermonde matrix of the parameters against the first r degrees has
    full rank (so the parameters are distinct), and the top degree is
    neither 1 nor divisible by the characteristic.  Under these the
    conclusion is a theorem, so a constant nonzero determinant raises
    TheoremViolation.
    """
    field = polymap.field
    if polymap.m != polymap.n:
        raise NonSquare(f"{polymap.m}x{polymap.n} map")
    values = [field.coerce(a) for a in witness.params]
    degrees = tuple(witness.degrees)
    direction = _direction(polymap, witness.b)
    translated = polymap.translate([field.coerce(c) for c in witness.base])
    images = (translated.evaluate([a * x for x in direction]) for a in values)
    _check_hypotheses(field, values, degrees, images, translated.degree_support())
    last = degrees[-1]
    if last == 1:
        raise PreconditionFailed("the top degree must differ from 1")
    if field.characteristic and last % field.characteristic == 0:
        raise PreconditionFailed(
            f"the characteristic {field.characteristic} divides the top degree {last}"
        )
    if polymap.is_keller():
        raise TheoremViolation(
            "valid collision witness against a map with unit Jacobian determinant"
        )
    return True
