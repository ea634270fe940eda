"""Restrictions of polynomial maps to lines, coefficient matrices of those
restrictions, rank-drop witnesses, non-unit-Jacobian certificates, line
injectivity, and exhaustive collinear-collision search over prime fields.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    BudgetExceeded,
    NonSquare,
    PreconditionFailed,
    TheoremViolation,
    ZeroDirection,
)
from .field_linalg import Matrix, PrimeField, Rationals, generalized_vandermonde
from .mpoly import MPoly, UniPoly, rational_roots
from .polymap import PolyMap

DEFAULT_COLLISION_BUDGET = 10_000_000


@dataclass(frozen=True, slots=True)
class LineData:
    """Coefficient data of G(t) = F(t b) - F(base b).

    ``C`` is the m x len(degrees) matrix with G_i(t) = sum_k C[i][k] *
    t^degrees[k]; the degree list is strictly increasing and covers the
    support of every component.
    """

    b: tuple
    base: object
    degrees: tuple
    C: Matrix

    def component(self, i: int) -> UniPoly:
        field = self.C.field
        size = (self.degrees[-1] + 1) if self.degrees else 0
        coeffs = [field.zero] * size
        for k, d in enumerate(self.degrees):
            coeffs[d] = self.C.rows[i][k]
        return UniPoly(field, coeffs)


@dataclass(frozen=True, slots=True)
class CollisionWitness:
    """A line on which a map takes the same value at least r times.

    Scalars are normalized so the collision points are ``base + params[i] *
    b`` with ``params[0] = 0``; the translated map x -> F(x + base) takes
    equal values at ``params[i] * b``.  ``det_jac_nonconstant`` records
    whether det jac F fails to be a nonzero constant of the field.
    """

    b: tuple
    base: tuple
    params: tuple
    degrees: tuple
    vandermonde_rank: int
    rank_drop_param: Optional[object]
    det_jac_nonconstant: bool


@dataclass(frozen=True, slots=True)
class RankDropResult:
    """Outcome of a rank-drop search along a line.

    ``value`` is the scalar a with (jac F) at a*b killing b, or None when the
    derivative polynomial has no root in the base field; the derivative is
    always returned for inspection.
    """

    value: Optional[object]
    derivative: UniPoly

    @property
    def found(self) -> bool:
        return self.value is not None


@dataclass(frozen=True, slots=True)
class LineInjectivity:
    """Verdict of an injectivity check on one line.

    ``certified`` is False only over Q when no rational counterexample was
    found but the search is not a proof (roots in extension fields are not
    examined).
    """

    injective: bool
    counterexample: Optional[tuple]
    certified: bool


def line_restriction(polymap: PolyMap, b: Sequence, base, degrees=None) -> LineData:
    """Restrict to the line t -> t*b and subtract the value at t = base.

    The degree list defaults to the exact support union of the components;
    callers may pass a covering list instead (for the uses that fix the list
    ahead of time).
    """
    field = polymap.field
    direction = [field.coerce(x) for x in b]
    if all(not x for x in direction):
        raise ZeroDirection("the line direction must be nonzero")
    base = field.coerce(base)
    anchor = polymap.evaluate([base * x for x in direction])
    restrictions = [
        c.restrict_to_line(direction) - v for c, v in zip(polymap.components, anchor)
    ]
    support = set()
    for u in restrictions:
        support |= set(u.support())
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
    coeff_rows = [[u.coefficient(d) for d in degrees] for u in restrictions]
    matrix = Matrix(field, coeff_rows, ncols=len(degrees))
    return LineData(b=tuple(direction), base=base, degrees=degrees, C=matrix)


def verify_coefficient_rank(line: LineData, params: Sequence) -> bool:
    """Check: rk C <= 1 and, when C is nonzero, its last column is nonzero.

    Hypotheses (each checked, with a named failure): the degree list has
    length r + 1, G vanishes at every parameter, and the generalized
    Vandermonde matrix of the parameters against the first r degrees has
    full rank r.  Under those hypotheses the conclusion is a theorem; a
    failing conclusion therefore raises TheoremViolation instead of
    returning False.
    """
    field = line.C.field
    values = [field.coerce(a) for a in params]
    r = len(values)
    if len(line.degrees) != r + 1:
        raise PreconditionFailed(
            f"degree list has length {len(line.degrees)}, expected r + 1 = {r + 1}"
        )
    for a in values:
        image = [line.component(i).evaluate(a) for i in range(line.C.nrows)]
        if any(image):
            raise PreconditionFailed(f"G({field.render(a)}) is not the zero vector")
    vandermonde = generalized_vandermonde(field, values, line.degrees[:r])
    if vandermonde.rank() != r:
        raise PreconditionFailed("the generalized Vandermonde matrix does not have full rank")
    if line.C.rank() > 1:
        raise TheoremViolation("coefficient matrix has rank above 1")
    if not line.C.is_zero() and not any(line.C.column(len(line.degrees) - 1)):
        raise TheoremViolation("nonzero coefficient matrix with a zero last column")
    return True


def find_rank_drop(polymap: PolyMap, b: Sequence, params: Sequence, degrees: Sequence[int]) -> RankDropResult:
    """Search for a scalar a with (jac F) at a*b annihilating b.

    Hypotheses (checked): the map takes equal values at all params[i] * b,
    its term degrees lie in the given strictly increasing list of length
    r + 1 containing 0, and the parameters' generalized Vandermonde matrix
    against the first r degrees has rank r.

    The root search follows the derivative of the first nonvanishing
    component of the line restriction: exhaustively over F_p (smallest root
    first), by the rational-root test over Q (smallest in the canonical
    (|num|, den, sign) order).  When the whole restricted Jacobian is zero
    any scalar works and 0 is returned.  A missing root in the base field is
    an outcome, not an error.
    """
    field = polymap.field
    direction = [field.coerce(x) for x in b]
    if all(not x for x in direction):
        raise ZeroDirection("the line direction must be nonzero")
    values = [field.coerce(a) for a in params]
    r = len(values)
    degrees = tuple(degrees)
    if len(degrees) != r + 1:
        raise PreconditionFailed(
            f"degree list has length {len(degrees)}, expected r + 1 = {r + 1}"
        )
    if any(d2 <= d1 for d1, d2 in zip(degrees, degrees[1:])):
        raise PreconditionFailed("the degree list must be strictly increasing")
    if 0 not in degrees:
        raise PreconditionFailed("the degree list must contain 0")
    support = set(polymap.degree_support())
    if not support <= set(degrees):
        raise PreconditionFailed(
            f"map has term degrees {sorted(support)} outside the list {degrees}"
        )
    images = {polymap.evaluate([a * x for x in direction]) for a in values}
    if len(images) != 1:
        raise PreconditionFailed("the map takes different values at the given points")
    vandermonde = generalized_vandermonde(field, values, degrees[:r])
    if vandermonde.rank() != r:
        raise PreconditionFailed("the generalized Vandermonde matrix does not have full rank")

    line = line_restriction(polymap, direction, values[0], degrees)
    derivatives = [line.component(i).derivative() for i in range(line.C.nrows)]
    pivot = next((h for h in derivatives if not h.is_zero()), None)
    if pivot is None:
        return RankDropResult(value=field.zero, derivative=UniPoly.zero(field))
    root = _smallest_root(field, pivot)
    if root is None:
        return RankDropResult(value=None, derivative=pivot)
    point = [root * x for x in direction]
    image = polymap.jacobian().evaluate(point).matvec(direction)
    if any(image):
        raise TheoremViolation(
            "restricted Jacobian does not annihilate the direction at the root"
        )
    return RankDropResult(value=root, derivative=pivot)


def _smallest_root(field, poly: UniPoly):
    if isinstance(field, PrimeField):
        for t in range(field.p):
            if not poly.evaluate(t):
                return field.coerce(t)
        return None
    roots = rational_roots(poly)
    return roots[0] if roots else None


def verify_collision_obstruction(polymap: PolyMap, witness: CollisionWitness) -> bool:
    """Check that det jac F is not a nonzero constant, given a valid witness.

    Hypotheses (checked): the witness parameters are distinct and take equal
    values along the line of the translated map, the term degrees of the
    translated map lie in the witness degree list (which contains 0 and whose
    last entry is neither 1 nor divisible by the characteristic), and the
    generalized Vandermonde matrix has full rank.  Under these the conclusion
    is a theorem, so a constant nonzero determinant raises TheoremViolation.
    """
    field = polymap.field
    if polymap.m != polymap.n:
        raise NonSquare(f"{polymap.m}x{polymap.n} map")
    values = [field.coerce(a) for a in witness.params]
    r = len(values)
    if len(set(values)) != r:
        raise PreconditionFailed("witness parameters are not pairwise distinct")
    degrees = tuple(witness.degrees)
    if len(degrees) != r + 1:
        raise PreconditionFailed(
            f"degree list has length {len(degrees)}, expected r + 1 = {r + 1}"
        )
    last = degrees[-1]
    if last == 1:
        raise PreconditionFailed("the top degree must differ from 1")
    if field.characteristic and last % field.characteristic == 0:
        raise PreconditionFailed(
            f"the characteristic {field.characteristic} divides the top degree {last}"
        )
    direction = [field.coerce(x) for x in witness.b]
    if all(not x for x in direction):
        raise ZeroDirection("the line direction must be nonzero")
    translated = polymap.translate([field.coerce(c) for c in witness.base])
    support = set(translated.degree_support())
    if 0 not in degrees:
        raise PreconditionFailed("the degree list must contain 0")
    if not support <= set(degrees):
        raise PreconditionFailed(
            f"map has term degrees {sorted(support)} outside the list {degrees}"
        )
    images = {translated.evaluate([a * x for x in direction]) for a in values}
    if len(images) != 1:
        raise PreconditionFailed("the map takes different values at the witness points")
    vandermonde = generalized_vandermonde(field, values, degrees[:r])
    if vandermonde.rank() != r:
        raise PreconditionFailed("the generalized Vandermonde matrix does not have full rank")
    if polymap.is_keller():
        raise TheoremViolation(
            "valid collision witness against a map with unit Jacobian determinant"
        )
    return True


def line_injectivity(polymap: PolyMap, a: Sequence) -> LineInjectivity:
    """Decide injectivity of the map on the line of scalar multiples of a.

    Over a prime field the line is scanned exhaustively and the verdict is
    exact; the counterexample, when present, is the first duplicate pair in
    scan order.  Over Q the verdict is exact when some divided difference of
    a component is a nonzero constant or when a counterexample is found;
    otherwise the search covers rational collision patterns and a finite
    rational-root candidate grid, and returns injective with ``certified``
    False, meaning only that no rational counterexample was found.
    """
    field = polymap.field
    direction = [field.coerce(x) for x in a]
    if all(not x for x in direction):
        return LineInjectivity(injective=True, counterexample=None, certified=True)
    if isinstance(field, PrimeField):
        seen = {}
        for t in range(field.p):
            lam = field.coerce(t)
            value = polymap.evaluate([lam * x for x in direction])
            if value in seen:
                return LineInjectivity(False, (seen[value], lam), True)
            seen[value] = lam
        return LineInjectivity(True, None, True)
    return _line_injectivity_rational(polymap, direction)


def _divided_difference(restriction: UniPoly) -> MPoly:
    """(G(s) - G(t)) / (s - t) as a polynomial in the two variables s, t."""
    field = restriction.field
    acc = {}
    for k, c in enumerate(restriction.coeffs):
        if not c or k == 0:
            continue
        for j in range(k):
            key = (j, k - 1 - j)
            prev = acc.get(key)
            acc[key] = c if prev is None else prev + c
    return MPoly(field, 2, acc)


def _coefficients_in_second_var(poly: MPoly) -> dict:
    """View p(s, t) as a polynomial in t: map t-degree -> UniPoly in s."""
    field = poly.field
    grouped = {}
    for (es, et), c in poly.terms.items():
        grouped.setdefault(et, {})[es] = c
    out = {}
    for et, coeffs in grouped.items():
        size = max(coeffs) + 1
        dense = [field.zero] * size
        for es, c in coeffs.items():
            dense[es] = c
        out[et] = UniPoly(field, dense)
    return out


def _specialize_second_var(poly: MPoly, value) -> UniPoly:
    field = poly.field
    value = field.coerce(value)
    size = max((es for (es, _t) in poly.terms), default=-1) + 1
    dense = [field.zero] * size
    for (es, et), c in poly.terms.items():
        dense[es] = dense[es] + c * value**et
    return UniPoly(field, dense)


def _canonical_rationals():
    yield Fraction(0)
    k = 1
    while True:
        yield Fraction(-k)
        yield Fraction(k)
        k += 1


def _line_injectivity_rational(polymap: PolyMap, direction) -> LineInjectivity:
    field = polymap.field
    restrictions = [c.restrict_to_line(direction) for c in polymap.components]
    if all(len(u.coeffs) <= 1 for u in restrictions):
        # constant on a nontrivial line: everything collides
        pair = (Fraction(0), Fraction(1))
        return LineInjectivity(False, pair, True)
    differences = [_divided_difference(u) for u in restrictions]
    for diff in differences:
        if not diff.is_zero() and diff.is_constant():
            return LineInjectivity(True, None, True)
    pivot = next(diff for diff in differences if not diff.is_zero())

    def on_line(s, t):
        left = polymap.evaluate([s * x for x in direction])
        right = polymap.evaluate([t * x for x in direction])
        return left == right

    # collision patterns s = const: the constant must kill every coefficient
    # of the pivot difference viewed as a polynomial in t, and then every
    # other difference identically
    coeff_polys = _coefficients_in_second_var(pivot)
    first = next(iter(coeff_polys.values()))
    for gamma in (g for g in rational_roots(first)):
        if any(cp.evaluate(gamma) for cp in coeff_polys.values()):
            continue
        if any(not _specialize_second_var(d, gamma).is_zero() for d in differences):
            continue
        partner = next(t for t in _canonical_rationals() if t != gamma)
        if not on_line(gamma, partner):
            raise TheoremViolation("collision pattern failed the evaluation check")
        pair = tuple(sorted((gamma, partner), key=field.sort_key))
        return LineInjectivity(False, pair, True)

    # finite scan: rational roots of the pivot specialized at small anchors
    candidates = {Fraction(0), Fraction(1), Fraction(-1)}
    for anchor in (0, 1, -1):
        special = _specialize_second_var(pivot, anchor)
        if not special.is_zero():
            candidates.update(rational_roots(special))
    ordered = sorted(candidates, key=field.sort_key)
    for i, s in enumerate(ordered):
        for t in ordered[i + 1 :]:
            if on_line(s, t):
                return LineInjectivity(False, (s, t), True)
    return LineInjectivity(True, None, certified=False)


def collision_search(polymap: PolyMap, r: int, budget: Optional[int] = None) -> list:
    """Exhaustively find all lines where r points share an image, over F_p.

    Directions have their first nonzero (pivot) coordinate normalized to 1,
    so the lexicographically smallest point of a line is its canonical
    point, the one whose pivot coordinate is 0.  Each line is built once, as
    a pair (canonical point, direction), and the pairs are visited sorted by
    (base, b), so the output order is deterministic.  One witness is emitted
    per (line, image) pair whose image is attained at least r times, normalized
    by translating the first collision point to the origin; parameters are
    the point offsets along the line and the degree list is 0..r.

    When the witness satisfies the unit-determinant obstruction's hypotheses
    (r at least the map degree, r at least 2, characteristic not dividing r)
    the determinant is required to be non-unit; a violation raises
    TheoremViolation.
    """
    field = polymap.field
    if not isinstance(field, PrimeField):
        raise PreconditionFailed("collision search requires a prime field")
    if polymap.m != polymap.n:
        raise NonSquare(f"{polymap.m}x{polymap.n} map")
    if r < 2:
        raise ValueError("r must be at least 2")
    if budget is None:
        budget = DEFAULT_COLLISION_BUDGET
    p, n = field.p, polymap.n
    required = n * p**n
    if required > budget:
        raise BudgetExceeded(budget, required)
    points = list(itertools.product(range(p), repeat=n))
    table = {pt: polymap.evaluate(pt) for pt in points}
    # (direction, pivot): the first nonzero coordinate of the direction is 1
    directions = [(b, b.index(1)) for b in points if next(filter(None, b), 0) == 1]
    det_nonconstant = not polymap.is_keller()
    map_degree = polymap.degree()
    degrees = tuple(range(r + 1))
    witnesses = []
    for base in points:
        for b, pivot in directions:
            if base[pivot]:
                continue
            line_pts = [tuple((base[k] + t * b[k]) % p for k in range(n)) for t in range(p)]
            groups: dict = {}
            for t, pt in enumerate(line_pts):
                groups.setdefault(table[pt], []).append(t)
            for ts in groups.values():
                if len(ts) < r:
                    continue
                sel = ts[:r]
                origin = line_pts[sel[0]]
                params = tuple(field.coerce(t - sel[0]) for t in sel)
                vandermonde = generalized_vandermonde(field, params, degrees[:r])
                translated = polymap.translate([field.coerce(c) for c in origin])
                try:
                    drop = find_rank_drop(translated, b, params, degrees)
                    drop_value = drop.value
                except PreconditionFailed:
                    drop_value = None
                witness = CollisionWitness(
                    b=tuple(field.coerce(c) for c in b),
                    base=tuple(field.coerce(c) for c in origin),
                    params=params,
                    degrees=degrees,
                    vandermonde_rank=vandermonde.rank(),
                    rank_drop_param=drop_value,
                    det_jac_nonconstant=det_nonconstant,
                )
                if r >= map_degree and r % p != 0 and not det_nonconstant:
                    raise TheoremViolation(
                        "collision witness against a map with unit Jacobian "
                        f"determinant (r = {r}, degree {map_degree})"
                    )
                witnesses.append(witness)
    return witnesses
