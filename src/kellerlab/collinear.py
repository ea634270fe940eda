"""Restrictions of polynomial maps to lines, coefficient matrices of those
restrictions, rank-drop witnesses, non-unit-Jacobian certificates, line
injectivity, and exhaustive collinear-collision search over prime fields.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import NamedTuple, Optional, Sequence

from .errors import (
    ArityMismatch,
    BudgetExceeded,
    NonSquare,
    PreconditionFailed,
    TheoremViolation,
    ZeroDirection,
)
from .scalars import Fp, PrimeField
from .mpoly import _coerce_point, _term_values
from .polymap import PolyMap
from .unipoly import UniPoly, _line_coefficients, rational_roots

DEFAULT_COLLISION_BUDGET = 10_000_000


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


class CollisionWitness(NamedTuple):
    """A line on which a map takes the same value at least r times.

    Scalars are normalized so the collision points are ``base + params[i] *
    b`` with ``params[0] = 0``; the translated map x -> F(x + base) takes
    equal values at ``params[i] * b``.  ``rank_drop_param`` is
    ``find_rank_drop(F.translate(base), b, params, degrees).value``: a
    scalar s with (jac F)(base + s b) killing b, 0 when F is constant along
    the line, and None when that call's hypotheses fail or the restricted
    derivative has no root in the field.  ``det_jac_nonconstant`` records
    whether det jac F fails to be a nonzero constant of the field.
    """

    b: tuple
    base: tuple
    params: tuple
    degrees: tuple
    vandermonde_rank: int
    rank_drop_param: Optional[object]
    det_jac_nonconstant: bool


class RankDropResult(NamedTuple):
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


class LineInjectivity(NamedTuple):
    """Verdict of an injectivity check on one line.

    ``certified`` is False only over Q when no rational counterexample was
    found but the search is not a proof (roots in extension fields are not
    examined).
    """

    injective: bool
    counterexample: Optional[tuple]
    certified: bool


def _direction(polymap: PolyMap, b: Sequence) -> list:
    """The direction ``b`` coerced into the map's field; ArityMismatch unless
    it has one coordinate per variable, checked before anything else about
    it (a zero direction of the wrong length is still the wrong length), and
    then ZeroDirection when it is zero."""
    direction = [polymap.field.coerce(x) for x in b]
    if len(direction) != polymap.n:
        raise ArityMismatch(f"point of length {len(direction)} for a map on {polymap.n} variables")
    if all(not x for x in direction):
        raise ZeroDirection("the line direction must be nonzero")
    return direction


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


def _check_hypotheses(field, values: list, degrees: tuple, images, support=None) -> None:
    """Raise PreconditionFailed unless the collinear hypotheses hold.

    Checked in this order: the degree list has length r + 1 for r =
    len(values), is strictly increasing and is nonnegative; when the map's
    degree ``support`` is given, the list contains 0 and covers it; no two
    of the ``images`` differ (an iterable, read only once the degree list
    has passed; an empty one passes); and the generalized Vandermonde matrix
    of the values against the first r degrees has rank r, which also makes
    the values pairwise distinct.
    """
    r = len(values)
    if len(degrees) != r + 1:
        raise PreconditionFailed(
            f"degree list has length {len(degrees)}, expected r + 1 = {r + 1}"
        )
    if any(d2 <= d1 for d1, d2 in zip(degrees, degrees[1:])):
        raise PreconditionFailed("the degree list must be strictly increasing")
    if degrees[0] < 0:
        raise PreconditionFailed("the degree list must be nonnegative")
    if support is not None:
        if 0 not in degrees:
            raise PreconditionFailed("the degree list must contain 0")
        if not set(support) <= set(degrees):
            raise PreconditionFailed(
                f"map has term degrees {sorted(support)} outside the list {degrees}"
            )
    if len(set(images)) > 1:
        raise PreconditionFailed("the map takes different values at the given points")
    from .field_linalg import generalized_vandermonde

    if generalized_vandermonde(field, values, degrees[:r]).rank() != r:
        raise PreconditionFailed("the generalized Vandermonde matrix does not have full rank")


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


def find_rank_drop(polymap: PolyMap, b: Sequence, params: Sequence, degrees: Sequence[int]) -> RankDropResult:
    """Search for a scalar a with (jac F) at a*b annihilating b.

    Hypotheses (checked): b has one coordinate per variable and is nonzero,
    the map takes equal values at all params[i] * b, its term degrees lie in
    the given nonnegative, strictly increasing list of length r + 1
    containing 0, and the parameters, of which there is at least one, have a
    generalized Vandermonde matrix of rank r against the first r degrees.

    The root search follows the derivative of the first nonvanishing
    component of the line restriction: exhaustively over F_p (smallest root
    first), by the rational-root test over Q (smallest in the canonical
    (|num|, den, sign) order).  When the whole restricted Jacobian is zero
    any scalar works and 0 is returned.  A missing root in the base field is
    an outcome, not an error.
    """
    field = polymap.field
    direction = _direction(polymap, b)
    values = [field.coerce(a) for a in params]
    if not values:
        raise PreconditionFailed("the parameter list must not be empty")
    degrees = tuple(degrees)
    images = (polymap.evaluate([a * x for x in direction]) for a in values)
    _check_hypotheses(field, values, degrees, images, polymap.degree_support())

    # the restriction's anchor F(values[0] * b) is a constant, which the
    # derivative drops, and the degree list was checked to cover the support
    coerced = _coerce_point(field, direction)
    pivot = _line_derivative(polymap, [0] * polymap.n, coerced)
    root = _smallest_root(field, pivot)
    if root is not None:
        point = _coerce_point(field, [root * x for x in direction])
        _check_annihilation(polymap.jacobian(), point, coerced)
    return RankDropResult(value=root, derivative=UniPoly(field, pivot))


def _smallest_root(field, coeffs: list, shift: int = 0):
    """The smallest s with g(shift + s) = 0, or None when there is none, for
    the polynomial g with the coefficient list ``coeffs`` (constant first,
    no trailing zero): int residues over F_p, fractions over Q.

    Over F_p, s runs through 0..p-1, each tested by Horner's rule on the
    residues; only the root found becomes an ``Fp``.  At most
    ``DEFAULT_COLLISION_BUDGET`` values are tested: when p is larger and none
    of them is a root, BudgetExceeded is raised.  Over Q the shift is always
    0 and s is the first rational root in the canonical (|num|, den, sign)
    order.  The zero polynomial vanishes everywhere and gives 0, first in
    both orders.
    """
    if isinstance(field, PrimeField):
        p = field.p
        for s in range(min(p, DEFAULT_COLLISION_BUDGET)):
            t, acc = (shift + s) % p, 0
            for c in reversed(coeffs):
                acc = (acc * t + c) % p
            if not acc:
                return field.coerce(s)
        if p > DEFAULT_COLLISION_BUDGET:
            raise BudgetExceeded(DEFAULT_COLLISION_BUDGET, p)
        return None
    if not coeffs:
        return field.zero
    roots = rational_roots(UniPoly(field, coeffs))
    return roots[0] if roots else None


def _check_annihilation(jacobian: PolyMatrix, point: list, direction: list) -> None:
    """Raise TheoremViolation unless the Jacobian at the point kills the
    direction (the conclusion at a root of the restricted derivative).

    ``point`` and ``direction`` are in the form ``_coerce_point`` gives, int
    residues over F_p, and J b is summed on those without a field element.
    """
    p = jacobian.field.characteristic
    for row in jacobian.grid:
        acc = 0
        for entry, d in zip(row, direction):
            if d:
                acc += sum(_term_values(entry, point, p)) * d
        if acc % p if p else acc:
            raise TheoremViolation(
                "restricted Jacobian does not annihilate the direction at the root"
            )


def _line_derivative(polymap: PolyMap, base: list, b: list) -> list:
    """The coefficient list of H_i' for the first i with H_i' nonzero, where
    H_i(t) = F_i(base + t b); the empty list when every H_i' is zero.
    ``base`` and ``b`` come from ``_coerce_point``, and the list is in the
    form ``_line_coefficients`` gives: constant first, no trailing zero, int
    residues over F_p.

    H is expanded from the map's terms (``_line_coefficients``), never
    interpolated from its values on the line: over F_p a polynomial of
    degree p or more is not determined by its values, and neither is its
    derivative (x1^3 and x1 agree on F_3).
    """
    p = polymap.field.characteristic
    for component in polymap.components:
        coeffs = _line_coefficients(component, base, b, p)
        derivative = [k * c % p if p else k * c for k, c in enumerate(coeffs)][1:]
        while derivative and not derivative[-1]:
            derivative.pop()
        if derivative:
            return derivative
    return []


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


def line_injectivity(polymap: PolyMap, a: Sequence) -> LineInjectivity:
    """Decide injectivity of the map on the line of scalar multiples of a,
    which must have one coordinate per variable (a zero ``a`` is a point,
    on which every map is injective).

    Over a prime field the line is scanned in order, at most
    ``DEFAULT_COLLISION_BUDGET`` points of it, and the verdict is exact; the
    counterexample, when present, is the first duplicate pair in scan order.
    Each restriction G_i(t) = F_i(t a) is built once and evaluated by
    Horner's rule on int residues, and an image is kept as one base-p int.
    When p is larger and no duplicate was found, BudgetExceeded is raised.
    Over Q the verdict is exact when some component restricts to degree 1
    (its divided difference is a nonzero constant) or when a counterexample
    is found; otherwise the search covers a finite rational-root candidate
    grid, evaluating the map once per candidate, and returns injective with
    ``certified`` False, meaning only that no rational counterexample was
    found.
    """
    field = polymap.field
    try:
        direction = _direction(polymap, a)
    except ZeroDirection:
        return LineInjectivity(injective=True, counterexample=None, certified=True)
    p = field.characteristic
    origin, coerced = [0] * polymap.n, _coerce_point(field, direction)
    restrictions = [_line_coefficients(f, origin, coerced, p) for f in polymap.components]
    if p:
        highest_first = [g[::-1] for g in restrictions]
        seen = {}
        for t in range(min(p, DEFAULT_COLLISION_BUDGET)):
            image = 0
            for coeffs in highest_first:
                value = 0
                for c in coeffs:
                    value = (value * t + c) % p
                image = image * p + value
            if image in seen:
                return LineInjectivity(False, (field.coerce(seen[image]), field.coerce(t)), True)
            seen[image] = t
        if p > DEFAULT_COLLISION_BUDGET:
            raise BudgetExceeded(DEFAULT_COLLISION_BUDGET, p)
        return LineInjectivity(True, None, True)
    return _line_injectivity_rational(polymap, direction, restrictions)


def _quotient_at(coeffs: list, v) -> list:
    """The coefficients q_0..q_{K-1} of (G(s) - G(v)) / (s - v) for G with
    coefficients c_0..c_K, by synthetic division: q_{K-1} = c_K and q_{m-1} =
    c_m + v q_m.  Since q_m = sum_j c_{j+m+1} v^j, they are also the t^m
    coefficients of the divided difference (G(s) - G(t)) / (s - t) at s = v:
    that polynomial is symmetric, and its t^m coefficient is the suffix
    c_{m+1}..c_K read as a polynomial in s.
    """
    q, acc = [], 0
    for c in reversed(coeffs[1:]):
        acc = acc * v + c
        q.append(acc)
    return q[::-1]


def _line_injectivity_rational(polymap: PolyMap, direction, restrictions: list) -> LineInjectivity:
    """The Q branch of ``line_injectivity``, on the coefficient lists of
    the restrictions G_i(t) = F_i(t a); the divided difference of G_i is
    zero iff G_i is constant and a nonzero constant iff deg G_i = 1."""
    from fractions import Fraction

    field = polymap.field
    if all(len(g) <= 1 for g in restrictions):
        # constant on a nontrivial line: everything collides
        pair = (Fraction(0), Fraction(1))
        return LineInjectivity(False, pair, True)
    if any(len(g) == 2 for g in restrictions):
        return LineInjectivity(True, None, True)
    pivot = next(g for g in restrictions if len(g) > 1)

    # finite scan: rational roots of the pivot difference at small anchors;
    # the pivot has degree at least 2, so each difference ends in its
    # nonzero top coefficient
    candidates = {Fraction(0), Fraction(1), Fraction(-1)}
    for anchor in (0, 1, -1):
        candidates.update(rational_roots(UniPoly(field, _quotient_at(pivot, anchor))))
    ordered = sorted(candidates, key=field.sort_key)
    images = [polymap.evaluate([t * x for x in direction]) for t in ordered]
    for (s, u), (t, v) in itertools.combinations(zip(ordered, images), 2):
        if u == v:
            return LineInjectivity(False, (s, t), True)
    return LineInjectivity(True, None, certified=False)


def _class_lines(points: list, p: int) -> dict:
    """The canonical line through each pair of the points, mapped to the set
    of parameters of the points on it.  For points x < y, k is the first
    coordinate where they differ, the direction is b = (y - x) / (y_k - x_k)
    and the base x - x_k b is 0 at k, so a point's parameter is its own
    coordinate k."""
    lines: dict = {}
    for i, x in enumerate(points):
        for y in points[i + 1 :]:
            k = next(k for k, (u, v) in enumerate(zip(x, y)) if u != v)
            inverse = pow(y[k] - x[k], -1, p)
            b = tuple((v - u) * inverse % p for u, v in zip(x, y))
            base = tuple((u - x[k] * c) % p for u, c in zip(x, b))
            lines.setdefault((base, b), set()).update((x[k], y[k]))
    return lines


def collision_search(polymap: PolyMap, r: int, budget: Optional[int] = None) -> list:
    """Exhaustively find all lines where r points share an image, over F_p.

    A line is written canonically as base + t b, with the first nonzero
    (pivot) coordinate of b equal to 1 and the base 0 there, so that t is a
    point's pivot coordinate.  One witness is emitted per (line, image)
    pair whose image is attained at least r times on the line, normalized
    by translating the first of those points to the origin: its parameters
    are the offsets of the r smallest t, and its degree list is 0..r.
    Witnesses are sorted by (base, b, smallest t), so the output order is
    deterministic.

    The map is evaluated once at each of the p^n points, on int residues
    (``_term_values``), and the points are grouped by image; only classes of
    at least r points can hold a witness.  Two distinct points lie on one
    line, so each pair in a class gives its canonical line
    (``_class_lines``), and the class's points on that line are the pairs'
    points.  The work is n p^n evaluations plus sum C(k, 2) pairs over the
    kept classes of k points each.  The budget is checked on the
    evaluations before any is made, and on evaluations plus pairs before
    any pair is visited; either check raises BudgetExceeded.  A map with
    large image classes costs more than the lines it has: a constant map
    has about p^(2n) / 2 pairs.  Field elements are built only for the
    fields of an emitted witness.

    A witness's ``rank_drop_param`` is
    ``find_rank_drop(F.translate(origin), b, params, 0..r).value``, or None
    where that call's hypotheses fail, found without building the translated
    map.  Its support hypothesis holds iff deg F <= r (translation keeps the
    top homogeneous part), and its equal images and its Vandermonde
    hypothesis hold by construction: r distinct offsets t_i against the
    degrees 0..r-1 give the determinant prod (t_j - t_i) != 0, so every
    ``vandermonde_rank`` is r.  When deg F <= r, the line's restriction
    H_i(t) = F_i(base + t b) is built once per line, by binomial expansion on
    residues (``_line_coefficients``).  For a witness whose first point is
    base + t0 b, the derivative that ``find_rank_drop`` searches, of s ->
    F_i(origin + s b), is H_i'(t0 + s).  So the value is 0
    when every H_i' is zero, else the smallest s in 0..p-1 with H_i'(t0 + s)
    = 0 for the first nonzero H_i', else None.  The Jacobian is built once
    per call, and a found value must pass the annihilation check of
    ``find_rank_drop`` (J b = 0, summed on residues) or TheoremViolation is
    raised.

    A search that finds no witness returns at once, before the determinant,
    the Jacobian or the degree list is built, so its cost does not grow
    with r.  The unit-determinant obstruction's hypotheses (r at least the
    map degree, r at least 2, characteristic not dividing r) belong to the
    search, not to a witness, so they are checked once, before any witness
    is built: when they hold and witnesses exist, the determinant is
    required to be non-unit, and a violation raises TheoremViolation.
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
    classes: dict = {}
    for pt in itertools.product(range(p), repeat=n):
        image = tuple(sum(_term_values(c, pt, p)) % p for c in polymap.components)
        classes.setdefault(image, []).append(pt)
    kept = [points for points in classes.values() if len(points) >= r]
    required += sum(comb(len(points), 2) for points in kept)
    if required > budget:
        raise BudgetExceeded(budget, required, "point evaluations and pairs")
    found = [
        (base, b, sorted(ts)[:r])
        for points in kept
        for (base, b), ts in _class_lines(points, p).items()
        if len(ts) >= r
    ]
    if not found:
        return []
    det_nonconstant = not polymap.is_keller()
    map_degree = polymap.degree()
    if r >= map_degree and r % p != 0 and not det_nonconstant:
        raise TheoremViolation(
            "collision witness against a map with unit Jacobian "
            f"determinant (r = {r}, degree {map_degree})"
        )
    degrees = tuple(range(r + 1))
    # the translated map's term degrees lie in 0..r iff the map's do
    jacobian = polymap.jacobian() if map_degree <= r else None
    witnesses = []
    for (base, b), line in itertools.groupby(sorted(found), key=lambda w: w[:2]):
        derivative = _line_derivative(polymap, base, b) if jacobian is not None else None
        for _, _, sel in line:
            t0 = sel[0]
            origin = [(c + t0 * x) % p for c, x in zip(base, b)]
            params = tuple(Fp(t - t0, p) for t in sel)
            drop_value = None
            if jacobian is not None:
                drop_value = _smallest_root(field, derivative, t0)
                if drop_value is not None:
                    s = drop_value.v
                    point = [(c + s * x) % p for c, x in zip(origin, b)]
                    _check_annihilation(jacobian, point, b)
            witnesses.append(CollisionWitness(
                b=tuple(Fp(c, p) for c in b),
                base=tuple(Fp(c, p) for c in origin),
                params=params,
                degrees=degrees,
                vandermonde_rank=r,
                rank_drop_param=drop_value,
                det_jac_nonconstant=det_nonconstant,
            ))
    return witnesses
