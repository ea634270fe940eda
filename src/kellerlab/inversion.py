"""Formal (power-series) inversion of maps x + H, polynomial-inverse
detection with degree bounds, the triangular inductive inverse, and inverse
extension along dependence-restricted components.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import (
    ArityMismatch,
    BadSubInverse,
    DependenceViolation,
    FieldMismatch,
    NonSquare,
    NotInvertibleUpToBound,
    NotNormalized,
    NotStrictlyLowerTriangular,
    SingularLinearPart,
    SingularMatrix,
    TheoremViolation,
)
from .mpoly import MPoly, _substitute_all, _sum
from .polymap import PolyMap, apply_matrix, power_linear

VERDICT_POLYNOMIAL = "PolynomialInverse"
VERDICT_NOT_UP_TO_BOUND = "NotPolynomialUpToBound"


class InverseResult(NamedTuple):
    """Outcome of a bounded inversion attempt.

    ``inverse`` always carries the candidate map; it is a verified two-sided
    inverse exactly when the verdict is ``PolynomialInverse``.  A verdict of
    ``NotPolynomialUpToBound`` never claims non-invertibility, only that no
    polynomial inverse exists within ``bound_used``.
    """

    verdict: str
    inverse: PolyMap
    inverse_degree: Optional[int]
    bound_used: int

    @property
    def is_polynomial(self) -> bool:
        return self.verdict == VERDICT_POLYNOMIAL


class AffineNormalization(NamedTuple):
    """Split F = L * core + c with core of the shape x + (order >= 2);
    ``linear_inverse`` is L^-1."""

    linear: Matrix
    constant: tuple
    core: PolyMap
    linear_inverse: Matrix


def is_normalized(polymap: PolyMap) -> bool:
    """True iff the map is x + H with H free of constant and linear terms:
    it is square and the terms of degree below 2 of each F_i are exactly x_i."""
    if polymap.m != polymap.n:
        return False
    xs = MPoly.variables(polymap.field, polymap.n)
    return all(
        {e: c for e, c in f.terms.items() if sum(e) < 2} == x.terms
        for f, x in zip(polymap.components, xs)
    )


def _require_normalized(polymap: PolyMap) -> PolyMap:
    """H for a normalized map x + H; raises for any other map."""
    if polymap.m != polymap.n:
        raise NonSquare(f"{polymap.m}x{polymap.n} map")
    if not is_normalized(polymap):
        raise NotNormalized("map must be x + H with H of order at least 2")
    return polymap - PolyMap.identity(polymap.field, polymap.n)


def normalize_affine(polymap: PolyMap) -> AffineNormalization:
    """Factor out the constant part and the linear part at the origin.

    The core has identity linear part and no constant part, and the exact
    reconstruction F = L * core + c is re-checked before returning.
    """
    from .field_linalg import Matrix

    if polymap.m != polymap.n:
        raise NonSquare(f"{polymap.m}x{polymap.n} map")
    field, n = polymap.field, polymap.n
    constant = tuple(c.constant_term() for c in polymap.components)
    # the Jacobian at the origin: dF_i/dx_j(0) is the x_j coefficient of F_i
    units = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    linear = Matrix(field, [[c.coefficient(e) for e in units] for c in polymap.components], ncols=n)
    try:
        lin_inv = linear.inverse()
    except SingularMatrix:
        raise SingularLinearPart("Jacobian at the origin is singular") from None
    shifted = [c - v for c, v in zip(polymap.components, constant)]
    core = PolyMap(field, n, apply_matrix(lin_inv, shifted, n))
    rebuilt = [q + v for q, v in zip(apply_matrix(linear, core.components, n), constant)]
    if tuple(rebuilt) != polymap.components:
        raise TheoremViolation("affine normalization failed to reconstruct the map")
    return AffineNormalization(linear=linear, constant=constant, core=core, linear_inverse=lin_inv)


def formal_inverse(polymap: PolyMap, max_deg: Optional[int] = None) -> InverseResult:
    """Bounded series inversion of a normalized map x + H.

    Iterates G <- H(x - G) with truncation to total degree ``max_deg``; each
    pass raises the valuation of the error, so ``max_deg`` passes reach the
    truncated fixpoint (usually far fewer, and the loop exits early).  The
    candidate inverse is x - G.  The PolynomialInverse verdict requires the
    exact, untruncated two-sided composition check, which protects against
    series that only stabilize above the bound.

    The default bound is d^(n-1) for d = deg F (1 when n = 0), the degree an
    inverse of an invertible degree-d map in n variables can never exceed.
    """
    higher = _require_normalized(polymap).components
    field, n = polymap.field, polymap.n
    if max_deg is None:
        max_deg = polymap.degree() ** (n - 1) if n > 0 else 1
    if max_deg < 1:
        raise ValueError("max_deg must be at least 1")
    identity = PolyMap.identity(field, n)
    xs = identity.components
    correction = [MPoly.zero(field, n)] * n
    for _ in range(max_deg):
        step = _substitute_all(higher, [x - g for x, g in zip(xs, correction)], max_deg)
        if step == correction:
            break
        correction = step
    candidate = PolyMap(field, n, [x - g for x, g in zip(xs, correction)])
    is_inverse = polymap.compose(candidate) == identity and candidate.compose(polymap) == identity
    return InverseResult(
        verdict=VERDICT_POLYNOMIAL if is_inverse else VERDICT_NOT_UP_TO_BOUND,
        inverse=candidate,
        inverse_degree=candidate.degree() if is_inverse else None,
        bound_used=max_deg,
    )


def verify_inverse(polymap: PolyMap, candidate: PolyMap) -> bool:
    """Exact two-sided composition check."""
    if polymap.m != polymap.n or candidate.m != candidate.n or polymap.n != candidate.n:
        raise ArityMismatch("both maps must be square of the same dimension")
    identity = PolyMap.identity(polymap.field, polymap.n)
    return polymap.compose(candidate) == identity and candidate.compose(polymap) == identity


def invert_polymap(polymap: PolyMap, max_deg: Optional[int] = None) -> InverseResult:
    """Inversion for general maps: normalize the affine part, invert the
    core, and recompose.  Degrees are unchanged by the affine factor."""
    if is_normalized(polymap):
        return formal_inverse(polymap, max_deg)
    norm = normalize_affine(polymap)
    result = formal_inverse(norm.core, max_deg)
    # full inverse: core^{-1} after y -> L^{-1}(y - c)
    field, n = polymap.field, polymap.n
    xs = MPoly.variables(field, n)
    shifted = [x - c for x, c in zip(xs, norm.constant)]
    affine_inv = PolyMap(field, n, apply_matrix(norm.linear_inverse, shifted, n))
    full = result.inverse.compose(affine_inv)
    if result.is_polynomial:
        if not verify_inverse(polymap, full):
            raise TheoremViolation("recomposed inverse failed the composition check")
        return InverseResult(VERDICT_POLYNOMIAL, full, full.degree(), result.bound_used)
    return InverseResult(VERDICT_NOT_UP_TO_BOUND, full, None, result.bound_used)


def inverse_degree(polymap: PolyMap) -> int:
    """Degree of the verified polynomial inverse at the default bound."""
    result = invert_polymap(polymap)
    if not result.is_polynomial:
        raise NotInvertibleUpToBound(
            f"no polynomial inverse up to degree {result.bound_used}"
        )
    return result.inverse_degree


def triangular_inverse(matrix: Matrix, d: int) -> PolyMap:
    """Exact inverse of ``x + (Ax)^{*d}`` for strictly lower triangular A.

    Built by the inductive formula G_i = x_i - (A_i1 G_1 + ... +
    A_i(i-1) G_(i-1))^d, then verified against the map by composition.
    """
    if matrix.nrows != matrix.ncols:
        raise NonSquare(f"{matrix.nrows}x{matrix.ncols} coefficient matrix")
    n = matrix.nrows
    for i in range(n):
        for j in range(i, n):
            if matrix.rows[i][j]:
                raise NotStrictlyLowerTriangular(f"nonzero entry at ({i}, {j})")
    if d < 1:
        raise ValueError("the power must be positive")
    field = matrix.field
    comps: list[MPoly] = []
    for i, row in enumerate(matrix.rows):
        acc = _sum(field, n, [comps[j] * a for j, a in enumerate(row[:i]) if a])
        comps.append(MPoly.variable(field, n, i) - acc**d)
    inverse = PolyMap(field, n, comps)
    if not verify_inverse(power_linear(matrix, d), inverse):
        raise TheoremViolation("inductive triangular inverse failed its composition check")
    return inverse


def extend_inverse(polymap: PolyMap, r: int, sub_correction: PolyMap) -> PolyMap:
    """Extend the inverse of the leading r-dimensional sub-map to all of F.

    Requires F = x + H with every H_i involving only the first r variables,
    and ``sub_correction`` to be the G-part of the verified inverse
    x~ - G~ of (F_1..F_r) as an r-dimensional map.  The result x - G with
    G_i = G~_i (i <= r) and G_i = H_i(x~ - G~) (i > r) is verified by
    composition before returning.
    """
    higher = _require_normalized(polymap)
    field, n = polymap.field, polymap.n
    if not 0 <= r <= n:
        raise ArityMismatch(f"r = {r} outside 0..{n}")
    for i, h in enumerate(higher.components):
        for exps in h.terms:
            if any(exps[r:]):
                raise DependenceViolation(
                    f"component {i + 1} depends on a variable beyond the first {r}"
                )
    if sub_correction.n != r or sub_correction.m != r:
        raise ArityMismatch(f"sub-inverse must be an {r}-dimensional map")
    if sub_correction.field != field:
        raise FieldMismatch("sub-inverse over a different field")
    # F_1..F_r use only x_1..x_r (checked above); cutting off the other
    # exponents, or appending zero ones, keeps graded-lex order
    leading = [
        MPoly._canonical(field, r, {e[:r]: c for e, c in f.terms.items()})
        for f in polymap.components[:r]
    ]
    sub_inverse = PolyMap.identity(field, r) - sub_correction
    if not verify_inverse(PolyMap(field, r, leading), sub_inverse):
        raise BadSubInverse("x~ - G~ is not the inverse of the leading sub-map")
    xs = MPoly.variables(field, n)
    extra = (0,) * (n - r)
    padded = [
        MPoly._canonical(field, n, {e + extra: c for e, c in g.terms.items()})
        for g in sub_correction.components
    ]
    images = [xs[j] - padded[j] for j in range(r)] + list(xs[r:])
    corrections = padded + _substitute_all(higher.components[r:], images)
    inverse = PolyMap(field, n, [x - g for x, g in zip(xs, corrections)])
    if not verify_inverse(polymap, inverse):
        raise TheoremViolation("extended inverse failed its composition check")
    return inverse
