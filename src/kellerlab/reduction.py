"""Constant-vector kernels of polynomial Jacobians, linear conjugation that
pushes that kernel onto the last coordinates, the paired r-dimensional map,
and inverse-degree bound reports.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import (
    InconsistentReduction,
    NonSquare,
    NotInvertibleUpToBound,
    TheoremViolation,
)
from .field_linalg import Matrix, complete_to_basis
from .mpoly import MPoly
from .polymap import PolyMap, apply_matrix
from .inversion import formal_inverse

CHAR_P_NOTE = "char-p: bound not asserted for positive characteristic"


class KernelReduction(NamedTuple):
    """Conjugation data G = T^{-1} F(Tx) with the constant kernel of
    jac(G - x) equal to the span of the last n - r coordinates."""

    T: Matrix
    Tinv: Matrix
    r: int
    conjugated: PolyMap


class DegreeBoundReport(NamedTuple):
    """Inverse-degree bookkeeping for the map of a kernel reduction.

    ``bound`` is d^r for r = n - dim(constant kernel of jac(F - x)); the
    fallback ``gabber_bound`` is d^(n-1).  ``escalated`` records whether the
    tighter bound failed and the fallback was needed (over characteristic
    zero that would refute the bound and raises instead of reporting).
    """

    n: int
    d: int
    r: int
    bound: int
    gabber_bound: int
    actual_inverse_degree: Optional[int]
    satisfied: bool
    escalated: bool
    char_p_note: Optional[str]


def constant_kernel(polymap: PolyMap) -> Matrix:
    """Basis of the constant vectors annihilated by the Jacobian identically.

    Each component gives one linear constraint per monomial of its partials:
    the vector of that monomial's coefficients across the n partials must
    kill v.  The kernel depends only on the row space of the stacked
    constraints, not on their order, so the polynomial-identity kernel is
    exact linear algebra on the partials themselves.
    """
    if polymap.m != polymap.n:
        raise NonSquare(f"{polymap.m}x{polymap.n} map")
    rows = []
    for component in polymap.components:
        partials = [component.derivative(j) for j in range(polymap.n)]
        monomials = {mono for partial in partials for mono in partial.terms}
        rows += [[partial.coefficient(mono) for partial in partials] for mono in monomials]
    return Matrix(polymap.field, rows, ncols=polymap.n).kernel_basis()


def kernel_conjugate(polymap: PolyMap) -> KernelReduction:
    """Conjugate by a basis completion of the constant kernel of jac(F - x).

    After the conjugation, columns r+1..n of jac(G - x) are identically zero;
    that is re-checked before returning.
    """
    if polymap.m != polymap.n:
        raise NonSquare(f"{polymap.m}x{polymap.n} map")
    field, n = polymap.field, polymap.n
    kernel = constant_kernel(polymap - PolyMap.identity(field, n))
    transform = complete_to_basis(kernel)
    transform_inv = transform.inverse()
    inner = polymap.compose(PolyMap.linear(transform))
    conjugated = PolyMap(field, n, apply_matrix(transform_inv, inner.components, n))
    r = n - kernel.ncols
    higher = (conjugated - PolyMap.identity(field, n)).components if r < n else ()
    for j in range(r, n):
        if any(not h.derivative(j).is_zero() for h in higher):
            raise TheoremViolation(f"column {j + 1} of the conjugated Jacobian is not zero")
    return KernelReduction(T=transform, Tinv=transform_inv, r=r, conjugated=conjugated)


def pair_reduction(polymap: PolyMap, reduction: KernelReduction) -> PolyMap:
    """The r-dimensional map B F(C x~) paired with F.

    B is the first r rows of T^{-1} and C the first r columns of T; the
    result must agree with the first r conjugated components after setting
    the trailing variables to zero.
    """
    field = polymap.field
    n, r = polymap.n, reduction.r
    if reduction.conjugated.n != n:
        raise InconsistentReduction("reduction does not match the map's dimension")
    b_rows = Matrix(field, reduction.Tinv.rows[:r], ncols=n)
    c_cols = Matrix.from_columns(field, reduction.T.columns()[:r], nrows=n)
    into_line = PolyMap.linear(c_cols)  # K^r -> K^n
    image = polymap.compose(into_line)
    paired = PolyMap(field, r, apply_matrix(b_rows, image.components, r))
    # the paired map must equal the leading conjugated components at
    # x_{r+1} = ... = x_n = 0
    leading = reduction.conjugated.components[:r]
    expected = [
        MPoly._canonical(field, r, {e[:r]: c for e, c in g.terms.items() if not any(e[r:])})
        for g in leading
    ]
    for i in range(r):
        if expected[i] != paired.components[i]:
            raise InconsistentReduction(
                f"paired component {i + 1} disagrees with the conjugated map"
            )
    return paired


def degree_bound_report(reduction: KernelReduction) -> DegreeBoundReport:
    """Invert with the d^r bound, escalating to a larger d^(n-1) if it fails.

    r is the reduction's, and the map inverted is its G = T^{-1} F(Tx),
    which is x + H exactly when F is and has F's n, degree and inverse degree.

    Inverting at bound b finds a polynomial inverse exactly when one of
    degree at most b exists (the truncated fixpoint is the formal inverse
    truncated at b), so a failure at d^r settles every smaller bound, and
    NotInvertibleUpToBound names the largest bound tried.

    Needing the escalation while the inverse degree exceeds d^r would refute
    the bound over characteristic zero, so that case raises TheoremViolation
    loudly; over a prime field the report is produced but flagged, since the
    bound is only asserted in characteristic zero.
    """
    polymap, r = reduction.conjugated, reduction.r
    field, n = polymap.field, polymap.n
    d = polymap.degree()
    bound = d**r
    gabber = d ** (n - 1) if n > 0 else 1
    note = CHAR_P_NOTE if field.characteristic else None
    result = formal_inverse(polymap, max_deg=bound)
    escalated = not result.is_polynomial
    if escalated and gabber > bound:
        result = formal_inverse(polymap, max_deg=gabber)
    if not result.is_polynomial:
        raise NotInvertibleUpToBound(f"no polynomial inverse up to degree {result.bound_used}")
    actual = result.inverse_degree
    if escalated and field.characteristic == 0:
        raise TheoremViolation(
            f"inverse degree {actual} exceeds the d^r bound {bound} over a "
            "characteristic-zero field"
        )
    return DegreeBoundReport(
        n=n,
        d=d,
        r=r,
        bound=bound,
        gabber_bound=gabber,
        actual_inverse_degree=actual,
        satisfied=actual <= bound,
        escalated=escalated,
        char_p_note=note,
    )
