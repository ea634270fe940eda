"""Polynomial maps K^n -> K^m: Jacobians, the Keller condition, Hadamard
powers and power-linear constructors, composition, homogeneous decomposition.
The Jacobian is a ``polymatrix.PolyMatrix``, loaded when it is first built.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ArityMismatch, FieldMismatch, NonSquare, NotHomogeneous
from .scalars import Field
from .mpoly import MPoly, _coerce_point, _combine, _substitute_all, _sum, render


class PolyMap:
    """A sequence of polynomials in ``n`` shared variables, read as a map."""

    __slots__ = ("field", "n", "components")

    def __init__(self, field: Field, n: int, components: Sequence[MPoly]):
        comps = tuple(components)
        for c in comps:
            if not isinstance(c, MPoly):
                raise FieldMismatch("components must be polynomials")
            if c.field != field:
                raise FieldMismatch(f"component over {c.field} in a map over {field}")
            if c.nvars != n:
                raise ArityMismatch(f"component in {c.nvars} variables, map has {n}")
        self.field = field
        self.n = n
        self.components = comps

    @classmethod
    def identity(cls, field: Field, n: int) -> "PolyMap":
        return cls(field, n, MPoly.variables(field, n))

    @classmethod
    def linear(cls, matrix: Matrix) -> "PolyMap":
        """The linear map ``x -> Ax`` (rows become components)."""
        n = matrix.ncols
        return cls(matrix.field, n, apply_matrix(matrix, MPoly.variables(matrix.field, n), n))

    @property
    def m(self) -> int:
        return len(self.components)

    def degree(self) -> int:
        """Max component degree; 0 for the empty or zero map by convention."""
        return max((c.degree() for c in self.components), default=0)

    def degree_support(self) -> tuple:
        """Sorted union of the term degrees over all components."""
        support = set()
        for c in self.components:
            support |= c.degrees()
        return tuple(sorted(support))

    def __eq__(self, other):
        if not isinstance(other, PolyMap):
            return NotImplemented
        return self.field == other.field and self.n == other.n and self.components == other.components

    def __hash__(self):
        return hash((self.field, self.n, self.components))

    def __repr__(self):
        return "(" + ", ".join(render(c) for c in self.components) + ")"

    def __add__(self, other: "PolyMap") -> "PolyMap":
        self._same_shape(other)
        return PolyMap(self.field, self.n, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "PolyMap") -> "PolyMap":
        self._same_shape(other)
        return PolyMap(self.field, self.n, [a - b for a, b in zip(self.components, other.components)])

    def _same_shape(self, other: "PolyMap"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.n != other.n or self.m != other.m:
            raise ArityMismatch("maps of different shapes")

    def evaluate(self, point: Sequence) -> tuple:
        if len(point) != self.n:
            raise ArityMismatch(f"point of length {len(point)} for a map on {self.n} variables")
        vals = _coerce_point(self.field, point)
        return tuple(c._evaluate(vals) for c in self.components)

    def compose(self, inner: "PolyMap") -> "PolyMap":
        """self after inner (``self.n`` must equal ``inner.m``)."""
        if self.field != inner.field:
            raise FieldMismatch(f"{self.field} vs {inner.field}")
        if self.n != inner.m:
            raise ArityMismatch(f"outer map takes {self.n} inputs, inner produces {inner.m}")
        if self.n == 0:
            comps = [MPoly.constant(self.field, inner.n, c.constant_term()) for c in self.components]
            return PolyMap(self.field, inner.n, comps)
        comps = _substitute_all(self.components, inner.components)
        return PolyMap(self.field, inner.n, comps)

    def translate(self, point: Sequence) -> "PolyMap":
        """The map ``x -> self(x + point)``."""
        vals = [self.field.coerce(x) for x in point]
        if len(vals) != self.n:
            raise ArityMismatch(f"point of length {len(vals)} for a map on {self.n} variables")
        xs = MPoly.variables(self.field, self.n)
        shift = PolyMap(self.field, self.n, [x + v for x, v in zip(xs, vals)])
        return self.compose(shift)

    def jacobian(self) -> "PolyMatrix":
        from .polymatrix import PolyMatrix

        grid = [[c.derivative(j) for j in range(self.n)] for c in self.components]
        return PolyMatrix(self.field, self.n, grid)

    def det_jacobian(self) -> MPoly:
        if self.m != self.n:
            raise NonSquare(f"Jacobian determinant of a {self.m}x{self.n} map")
        return self.jacobian().det()

    def is_keller(self) -> bool:
        """True iff the Jacobian determinant is a nonzero constant."""
        det = self.det_jacobian()
        return (not det.is_zero()) and det.is_constant()

    def homogeneous_decomposition(self) -> dict:
        """Map degree -> homogeneous part (as a PolyMap); parts sum to self.

        Keys are exactly the occurring term degrees, ascending, so the key
        tuple doubles as the degree support (including 0 when constants
        occur).
        """
        parts = [c.homogeneous_components() for c in self.components]
        zero = MPoly.zero(self.field, self.n)
        return {
            k: PolyMap(self.field, self.n, [p.get(k, zero) for p in parts])
            for k in sorted(set().union(*parts))
        }


def apply_matrix(matrix: Matrix, polys: Sequence[MPoly], nvars: int) -> list:
    """The polynomials ``sum_j A[i][j] * polys[j]``, one per row of A.

    Every polynomial is in ``nvars`` variables, which is given explicitly so
    that a matrix without rows or columns still has a ring.  Each row sums
    the scaled terms of its nonzero entries in one merge.
    """
    if len(polys) != matrix.ncols:
        raise ArityMismatch(f"{len(polys)} polynomials for a matrix with {matrix.ncols} columns")
    out = []
    for row in matrix.rows:
        items = ((e, a * c) for a, poly in zip(row, polys) if a for e, c in poly.terms.items())
        out.append(MPoly._canonical(matrix.field, nvars, _combine({}, items)))
    return out


def hadamard_power(matrix: Matrix, d: int) -> PolyMap:
    """The map whose i-th component is the d-th power of the i-th row form."""
    if matrix.nrows != matrix.ncols:
        raise NonSquare(f"{matrix.nrows}x{matrix.ncols} coefficient matrix")
    if d < 1:
        raise ValueError("the Hadamard power exponent must be positive")
    linear = PolyMap.linear(matrix)
    return PolyMap(matrix.field, matrix.ncols, [c**d for c in linear.components])


def power_linear(matrix: Matrix, d: int) -> PolyMap:
    """The map ``x + (Ax)^{*d}`` with componentwise d-th powers."""
    return PolyMap.identity(matrix.field, matrix.ncols) + hadamard_power(matrix, d)


def euler_check(poly: MPoly, d: int) -> bool:
    """Literal Euler identity: sum_j x_j * d(poly)/dx_j equals d * poly.

    Requires the input to be homogeneous (a single term degree) or zero; over
    F_p the identity can hold degenerately when p divides d, which is why the
    check is the literal one.
    """
    if len(poly.degrees()) > 1:
        raise NotHomogeneous("polynomial has terms of several degrees")
    xs = MPoly.variables(poly.field, poly.nvars)
    lhs = _sum(poly.field, poly.nvars, [x * poly.derivative(j) for j, x in enumerate(xs)])
    return lhs == poly * d
