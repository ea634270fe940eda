"""Dense exact linear algebra over a scalar field (``scalars``): rank,
kernel, determinant, inverse, basis completion, generalized Vandermonde
matrices.

Only code that builds a matrix imports this module, so a process that builds
none, such as ``keller``, ``collide`` or ``invert`` on a normalized map,
never loads it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import ArityMismatch, DependentInput, FieldMismatch, NonSquare, SingularMatrix
from .scalars import Field


class Matrix:
    """Dense matrix over an exact field; immutable after construction."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, rows: Iterable[Iterable], *, ncols=None):
        data = tuple(tuple(field.coerce(e) for e in row) for row in rows)
        if data:
            width = len(data[0])
            if any(len(r) != width for r in data):
                raise ArityMismatch("ragged matrix rows")
        else:
            if ncols is None:
                raise ArityMismatch("a 0-row matrix needs an explicit ncols")
            width = ncols
        if ncols is not None and width != ncols:
            raise ArityMismatch(f"expected {ncols} columns, got {width}")
        self.field = field
        self.nrows = len(data)
        self.ncols = width
        self.rows = data

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        one, zero = field.one, field.zero
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)], ncols=n)

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence], *, nrows=None) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ArityMismatch("a 0-column matrix needs an explicit nrows")
        return cls(field, [[col[i] for col in cols] for i in range(nrows)], ncols=len(cols))

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple:
        return tuple(self.column(j) for j in range(self.ncols))

    def is_zero(self) -> bool:
        return all(not e for row in self.rows for e in row)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.field, self.rows, self.ncols))

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in row) for row in self.rows)
        return f"[{body}]({self.nrows}x{self.ncols} over {self.field})"

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field:
            raise FieldMismatch("matrix product over different fields")
        if self.ncols != other.nrows:
            raise ArityMismatch(f"cannot multiply {self.ncols}-column by {other.nrows}-row")
        zero = self.field.zero
        out = []
        for i in range(self.nrows):
            row = []
            for j in range(other.ncols):
                acc = zero
                for k in range(self.ncols):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(self.field, out, ncols=other.ncols)

    def rref(self) -> tuple["Matrix", tuple]:
        """Reduced row-echelon form and the tuple of pivot column indices."""
        rows = [list(r) for r in self.rows]
        pivots = []
        pr = 0
        for c in range(self.ncols):
            if pr == self.nrows:
                break
            src = next((r for r in range(pr, self.nrows) if rows[r][c]), None)
            if src is None:
                continue
            rows[pr], rows[src] = rows[src], rows[pr]
            inv = self.field.one / rows[pr][c]
            rows[pr] = [x * inv for x in rows[pr]]
            for r in range(self.nrows):
                if r != pr and rows[r][c]:
                    f = rows[r][c]
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[pr])]
            pivots.append(c)
            pr += 1
        return Matrix(self.field, rows, ncols=self.ncols), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def det(self):
        """Exact determinant by Gaussian elimination with exact division."""
        if self.nrows != self.ncols:
            raise NonSquare(f"determinant of a {self.nrows}x{self.ncols} matrix")
        n = self.nrows
        rows = [list(r) for r in self.rows]
        det = self.field.one
        for c in range(n):
            src = next((r for r in range(c, n) if rows[r][c]), None)
            if src is None:
                return self.field.zero
            if src != c:
                rows[c], rows[src] = rows[src], rows[c]
                det = -det
            det = det * rows[c][c]
            inv = self.field.one / rows[c][c]
            for r in range(c + 1, n):
                if rows[r][c]:
                    f = rows[r][c] * inv
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
        return det

    def kernel_basis(self) -> "Matrix":
        """Canonical basis of ``{v : Mv = 0}`` as matrix columns.

        The basis is the reduced-row-echelon free-variable basis: for each
        free column (ascending) the basis vector has that coordinate set to 1
        and pivot coordinates read off the RREF.
        """
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        zero, one = self.field.zero, self.field.one
        cols = []
        for fc in free:
            v = [zero] * self.ncols
            v[fc] = one
            for i, pc in enumerate(pivots):
                v[pc] = -red.rows[i][fc]
            cols.append(v)
        return Matrix.from_columns(self.field, cols, nrows=self.ncols)

    def inverse(self) -> "Matrix":
        if self.nrows != self.ncols:
            raise NonSquare(f"inverse of a {self.nrows}x{self.ncols} matrix")
        n = self.nrows
        eye = Matrix.identity(self.field, n)
        aug = Matrix(self.field, [list(a) + list(b) for a, b in zip(self.rows, eye.rows)], ncols=2 * n)
        red, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            raise SingularMatrix("matrix is not invertible")
        return Matrix(self.field, [row[n:] for row in red.rows], ncols=n)


def generalized_vandermonde(field: Field, points: Sequence, degrees: Sequence[int]) -> Matrix:
    """Matrix with entry ``(i, j) = points[j] ** degrees[i]``.

    Rows are indexed by the degree list, columns by the points; ``0 ** 0``
    counts as 1 so degree lists containing 0 work with the zero point.
    """
    pts = [field.coerce(a) for a in points]
    rows = [[a**d for a in pts] for d in degrees]
    return Matrix(field, rows, ncols=len(pts))


def complete_to_basis(v_cols: Matrix) -> Matrix:
    """Invertible matrix whose last columns are exactly the input columns.

    The leading columns are the lexicographically first standard unit vectors
    (scanned e_1, e_2, ...) that keep the whole column set independent, which
    makes the completion deterministic: they are the pivot columns among the
    unit vectors of one row reduction of [V | I].
    """
    n, k = v_cols.nrows, v_cols.ncols
    field = v_cols.field
    unit = Matrix.identity(field, n).rows
    _, pivots = Matrix(field, [row + e for row, e in zip(v_cols.rows, unit)], ncols=k + n).rref()
    if pivots[:k] != tuple(range(k)):
        raise DependentInput("input columns are linearly dependent")
    chosen = [unit[c - k] for c in pivots[k:]]
    return Matrix.from_columns(field, chosen + list(v_cols.columns()), nrows=n)
