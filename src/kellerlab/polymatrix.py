"""Dense matrices with polynomial entries: the Jacobian of a polynomial map,
its division-free determinant, evaluation at a point and substitution.

:meth:`PolyMap.jacobian` loads this module when it runs, so a process that
builds no Jacobian never loads it.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ArityMismatch, FieldMismatch, NonSquare
from .scalars import Field
from .mpoly import MPoly, _coerce_point, _substitute_all, _sum, render


class PolyMatrix:
    """Dense matrix with polynomial entries (all in the same ring)."""

    __slots__ = ("field", "nvars", "nrows", "ncols", "grid")

    def __init__(self, field: Field, nvars: int, grid: Sequence[Sequence[MPoly]]):
        rows = tuple(tuple(row) for row in grid)
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise ArityMismatch("ragged polynomial matrix")
            for e in row:
                if e.field != field or e.nvars != nvars:
                    raise FieldMismatch("entry from a different polynomial ring")
        self.field = field
        self.nvars = nvars
        self.nrows = len(rows)
        self.ncols = width
        self.grid = rows

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return self.field == other.field and self.nvars == other.nvars and self.grid == other.grid

    def __repr__(self):
        return "[" + "; ".join(", ".join(render(e) for e in row) for row in self.grid) + "]"

    def evaluate(self, point: Sequence) -> Matrix:
        from .field_linalg import Matrix

        if len(point) != self.nvars:
            raise ArityMismatch(f"point of length {len(point)} in {self.nvars} variables")
        vals = _coerce_point(self.field, point)
        return Matrix(
            self.field,
            [[e._evaluate(vals) for e in row] for row in self.grid],
            ncols=self.ncols,
        )

    def substitute(self, images: Sequence[MPoly]) -> "PolyMatrix":
        nvars = images[0].nvars if images else self.nvars
        flat = iter(_substitute_all([e for row in self.grid for e in row], images))
        return PolyMatrix(self.field, nvars, [[next(flat) for _ in row] for row in self.grid])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ArityMismatch("polynomial matrix shapes do not match")
        cols = list(zip(*other.grid))
        out = [
            [_sum(self.field, self.nvars, [a * b for a, b in zip(row, col)]) for col in cols]
            for row in self.grid
        ]
        return PolyMatrix(self.field, self.nvars, out)

    def det(self) -> MPoly:
        """Exact determinant over the polynomial ring, without division.

        Laplace expansion that keeps every minor (Gentleman & Johnson, ACM
        TOMS 2(3), 1976): the minor on rows k..n-1 and a set of columns is
        expanded once along row k, over its nonzero entries, and shared by
        every larger minor that reaches it.  Minors are built top-down, so
        only those reached through nonzero entries exist, and the 1x1 minors
        are the last row's entries.  A dense n x n matrix costs at most
        n*2^(n-1) - n products, and every intermediate is a true minor.
        """
        if self.nrows != self.ncols:
            raise NonSquare(f"determinant of a {self.nrows}x{self.ncols} polynomial matrix")
        n = self.nrows
        if n == 0:
            return MPoly.constant(self.field, self.nvars, 1)
        grid = self.grid
        minors = {(j,): e for j, e in enumerate(grid[-1])}

        def minor(cols: tuple) -> MPoly:
            m = minors.get(cols)
            if m is None:
                row = grid[n - len(cols)]
                terms = []
                for i, j in enumerate(cols):
                    if not row[j].is_zero():
                        term = row[j] * minor(cols[:i] + cols[i + 1 :])
                        terms.append(-term if i % 2 else term)
                m = minors[cols] = _sum(self.field, self.nvars, terms)
            return m

        return minor(tuple(range(n)))
