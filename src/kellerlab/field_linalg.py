"""Exact scalar fields (rationals and prime fields) and dense exact linear
algebra: rank, kernel, determinant, basis completion, generalized Vandermonde
matrices.

Scalars are plain :class:`fractions.Fraction` values over the rationals and
:class:`Fp` residues over a prime field.  Both support the ordinary arithmetic
operators, so matrix and polynomial code is field-generic.  There is no
floating point anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    ArityMismatch,
    DependentInput,
    DivisorNotUnit,
    FieldMismatch,
    NonSquare,
    ParseError,
    SingularMatrix,
)


# Miller-Rabin over the primes 2..41 is exact below this bound (the least
# strong pseudoprime to all thirteen bases; Sorenson and Webster, 2015)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality check over the prime bases 2..41.

    The answer is exact below 3.3e24; a larger ``n`` raises ``ParseError``
    rather than getting a probabilistic answer.
    """
    if n < 2:
        return False
    if n >= _MR_EXACT_BELOW:
        raise ParseError(f"modulus {n} is too large to certify as prime (limit 3.3e24)")
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Fp:
    """Canonical residue in ``[0, p)`` for a prime ``p``.

    Arithmetic only mixes with residues of the same modulus or with plain
    ints (which are reduced).  Anything else is a ``TypeError`` rather than a
    silent coercion.
    """

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _lift(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldMismatch(f"residues mod {self.p} and mod {other.p}")
            return other.v
        if isinstance(other, int):
            return other % self.p
        return None

    def __add__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else Fp(self.v + w, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else Fp(self.v - w, self.p)

    def __rsub__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else Fp(w - self.v, self.p)

    def __mul__(self, other):
        w = self._lift(other)
        return NotImplemented if w is None else Fp(self.v * w, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        if w % self.p == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(self.v * pow(w, -1, self.p), self.p)

    def __rtruediv__(self, other):
        w = self._lift(other)
        if w is None:
            return NotImplemented
        if self.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(w * pow(self.v, -1, self.p), self.p)

    def __pow__(self, e: int):
        if not isinstance(e, int):
            return NotImplemented
        if e == 0:
            return Fp(1, self.p)
        if e < 0 and self.v == 0:
            raise ZeroDivisionError(f"division by zero in F_{self.p}")
        return Fp(pow(self.v, e, self.p), self.p)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __bool__(self):
        return self.v != 0

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        return NotImplemented

    def __hash__(self):
        return hash((self.v, self.p))

    def __repr__(self):
        return str(self.v)


class Field:
    """Descriptor of an exact coefficient field."""

    characteristic: int

    def coerce(self, x):
        """Return ``x`` as an element of this field, or raise."""
        raise NotImplementedError

    def from_literal(self, num: int, den: int):
        """Value of the literal ``num/den`` (den >= 1, taken verbatim)."""
        raise NotImplementedError

    def render(self, x) -> str:
        raise NotImplementedError

    def sort_key(self, x):
        """Key for the canonical deterministic ordering of field elements."""
        raise NotImplementedError

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)


class Rationals(Field):
    """The field of arbitrary-precision rationals."""

    characteristic = 0

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, Fp):
            raise FieldMismatch("cannot coerce a prime-field residue into Q")
        raise FieldMismatch(f"cannot coerce {x!r} into Q")

    def from_literal(self, num, den):
        if den < 1:
            raise ValueError("denominator must be a positive integer")
        return Fraction(num, den)

    def render(self, x) -> str:
        return str(x)

    def sort_key(self, x):
        n = x.numerator
        return (abs(n), x.denominator, 0 if n == 0 else (1 if n > 0 else -1))

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Q"


QQ = Rationals()


class PrimeField(Field):
    """The field of integers modulo a prime ``p``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p

    @property
    def characteristic(self):
        return self.p

    def coerce(self, x):
        if isinstance(x, Fp):
            if x.p != self.p:
                raise FieldMismatch(f"residue mod {x.p} used in F_{self.p}")
            return x
        if isinstance(x, int):
            return Fp(x, self.p)
        if isinstance(x, Fraction):
            return self.from_literal(x.numerator, x.denominator)
        raise FieldMismatch(f"cannot coerce {x!r} into F_{self.p}")

    def from_literal(self, num, den):
        if den < 1:
            raise ValueError("denominator must be a positive integer")
        if den % self.p == 0:
            raise DivisorNotUnit(f"denominator {den} is 0 mod {self.p}")
        return Fp(num * pow(den % self.p, -1, self.p), self.p)

    def render(self, x) -> str:
        return str(x.v)

    def sort_key(self, x):
        return x.v

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"F_{self.p}"


def parse_scalar(text: str, field: Field):
    """Parse a scalar literal ``[-]int[/posint]`` into a field element."""
    s = text.strip()
    neg = s.startswith("-")
    if neg:
        s = s[1:]
    num_str, _, den_str = s.partition("/")
    if not num_str.isdigit() or (den_str and not den_str.isdigit()):
        raise ParseError(f"bad scalar literal {text!r}")
    den = int(den_str) if den_str else 1
    if den == 0:
        raise ParseError(f"bad scalar literal {text!r}: denominator must be positive")
    num = int(num_str)
    return field.from_literal(-num if neg else num, den)


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
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        zero = field.zero
        return cls(field, [[zero] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def from_columns(cls, field: Field, columns: Sequence[Sequence], *, nrows=None) -> "Matrix":
        cols = [tuple(c) for c in columns]
        if cols:
            nrows = len(cols[0])
        elif nrows is None:
            raise ArityMismatch("a 0-column matrix needs an explicit nrows")
        return cls(field, [[col[i] for col in cols] for i in range(nrows)], ncols=len(cols))

    def entry(self, i: int, j: int):
        return self.rows[i][j]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> tuple:
        return tuple(self.column(j) for j in range(self.ncols))

    def transpose(self) -> "Matrix":
        return Matrix(self.field, self.columns(), ncols=self.nrows)

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
        body = "; ".join(" ".join(self.field.render(e) for e in row) for row in self.rows)
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

    def matvec(self, vec: Sequence) -> tuple:
        v = [self.field.coerce(x) for x in vec]
        if len(v) != self.ncols:
            raise ArityMismatch(f"vector of length {len(v)} against {self.ncols} columns")
        zero = self.field.zero
        return tuple(sum((row[k] * v[k] for k in range(self.ncols)), zero) for row in self.rows)

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
    makes the completion deterministic.
    """
    n, k = v_cols.nrows, v_cols.ncols
    if v_cols.rank() != k:
        raise DependentInput("input columns are linearly dependent")
    field = v_cols.field
    fixed = list(v_cols.columns())
    zero, one = field.zero, field.one
    chosen: list[tuple] = []
    for i in range(n):
        if len(chosen) == n - k:
            break
        unit = tuple(one if r == i else zero for r in range(n))
        trial = Matrix.from_columns(field, chosen + [unit] + fixed, nrows=n)
        if trial.rank() == len(chosen) + 1 + k:
            chosen.append(unit)
    return Matrix.from_columns(field, chosen + fixed, nrows=n)
