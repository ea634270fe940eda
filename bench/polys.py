"""Exact polynomial arithmetic for building the benchmark's input maps.

The generator does not import kellerlab: if it used the program's own
composition or renderer, a change to the program could change the inputs it
is measured on.  Polynomials are dicts ``{exponent tuple: coefficient}``
without zero coefficients.  A field is ``None`` for Q (``Fraction``
coefficients) or a prime p (``int`` coefficients in ``0..p-1``).
"""

from __future__ import annotations

from fractions import Fraction


def coerce(field, value):
    if field is None:
        return Fraction(value)
    return value % field


def inv(field, value):
    if field is None:
        return 1 / Fraction(value)
    return pow(value, -1, field)


def add(field, *polys):
    acc = {}
    for poly in polys:
        for e, c in poly.items():
            acc[e] = acc.get(e, 0) + c
    if field is not None:
        acc = {e: c % field for e, c in acc.items()}
    return {e: c for e, c in acc.items() if c}


def scale(field, poly, factor):
    factor = coerce(field, factor)
    return add(field, {e: c * factor for e, c in poly.items()})


def mul(field, a, b):
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            acc[key] = acc.get(key, 0) + c1 * c2
    return add(field, acc)


def power(field, poly, exponent, nvars):
    result = {(0,) * nvars: coerce(field, 1)}
    for _ in range(exponent):
        result = mul(field, result, poly)
    return result


def variable(field, nvars, index):
    return {tuple(1 if j == index else 0 for j in range(nvars)): coerce(field, 1)}


def affine(field, row, constant, nvars):
    """The affine form ``sum_j row[j] * x_j + constant``."""
    terms = [scale(field, variable(field, nvars, j), a) for j, a in enumerate(row) if a]
    terms.append({(0,) * nvars: coerce(field, constant)})
    return add(field, *terms)


def degree(poly) -> int:
    return max((sum(e) for e in poly), default=0)


def render_scalar(field, value) -> str:
    """Scalar literal in the kellerlab grammar (``-3``, ``5/2``)."""
    if field is None:
        value = Fraction(value)
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return str(value % field)


def render(field, poly) -> str:
    """Text accepted by the kellerlab grammar; terms in descending exponent
    order and every coefficient written out, so the bytes depend only on the
    polynomial."""
    if not poly:
        return "0"
    parts = []
    for exps in sorted(poly, reverse=True):
        c = poly[exps]
        negative = field is None and c < 0
        mag = render_scalar(field, -c if negative else c)
        mono = "*".join(f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in enumerate(exps) if e)
        body = f"{mag}*{mono}" if mono else mag
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f" - {body}" if negative else f" + {body}")
    return "".join(parts)


def field_json(field):
    return "Q" if field is None else {"Fp": field}


def field_flag(field) -> str:
    return "Q" if field is None else f"Fp:{field}"


# ---- matrices (lists of rows of coefficients) ---------------------------


def mat_mul(field, a, b):
    return [
        [coerce(field, sum(a[i][k] * b[k][j] for k in range(len(b)))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_inverse(field, matrix):
    """Gauss-Jordan inverse; raises ValueError when singular."""
    n = len(matrix)
    rows = [
        [coerce(field, x) for x in row] + [coerce(field, 1 if i == j else 0) for j in range(n)]
        for i, row in enumerate(matrix)
    ]
    for c in range(n):
        src = next((r for r in range(c, n) if rows[r][c]), None)
        if src is None:
            raise ValueError("singular matrix")
        rows[c], rows[src] = rows[src], rows[c]
        pivot = inv(field, rows[c][c])
        rows[c] = [coerce(field, x * pivot) for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [coerce(field, x - f * y) for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]
