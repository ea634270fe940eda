"""Sparse multivariate polynomials over an exact field and the expression
grammar (parser + canonical renderer).  Dense univariate restrictions to a
line live in ``unipoly``, loaded by :meth:`MPoly.restrict_to_line` when it
runs.

Canonical form: term maps carry no zero coefficients and iterate in
graded-lexicographic order (total degree first, then exponent tuple),
descending.  Two polynomials are equal iff their canonical term maps are
equal, so ``==`` is exact polynomial identity.  Like terms are merged and
sorted in one place, ``_combine``: the constructor, ``+``,
``polymap.apply_matrix`` and every sum of many polynomials (``_sum``: the
parser's summands, minor expansions, matrix products) pass through it once,
never one addition at a time.  Products and substitution build canonical
form in the packed kernel below.

Grammar accepted by :func:`parse` (whitespace insignificant, no implicit
multiplication):

    expr     := term (("+" | "-") term)*
    term     := factor ("*" factor)*
    factor   := base ("^" nonneg-int)?
    base     := rational | var | "(" expr ")" | "-" base
    rational := int ("/" posint)?
    var      := "x" posint            # x1 is the first variable

Digits are the ASCII 0-9 only; a digit run longer than ``int()`` converts
(the interpreter's limit) is a ParseError at the literal's offset, and so,
over Q, is a power of a constant with a longer numerator or denominator.

Note the grammar binds unary minus tighter than "^": ``-x1^2`` is
``(-x1)^2``.  The renderer never emits that shape, so parse(render(p)) == p.
Parentheses and unary minus nest at most ``MAX_NESTING`` levels deep; a
deeper expression is a ParseError.  So is a power ``base^e`` or a product
``a*b`` whose result could have more than ``MAX_POWER_TERMS`` terms, bounded
before expanding.

Products (``*``, ``**``) and substitution run on a packed integer kernel
(packed monomials after Monagan & Pearce, ISSAC 2009).  Each call converts
its operands once and converts the result back once.  One substitution call
(``_substitute_all``, behind :meth:`MPoly.substitute` and every map
composition) composes a list of polynomials with one list of images: the
packed images, each image's power cache and each monomial's product of
powers are built once and shared by every polynomial in the call.

* A monomial is one int: the total degree in the top bits, then x1 ... xn
  in fields of ``w`` bits, x1 most significant, so integer order is the
  graded-lex order and multiplying monomials is adding ints.
* Width rule: ``w`` is the bit length of the largest total degree of
  anything packed in the call -- operands, images and every product kept.
  No exponent can then reach ``2^w``, so no field can carry into the next,
  and a product whose key is below ``(D + 1) << (n*w)`` is exactly one of
  total degree at most ``D``: truncation compares keys, not exponents.
* Coefficients are plain ints.  Over F_p they are residues; products are
  summed unreduced and reduced mod p once per output coefficient (delayed
  reduction, as in FLINT's ``nmod`` arithmetic).  Over Q each operand is a
  list of integer numerators over one shared denominator, and each result
  is brought to lowest terms by a single gcd.

Evaluation over F_p works on int residues too: :meth:`MPoly.evaluate` sums
unreduced term values and reduces the sum once.  A point is coerced once per
call (``_coerce_point``), also when a map or a polynomial matrix evaluates
all of its entries there.
"""

from __future__ import annotations

from bisect import bisect_left
from math import comb, gcd, lcm, prod
from typing import Sequence

from .errors import (
    ArityMismatch,
    BadIndex,
    BadVariable,
    DivisorNotUnit,
    FieldMismatch,
    ParseError,
)
from .scalars import Field, Fp, power_too_long


def _grlex(exps):
    return (sum(exps), exps)


def _combine(acc: dict, items) -> dict:
    """The canonical term map of ``acc`` with the (exponents, coefficient)
    pairs of ``items`` added in: like terms summed, zeros dropped, keys
    sorted graded-lex descending, once.  ``acc`` maps exponent tuples to
    field elements and is updated in place."""
    get = acc.get
    for e, c in items:
        prev = get(e)
        acc[e] = c if prev is None else prev + c
    return {e: acc[e] for e in sorted(acc, key=_grlex, reverse=True) if acc[e]}


def _sum(field: Field, nvars: int, polys) -> "MPoly":
    """The sum of the polynomials, all in the ring of ``nvars`` variables
    over ``field`` (so an empty sum is its zero), in one merge."""
    items = (term for poly in polys for term in poly.terms.items())
    return MPoly._canonical(field, nvars, _combine({}, items))


# ---- packed-integer kernel ----------------------------------------------
#
# A packed polynomial is a triple (keys, coeffs, den): monomial keys in
# ascending order, integer coefficients, and the shared denominator (always 1
# over F_p).  The module docstring gives the key layout and the width rule.

_ONE = ([0], [1], 1)


def _width(degree_bound: int) -> int:
    """Bits per exponent field for monomials of total degree <= the bound."""
    return max(1, degree_bound.bit_length())


def _coefficients(poly: "MPoly") -> tuple:
    """Integer coefficients of ``poly`` in ascending term order, and their
    shared denominator."""
    values = list(reversed(poly.terms.values()))
    if poly.field.characteristic:
        return [c.v for c in values], 1
    den = lcm(*[c.denominator for c in values])
    return [c.numerator * (den // c.denominator) for c in values], den


def _pack(poly: "MPoly", width: int) -> tuple:
    keys = []
    for exps in reversed(poly.terms):
        key = sum(exps)
        for e in exps:
            key = key << width | e
        keys.append(key)
    return (keys, *_coefficients(poly))


def _product(a: tuple, b: tuple, limit, p: int) -> tuple:
    """The product of two packed polynomials, keeping only keys below
    ``limit`` (all keys when it is None).

    This is the one multiplication loop of the module.  Both key lists are
    ascending, so the right factors that fit under ``limit`` form a prefix,
    found by bisection, and once none fits the remaining left keys are
    larger still.
    """
    if len(a[0]) > len(b[0]):
        a, b = b, a
    akeys, acoeffs, aden = a
    bkeys, bcoeffs, bden = b
    right = list(zip(bkeys, bcoeffs))
    acc = {}
    get = acc.get
    for k1, c1 in zip(akeys, acoeffs):
        pairs = right
        if limit is not None:
            stop = bisect_left(bkeys, limit - k1)
            if not stop:
                break
            pairs = right[:stop]
        for k2, c2 in pairs:
            k = k1 + k2
            acc[k] = get(k, 0) + c1 * c2
    return _reduce(acc, aden * bden, p)


def _power(cache: dict, e: int, limit, p: int) -> tuple:
    """The e-th power of the packed ``cache[1]`` by square-and-multiply,
    truncated like ``_product``; every power built is kept in ``cache``."""
    if e not in cache:
        half = _power(cache, e // 2, limit, p)
        sq = _product(half, half, limit, p)
        cache[e] = _product(sq, cache[1], limit, p) if e & 1 else sq
    return cache[e]


def _monomial(products: dict, caches: list, exps: tuple, limit, p: int) -> tuple:
    """The packed product of the image powers ``exps`` names, truncated below
    ``limit``; kept in ``products`` by exponent tuple, so a prefix (the same
    tuple with its last nonzero exponent cleared) is shared by all its
    extensions."""
    term = products.get(exps)
    if term is None:
        term = _ONE
        nonzero = [j for j, e in enumerate(exps) if e]
        if nonzero:
            j = nonzero[-1]
            term = _power(caches[j], exps[j], limit, p)
            if len(nonzero) > 1:
                rest = exps[:j] + (0,) * (len(exps) - j)
                term = _product(_monomial(products, caches, rest, limit, p), term, limit, p)
        if limit is not None:
            stop = bisect_left(term[0], limit)
            term = (term[0][:stop], term[1][:stop], term[2])
        products[exps] = term
    return term


def _reduce(acc: dict, den: int, p: int) -> tuple:
    """Packed canonical form of an accumulator of unreduced integer sums:
    residues mod p over F_p, lowest terms over Q, zeros dropped."""
    if p:
        out = {}
        for k, v in acc.items():
            v %= p
            if v:
                out[k] = v
    else:
        out = {k: v for k, v in acc.items() if v}
        if den != 1:
            g = gcd(den, *out.values())
            if g != 1:
                den //= g
                out = {k: v // g for k, v in out.items()}
    keys = sorted(out)
    return keys, [out[k] for k in keys], den


def _coerce_point(field: Field, point: Sequence) -> list:
    """The coordinates coerced into the field, as int residues over F_p:
    the form :meth:`MPoly._evaluate` takes, so a caller that evaluates
    several polynomials at one point coerces it once."""
    vals = [field.coerce(x) for x in point]
    return [x.v for x in vals] if field.characteristic else vals


def _term_values(poly: "MPoly", point: list, p: int) -> list:
    """The value of each term of ``poly`` at a point from ``_coerce_point``,
    in term order: over F_p unreduced ints (products of residues), over Q
    (``p`` = 0) fractions."""
    out = []
    mod = p or None
    for exps, c in poly.terms.items():
        v = c.v if p else c
        for x, e in zip(point, exps):
            if e:
                v *= pow(x, e, mod)
        out.append(v)
    return out


def _unpack(packed: tuple, field: Field, nvars: int, width: int) -> "MPoly":
    keys, coeffs, den = packed
    mask = (1 << width) - 1
    shifts = [width * (nvars - 1 - j) for j in range(nvars)]
    p = field.characteristic
    if p:
        values = [Fp(c, p) for c in coeffs]
    else:
        from fractions import Fraction

        values = [Fraction(c) for c in coeffs] if den == 1 else [Fraction(c, den) for c in coeffs]
    terms = {
        tuple([k >> s & mask for s in shifts]): c for k, c in zip(reversed(keys), reversed(values))
    }
    return MPoly._canonical(field, nvars, terms)


def _substitute_all(polys: Sequence["MPoly"], images: Sequence["MPoly"], max_degree=None) -> list:
    """Compose every polynomial in ``polys`` with the same images, one per
    variable, sharing the packed images, their power caches and each
    monomial product among all of them (see the module docstring).

    ``max_degree`` truncates every product by total degree, which is sound
    since degrees only add; each result is the exact composition with its
    terms above ``max_degree`` dropped.  An empty ``polys`` gives [].
    """
    if not polys:
        return []
    for poly in polys:
        if len(images) != poly.nvars:
            raise ArityMismatch(f"{len(images)} images for {poly.nvars} variables")
        if poly.nvars == 0:
            raise ArityMismatch("cannot substitute into a 0-variable polynomial")
    tgt = images[0]
    for im in images:
        if not isinstance(im, MPoly):
            raise FieldMismatch("images must be polynomials")
        tgt._compat(im)
    field, nvars = tgt.field, tgt.nvars
    for poly in polys:
        if poly.field != field:
            raise FieldMismatch(f"{poly.field} vs {field}")
    p = field.characteristic
    top = max(im.degree() for im in images)
    bound = max(poly.degree() for poly in polys) * top
    if max_degree is not None:
        bound = min(bound, max_degree)
    width = _width(max(bound, top))
    limit = None if max_degree is None else (max_degree + 1) << (width * nvars)
    packed = [_pack(im, width) for im in images]
    caches = [{1: im} for im in packed]
    dens = [im[2] for im in packed]
    products = {}
    out = []
    for poly in polys:
        # every term product's denominator divides prod(den_j ** e_j), so
        # their lcm is a shared denominator for the whole sum
        nums, den = _coefficients(poly)
        shared = 1
        if any(d != 1 for d in dens):
            shared = lcm(*(prod(d**e for d, e in zip(dens, exps)) for exps in poly.terms))
        acc = {}
        get = acc.get
        for exps, num in zip(reversed(poly.terms), nums):
            keys, coeffs, d = _monomial(products, caches, exps, limit, p)
            scale = num * (shared // d)
            for k, c in zip(keys, coeffs):
                acc[k] = get(k, 0) + scale * c
        out.append(_unpack(_reduce(acc, den * shared, p), field, nvars, width))
    return out


class MPoly:
    """Sparse polynomial in ``nvars`` variables over an exact field."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        checked = []
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != nvars:
                raise ArityMismatch(f"monomial {exps} in a {nvars}-variable ring")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            checked.append((exps, field.coerce(c)))
        self.field = field
        self.nvars = nvars
        self.terms = _combine({}, checked)

    @classmethod
    def _canonical(cls, field: Field, nvars: int, terms: dict) -> "MPoly":
        """Wrap a term map that is already canonical: tuple keys of length
        ``nvars``, coerced nonzero coefficients, graded-lex descending.
        Skips the validation and the sort done by ``__init__``."""
        poly = object.__new__(cls)
        poly.field = field
        poly.nvars = nvars
        poly.terms = terms
        return poly

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, field: Field, nvars: int) -> "MPoly":
        return cls(field, nvars)

    @classmethod
    def constant(cls, field: Field, nvars: int, value) -> "MPoly":
        return cls(field, nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, field: Field, nvars: int, index: int) -> "MPoly":
        if not 0 <= index < nvars:
            raise BadIndex(f"variable index {index} outside 0..{nvars - 1}")
        exps = tuple(1 if j == index else 0 for j in range(nvars))
        return cls(field, nvars, {exps: 1})

    @classmethod
    def variables(cls, field: Field, nvars: int) -> tuple:
        return tuple(cls.variable(field, nvars, j) for j in range(nvars))

    # ---- ring structure -----------------------------------------------

    def _compat(self, other: "MPoly"):
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.nvars != other.nvars:
            raise ArityMismatch(f"{self.nvars} vs {other.nvars} variables")

    def _as_poly(self, x):
        if isinstance(x, MPoly):
            return x
        return MPoly.constant(self.field, self.nvars, x)

    def __add__(self, other):
        other = self._as_poly(other)
        self._compat(other)
        terms = _combine(dict(self.terms), other.terms.items())
        return MPoly._canonical(self.field, self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._canonical(self.field, self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._as_poly(other))

    def __rsub__(self, other):
        return self._as_poly(other) - self

    def __mul__(self, other):
        other = self._as_poly(other)
        self._compat(other)
        width = _width(self.degree() + other.degree())
        product = _product(_pack(self, width), _pack(other, width), None, self.field.characteristic)
        return _unpack(product, self.field, self.nvars, width)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative polynomial power")
        width = _width(self.degree() * e)
        power = _power({0: _ONE, 1: _pack(self, width)}, e, None, self.field.characteristic)
        return _unpack(power, self.field, self.nvars, width)

    def __eq__(self, other):
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.field == other.field and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.field, self.nvars, tuple(self.terms.items())))

    def __repr__(self):
        return render(self)

    # ---- structure queries ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, self.field.zero)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.field.zero)

    def degree(self) -> int:
        """Total degree; 0 for the zero polynomial by convention."""
        if not self.terms:
            return 0
        return sum(next(iter(self.terms)))

    def degrees(self) -> set:
        """Set of total degrees of the terms (the degree support)."""
        return {sum(e) for e in self.terms}

    # ---- calculus and substitution ---------------------------------------

    def derivative(self, index: int) -> "MPoly":
        """Formal partial derivative in the given variable (0-based).

        Coefficients are multiplied in the field, so over F_p the derivative
        of ``x^p`` is zero.
        """
        if not 0 <= index < self.nvars:
            raise BadIndex(f"variable index {index} outside 0..{self.nvars - 1}")
        # lowering one exponent keeps the keys distinct and in graded-lex
        # order, so the result is canonical once zero coefficients are gone
        acc = {}
        for e, c in self.terms.items():
            k = e[index]
            if k == 0:
                continue
            c = c * k
            if c:
                new = list(e)
                new[index] = k - 1
                acc[tuple(new)] = c
        return MPoly._canonical(self.field, self.nvars, acc)

    def substitute(self, images: Sequence["MPoly"], max_degree=None) -> "MPoly":
        """Compose with the given images, one per variable, all in one ring;
        ``max_degree`` drops the terms above it (see ``_substitute_all``)."""
        return _substitute_all([self], images, max_degree)[0]

    def evaluate(self, point: Sequence):
        if len(point) != self.nvars:
            raise ArityMismatch(f"point of length {len(point)} in {self.nvars} variables")
        return self._evaluate(_coerce_point(self.field, point))

    def _evaluate(self, vals: list):
        """The value at a point already passed through ``_coerce_point``."""
        p = self.field.characteristic
        if p:
            return Fp(sum(_term_values(self, vals, p)), p)
        return sum(_term_values(self, vals, 0), self.field.zero)

    def homogeneous_components(self) -> dict:
        """Map degree -> homogeneous part, ascending keys; parts sum to self."""
        out = {}
        for e, c in self.terms.items():
            out.setdefault(sum(e), {})[e] = c
        return {k: MPoly._canonical(self.field, self.nvars, out[k]) for k in sorted(out)}

    def restrict_to_line(self, direction: Sequence) -> "UniPoly":
        """The univariate polynomial ``t -> self(t * direction)``."""
        if len(direction) != self.nvars:
            raise ArityMismatch(f"direction of length {len(direction)} in {self.nvars} variables")
        from .unipoly import UniPoly, _line_coefficients

        b = _coerce_point(self.field, direction)
        coeffs = _line_coefficients(self, [0] * self.nvars, b, self.field.characteristic)
        return UniPoly(self.field, coeffs)

    def exact_div(self, divisor: "MPoly") -> "MPoly":
        """Exact quotient ``self / divisor``; raises ValueError when inexact.

        Graded-lex leading-term division: over a field the leading term of a
        product is the product of leading terms, so when the division is
        exact this loop terminates with remainder zero.
        """
        self._compat(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        d_exps, d_coeff = next(iter(divisor.terms.items()))
        rem = dict(self.terms)
        quot = {}
        while rem:
            r_exps = max(rem, key=_grlex)
            diff = tuple(a - b for a, b in zip(r_exps, d_exps))
            if any(d < 0 for d in diff):
                raise ValueError("division is not exact")
            qc = rem[r_exps] / d_coeff
            quot[diff] = qc
            for e, c in divisor.terms.items():
                key = tuple(a + b for a, b in zip(diff, e))
                prev = rem.get(key, self.field.zero)
                new = prev - qc * c
                if new:
                    rem[key] = new
                elif key in rem:
                    del rem[key]
        return MPoly(self.field, self.nvars, quot)


# ---- text grammar -------------------------------------------------------

# the parser recurses a few frames per level of "(" or unary "-", so the
# depth is bounded well below Python's recursion limit
MAX_NESTING = 100
# a power base^e or a product a*b is expanded only when a bound on its term
# count is at most this; (x1 + x2 + x3 + x4 + 1)^19 has 8855 terms, ^20 has
# 10626, and the product of two ^9 factors is bounded by 7315
MAX_POWER_TERMS = 10_000


def power_term_bound(nvars: int, degree: int, terms: int, e: int) -> int:
    """A bound on the term count of f^e, for f in nvars variables of the
    given degree and term count: the monomials of degree at most degree * e,
    and the multisets of e terms."""
    return min(comb(nvars + degree * e, nvars), comb(terms + e - 1, e))


class _Parser:
    def __init__(self, text: str, nvars: int, field: Field):
        self.text = text
        self.end = len(text)
        self.nvars = nvars
        self.field = field
        self.pos = 0
        self.depth = 0

    def fail(self, message: str, pos=None):
        raise ParseError(message, offset=(self.pos if pos is None else pos) + 1)

    def nested(self, parse_inner) -> MPoly:
        """Parse one level deeper, failing beyond ``MAX_NESTING``."""
        if self.depth == MAX_NESTING:
            self.fail(f"expression nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        node = parse_inner()
        self.depth -= 1
        return node

    def skip_ws(self):
        while self.pos < self.end and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < self.end else ""

    def at_digit(self) -> bool:
        """Whether the next character is one of the ASCII digits 0-9."""
        c = self.text[self.pos : self.pos + 1]
        return c.isascii() and c.isdigit()

    def digits(self) -> int:
        start = self.pos
        while self.at_digit():
            self.pos += 1
        if start == self.pos:
            self.fail("expected digits")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # longer than the interpreter converts
            self.fail(f"integer literal of {self.pos - start} digits is too long to convert", start)

    def expr(self) -> MPoly:
        terms = [self.term()]
        while self.peek() in ("+", "-"):
            sign = self.text[self.pos]
            self.pos += 1
            term = self.term()
            terms.append(-term if sign == "-" else term)
        return terms[0] if len(terms) == 1 else _sum(self.field, self.nvars, terms)

    def term(self) -> MPoly:
        node = self.factor()
        while self.peek() == "*":
            mark = self.pos
            self.pos += 1
            other = self.factor()
            # monomials of degree at most deg a + deg b, and pairs of terms
            bound = min(
                comb(self.nvars + node.degree() + other.degree(), self.nvars),
                len(node.terms) * len(other.terms),
            )
            if bound > MAX_POWER_TERMS:
                self.fail(f"product may expand to {bound} terms, more than {MAX_POWER_TERMS}", mark)
            node = node * other
        return node

    def factor(self) -> MPoly:
        node = self.base()
        if self.peek() == "^":
            mark = self.pos
            self.pos += 1
            self.skip_ws()
            e = self.digits()
            if node.is_constant() and power_too_long(node.constant_term(), e):
                self.fail("constant power is too long to convert", mark)
            if e > 1:
                bound = power_term_bound(self.nvars, node.degree(), len(node.terms), e)
                if bound > MAX_POWER_TERMS:
                    self.fail(
                        f"power may expand to {bound} terms, more than {MAX_POWER_TERMS}", mark
                    )
            return node**e
        return node

    def base(self) -> MPoly:
        c = self.peek()
        if c == "-":
            self.pos += 1
            return -self.nested(self.base)
        if c == "(":
            self.pos += 1
            node = self.nested(self.expr)
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return node
        if c == "x":
            mark = self.pos
            self.pos += 1
            if not self.at_digit():
                self.fail("expected a variable index after 'x'")
            index = self.digits()
            if index == 0:
                self.fail("variable index must be at least 1", mark)
            if index > self.nvars:
                raise BadVariable(
                    f"x{index} exceeds the declared {self.nvars} variables", offset=mark + 1
                )
            return MPoly.variable(self.field, self.nvars, index - 1)
        if self.at_digit():
            num = self.digits()
            den = 1
            if self.peek() == "/":
                self.pos += 1
                self.skip_ws()
                mark = self.pos
                den = self.digits()
                if den == 0:
                    self.fail("denominator must be positive", mark)
                try:
                    value = self.field.from_literal(num, den)
                except DivisorNotUnit as exc:
                    raise DivisorNotUnit(str(exc), offset=mark + 1) from None
                return MPoly.constant(self.field, self.nvars, value)
            return MPoly.constant(self.field, self.nvars, self.field.from_literal(num, 1))
        self.fail("expected a number, variable, '(' or '-'")


def parse(text: str, nvars: int, field: Field) -> MPoly:
    """Parse an expression into canonical form (see the module grammar)."""
    parser = _Parser(text, nvars, field)
    poly = parser.expr()
    parser.skip_ws()
    if parser.pos != parser.end:
        parser.fail("unexpected trailing input")
    return poly


def _format_term(field: Field, coeff, mono: str, first: bool) -> str:
    if field.characteristic == 0 and coeff < 0:
        sign, mag = "-", -coeff
    else:
        sign, mag = "+", coeff
    if not mono:
        body = str(mag)
    elif mag == field.one:
        body = mono
    else:
        body = f"{mag!s}*{mono}"
    if first:
        if sign == "-":
            # a bare leading "-x1^2" would parse as (-x1)^2; fold the sign
            # into an explicit numeric coefficient instead
            if mono and mag == field.one:
                return f"-1*{mono}"
            return f"-{body}"
        return body
    return f" {sign} {body}"


def render(poly: MPoly) -> str:
    """Canonical text form; graded-lex descending, round-trips through parse."""
    if poly.is_zero():
        return "0"
    parts = []
    for exps, c in poly.terms.items():
        mono = "*".join(
            f"x{j + 1}" if e == 1 else f"x{j + 1}^{e}" for j, e in enumerate(exps) if e
        )
        parts.append(_format_term(poly.field, c, mono, first=not parts))
    return "".join(parts)
