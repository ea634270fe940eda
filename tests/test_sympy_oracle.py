"""Differential tests against sympy (an independent implementation): MPoly
products, powers and composition against ``Poly`` over Q and over F_p,
Jacobian determinants against ``Matrix.jacobian().det()``, kernel bases
against ``nullspace``, rational roots against ``roots``, and ``is_prime``
against ``isprime``."""

import time
from fractions import Fraction

import pytest

from kellerlab import Matrix, MPoly, PolyMap, PrimeField, QQ, UniPoly, is_prime, rational_roots

from conftest import random_mpoly, rng_for

sympy = pytest.importorskip("sympy")

NVARS = 3
GENS = sympy.symbols(f"x1:{NVARS + 1}")
FIELDS = [QQ, PrimeField(2), PrimeField(101)]


def domain(field):
    return {"modulus": field.p} if field.characteristic else {"domain": "QQ"}


def to_rational(c):
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(poly, gens=GENS):
    if poly.field.characteristic:
        terms = {e: c.v for e, c in poly.terms.items()}
    else:
        terms = {e: to_rational(c) for e, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms, *gens, **domain(poly.field))


def from_sympy(spoly, field, max_degree=None):
    terms = {}
    for exps, c in spoly.as_dict().items():
        if max_degree is None or sum(exps) <= max_degree:
            terms[exps] = to_fraction(c)
    return MPoly(field, len(spoly.gens), terms)


def to_fraction(c):
    c = sympy.Rational(c)
    return Fraction(int(c.p), int(c.q))


def compose(spoly, images, field):
    mapping = dict(zip(GENS, (im.as_expr() for im in images)))
    expr = spoly.as_expr().subs(mapping, simultaneous=True)
    return sympy.Poly(expr, *GENS, **domain(field))


def random_rational_poly(rng, field, nvars=NVARS, **kw):
    poly = random_mpoly(rng, field, nvars, **kw)
    if field.characteristic:
        return poly
    return MPoly(field, nvars, {e: c / rng.randint(1, 6) for e, c in poly.terms.items()})


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_products_and_powers(field):
    rng = rng_for(f"sympy-mul-{field}")
    for _ in range(12):
        a = random_rational_poly(rng, field, max_deg=4, max_terms=6)
        b = random_rational_poly(rng, field, max_deg=4, max_terms=6)
        sa, sb = to_sympy(a), to_sympy(b)
        assert a * b == from_sympy(sa * sb, field)
        e = rng.randint(0, 4)
        assert a**e == from_sympy(sa**e, field)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_substitute_full_and_truncated(field):
    rng = rng_for(f"sympy-subst-{field}")
    for _ in range(8):
        p = random_rational_poly(rng, field, max_deg=3, max_terms=5)
        images = [random_rational_poly(rng, field, max_deg=2, max_terms=3) for _ in range(NVARS)]
        expected = compose(to_sympy(p), [to_sympy(im) for im in images], field)
        assert p.substitute(images) == from_sympy(expected, field)
        for bound in (0, 2, 3, 5):
            assert p.substitute(images, max_degree=bound) == from_sympy(expected, field, bound)


def test_is_prime_matches_sympy():
    rng = rng_for("sympy-isprime")
    values = list(range(-2, 3000))
    for digits in (6, 12, 18, 24):
        for _ in range(60):
            n = rng.randrange(10 ** (digits - 1), 10**digits)
            half = sympy.nextprime(rng.randrange(10 ** (digits // 2 - 1), 10 ** (digits // 2)))
            values += [n, sympy.nextprime(n), half * sympy.nextprime(half)]
    for n in values:
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize(
    "n",
    [
        561,  # Carmichael number
        2047,  # strong pseudoprime to base 2
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to bases 2..23
        3317044064679887385961813,  # largest prime below the exact bound
    ],
)
def test_is_prime_fixed_cases(n):
    assert is_prime(n) == sympy.isprime(n)


def test_is_prime_near_10_to_18_is_fast():
    n = sympy.nextprime(10**18)
    start = time.perf_counter()
    assert is_prime(n)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_det_jacobian(field, n):
    # maps x_s(i) + h_i for a random permutation s have a nonzero
    # determinant in general, and a first component free of x1 puts a zero
    # in the top row, where the expansion starts
    rng = rng_for(f"sympy-det-{field}-{n}")
    gens = sympy.symbols(f"x1:{n + 1}")
    xs = MPoly.variables(field, n)
    for _ in range(4):
        perm = rng.sample(range(n), n)
        polys = [xs[j] + random_rational_poly(rng, field, n, max_deg=2, max_terms=3) for j in perm]
        if n > 1:
            polys[0] = MPoly(field, n, {e: c for e, c in polys[0].terms.items() if not e[0]})
        exprs = [to_sympy(p, gens).as_expr() for p in polys]
        det = sympy.expand(sympy.Matrix(exprs).jacobian(gens).det())
        expected = from_sympy(sympy.Poly(det, *gens, **domain(field)), field)
        assert PolyMap(field, n, polys).det_jacobian() == expected


def test_kernel_basis_spans_the_nullspace():
    rng = rng_for("sympy-kernel")
    for _ in range(30):
        nrows, ncols, rank = rng.randint(1, 4), rng.randint(1, 5), rng.randint(0, 3)
        # a product of an nrows x rank and a rank x ncols factor, so the
        # rank is often deficient
        left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)] for _ in range(nrows)]
        right = [[Fraction(rng.randint(-3, 3)) for _ in range(ncols)] for _ in range(rank)]
        rows = [[sum((row[k] * right[k][j] for k in range(rank)), Fraction(0)) for j in range(ncols)] for row in left]
        ours = Matrix(QQ, rows, ncols=ncols).kernel_basis()
        theirs = sympy.Matrix(nrows, ncols, [to_rational(x) for row in rows for x in row]).nullspace()
        assert ours.ncols == len(theirs)
        if theirs:
            columns = [sympy.Matrix([to_rational(x) for x in ours.column(j)]) for j in range(ours.ncols)]
            assert sympy.Matrix.hstack(*columns, *theirs).rank() == len(theirs)


def test_rational_roots_match_sympy():
    # products of small linear factors q*t - p and a random cofactor; the
    # coefficients stay small because the root search enumerates divisors
    rng = rng_for("sympy-roots")
    t = sympy.Symbol("t")
    for _ in range(40):
        expr = sympy.Integer(rng.randint(1, 3))
        for _ in range(rng.randint(0, 3)):
            expr *= rng.randint(1, 3) * t - rng.randint(-4, 4)
        expr *= sum(rng.randint(-3, 3) * t**k for k in range(rng.randint(1, 3))) or 1
        spoly = sympy.Poly(expr, t, domain="QQ")
        coeffs = [to_fraction(c) for c in reversed(spoly.all_coeffs())]
        theirs = sorted(to_fraction(r) for r in sympy.roots(spoly) if r.is_rational)
        assert sorted(rational_roots(UniPoly(QQ, coeffs))) == theirs
