"""Differential tests of MPoly products, powers and composition against
sympy's ``Poly`` (an independent implementation), over Q and over F_p."""

from fractions import Fraction

import pytest

from kellerlab import MPoly, PrimeField, QQ

from conftest import random_mpoly, rng_for

sympy = pytest.importorskip("sympy")

NVARS = 3
GENS = sympy.symbols(f"x1:{NVARS + 1}")
FIELDS = [QQ, PrimeField(2), PrimeField(101)]


def domain(field):
    return {"modulus": field.p} if field.characteristic else {"domain": "QQ"}


def to_sympy(poly):
    if poly.field.characteristic:
        terms = {e: c.v for e, c in poly.terms.items()}
    else:
        terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in poly.terms.items()}
    return sympy.Poly.from_dict(terms, *GENS, **domain(poly.field))


def from_sympy(spoly, field, max_degree=None):
    terms = {}
    for exps, c in spoly.as_dict().items():
        if max_degree is None or sum(exps) <= max_degree:
            c = sympy.Rational(c)
            terms[exps] = Fraction(int(c.p), int(c.q))
    return MPoly(field, NVARS, terms)


def compose(spoly, images, field):
    mapping = dict(zip(GENS, (im.as_expr() for im in images)))
    expr = spoly.as_expr().subs(mapping, simultaneous=True)
    return sympy.Poly(expr, *GENS, **domain(field))


def random_rational_poly(rng, field, **kw):
    poly = random_mpoly(rng, field, NVARS, **kw)
    if field.characteristic:
        return poly
    return MPoly(field, NVARS, {e: c / rng.randint(1, 6) for e, c in poly.terms.items()})


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
