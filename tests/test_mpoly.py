import gc
import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

import kellerlab.collinear as collinear
import kellerlab.mpoly as mpoly
import kellerlab.unipoly as unipoly
from kellerlab import (
    Fp,
    Matrix,
    MPoly,
    PolyMap,
    PolyMatrix,
    PrimeField,
    QQ,
    UniPoly,
    formal_inverse,
    parse,
    rational_roots,
    render,
)
from kellerlab.cli import load_mapfile, load_matrixfile
from kellerlab.errors import (
    ArityMismatch,
    BadIndex,
    BadVariable,
    DivisorNotUnit,
    FieldMismatch,
    ParseError,
)
from kellerlab.mpoly import MAX_POWER_TERMS

from conftest import (
    P,
    naive_evaluate,
    naive_product,
    naive_restrict_to_line,
    naive_substitute,
    random_mpoly,
    rng_for,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F101 = PrimeField(101)
# the least prime above 10^18: residues and their products exceed 64 bits
FBIG = PrimeField(10**18 + 3)


def monomial(field, nvars, exps, c=1):
    return MPoly(field, nvars, {tuple(exps): c})


def assert_canonical(r):
    """A kernel result equals, term for term and in order, what the
    validating constructor makes of its own terms."""
    rebuilt = MPoly(r.field, r.nvars, dict(r.terms))
    assert rebuilt == r
    assert list(rebuilt.terms.items()) == list(r.terms.items())
    for exps, c in r.terms.items():
        assert type(exps) is tuple and len(exps) == r.nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert r.field.coerce(c) is c and c


class TestRingOps:
    def test_cancellation(self):
        assert P("x1 + x2", 2, QQ) + P("x1 - x2", 2, QQ) == P("2*x1", 2, QQ)

    def test_freshman_dream_char_2(self):
        assert P("(x1 + x2)^2", 2, F2) == P("x1^2 + x2^2", 2, F2)

    def test_multiplication_by_zero(self):
        zero = MPoly.zero(QQ, 1)
        assert P("x1", 1, QQ) * zero == zero

    def test_field_and_arity_mismatch(self):
        with pytest.raises(FieldMismatch):
            P("x1", 1, QQ) + P("x1", 1, F5)
        with pytest.raises(ArityMismatch):
            P("x1", 1, QQ) * P("x1", 2, QQ)

    def test_ring_axioms_on_random_polynomials(self):
        rng = rng_for("ring-axioms")
        for field in (QQ, F5):
            for _ in range(40):
                a = random_mpoly(rng, field, 2)
                b = random_mpoly(rng, field, 2)
                c = random_mpoly(rng, field, 2)
                assert a + b == b + a
                assert a * b == b * a
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c

    def test_pow_matches_repeated_multiplication(self):
        rng = rng_for("pow")
        for _ in range(10):
            a = random_mpoly(rng, QQ, 2, max_deg=2, max_terms=3, span=3)
            prod = MPoly.constant(QQ, 2, 1)
            for e in range(5):
                assert a**e == prod
                prod = prod * a

    def test_multiplication_against_evaluation_oracle(self):
        # evaluation is a ring homomorphism, so checking products at several
        # points cross-checks the convolution independently
        rng = rng_for("mul-eval")
        for field in (QQ, F5):
            for _ in range(25):
                a = random_mpoly(rng, field, 2)
                b = random_mpoly(rng, field, 2)
                for _ in range(4):
                    pt = [field.coerce(rng.randint(-4, 4)) for _ in range(2)]
                    assert (a * b).evaluate(pt) == a.evaluate(pt) * b.evaluate(pt)


@st.composite
def canonical_case(draw):
    """Two polynomials in one ring over Q, F_2 or F_101, built by the
    validating constructor."""
    field = draw(st.sampled_from([QQ, F2, F101]))
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    coeffs = st.integers(-4, 4) if field is F2 else st.integers(-150, 150)
    a, b = (MPoly(field, nvars, draw(st.dictionaries(exps, coeffs, max_size=6))) for _ in "ab")
    return a, b


def assert_same_terms(r, expected):
    assert r == expected
    assert list(r.terms.items()) == list(expected.terms.items())
    assert_canonical(r)


class TestCanonicalPaths:
    """``+``, ``-``, negation and the term filters wrap their results without
    re-validating; each must equal what the validating constructor builds
    from the same terms, in the same order."""

    @settings(max_examples=150, deadline=None)
    @given(case=canonical_case())
    def test_sum_difference_and_negation(self, case):
        a, b = case
        field, nvars = a.field, a.nvars
        negated = [(e, -c) for e, c in b.terms.items()]
        assert_same_terms(a + b, MPoly(field, nvars, [*a.terms.items(), *b.terms.items()]))
        assert_same_terms(a - b, MPoly(field, nvars, [*a.terms.items(), *negated]))
        assert_same_terms(-b, MPoly(field, nvars, negated))
        assert_same_terms(a + 3, MPoly(field, nvars, [*a.terms.items(), ((0,) * nvars, 3)]))
        assert_same_terms(3 - b, MPoly(field, nvars, [((0,) * nvars, 3), *negated]))
        assert (a - a).terms == {} and (b - b).terms == {}

    @settings(max_examples=100, deadline=None)
    @given(case=canonical_case())
    def test_homogeneous_components_are_term_filters(self, case):
        a, _ = case
        field, nvars = a.field, a.nvars
        parts = a.homogeneous_components()
        assert list(parts) == sorted(a.degrees())
        for k, part in parts.items():
            kept = {e: c for e, c in a.terms.items() if sum(e) == k}
            assert_same_terms(part, MPoly(field, nvars, kept))


class TestDerivative:
    def test_power_rule(self):
        assert P("x1^2 * x2", 2, QQ).derivative(0) == P("2*x1*x2", 2, QQ)

    def test_char_p_kills_pth_powers(self):
        for p in (2, 3, 5):
            field = PrimeField(p)
            assert P(f"x1^{p}", 1, field).derivative(0).is_zero()

    def test_constant_in_other_variable(self):
        assert P("x1", 2, QQ).derivative(1).is_zero()

    def test_bad_index(self):
        with pytest.raises(BadIndex):
            P("x1", 1, QQ).derivative(1)

    def test_result_is_canonical_over_q_and_fp(self):
        rng = rng_for("derivative-canonical")
        for field in (QQ, F2, F3, F5, F101):
            for _ in range(30):
                poly = random_mpoly(rng, field, 3, max_deg=6, max_terms=8, span=20)
                for j in range(3):
                    assert_canonical(poly.derivative(j))

    def test_char_p_keeps_only_terms_with_nonzero_factor(self):
        for p in (2, 3, 5):
            field = PrimeField(p)
            poly = P(f"x1^{p + 1}*x2 + x1^{p}*x2^3 + x1^{p} + x2", 2, field)
            d = poly.derivative(0)
            assert d.terms == {(p, 1): Fp(1, p)}  # (p + 1) x1^p x2
            assert_canonical(d)
            assert P(f"x1^{p}", 1, field).derivative(0).terms == {}

    def test_leibniz_rule(self):
        rng = rng_for("leibniz")
        for field in (QQ, F5):
            for _ in range(30):
                a = random_mpoly(rng, field, 2)
                b = random_mpoly(rng, field, 2)
                for j in range(2):
                    assert (a * b).derivative(j) == a.derivative(j) * b + a * b.derivative(j)


class TestSubstitute:
    def test_binomial(self):
        image = P("x1 + x2", 2, QQ)
        assert P("x1^2", 1, QQ).substitute([image]) == P("x1^2 + 2*x1*x2 + x2^2", 2, QQ)

    def test_swap_symmetry(self):
        p = P("x1 + x2", 2, QQ)
        xs = MPoly.variables(QQ, 2)
        assert p.substitute([xs[1], xs[0]]) == p

    def test_shear_inverse_pair(self):
        p = P("x2 + x1^2", 2, QQ)
        assert p.substitute([P("x1", 2, QQ), P("x2 - x1^2", 2, QQ)]) == P("x2", 2, QQ)

    def test_substitution_is_ring_homomorphism(self):
        rng = rng_for("subst-hom")
        for field in (QQ, F3):
            for _ in range(20):
                a = random_mpoly(rng, field, 2, max_deg=2)
                b = random_mpoly(rng, field, 2, max_deg=2)
                images = [random_mpoly(rng, field, 2, max_deg=2, max_terms=2) for _ in range(2)]
                assert (a * b).substitute(images) == a.substitute(images) * b.substitute(images)
                assert (a + b).substitute(images) == a.substitute(images) + b.substitute(images)

    def test_evaluation_commutes_with_substitution(self):
        rng = rng_for("subst-eval")
        for field in (QQ, F5):
            for _ in range(20):
                p = random_mpoly(rng, field, 2, max_deg=3)
                images = [random_mpoly(rng, field, 2, max_deg=2, max_terms=2) for _ in range(2)]
                pt = [field.coerce(rng.randint(-3, 3)) for _ in range(2)]
                lhs = p.substitute(images).evaluate(pt)
                rhs = p.evaluate([im.evaluate(pt) for im in images])
                assert lhs == rhs

    def test_truncated_substitution_matches_full(self):
        rng = rng_for("subst-trunc")
        for _ in range(10):
            p = random_mpoly(rng, QQ, 2, max_deg=3)
            images = [random_mpoly(rng, QQ, 2, max_deg=2, max_terms=2) for _ in range(2)]
            full = p.substitute(images)
            for bound in (0, 1, 2, 3):
                truncated = p.substitute(images, max_degree=bound)
                expected = MPoly(
                    QQ, 2, {e: c for e, c in full.terms.items() if sum(e) <= bound}
                )
                assert truncated == expected

    def test_leaves_no_reference_cycle(self):
        # the power cache must be freed by reference counting alone
        p = P("x1^5*x2^3 + x1^2 + x2^7", 2, F5)
        images = [P("x1 + x2^2", 2, F5), P("2*x2 + x1*x2", 2, F5)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            p.substitute(images)
            p.substitute(images, max_degree=4)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


class TestPackedKernel:
    @pytest.mark.parametrize("e", [255, 256, 65535, 65536])
    def test_exponents_at_field_width_boundaries(self, e):
        x1, x2 = MPoly.variables(QQ, 2)
        high1, high2 = monomial(QQ, 2, (e, 0)), monomial(QQ, 2, (0, e))
        assert (high1 * x1).terms == {(e + 1, 0): 1}
        assert (high1 * x2).terms == {(e, 1): 1}
        assert (high2 * x2).terms == {(0, e + 1): 1}
        assert (high1 * (x1 + x2)).terms == {(e + 1, 0): 1, (e, 1): 1}
        assert (x2**e).terms == {(0, e): 1}
        for r in (high1 * x1, high2 * (x1 + x2), x2**e):
            assert_canonical(r)

    def test_binomial_power_crosses_a_width_boundary(self):
        x1, x2 = MPoly.variables(QQ, 2)
        r = (x1 + x2) ** 255 * x2
        assert r.terms == {(k, 256 - k): comb(255, k) for k in range(255, -1, -1)}
        assert_canonical(r)

    def test_images_above_max_degree(self):
        # the packed images are wider than the truncated result, so the width
        # must come from the images too
        for field in (QQ, F101):
            x1, x2 = MPoly.variables(field, 2)
            p = P("x1 + 3*x2^2 + x1*x2 + 2", 2, field)
            for top in (5, 255, 256):
                images = [monomial(field, 2, (top, 0)) + x2, x1 - x2 * 4]
                for bound in (0, 1, 2, 3):
                    r = p.substitute(images, max_degree=bound)
                    assert r == naive_substitute(p, images, bound)
                    assert_canonical(r)

    def test_max_degree_equal_to_product_degree(self):
        rng = rng_for("kernel-exact-bound")
        for field in (QQ, F5):
            for _ in range(10):
                p = random_mpoly(rng, field, 2, max_deg=3)
                images = [random_mpoly(rng, field, 2, max_deg=2) for _ in range(2)]
                full = p.substitute(images)
                exact = full.degree()
                assert p.substitute(images, max_degree=exact) == full
                below = p.substitute(images, max_degree=exact - 1)
                assert below == naive_substitute(p, images, exact - 1)
                assert below.degree() < exact or below.is_zero()

    @pytest.mark.parametrize("nvars", [1, 7])
    def test_against_naive_reference(self, nvars):
        rng = rng_for(f"kernel-naive-{nvars}")
        for field in (QQ, F5, F101):
            for _ in range(8):
                a = random_mpoly(rng, field, nvars, max_deg=4, max_terms=5)
                b = random_mpoly(rng, field, nvars, max_deg=4, max_terms=5)
                images = [
                    random_mpoly(rng, field, nvars, max_deg=2, max_terms=3) for _ in range(nvars)
                ]
                for r, expected in (
                    (a * b, naive_product(a, b)),
                    (a**3, naive_product(naive_product(a, a), a)),
                    (a.substitute(images), naive_substitute(a, images)),
                    (a.substitute(images, max_degree=3), naive_substitute(a, images, 3)),
                ):
                    assert r == expected
                    assert_canonical(r)

    def test_coprime_denominators(self):
        a = P("1/2*x1 + 1/3*x2 + 5/7", 2, QQ)
        b = P("5/7*x1^2 - 1/3*x2 + 1/2", 2, QQ)
        assert a * b == naive_product(a, b)
        assert (a * b).constant_term() == Fraction(5, 14)
        assert (a * b).coefficient((0, 1)) == Fraction(-1, 14)
        assert a**3 == naive_product(naive_product(a, a), a)
        images = [P("1/3*x1 + 1/2*x2^2", 2, QQ), P("5/7*x2 - 1/2", 2, QQ)]
        for r, expected in (
            (b.substitute(images), naive_substitute(b, images)),
            (b.substitute(images, max_degree=2), naive_substitute(b, images, 2)),
            (a.substitute(images), naive_substitute(a, images)),
        ):
            assert r == expected
            assert_canonical(r)

    def test_cancellation_to_zero_in_small_characteristic(self):
        x1, x2 = MPoly.variables(F2, 2)
        assert (x1 + 1) * (x1 + 1) == x1 * x1 + 1
        assert (x1 + x2) ** 4 == x1**4 + x2**4
        assert P("x1^2 + x2", 2, F2).substitute([x1 + x2, x1 * x1 + x2 * x2]).is_zero()
        y1, y2 = MPoly.variables(F3, 2)
        assert (y1 + 1) ** 3 == y1**3 + 1
        assert (y1 + 2) * (y1 + 1) == y1 * y1 + 2
        composed = P("x1^3 - x2", 2, F3).substitute([y1 + 1, y1**3 + 1])
        assert composed.is_zero() and composed.terms == {}
        assert P("x1^3", 2, F3).substitute([y1 + 1, y2], max_degree=2) == MPoly.constant(F3, 2, 1)

    def test_zero_and_constant_operands(self):
        for field in (QQ, F5):
            p = P("2*x1^2 + x2 + 1", 2, field)
            zero = MPoly.zero(field, 2)
            seven = MPoly.constant(field, 2, 7)
            assert p * zero == zero and zero * p == zero and zero * zero == zero
            assert (p * seven).terms == {e: c * 7 for e, c in p.terms.items()}
            assert 3 * p == p * 3 == p + p + p
            assert zero**0 == MPoly.constant(field, 2, 1)
            assert zero**3 == zero
            assert seven**2 == MPoly.constant(field, 2, 49)
            assert zero.substitute([p, p]) == zero
            assert seven.substitute([p, p]) == seven
            assert p.substitute([zero, zero]) == MPoly.constant(field, 2, 1)
            assert p.substitute([seven, zero], max_degree=0) == MPoly.constant(field, 2, 99)
            assert p.substitute([seven, p], max_degree=1) == naive_substitute(p, [seven, p], 1)


@st.composite
def substitution_case(draw):
    """Several polynomials of different degrees, one list of images and an
    optional degree bound, over Q with non-unit denominators, F_2 or F_101."""
    field = draw(st.sampled_from([QQ, F2, F101]))
    if field is QQ:
        coeffs = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
    else:
        coeffs = st.integers(-2 * field.p, 2 * field.p)
    nvars, target = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def poly(n, top, size):
        exps = st.tuples(*[st.integers(0, top)] * n)
        return MPoly(field, n, draw(st.dictionaries(exps, coeffs, max_size=size)))

    polys = [poly(nvars, draw(st.integers(0, 3)), 5) for _ in range(draw(st.integers(0, 4)))]
    if polys and draw(st.booleans()):
        polys[0] = polys[0] + draw(coeffs)
    images = [poly(target, 2, 3) for _ in range(nvars)]
    return polys, images, draw(st.none() | st.integers(0, 5))


class TestSubstituteAll:
    """The shared kernel composes a whole list of polynomials in one pass;
    each result must be what ``naive_substitute`` gives for that polynomial
    alone."""

    @settings(max_examples=200, deadline=None)
    @given(case=substitution_case())
    def test_matches_naive_reference_per_polynomial(self, case):
        polys, images, bound = case
        results = mpoly._substitute_all(polys, images, bound)
        assert results == [naive_substitute(p, images, bound) for p in polys]
        for r in results:
            assert_canonical(r)

    def test_constants_and_mixed_degrees_in_one_call(self):
        for field in (QQ, F2, F101):
            images = [P("x1 + 1/1*x2^2", 2, field), P("x1*x2 - 1", 2, field)]
            polys = [
                P("5", 2, field),
                P("x1^3*x2 + x2 + 2", 2, field),
                MPoly.zero(field, 2),
                P("x2^2 - x1", 2, field),
            ]
            for bound in (None, 0, 2, 4):
                results = mpoly._substitute_all(polys, images, bound)
                assert results == [naive_substitute(p, images, bound) for p in polys]
                assert [p.substitute(images, bound) for p in polys] == results

    def test_empty_list_and_zero_row_map(self):
        images = list(MPoly.variables(QQ, 2))
        assert mpoly._substitute_all([], images) == []
        assert mpoly._substitute_all([], images, 3) == []
        empty = PolyMap(QQ, 2, [])
        composed = empty.compose(PolyMap.identity(QQ, 2))
        assert composed == empty and composed.m == 0

    def test_errors_match_single_substitution(self):
        p = P("x1 + x2", 2, QQ)
        with pytest.raises(ArityMismatch, match="1 images for 2 variables"):
            mpoly._substitute_all([p, p], [p])
        with pytest.raises(ArityMismatch, match="0-variable"):
            mpoly._substitute_all([MPoly.constant(QQ, 0, 1)], [])
        with pytest.raises(FieldMismatch, match="images must be polynomials"):
            mpoly._substitute_all([p], [p, 1])
        with pytest.raises(FieldMismatch):
            mpoly._substitute_all([p], [P("x1", 2, F5)] * 2)

    def test_shared_support_builds_each_product_once(self, monkeypatch):
        # components sharing one monomial support (as S^-1 mixes them in a
        # hidden power-linear map) cost no more products than their sum alone
        rng = rng_for("substitute-all-count")
        calls = []
        product = mpoly._product

        def counted(*args):
            calls.append(1)
            return product(*args)

        monkeypatch.setattr(mpoly, "_product", counted)
        for field in (QQ, F101):
            for n in (2, 4):
                support = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(8)}
                comps = [
                    MPoly(field, n, {e: rng.randint(1, 9) for e in support}) for _ in range(n)
                ]
                total = sum(comps[1:], comps[0])
                assert set(total.terms) == support
                inner = PolyMap(field, n, [random_mpoly(rng, field, n, 2, 3) for _ in range(n)])
                calls.clear()
                composed = PolyMap(field, n, comps).compose(inner)
                composing = len(calls)
                calls.clear()
                assert total.substitute(inner.components) == sum(
                    composed.components[1:], composed.components[0]
                )
                assert composing <= len(calls)


class TestHomogeneous:
    def test_term_filter(self):
        p = P("3 + x1 + x1*x2", 2, QQ)
        assert p.homogeneous_components()[2] == P("x1*x2", 2, QQ)

    def test_beyond_degree_is_zero(self):
        assert list(P("x1", 1, QQ).homogeneous_components()) == [1]

    def test_expand_and_filter(self):
        assert P("(x1 + 1)^2", 1, QQ).homogeneous_components()[1] == P("2*x1", 1, QQ)

    def test_components_sum_to_polynomial(self):
        rng = rng_for("homog-sum")
        for field in (QQ, F5):
            for _ in range(25):
                p = random_mpoly(rng, field, 3)
                parts = p.homogeneous_components()
                total = MPoly.zero(field, 3)
                for k, part in parts.items():
                    assert part.degrees() <= {k}
                    total = total + part
                assert total == p


class TestEvaluate:
    def test_zero_map_point(self):
        assert P("x1 - x1^2", 1, F2).evaluate([1]) == Fp(0, 2)

    def test_at_origin_gives_constant_term(self):
        p = P("7 + x1*x2 + x2^2", 2, QQ)
        assert p.evaluate([0, 0]) == Fraction(7)

    def test_product_point(self):
        assert P("x1*x2", 2, QQ).evaluate([2, 3]) == Fraction(6)


class TestRestrictToLine:
    def test_unit_direction(self):
        u = P("x1^2", 2, QQ).restrict_to_line([1, 0])
        assert u == UniPoly(QQ, [0, 0, 1])

    def test_direction_in_kernel_of_linear_form(self):
        assert P("x1 + x2", 2, QQ).restrict_to_line([1, -1]).is_zero()

    def test_collects_coefficients(self):
        assert P("x1*x2", 2, QQ).restrict_to_line([2, 3]) == UniPoly(QQ, [0, 0, 6])


PRIME_FIELDS = [F2, F3, F101, FBIG]


def residue(draw, p):
    """A value mod p given as an ``Fp`` residue, a plain int or a negative int."""
    v = draw(st.integers(0, p - 1))
    form = draw(st.sampled_from(["fp", "int", "negative"]))
    if form == "fp":
        return Fp(v, p)
    if form == "int":
        return v + p * draw(st.integers(0, 2))
    return v - p * draw(st.integers(1, 2))


@st.composite
def residue_case(draw):
    """A polynomial over a prime field and a point in one of the forms of
    ``residue``."""
    field = draw(st.sampled_from(PRIME_FIELDS))
    p = field.p
    nvars = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = draw(st.dictionaries(exps, st.integers(-3 * p, 3 * p), max_size=6))
    return MPoly(field, nvars, terms), [residue(draw, p) for _ in range(nvars)]


@st.composite
def univariate_case(draw):
    """Dense coefficients over a prime field and an argument in one of the
    forms of ``residue``."""
    field = draw(st.sampled_from(PRIME_FIELDS))
    p = field.p
    coeffs = draw(st.lists(st.integers(-3 * p, 3 * p), max_size=9))
    return field, coeffs, residue(draw, p)


class TestResidueEvaluation:
    """F_p evaluation runs on int residues; it must agree with the
    field-element references in ``conftest``."""

    @settings(max_examples=150, deadline=None)
    @given(case=residue_case())
    def test_evaluate_matches_reference(self, case):
        poly, point = case
        value = poly.evaluate(point)
        assert type(value) is Fp and value.p == poly.field.p
        assert value == naive_evaluate(poly, point)

    @settings(max_examples=150, deadline=None)
    @given(case=residue_case())
    def test_restrict_to_line_matches_reference(self, case):
        poly, direction = case
        line = poly.restrict_to_line(direction)
        assert line == naive_restrict_to_line(poly, direction)
        assert all(type(c) is Fp for c in line.coeffs)

    @settings(max_examples=150, deadline=None)
    @given(case=univariate_case())
    def test_unipoly_evaluate_matches_reference(self, case):
        field, coeffs, t = case
        value = UniPoly(field, coeffs).evaluate(t)
        univariate = MPoly(field, 1, {(k,): c for k, c in enumerate(coeffs)})
        assert type(value) is Fp and value == naive_evaluate(univariate, [t])

    def test_residue_of_another_modulus_is_rejected(self):
        poly = P("x1^2 + 3*x2", 2, F7)
        with pytest.raises(FieldMismatch):
            poly.evaluate([Fp(1, 5), 2])
        with pytest.raises(FieldMismatch):
            poly.restrict_to_line([1, Fp(2, 5)])
        with pytest.raises(FieldMismatch):
            UniPoly(F7, [1, 2, 3]).evaluate(Fp(4, 5))


@st.composite
def rational_case(draw):
    """A polynomial over Q with non-unit denominators and a point of
    fractions and ints."""
    nvars = draw(st.integers(1, 3))
    fractions = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5))
    exps = st.tuples(*[st.integers(0, 4)] * nvars)
    terms = draw(st.dictionaries(exps, fractions, max_size=6))
    point = [draw(fractions | st.integers(-4, 4)) for _ in range(nvars)]
    return MPoly(QQ, nvars, terms), point


class TestRationalEvaluation:
    """Q evaluation shares ``_term_values`` with F_p; it must agree with the
    field-element references in ``conftest``."""

    @settings(max_examples=100, deadline=None)
    @given(case=rational_case())
    def test_evaluate_and_restrict_match_reference(self, case):
        poly, point = case
        value = poly.evaluate(point)
        assert type(value) is Fraction and value == naive_evaluate(poly, point)
        line = poly.restrict_to_line(point)
        assert line == naive_restrict_to_line(poly, point)
        assert all(type(c) is Fraction for c in line.coeffs)


@st.composite
def line_case(draw):
    """A polynomial over Q or a small prime field, with exponents up to 6 so
    that total degrees reach p and beyond, and a line (base, b) of scalars
    in the forms a caller may pass."""
    field = draw(st.sampled_from([QQ, F2, F3, F5, F7, F101]))
    p = field.characteristic
    nvars = draw(st.integers(1, 3))
    if p:
        scalars = st.integers(-3 * p, 3 * p)
    else:
        scalars = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5)) | st.integers(-4, 4)
    exps = st.tuples(*[st.integers(0, 6)] * nvars)
    terms = draw(st.dictionaries(exps, scalars, max_size=5))
    base = [draw(scalars) for _ in range(nvars)]
    b = [draw(scalars) for _ in range(nvars)]
    return MPoly(field, nvars, terms), base, b


class TestLineCoefficients:
    """``_line_coefficients`` builds every line restriction t -> poly(base +
    t b) as a coefficient list; it must agree with composing the one-variable
    images base_k + b_k t term by term (``naive_substitute``)."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=line_case())
    def test_matches_substituting_the_line_images(self, case):
        poly, base, b = case
        field = poly.field
        p = field.characteristic
        images = [MPoly(field, 1, {(1,): bk, (0,): ck}) for ck, bk in zip(base, b)]
        expected = naive_substitute(poly, images)
        dense = UniPoly(field, [expected.coefficient((k,)) for k in range(expected.degree() + 1)])
        point, direction = mpoly._coerce_point(field, base), mpoly._coerce_point(field, b)
        line = collinear._line_coefficients(poly, point, direction, p)
        # constant first, no trailing zero: residues over F_p, fractions over Q
        assert line == [c.v if p else c for c in dense.coeffs]
        assert all(type(c) is (int if p else Fraction) for c in line)

    def test_is_expanded_not_interpolated(self):
        # x1^3 and x1 agree at every point of F_3, but their restrictions to
        # the line 1 + t differ: (1 + t)^3 = 1 + t^3
        cube, linear = P("x1^3", 1, F3), P("x1", 1, F3)
        assert collinear._line_coefficients(cube, [1], [1], 3) == [1, 0, 0, 1]
        assert collinear._line_coefficients(linear, [1], [1], 3) == [1, 1]


class TestParse:
    def test_cubic_fixture(self):
        p = parse("x1 + x1^3", 1, QQ)
        assert p.terms == {(3,): Fraction(1), (1,): Fraction(1)}

    def test_binomial_identity_collapses_to_zero(self):
        assert parse("(x1+x2)^2 - x1^2 - 2*x1*x2 - x2^2", 2, QQ).is_zero()

    def test_rational_literal_over_f5(self):
        assert parse("1/2 * x1", 1, F5) == P("3*x1", 1, F5)

    def test_syntax_error_offset_is_one_based(self):
        with pytest.raises(ParseError) as err:
            parse("x1 + + x1^3", 1, QQ)
        assert err.value.offset == 6

    def test_bad_variable(self):
        with pytest.raises(BadVariable):
            parse("x3", 2, QQ)

    def test_divisor_not_unit(self):
        with pytest.raises(DivisorNotUnit):
            parse("1/5", 1, F5)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse("2x1", 1, QQ)

    def test_trailing_input(self):
        with pytest.raises(ParseError):
            parse("x1 )", 1, QQ)

    def test_unary_minus_binds_before_caret(self):
        # the grammar makes -x1^2 parse as (-x1)^2
        assert parse("-x1^2", 1, QQ) == P("x1^2", 1, QQ)
        assert parse("0 - x1^2", 1, QQ) == -P("x1^2", 1, QQ)

    def test_nested_negation_and_parens(self):
        assert parse("--x1", 1, QQ) == P("x1", 1, QQ)
        assert parse("-(x1 - 2)", 1, QQ) == P("2 - x1", 1, QQ)

    def test_exponent_requires_digits(self):
        with pytest.raises(ParseError):
            parse("x1^-2", 1, QQ)

    def test_power_beyond_the_term_bound_is_refused_before_expanding(self):
        # (x1 + x2 + x3 + x4 + 1)^40 has C(44, 4) = 135751 terms
        with pytest.raises(ParseError, match=f"135751 terms, more than {MAX_POWER_TERMS}") as err:
            parse("(x1+x2+x3+x4+1)^40", 4, QQ)
        assert err.value.offset == 16  # the '^'

    def test_power_bound_is_the_smaller_count(self):
        # one term: one monomial, however high the degree
        assert parse("(x1*x2*x3)^5000", 3, QQ) == MPoly(QQ, 3, {(5000, 5000, 5000): 1})
        # ten terms in one variable: at most 9 * 100 + 1 monomials
        base = " + ".join(f"x1^{k}" for k in range(1, 10))
        power = parse(f"(1 + {base})^100", 1, F101)
        assert power.degree() == 900 and len(power.terms) <= 901
        assert parse("(x1 + x2)^2", 2, QQ) == P("x1^2 + 2*x1*x2 + x2^2", 2, QQ)
        assert parse("0^0", 1, QQ) == P("1", 1, QQ)
        assert parse("(x1 - x1)^3", 1, QQ).is_zero()


class TestRender:
    def test_zero(self):
        assert render(MPoly.zero(QQ, 2)) == "0"

    def test_graded_lex_descending(self):
        assert render(P("x1 + x1^3", 1, QQ)) == "x1^3 + x1"

    def test_prime_field_coefficient(self):
        assert render(P("3*x1", 1, F5)) == "3*x1"

    def test_leading_negative_folds_into_coefficient(self):
        assert render(-P("x1^2", 1, QQ)) == "-1*x1^2"
        assert render(P("-2*x1 + 1", 1, QQ)) == "-2*x1 + 1"

    def test_round_trip_on_random_polynomials(self):
        rng = rng_for("render-roundtrip")
        for field in (QQ, F5):
            for _ in range(100):
                p = random_mpoly(rng, field, rng.randint(1, 3))
                assert parse(render(p), p.nvars, field) == p


def pairwise_terms(field, term_maps):
    """Reference for every n-ary sum: add the term maps one at a time,
    merging like terms by hand and sorting graded-lex after each addition,
    as the pairwise loops did.  Returns the canonical (exponents,
    coefficient) list."""
    terms = {}
    for term_map in term_maps:
        merged = dict(terms)
        for e, c in term_map.items():
            merged[e] = merged.get(e, field.zero) + field.coerce(c)
        order = sorted(merged, key=lambda e: (sum(e), e), reverse=True)
        terms = {e: merged[e] for e in order if merged[e]}
    return list(terms.items())


def reference_poly(field, nvars, term_maps):
    return MPoly(field, nvars, dict(pairwise_terms(field, term_maps)))


def reference_det(grid, field, nvars):
    """Cofactor expansion along the first row, summed pairwise."""
    if not grid:
        return MPoly.constant(field, nvars, 1)
    signed = []
    for j, entry in enumerate(grid[0]):
        minor = [row[:j] + row[j + 1 :] for row in grid[1:]]
        term = entry * reference_det(minor, field, nvars)
        signed.append((-term if j % 2 else term).terms)
    return reference_poly(field, nvars, signed)


class TestOneMergeSums:
    """Every n-ary sum (``mpoly._sum``, the constructor, the parser,
    ``PolyMatrix.det`` and ``@``) gives the terms, in order, that adding
    the summands one at a time gives."""

    FIELDS = [QQ, F2, F3, F101]

    @staticmethod
    def summands(rng, field, nvars, count):
        polys = [random_mpoly(rng, field, nvars, max_terms=5) for _ in range(count)]
        if polys and rng.random() < 0.3:
            polys.append(-polys[0])  # a cancellation
        return polys

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_sum_matches_pairwise_addition(self, field):
        rng = rng_for(f"one-merge-sum-{field}")
        for _ in range(60):
            nvars = rng.randint(1, 3)
            polys = self.summands(rng, field, nvars, rng.randint(0, 6))
            total = mpoly._sum(field, nvars, polys)
            assert list(total.terms.items()) == pairwise_terms(field, [p.terms for p in polys])
            assert_canonical(total)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_empty_sum_and_full_cancellation_are_zero(self, field):
        assert mpoly._sum(field, 2, []) == MPoly.zero(field, 2)
        a = P("x1^2 - 3*x1*x2 + 1", 2, field)
        assert mpoly._sum(field, 2, [a, -a, a - a]).terms == {}
        assert parse("x1^2 + 2*x2 - x1^2 - 2*x2", 2, field).terms == {}

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_constructor_merges_duplicate_monomials(self, field):
        rng = rng_for(f"one-merge-init-{field}")
        for _ in range(60):
            nvars = rng.randint(1, 3)
            pool = [tuple(rng.randint(0, 2) for _ in range(nvars)) for _ in range(3)]
            items = [(rng.choice(pool), rng.randint(-4, 4)) for _ in range(rng.randint(0, 8))]
            built = MPoly(field, nvars, items)
            assert list(built.terms.items()) == pairwise_terms(field, [{e: c} for e, c in items])
            assert_canonical(built)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_parsed_sum_matches_pairwise_addition(self, field):
        rng = rng_for(f"one-merge-parse-{field}")
        for _ in range(40):
            nvars = rng.randint(1, 3)
            polys = [p for p in self.summands(rng, field, nvars, rng.randint(1, 6)) if p.terms]
            if not polys:
                continue
            signs = [rng.choice("+-") for _ in polys]
            text = " ".join(f"{s} ({render(p)})" for s, p in zip(signs, polys)).removeprefix("+ ")
            signed = [(-p if s == "-" else p).terms for s, p in zip(signs, polys)]
            parsed = parse(text, nvars, field)
            assert list(parsed.terms.items()) == pairwise_terms(field, signed)

    @pytest.mark.parametrize("field", FIELDS, ids=repr)
    def test_det_and_product_match_pairwise_addition(self, field):
        rng = rng_for(f"one-merge-matrix-{field}")
        for _ in range(12):
            nvars, size = rng.randint(1, 2), rng.randint(1, 4)
            grid = [[random_mpoly(rng, field, nvars, max_deg=2) for _ in range(size)] for _ in range(size)]
            other = [[random_mpoly(rng, field, nvars, max_deg=2) for _ in range(size)] for _ in range(size)]
            a, b = PolyMatrix(field, nvars, grid), PolyMatrix(field, nvars, other)
            det = a.det()
            assert list(det.terms.items()) == list(reference_det(grid, field, nvars).terms.items())
            product = a @ b
            for i in range(size):
                for j in range(size):
                    products = [(grid[i][k] * other[k][j]).terms for k in range(size)]
                    assert list(product.grid[i][j].terms.items()) == pairwise_terms(field, products)

    def test_parsing_many_summands_adds_no_polynomials(self, monkeypatch):
        calls = []
        add = MPoly.__add__
        monkeypatch.setattr(MPoly, "__add__", lambda a, b: calls.append(1) or add(a, b))
        monkeypatch.setattr(MPoly, "__radd__", lambda a, b: calls.append(1) or add(a, b))
        text = " + ".join(f"{k}*x1^{k % 7}*x2^{k % 5} - x3^{k}" for k in range(1, 26))
        poly = parse(text, 3, QQ)
        assert len(poly.terms) == 50
        assert calls == []


class TestExactDiv:
    def test_quotient_of_products(self):
        rng = rng_for("exact-div")
        for field in (QQ, F5):
            for _ in range(20):
                a = random_mpoly(rng, field, 2, max_deg=2)
                b = random_mpoly(rng, field, 2, max_deg=2)
                if b.is_zero():
                    continue
                assert (a * b).exact_div(b) == a

    def test_inexact_division_rejected(self):
        with pytest.raises(ValueError):
            P("x1^2 + 1", 1, QQ).exact_div(P("x1", 1, QQ))


class TestUniPoly:
    def test_normalization_strips_leading_zeros(self):
        assert UniPoly(QQ, [1, 2, 0, 0]).coeffs == (Fraction(1), Fraction(2))

    def test_evaluate(self):
        u = UniPoly(QQ, [1, 0, 3])  # 3t^2 + 1
        assert u.evaluate(2) == Fraction(13)

    def test_render_round_trips_via_mpoly_grammar(self):
        u = UniPoly(QQ, [Fraction(-1, 2), 0, 1])
        text = u.render(var="x1")
        assert parse(text, 1, QQ).restrict_to_line([1]) == u


F7 = PrimeField(7)


def _write(tmp_path, payload):
    path = tmp_path / "value.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _mpolys(field, tmp_path):
    x1, x2 = MPoly.variables(field, 2)
    return parse("x1^2 + 1/2*x1*x2", 2, field), (x1 + x2 * (field.one / 2)) * x1


def _polymaps(field, tmp_path):
    spec = "Q" if field == QQ else {"Fp": field.p}
    doc = {"field": spec, "nvars": 2, "polys": ["x1 - x2^2", "x2"]}
    loaded, _raw = load_mapfile(_write(tmp_path, doc))
    shear = PolyMap(field, 2, [parse("x1 + x2^2", 2, field), MPoly.variable(field, 2, 1)])
    return loaded, formal_inverse(shear).inverse


def _matrices(field, tmp_path):
    step = Matrix(field, [[1, 1], [0, 1]])
    return load_matrixfile(_write(tmp_path, [["1", "2"], ["0", "1"]]), field), step @ step


def _unipolys(field, tmp_path):
    quarter = field.one / 4
    return parse("(x1 + 1/2)^2", 1, field).restrict_to_line([1]), UniPoly(field, [quarter, 1, 1])


class TestValueTypeHashAndRepr:
    """A value read from text and an equal one computed another way hash
    alike, so each finds the other as a dict key, and both repr as the
    rendered text."""

    ROWS = [
        pytest.param(_mpolys, {QQ: "x1^2 + 1/2*x1*x2", F7: "x1^2 + 4*x1*x2"}, id="MPoly"),
        pytest.param(_polymaps, {QQ: "(-1*x2^2 + x1, x2)", F7: "(6*x2^2 + x1, x2)"}, id="PolyMap"),
        pytest.param(_matrices, {QQ: "[1 2; 0 1](2x2 over Q)", F7: "[1 2; 0 1](2x2 over F_7)"}, id="Matrix"),
        pytest.param(_unipolys, {QQ: "t^2 + t + 1/4", F7: "t^2 + t + 2"}, id="UniPoly"),
    ]

    @pytest.mark.parametrize("field", [QQ, F7], ids=str)
    @pytest.mark.parametrize("build, texts", ROWS)
    def test_equal_values(self, tmp_path, build, texts, field):
        loaded, computed = build(field, tmp_path)
        assert loaded == computed and loaded is not computed
        assert hash(loaded) == hash(computed)
        assert {loaded: "loaded"}[computed] == "loaded"
        assert {computed: "computed"}[loaded] == "computed"
        assert repr(loaded) == repr(computed) == texts[field]
        if isinstance(loaded, MPoly):
            assert repr(loaded) == render(loaded)
        if isinstance(loaded, UniPoly):
            assert repr(loaded) == loaded.render()


class TestRationalRoots:
    def test_no_rational_root(self):
        assert rational_roots(UniPoly(QQ, [-1, 0, 0, 4])) == []  # 4t^3 - 1

    def test_canonical_ordering(self):
        # (t - 1)(t + 1)(2t - 1) = 2t^3 - t^2 - 2t + 1
        u = UniPoly(QQ, [1, -2, -1, 2])
        assert rational_roots(u) == [Fraction(-1), Fraction(1), Fraction(1, 2)]

    def test_zero_root_from_trailing_zero(self):
        u = UniPoly(QQ, [0, 0, 1, 1])  # t^2 (t + 1)
        assert rational_roots(u) == [Fraction(0), Fraction(-1)]

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            rational_roots(UniPoly(QQ, []))

    def test_divisors_of_each_end_coefficient_found_once(self, monkeypatch):
        # 720720 has 240 divisors: listing 10^11's divisors per candidate
        # numerator would make 241 calls
        calls = []
        divisors = unipoly._divisors
        monkeypatch.setattr(unipoly, "_divisors", lambda n: calls.append(n) or divisors(n))
        assert rational_roots(UniPoly(QQ, [720720, 0, 10**11])) == []
        assert sorted(calls) == [720720, 10**11]
