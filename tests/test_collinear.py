import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import kellerlab.collinear as collinear
import kellerlab.field_linalg as field_linalg
import kellerlab.mpoly as mpoly
import kellerlab.unipoly as unipoly
from kellerlab import (
    CollisionWitness,
    Fp,
    LineData,
    Matrix,
    MPoly,
    PolyMap,
    PolyMatrix,
    PrimeField,
    QQ,
    UniPoly,
    collision_search,
    find_rank_drop,
    verify_coefficient_rank,
    generalized_vandermonde,
    line_injectivity,
    line_restriction,
    rational_roots,
    verify_collision_obstruction,
)
from kellerlab.errors import (
    ArityMismatch,
    BudgetExceeded,
    NonSquare,
    PreconditionFailed,
    TheoremViolation,
    ZeroDirection,
)

from conftest import (
    P,
    naive_collision_search,
    naive_evaluate,
    pmap,
    random_mpoly,
    rng_for,
    transposed_jacobian,
)

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)
F11 = PrimeField(11)
F13 = PrimeField(13)


class TestLineRestriction:
    def test_square_component_over_f5(self):
        F = pmap(F5, 2, "x1^2", "x2")
        line = line_restriction(F, [1, 0], 1, degrees=[0, 1, 2])
        assert line.degrees == (0, 1, 2)
        # G(t) = (t^2 - 1, 0); -1 is 4 mod 5
        assert line.C == Matrix(F5, [[4, 0, 1], [0, 0, 0]])

    def test_default_degrees_are_the_support(self):
        F = pmap(F5, 2, "x1^2", "x2")
        line = line_restriction(F, [1, 0], 1)
        assert line.degrees == (0, 2)
        assert line.C == Matrix(F5, [[4, 1], [0, 0]])

    def test_identity_single_degree(self):
        F = PolyMap.identity(QQ, 2)
        line = line_restriction(F, [1, 0], 0)
        assert line.degrees == (1,)
        assert line.C == Matrix(QQ, [[1], [0]])

    def test_constant_map_gives_zero_matrix(self):
        F = pmap(QQ, 2, "3", "1/2")
        line = line_restriction(F, [1, 1], 0, degrees=[0, 1])
        assert line.C.is_zero()

    def test_zero_direction_rejected(self):
        with pytest.raises(ZeroDirection):
            line_restriction(PolyMap.identity(QQ, 2), [0, 0], 0)

    @pytest.mark.parametrize(
        "degrees,message",
        [([0, 2, 1], "strictly increasing"), ([0, 0, 2], "strictly increasing"), ([0, 1], "does not cover")],
        ids=["unsorted", "repeated", "uncovered"],
    )
    def test_bad_degree_list_rejected(self, degrees, message):
        F = pmap(F5, 2, "x1^2", "x2")
        with pytest.raises(PreconditionFailed, match=message):
            line_restriction(F, [1, 0], 1, degrees=degrees)

    def test_reconstruction_matches_restriction(self):
        rng = rng_for("line-reconstruct")
        for field in (QQ, F5):
            for _ in range(20):
                F = PolyMap(field, 2, [random_mpoly(rng, field, 2) for _ in range(2)])
                b = [field.coerce(rng.randint(-2, 2)) for _ in range(2)]
                if all(not x for x in b):
                    b = [field.one, field.zero]
                base = field.coerce(rng.randint(-2, 2))
                line = line_restriction(F, b, base)
                anchor = F.evaluate([base * x for x in b])
                for i in range(2):
                    direct = dict(enumerate(F.components[i].restrict_to_line(b).coeffs))
                    direct[0] = direct.get(0, field.zero) - anchor[i]
                    assert line.C.rows[i] == tuple(direct.get(d, field.zero) for d in line.degrees)
                    assert not any(c for d, c in direct.items() if d not in line.degrees)


class TestGenlmCheck:
    def test_worked_f5_instance(self):
        F = pmap(F5, 2, "x1^2", "x2")
        line = line_restriction(F, [1, 0], 1, degrees=[0, 1, 2])
        assert verify_coefficient_rank(line, [1, 4]) is True

    def test_zero_matrix_is_vacuously_fine(self):
        F = pmap(QQ, 2, "3", "4")
        line = line_restriction(F, [1, 0], 0, degrees=[0, 1])
        assert verify_coefficient_rank(line, [2]) is True

    def test_single_root_always_passes(self):
        F = pmap(QQ, 1, "x1^2 - 1")
        line = line_restriction(F, [1], 1, degrees=[0, 2])
        assert verify_coefficient_rank(line, [1]) is True

    def test_unvanished_parameter_rejected(self):
        F = pmap(QQ, 1, "x1^2 - 1")
        line = line_restriction(F, [1], 1, degrees=[0, 2])
        with pytest.raises(PreconditionFailed):
            verify_coefficient_rank(line, [2])

    def test_unsorted_degree_list_rejected(self):
        # G(t) = t^2 - 1 with its degree list given top degree first
        line = LineData(b=(QQ.one,), base=Fraction(1), degrees=(2, 0), C=Matrix(QQ, [[1, -1]], ncols=2))
        with pytest.raises(PreconditionFailed, match="strictly increasing"):
            verify_coefficient_rank(line, [1])

    def test_wrong_degree_count_rejected(self):
        F = pmap(QQ, 1, "x1^2 - 1")
        line = line_restriction(F, [1], 1, degrees=[0, 1, 2])
        with pytest.raises(PreconditionFailed):
            verify_coefficient_rank(line, [1, -1, 0])

    def test_rank_deficient_vandermonde_rejected(self):
        # over F_3 the rows for t^1 and t^3 agree pointwise, so the
        # (0, 1, 3) Vandermonde on distinct points cannot reach rank 3
        F = pmap(F3, 1, "x1 - x1^3")
        line = line_restriction(F, [1], 0, degrees=[0, 1, 3, 4])
        with pytest.raises(PreconditionFailed) as err:
            verify_coefficient_rank(line, [0, 1, 2])
        assert "Vandermonde" in str(err.value)

    def test_constructed_random_instances_always_pass(self):
        # build C with rows proportional to the left kernel of the
        # (r+1) x r Vandermonde block, so C * A^{(r+1, r)} = 0 holds by
        # construction and every hypothesis is satisfied
        rng = rng_for("coefficient-rank-random")
        for field in (QQ, F5):
            universe = list(range(field.characteristic or 10))
            for _ in range(25):
                r = rng.randint(1, 3)
                if len(universe) <= r:
                    continue
                points = [field.coerce(x) for x in rng.sample(universe, r)]
                degrees = sorted(rng.sample(range(6), r + 1))
                # the hypothesis is full rank of the leading r x r block
                if generalized_vandermonde(field, points, degrees[:r]).rank() != r:
                    continue
                block = generalized_vandermonde(field, points, degrees)
                left_kernel = Matrix.from_columns(field, block.rows, nrows=block.ncols).kernel_basis()
                assert left_kernel.ncols == 1
                v = left_kernel.column(0)
                rows = []
                for _ in range(rng.randint(1, 3)):
                    scale = field.coerce(rng.randint(-3, 3))
                    rows.append([scale * e for e in v])
                line = LineData(
                    b=(field.one,),
                    base=points[0],
                    degrees=tuple(degrees),
                    C=Matrix(field, rows, ncols=r + 1),
                )
                assert verify_coefficient_rank(line, points) is True


@st.composite
def rank_drop_case(draw):
    """A map over Q or F_2..F_7, a direction b and r distinct parameters
    a_j for which the collinear hypotheses hold with the degrees 0..r: on
    the line t -> t b each component is c + k (t - a_1)...(t - a_r), and in
    two variables it may add a term that vanishes on the line."""
    field = draw(st.sampled_from([QQ, F2, F3, F5, F7]))
    p = field.characteristic
    n = draw(st.integers(1, 2))
    r = draw(st.integers(1, min(3, p or 3)))
    lo, hi = (0, p - 1) if p else (-3, 3)
    params = draw(st.lists(st.integers(lo, hi), min_size=r, max_size=r, unique=True))
    b = [field.coerce(x) for x in draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))]
    k = draw(st.integers(0, n - 1))
    b[k] = field.coerce(draw(st.integers(1, p - 1) if p else st.integers(-2, 2).filter(bool)))
    xs = MPoly.variables(field, n)
    t = xs[k] * (field.one / b[k])  # equals t on the line
    vanishing = MPoly.constant(field, n, 1)
    for a in params:
        vanishing = vanishing * (t - a)
    small = st.integers(-2, 2)
    components = []
    for _ in range(n):
        component = draw(small) + draw(small) * vanishing
        if n == 2:
            # b_k x_l - b_l x_k vanishes on the line; the power keeps deg <= r
            power = xs[draw(st.integers(0, 1))] ** draw(st.integers(0, r - 1))
            component = component + draw(small) * (xs[1 - k] * b[k] - xs[k] * b[1 - k]) * power
        components.append(component)
    return PolyMap(field, n, components), b, params


def restriction(line, i):
    """The dense coefficient list, constant first, of G_i: row i of ``C``
    read against the degree list."""
    coeffs = [line.C.field.zero] * (line.degrees[-1] + 1)
    for d, c in zip(line.degrees, line.C.rows[i]):
        coeffs[d] = c
    return coeffs


def differentiate(coeffs):
    """The coefficient list of the derivative of the polynomial with the
    dense coefficient list ``coeffs``, constant first."""
    return [c * k for k, c in enumerate(coeffs)][1:]


def rank_drop_reference(F, b, params, degrees):
    """The first nonzero derivative of a component of
    ``line_restriction``, its smallest root by a scan over F_p or by
    ``rational_roots`` over Q (0 when every derivative is zero), and which
    of the three outcomes that is."""
    field = F.field
    line = line_restriction(F, b, params[0], degrees)
    derivatives = (UniPoly(field, differentiate(restriction(line, i))) for i in range(F.m))
    pivot = next((h for h in derivatives if not h.is_zero()), None)
    if pivot is None:
        return field.zero, UniPoly(field, []), "zero derivative"
    if field.characteristic:
        roots = [field.coerce(s) for s in range(field.p) if not pivot.evaluate(s)]
    else:
        roots = rational_roots(pivot)
    if not roots:
        return None, pivot, "no root"
    return roots[0], pivot, "root"


class TestFindRankDrop:
    def test_worked_f5_witness(self):
        F = pmap(F5, 2, "x1^2", "x2")
        result = find_rank_drop(F, [1, 0], [1, 4], [0, 1, 2])
        assert result.value == Fp(0, 5)
        # at the drop point the Jacobian rank falls below the dimension
        jac = F.jacobian().evaluate([Fp(0, 5), Fp(0, 5)])
        assert jac.rank() == 1 < 2

    def test_constant_on_line_gives_arbitrary_parameter(self):
        F = pmap(QQ, 2, "x2", "x2 + 1")
        result = find_rank_drop(F, [1, 0], [0, 1], [0, 1, 2])
        assert result.value == Fraction(0)
        assert result.derivative.is_zero()

    def test_rational_root_absent_is_an_outcome(self):
        # t^4 - t vanishes at 0 and 1, but its derivative 4t^3 - 1 has no
        # rational root; the witness lives only in an extension field
        F = pmap(QQ, 1, "x1^4 - x1")
        result = find_rank_drop(F, [1], [0, 1], [0, 1, 4])
        assert result.value is None
        assert result.derivative.coeffs == (-1, 0, 0, 4)

    def test_remark_regime_fails_the_rank_hypothesis(self):
        # the (0, 1, q, q+1) degree pattern over F_q: distinct points can
        # never give the required full-rank Vandermonde block since t^q = t
        F = pmap(F3, 1, "x1 - x1^3")
        with pytest.raises(PreconditionFailed) as err:
            find_rank_drop(F, [1], [0, 1, 2], [0, 1, 3, 4])
        assert "Vandermonde" in str(err.value)

    def test_unequal_values_rejected(self):
        F = pmap(QQ, 1, "x1^2")
        with pytest.raises(PreconditionFailed):
            find_rank_drop(F, [1], [0, 1], [0, 1, 2])

    @pytest.mark.parametrize("params", [[0, 0], [1, -1]])
    def test_negative_degree_rejected(self, params):
        # at 0, 0 the Vandermonde matrix would take 0^-1; at 1, -1 every
        # other hypothesis holds
        F = pmap(QQ, 1, "x1^2")
        with pytest.raises(PreconditionFailed, match="^the degree list must be nonnegative$"):
            find_rank_drop(F, [1], params, [-1, 0, 2])

    def test_empty_parameter_list_rejected(self):
        F = pmap(QQ, 1, "3")
        with pytest.raises(PreconditionFailed, match="^the parameter list must not be empty$"):
            find_rank_drop(F, [1], [], [0])

    def test_only_differing_images_are_different_values(self):
        # no images at all: no two differ, so that check passes
        collinear._check_hypotheses(QQ, [], (0,), iter(()))
        unequal = iter([(Fraction(0),), (Fraction(1),)])
        with pytest.raises(
            PreconditionFailed, match="^the map takes different values at the given points$"
        ):
            collinear._check_hypotheses(QQ, [Fraction(0), Fraction(1)], (0, 1, 2), unequal)

    def test_uncovered_support_rejected(self):
        F = pmap(QQ, 1, "x1^4 - x1")
        with pytest.raises(PreconditionFailed):
            find_rank_drop(F, [1], [0, 1], [0, 1, 3])

    def test_evaluates_the_map_once_per_parameter(self, monkeypatch):
        calls = []
        evaluate = PolyMap.evaluate

        def counting(self, point):
            calls.append(tuple(point))
            return evaluate(self, point)

        monkeypatch.setattr(PolyMap, "evaluate", counting)
        cases = [
            (pmap(F5, 2, "x1^2", "x2"), [1, 4], Fp(0, 5)),  # a root
            (pmap(F5, 2, "x1^2", "x2"), [4, 1], Fp(0, 5)),
            (pmap(F5, 1, "x1^3 - x1"), [0, 1, 4], None),  # 3t^2 - 1 has no root
        ]
        for F, params, value in cases:
            calls.clear()
            b = [1] + [0] * (F.n - 1)
            result = find_rank_drop(F, b, params, list(range(len(params) + 1)))
            assert result.value == value
            assert len(calls) == len(params)

    def test_found_parameter_always_drops_rank(self):
        rng = rng_for("rank-drop-prop")
        found = 0
        for _ in range(40):
            c = rng.randint(1, 4)
            F = pmap(F5, 2, f"x1^2 - {c}*x1", "x2")
            # roots of t^2 - c t: 0 and c; use those as collision params
            params = [0, c]
            result = find_rank_drop(F, [1, 0], params, [0, 1, 2])
            if result.value is None:
                continue
            found += 1
            point = [result.value * x for x in (F5.one, F5.zero)]
            jac = F.jacobian().evaluate(point)
            assert jac.rank() < 2
        assert found > 0

    def test_matches_the_line_restriction_reference(self):
        outcomes = set()

        @settings(max_examples=300, deadline=None, derandomize=True)
        @given(case=rank_drop_case())
        def check(case):
            F, b, params = case
            degrees = list(range(len(params) + 1))
            value, derivative, outcome = rank_drop_reference(F, b, params, degrees)
            result = find_rank_drop(F, b, params, degrees)
            assert result.value == value and result.derivative == derivative
            outcomes.add(outcome)

        check()
        assert outcomes == {"zero derivative", "root", "no root"}


class TestVerifyGencr:
    def test_square_map_over_f5(self):
        F = pmap(F5, 2, "x1^2", "x2")
        witness = CollisionWitness(
            b=(Fp(1, 5), Fp(0, 5)),
            base=(Fp(0, 5), Fp(0, 5)),
            params=(Fp(1, 5), Fp(4, 5)),
            degrees=(0, 1, 2),
            vandermonde_rank=2,
            rank_drop_param=None,
            det_jac_nonconstant=True,
        )
        assert verify_collision_obstruction(F, witness) is True

    def test_characteristic_dividing_top_degree_rejected(self):
        F = pmap(F2, 1, "x1 - x1^2")
        witness = CollisionWitness(
            b=(Fp(1, 2),),
            base=(Fp(0, 2),),
            params=(Fp(0, 2), Fp(1, 2)),
            degrees=(0, 1, 2),
            vandermonde_rank=2,
            rank_drop_param=None,
            det_jac_nonconstant=False,
        )
        with pytest.raises(PreconditionFailed) as err:
            verify_collision_obstruction(F, witness)
        assert "characteristic" in str(err.value)

    def test_no_collision_rejected(self):
        F = pmap(F3, 1, "x1 + x1^2")
        witness = CollisionWitness(
            b=(Fp(1, 3),),
            base=(Fp(0, 3),),
            params=(Fp(0, 3), Fp(1, 3)),
            degrees=(0, 1, 2),
            vandermonde_rank=2,
            rank_drop_param=None,
            det_jac_nonconstant=True,
        )
        with pytest.raises(PreconditionFailed):
            verify_collision_obstruction(F, witness)

    def square_witness(self, params, degrees):
        return CollisionWitness(
            b=(Fp(1, 5), Fp(0, 5)),
            base=(Fp(0, 5), Fp(0, 5)),
            params=tuple(Fp(a, 5) for a in params),
            degrees=degrees,
            vandermonde_rank=2,
            rank_drop_param=None,
            det_jac_nonconstant=True,
        )

    @pytest.mark.parametrize("degrees", [(1, 0, 2), (2, 1, 0)])
    def test_unsorted_degree_list_rejected(self, degrees):
        # the top degree is read as the last entry, so the list must be sorted
        F = pmap(F5, 2, "x1^2", "x2")
        with pytest.raises(PreconditionFailed, match="strictly increasing"):
            verify_collision_obstruction(F, self.square_witness((1, 4), degrees))

    def test_repeated_parameters_fail_the_rank_hypothesis(self):
        F = pmap(F5, 2, "x1^2", "x2")
        with pytest.raises(PreconditionFailed, match="Vandermonde"):
            verify_collision_obstruction(F, self.square_witness((1, 1), (0, 1, 2)))

    @pytest.mark.parametrize(
        "texts,b,params,degrees,error,message",
        [
            (("x1^2", "x2", "x1*x2"), (1, 0), (1, 4), (0, 1, 2), NonSquare, "3x2 map"),
            (("x1^2", "x2"), (0, 0), (1, 4), (0, 1, 2), ZeroDirection, "nonzero"),
            (("x1", "x2"), (1, 0), (1,), (0, 1), PreconditionFailed, "differ from 1"),
        ],
        ids=["non-square", "zero-direction", "top-degree-1"],
    )
    def test_unmet_hypothesis_rejected(self, texts, b, params, degrees, error, message):
        witness = self.square_witness(params, degrees)._replace(b=tuple(Fp(c, 5) for c in b))
        with pytest.raises(error, match=message):
            verify_collision_obstruction(pmap(F5, 2, *texts), witness)


class TestLineInjectivity:
    def test_separating_first_coordinate(self):
        F = pmap(F3, 2, "x1", "x2 + x1^2")
        verdict = line_injectivity(F, [1, 1])
        assert verdict.injective and verdict.certified

    def test_zero_map_collides(self):
        F = pmap(F2, 1, "x1 - x1^2")
        verdict = line_injectivity(F, [1])
        assert not verdict.injective
        assert verdict.counterexample == (Fp(0, 2), Fp(1, 2))
        assert verdict.certified

    def test_strictly_increasing_cubic_over_q(self):
        F = pmap(QQ, 1, "x1 + x1^3")
        verdict = line_injectivity(F, [1])
        assert verdict.injective
        assert not verdict.certified  # no rational counterexample; not a proof

    def test_uncertified_search_evaluates_each_candidate_once(self, monkeypatch):
        # one rational-root search per anchor 0, 1, -1; the candidates are
        # 0, -1, 1 and each image is computed once, in candidate order
        searched, evaluated = [], []
        real_roots, real_evaluate = unipoly.rational_roots, PolyMap.evaluate

        def counting_roots(poly):
            searched.append(poly)
            return real_roots(poly)

        def counting_evaluate(self, point):
            evaluated.append(tuple(point))
            return real_evaluate(self, point)

        monkeypatch.setattr(unipoly, "rational_roots", counting_roots)
        monkeypatch.setattr(PolyMap, "evaluate", counting_evaluate)
        assert line_injectivity(pmap(QQ, 1, "x1 + x1^3"), [1]) == (True, None, False)
        assert len(searched) == 3
        assert evaluated == [(0,), (-1,), (1,)]

    def test_trivial_line(self):
        F = pmap(QQ, 2, "x1^2", "x2^2")
        verdict = line_injectivity(F, [0, 0])
        assert verdict.injective and verdict.certified

    def test_rational_collision_is_found(self):
        F = pmap(QQ, 1, "x1^3 - x1")
        verdict = line_injectivity(F, [1])
        assert not verdict.injective
        s, t = verdict.counterexample
        assert F.evaluate([s]) == F.evaluate([t]) and s != t
        assert verdict.certified

    def test_even_power_collision(self):
        F = pmap(QQ, 2, "(x1 + x2)^2", "(x1 + x2)^4")
        verdict = line_injectivity(F, [1, 0])
        assert not verdict.injective
        s, t = verdict.counterexample
        assert F.evaluate([s, Fraction(0)]) == F.evaluate([t, Fraction(0)])

    def test_constant_on_line(self):
        F = pmap(QQ, 2, "x1 - x2", "(x1 - x2)^2")
        verdict = line_injectivity(F, [1, 1])
        assert not verdict.injective
        assert verdict.counterexample == (Fraction(0), Fraction(1))

    def test_linear_component_certifies(self):
        F = pmap(QQ, 2, "x1 + x2^4", "x2 - x1^4")
        verdict = line_injectivity(F, [1, 0])
        assert verdict.injective and verdict.certified

    @pytest.mark.parametrize(
        "text,budget,expected",
        [
            # x1^2 on F_13: the first repeat in scan order is t = 7 = -6
            ("x1^2", 8, (Fp(6, 13), Fp(7, 13))),
            ("x1^2", 7, BudgetExceeded),
            # x1^5 is a bijection of F_13 (gcd(5, 12) = 1): only a full scan answers
            ("x1^5", 13, None),
            ("x1^5", 12, BudgetExceeded),
        ],
        ids=["repeat-within", "repeat-beyond", "injective-within", "injective-beyond"],
    )
    def test_prime_field_scan_is_bounded(self, monkeypatch, text, budget, expected):
        monkeypatch.setattr(collinear, "DEFAULT_COLLISION_BUDGET", budget)
        F = pmap(F13, 1, text)
        if expected is BudgetExceeded:
            with pytest.raises(BudgetExceeded, match="requires 13 point evaluations, budget is"):
                line_injectivity(F, [1])
        else:
            verdict = line_injectivity(F, [1])
            assert verdict == (expected is None, expected, True)


def line_injectivity_reference(F, a):
    """Brute force over F_p: evaluate term by term at every t * a in scan
    order and return the first repeated image's pair."""
    field = F.field
    direction = [field.coerce(x) for x in a]
    if not any(direction):
        return (True, None, True)
    seen = {}
    for t in range(field.p):
        lam = field.coerce(t)
        image = tuple(naive_evaluate(c, [lam * x for x in direction]) for c in F.components)
        if image in seen:
            return (False, (seen[image], lam), True)
        seen[image] = lam
    return (True, None, True)


@st.composite
def prime_line_case(draw):
    field = draw(st.sampled_from([F2, F3, F5, F7, F13]))
    n = draw(st.integers(1, 3))
    # exponents up to 6, so degrees at and above p occur on the small fields
    exps = st.lists(st.integers(0, 6), min_size=n, max_size=n).map(tuple)
    comps = [MPoly(field, n, draw(st.dictionaries(exps, st.integers(-20, 20), max_size=4)))
             for _ in range(draw(st.integers(0, 3)))]
    return PolyMap(field, n, comps), draw(st.lists(st.integers(-3, 20), min_size=n, max_size=n))


class TestDirectionLength:
    """A direction is checked for length before anything else, with one
    message over every field: a zero direction of the wrong length is
    refused, not read as a point or as a zero direction."""

    CALLS = {
        "line_injectivity": lambda F, b: line_injectivity(F, b),
        "find_rank_drop": lambda F, b: find_rank_drop(F, b, [0, 1], [0, 1, 3]),
        "line_restriction": lambda F, b: line_restriction(F, b, 0),
        "verify_collision_obstruction": lambda F, b: verify_collision_obstruction(
            F, CollisionWitness(tuple(b), (0, 0, 0), (0, 1), (0, 1, 3), 2, None, True)
        ),
    }

    @pytest.mark.parametrize("field", [QQ, F7], ids=str)
    @pytest.mark.parametrize("b", [[0, 0], [1, 0], [0, 0, 0, 0]], ids=str)
    @pytest.mark.parametrize("call", sorted(CALLS))
    def test_wrong_length_is_an_arity_mismatch(self, call, b, field):
        F = pmap(field, 3, "x1", "x2", "x3^3")
        message = f"point of length {len(b)} for a map on 3 variables"
        with pytest.raises(ArityMismatch, match=message):
            self.CALLS[call](F, b)


class TestPrimeFieldInjectivityDifferential:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=prime_line_case())
    def test_matches_brute_force_without_map_evaluation(self, case):
        F, a = case

        def forbidden(self, point):
            raise AssertionError("PolyMap.evaluate called")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(PolyMap, "evaluate", forbidden)
            verdict = line_injectivity(F, a)
        assert verdict == line_injectivity_reference(F, a)


@st.composite
def rational_line_case(draw):
    """A map over Q of degree at most 4 and a line direction, often zero in
    some coordinate so restrictions of every degree occur."""
    n = draw(st.integers(1, 3))
    scalars = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    exps = st.lists(st.integers(0, n - 1), max_size=4).map(lambda vs: tuple(vs.count(k) for k in range(n)))
    comps = [MPoly(QQ, n, draw(st.dictionaries(exps, scalars, max_size=4))) for _ in range(draw(st.integers(1, 3)))]
    return PolyMap(QQ, n, comps), [draw(st.integers(-2, 2)) for _ in range(n)]


class TestRationalInjectivitySoundness:
    """Whatever Q ``line_injectivity`` answers can be checked: a
    counterexample is a sorted pair of distinct parameters with equal images,
    and a certified injective verdict needs a zero direction or a component
    restricting to degree 1."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=rational_line_case())
    def test_verdicts_are_sound(self, case):
        F, a = case
        verdict = line_injectivity(F, a)
        if verdict.counterexample is not None:
            s, t = verdict.counterexample
            assert not verdict.injective and verdict.certified
            assert QQ.sort_key(s) < QQ.sort_key(t)
            assert F.evaluate([s * x for x in a]) == F.evaluate([t * x for x in a])
        else:
            assert verdict.injective
            if verdict.certified:
                assert not any(a) or any(len(c.restrict_to_line(a).coeffs) == 2 for c in F.components)


class TestQuadraticInjectivity:
    def test_nowhere_vanishing_determinant_forces_injectivity(self):
        # for quadratic maps over a field with 1/2, a collision F(a) = F(b)
        # forces det jac F to vanish at (a + b)/2, so a determinant without
        # roots on the point space makes the map injective there; sweep that
        # exhaustively at small scale
        import itertools

        rng = rng_for("quadratic-injectivity")
        for p in (3, 5):
            field = PrimeField(p)
            points = list(itertools.product(range(p), repeat=2))
            tested = 0
            for _ in range(1500):
                F = PolyMap(
                    field,
                    2,
                    [random_mpoly(rng, field, 2, max_deg=2, max_terms=4, span=p - 1) for _ in range(2)],
                )
                if F.degree() != 2:
                    continue
                det = F.det_jacobian()
                if any(not det.evaluate(pt) for pt in points):
                    continue
                images = [F.evaluate(pt) for pt in points]
                assert len(set(images)) == len(images)
                tested += 1
            assert tested > 5


class TestCollisionSearch:
    def test_cubic_zero_map_over_f3(self):
        F = pmap(F3, 1, "x1 - x1^3")
        witnesses = collision_search(F, 3)
        assert len(witnesses) == 1
        w = witnesses[0]
        assert w.params == (Fp(0, 3), Fp(1, 3), Fp(2, 3))
        assert w.degrees == (0, 1, 2, 3)
        assert w.vandermonde_rank == 3
        assert not w.det_jac_nonconstant  # det jac = 1; char 3 divides r = 3

    def test_quadratic_zero_map_over_f2(self):
        F = pmap(F2, 1, "x1 - x1^2")
        witnesses = collision_search(F, 2)
        assert len(witnesses) == 1
        w = witnesses[0]
        assert w.params == (Fp(0, 2), Fp(1, 2))
        assert not w.det_jac_nonconstant  # excluded case: char 2 divides r = 2

    def test_invertible_linear_has_no_witnesses(self):
        F = pmap(F3, 2, "x1 + x2", "x2")
        assert collision_search(F, 2) == []

    def test_witness_invariants(self):
        F = pmap(F5, 2, "x1^2", "x2")
        witnesses = collision_search(F, 2)
        assert witnesses
        for w in witnesses:
            translated = F.translate(list(w.base))
            images = {translated.evaluate([a * b for b in w.b]) for a in w.params}
            assert len(images) == 1
            assert len(set(w.params)) == len(w.params)
            assert verify_collision_obstruction(F, w) is True

    def test_budget_is_enforced(self):
        F = pmap(F5, 2, "x1^2", "x2")
        with pytest.raises(BudgetExceeded) as err:
            collision_search(F, 2, budget=10)
        assert err.value.required == 2 * 25

    # the pairs of the kept classes only: ("x1^2", "0") over F_5 has classes
    # of 5, 10 and 10 points, and r = 6 keeps the two of 10
    @pytest.mark.parametrize(
        "texts,r,pairs", [(("1", "2"), 2, math.comb(25, 2)), (("x1^2", "0"), 6, 2 * math.comb(10, 2))]
    )
    def test_pair_budget_is_checked_before_any_pair(self, monkeypatch, texts, r, pairs):
        F = pmap(F5, 2, *texts)
        required = 2 * 25 + pairs
        assert collision_search(F, r, budget=required) == naive_collision_search(F, r)

        def refused(points, p):
            raise AssertionError("a pair was visited")

        monkeypatch.setattr(collinear, "_class_lines", refused)
        message = f"search requires {required} point evaluations and pairs, budget is {required - 1}"
        with pytest.raises(BudgetExceeded, match=message) as err:
            collision_search(F, r, budget=required - 1)
        assert err.value.required == required

    def test_requires_prime_field(self):
        with pytest.raises(PreconditionFailed):
            collision_search(pmap(QQ, 1, "x1^2"), 2)

    def test_deterministic_output(self):
        F = pmap(F3, 2, "x1*x2", "x2")
        first = collision_search(F, 2)
        second = collision_search(F, 2)
        assert first == second

    # n = 3 stops at F_5: over F_7 the reference loop takes seconds per map
    @pytest.mark.parametrize(
        "field,n",
        [(F, n) for F in (F2, F3, F5, F7) for n in (1, 2, 3) if F.p**n <= 125]
        + [(F11, 2), (F13, 2)],
        ids=lambda v: repr(v) if isinstance(v, PrimeField) else f"n{v}",
    )
    def test_matches_every_base_loop_in_order(self, field, n):
        rng = rng_for(f"collide-order-{field.p}-{n}")
        found = 0
        map_degrees = (2, 3)
        if n == 3 and field.p <= 3:
            map_degrees += (field.p + 1, field.p + 2)  # degree above p
        for map_degree in map_degrees:
            # includes r >= map degree and r > p, where a line of p points
            # cannot hold r of them
            for r in sorted({2, 3, field.p + 1}):
                while True:
                    comps = [random_mpoly(rng, field, n, max_deg=map_degree) for _ in range(n)]
                    F = PolyMap(field, n, comps)
                    if F.degree() == map_degree:
                        break
                witnesses = collision_search(F, r)
                assert witnesses == naive_collision_search(F, r)
                if r > field.p:
                    assert witnesses == []
                found += len(witnesses)
        # large image classes: one class of every point, classes of p^(n-1)
        # points, and the classes of the squares
        for texts in (["1"] * n, ["x1"] * n, [f"x{i + 1}^2" for i in range(n)]):
            F = pmap(field, n, *texts)
            for r in (2, 3):
                assert collision_search(F, r) == naive_collision_search(F, r)
        assert found

    @pytest.mark.parametrize(
        "field,texts,r",
        [
            (F5, ("x1^2 + x2", "x1*x2"), 2),
            (F3, ("x1^3 + x2*x3", "x2^2 + x1", "x3 + x1*x2"), 3),
            (F7, ("x1^3", "x2"), 2),
        ],
    )
    def test_evaluates_each_point_once_on_residues(self, monkeypatch, field, texts, r):
        # the grid is evaluated once, one image per point in product order,
        # and no field element is built while it is
        F = pmap(field, len(texts), *texts)
        expected = naive_collision_search(F, r)

        def refused(*args):
            raise AssertionError("collision_search built field elements to evaluate")

        monkeypatch.setattr(PolyMap, "evaluate", refused)
        monkeypatch.setattr(PolyMatrix, "evaluate", refused)
        grids, built = [], []
        grid_images, init = collinear._grid_images, Fp.__init__

        def counting_init(self, v, p):
            built.append(v)
            init(self, v, p)

        def counting_grid(polymap, p):
            monkeypatch.setattr(Fp, "__init__", counting_init)
            images = grid_images(polymap, p)
            monkeypatch.setattr(Fp, "__init__", init)
            grids.append(list(images))
            return images

        monkeypatch.setattr(collinear, "_grid_images", counting_grid)
        witnesses = collision_search(F, r)
        assert witnesses == expected
        points = itertools.product(range(field.p), repeat=F.n)
        assert grids == [[term_values_image(F, pt) for pt in points]]
        assert built == []

    def test_never_translates(self, monkeypatch):
        F = pmap(F3, 2, "x1^2", "x2^2")
        expected = naive_collision_search(F, 2)
        calls = []
        translate = PolyMap.translate

        def counting(self, point):
            calls.append(tuple(point))
            return translate(self, point)

        monkeypatch.setattr(PolyMap, "translate", counting)
        witnesses = collision_search(F, 2)
        assert witnesses == expected
        assert any(w.rank_drop_param is not None for w in witnesses)
        assert calls == []

    # is_keller builds its own Jacobian for the determinant; it is fixed to
    # its true value so the count is of the Jacobian the rank drop uses
    @pytest.mark.parametrize(
        "field,texts,r,builds",
        [
            (F5, ("x1^2 + x2", "x1*x2"), 2, 1),
            (F7, ("x1^3 + x2", "x2^3"), 3, 1),
            (F7, ("x1^3 + x2", "x2^3"), 2, 0),
        ],
    )
    def test_builds_the_jacobian_at_most_once(self, monkeypatch, field, texts, r, builds):
        F = pmap(field, 2, *texts)
        expected = naive_collision_search(F, r)
        keller = F.is_keller()
        calls = []
        jacobian = PolyMap.jacobian

        def counting(self):
            calls.append(self)
            return jacobian(self)

        monkeypatch.setattr(PolyMap, "is_keller", lambda self: keller)
        monkeypatch.setattr(PolyMap, "jacobian", counting)
        witnesses = collision_search(F, r)
        assert witnesses == expected and len(witnesses) > 1
        assert len(calls) == builds

    # r distinct offsets against the degrees 0..r-1 give a nonzero
    # Vandermonde determinant, so no Vandermonde matrix is built or ranked;
    # the reference ranks every params tuple itself
    @pytest.mark.parametrize(
        "field,texts,r",
        [
            (F5, ("x1^2 + x2", "x1*x2"), 2),
            (F7, ("x1^2", "x2^2 + x1"), 2),
            (F7, ("x1^3 + x2", "x2^3"), 3),
        ],
    )
    def test_never_builds_a_vandermonde_matrix(self, monkeypatch, field, texts, r):
        F = pmap(field, 2, *texts)
        expected = naive_collision_search(F, r)
        calls = []
        vandermonde = field_linalg.generalized_vandermonde

        def counting(field, points, degrees):
            calls.append(tuple(points))
            return vandermonde(field, points, degrees)

        monkeypatch.setattr(field_linalg, "generalized_vandermonde", counting)
        witnesses = collision_search(F, r)
        assert witnesses == expected and witnesses
        assert all(w.vandermonde_rank == r for w in witnesses)
        assert calls == []

    def test_matches_brute_force_oracle(self):
        # count (line, image) collision pairs directly from all point pairs
        rng = rng_for("collide-oracle")
        for _ in range(10):
            F = PolyMap(F3, 2, [random_mpoly(rng, F3, 2, max_deg=2) for _ in range(2)])
            witnesses = collision_search(F, 2)
            seen = set()
            import itertools

            points = list(itertools.product(range(3), repeat=2))
            table = {pt: F.evaluate(pt) for pt in points}
            lines = set()
            for a, b in itertools.combinations(points, 2):
                delta = tuple((y - x) % 3 for x, y in zip(a, b))
                lead = next(k for k in range(2) if delta[k])
                inv = pow(delta[lead], -1, 3)
                direction = tuple((d * inv) % 3 for d in delta)
                pts = frozenset(
                    tuple((a[k] + t * direction[k]) % 3 for k in range(2)) for t in range(3)
                )
                lines.add((pts, direction))
            expected = 0
            for pts, direction in lines:
                values = {}
                for pt in pts:
                    values.setdefault(table[pt], []).append(pt)
                expected += sum(1 for group in values.values() if len(group) >= 2)
            assert len(witnesses) == expected


def rank_drop_outcome(F, w):
    """Which branch of ``find_rank_drop`` on the translated map a witness
    takes: the reference meaning of its ``rank_drop_param``."""
    translated = F.translate(list(w.base))
    try:
        drop = find_rank_drop(translated, w.b, w.params, w.degrees)
    except PreconditionFailed:
        # distinct offsets give a full-rank Vandermonde matrix, so only the
        # support hypothesis can fail
        assert F.degree() > len(w.params) and w.rank_drop_param is None
        return "degree above r"
    assert w.rank_drop_param == drop.value
    if drop.derivative.is_zero():
        return "zero derivative"
    return "root" if drop.found else "no root"


def term_values_image(polymap, point):
    """The image of a point from one ``_term_values`` call per component,
    its residues read in base p: the per-point reference for
    ``collinear._grid_images``."""
    p = polymap.field.p
    image = 0
    for component in polymap.components:
        image = image * p + sum(mpoly._term_values(component, point, p)) % p
    return image


class TestGridImages:
    """``_grid_images`` tabulates the map over F_p^n; every image must equal
    the per-point evaluation, so the image classes are the same.  The seeded
    maps have exponents of p and beyond, and zero and constant components."""

    @pytest.mark.parametrize("field", [F2, F3, F5, F7], ids=lambda f: f"F{f.p}")
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_per_point_evaluation(self, field, n):
        rng = rng_for(f"grid-images-{field.p}-{n}")
        p = field.p
        top = 0
        for trial in range(12):
            # each exponent up to p + 2, so some reach p and beyond
            comps = [
                MPoly(field, n, {tuple(rng.randrange(p + 3) for _ in range(n)): rng.randint(-5, 5)
                                 for _ in range(rng.randint(0, 6))})
                for _ in range(n)
            ]
            if trial % 3 == 1:
                comps[rng.randrange(n)] = MPoly(field, n, {})
            if trial % 3 == 2:
                comps[rng.randrange(n)] = MPoly(field, n, {(0,) * n: rng.randint(1, p - 1)})
            F = PolyMap(field, n, comps)
            top = max([top, *(e for c in comps for exps in c.terms for e in exps)])
            points = itertools.product(range(p), repeat=n)
            images = collinear._grid_images(F, p)
            assert images.typecode == "q"
            assert list(images) == [term_values_image(F, pt) for pt in points]
        assert top >= p


class TestCollisionRankDrop:
    """``collision_search`` finds each rank drop from one restriction per
    line; the witnesses must equal the translate-per-witness reference in
    ``conftest``, in order, on every outcome of the rank-drop search."""

    CASES = [
        (F5, ("x1^2", "x2"), 2),  # roots: H' = 2(a + t)
        (F5, ("x2", "x2^2"), 2),  # constant along (1, 0): zero derivative
        (F3, ("x1 - x1^3",), 3),  # H' = 1 over F_3: no root, map degree = p
        (F3, ("x2^3 + x2", "x2^2 + 1"), 3),  # map degree = p, constant along (1, 0)
        (F2, ("x1^2 + x2", "x1*x2"), 2),  # map degree = p
        (F2, ("x1^3 + x2", "x1*x2^2"), 2),  # map degree > p and > r
        (F7, ("x1^3", "x2"), 2),  # map degree > r
        (F11, ("x1^2 + x2", "x1*x2 + 3"), 2),
        (F13, ("x1^3 - x2^2", "x2^3 + x1"), 3),
    ]

    def test_every_outcome_matches_the_reference(self):
        outcomes = {}
        for field, texts, r in self.CASES:
            F = pmap(field, len(texts), *texts)
            witnesses = collision_search(F, r)
            assert witnesses == naive_collision_search(F, r)
            for w in witnesses:
                outcome = rank_drop_outcome(F, w)
                outcomes.setdefault(outcome, set()).add(F.degree() >= field.p)
        assert set(outcomes) == {"root", "no root", "zero derivative", "degree above r"}
        # maps of degree >= p reach the restriction, not only the degree
        # check; there r = deg = p, so each H_i - H_i(0) vanishes on F_p, is a
        # multiple of t^p - t, and has a constant derivative: no root to find
        assert True in outcomes["no root"] and True in outcomes["zero derivative"]

    def test_checks_each_annihilation_point_once(self, monkeypatch):
        """Witnesses on one line whose rank drops at the same point share
        one check of J b = 0 there."""
        calls = []
        check = collinear._check_annihilation

        def counting(jacobian, point, b):
            calls.append((tuple(point), tuple(b)))
            check(jacobian, point, b)

        monkeypatch.setattr(collinear, "_check_annihilation", counting)
        # on the one line of x1^4 + 8*x1^2 over F_29 at r = 4, H' has the
        # roots 0, 5 and 24 and three witnesses drop rank at 5 or 24
        for field, texts, r in [*self.CASES, (PrimeField(29), ("x1^4 + 8*x1^2",), 4)]:
            calls.clear()
            witnesses = collision_search(pmap(field, len(texts), *texts), r)
            p = field.p
            points = {
                (tuple((c.v + w.rank_drop_param.v * x.v) % p for c, x in zip(w.base, w.b)),
                 tuple(x.v for x in w.b))
                for w in witnesses
                if w.rank_drop_param is not None
            }
            assert len(calls) == len(set(calls))
            assert set(calls) == points
            if texts == ("x1^2", "x2"):
                assert (len(witnesses), len(calls)) == (10, 5)
            if texts == ("x1^4 + 8*x1^2",):
                assert (len(witnesses), len(calls)) == (3, 2)


class TestOneRestriction:
    """Every line restriction comes from ``_line_coefficients``: the collinear
    searches never call the multivariate substitution kernel."""

    def test_no_substitution(self, monkeypatch):
        import kellerlab.mpoly as mpoly
        import kellerlab.polymap as polymap
        import kellerlab.polymatrix as polymatrix

        calls = []

        def forbidden(*args, **kwargs):
            calls.append(args)
            raise AssertionError("substitution called")

        monkeypatch.setattr(MPoly, "substitute", forbidden)
        for module in (mpoly, polymap, polymatrix):
            monkeypatch.setattr(module, "_substitute_all", forbidden)
        witnesses = collision_search(pmap(F5, 2, "x1^2 + x2", "x1*x2"), 2)
        assert any(w.rank_drop_param is not None for w in witnesses)
        assert find_rank_drop(pmap(F5, 1, "x1^2"), [1], [1, -1], [0, 1, 2]).value == Fp(0, 5)
        assert find_rank_drop(pmap(QQ, 1, "x1^3 - x1"), [1], [1, -1], [0, 1, 3]).found is False
        assert not line_injectivity(pmap(F5, 2, "x1^2", "x2"), [1, 0]).injective
        assert not line_injectivity(pmap(QQ, 1, "x1^3 - x1"), [1]).injective
        assert line_injectivity(pmap(QQ, 1, "x1 + x1^3"), [1]) == (True, None, False)
        assert calls == []


class TestSmallestRoot:
    """Over F_p the root search runs Horner's rule on a coefficient list of
    int residues; it must find the same root, in the same search order, as
    evaluating field elements one candidate at a time."""

    @settings(max_examples=200, deadline=None)
    @given(
        field=st.sampled_from([F2, F3, F13, PrimeField(101)]),
        coeffs=st.lists(st.integers(-300, 300), max_size=6),
        shift=st.integers(0, 120),
    )
    def test_matches_field_element_search(self, field, coeffs, shift):
        poly = UniPoly(field, coeffs)
        expected = next((s for s in range(field.p) if not poly.evaluate(shift + s)), None)
        root = collinear._smallest_root(field, [c.v for c in poly.coeffs], shift)
        if expected is None:
            assert root is None
        else:
            assert type(root) is Fp and root == field.coerce(expected)

    @pytest.mark.parametrize(
        "field,coeffs,budget,expected",
        [
            (F13, [-9, 1], 10, 9),  # t - 9
            (F13, [-9, 1], 9, BudgetExceeded),
            (F11, [1, 0, 1], 11, None),  # t^2 + 1: -1 is not a square mod 11
            (F11, [1, 0, 1], 10, BudgetExceeded),
        ],
        ids=["root-within", "root-beyond", "none-within", "none-beyond"],
    )
    def test_prime_field_search_is_bounded(self, monkeypatch, field, coeffs, budget, expected):
        monkeypatch.setattr(collinear, "DEFAULT_COLLISION_BUDGET", budget)
        residues = [c % field.p for c in coeffs]
        if expected is BudgetExceeded:
            with pytest.raises(BudgetExceeded, match=f"requires {field.p} point evaluations"):
                collinear._smallest_root(field, residues)
        else:
            root = collinear._smallest_root(field, residues)
            assert root == (None if expected is None else field.coerce(expected))

    def test_rational_branch_is_unchanged(self):
        coeffs = [Fraction(-2), Fraction(1), Fraction(1)]  # (t - 1)(t + 2)
        assert collinear._smallest_root(QQ, coeffs) == Fraction(1)
        assert collinear._smallest_root(QQ, [Fraction(1), Fraction(0), Fraction(1)]) is None
        # the zero polynomial vanishes everywhere: 0 comes first
        assert collinear._smallest_root(QQ, []) == Fraction(0)


class TestAnnihilationFault:
    TEXTS = ("x1^2 + x2", "x1*x2")

    def test_collision_search_raises(self, monkeypatch):
        F = pmap(F5, 2, *self.TEXTS)
        assert any(w.rank_drop_param is not None for w in collision_search(F, 2))
        monkeypatch.setattr(PolyMap, "jacobian", transposed_jacobian(PolyMap.jacobian))
        with pytest.raises(TheoremViolation, match="does not annihilate"):
            collision_search(F, 2)

    def test_collide_exits_3(self, monkeypatch, tmp_path, capsys):
        from kellerlab.cli import main

        path = tmp_path / "map.json"
        path.write_text(json.dumps({"field": {"Fp": 5}, "nvars": 2, "polys": list(self.TEXTS)}))
        monkeypatch.setattr(PolyMap, "jacobian", transposed_jacobian(PolyMap.jacobian))
        code = main(["collide", str(path), "-r", "2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "TheoremViolation"
        assert "does not annihilate" in payload["message"]


class TestUnitDeterminantFault:
    """Fault injection: a map with witnesses at r >= deg F, p not dividing
    r, whose determinant is declared a unit.  The obstruction belongs to the
    search, so it fires once, before any witness is built."""

    TEXTS = ("x1^2", "x2")

    @staticmethod
    def refuse_witnesses(monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a witness was built")

        monkeypatch.setattr(collinear, "_smallest_root", refused)
        monkeypatch.setattr(collinear, "CollisionWitness", refused)
        monkeypatch.setattr(PolyMap, "is_keller", lambda self: True)

    def test_collision_search_raises_before_any_witness(self, monkeypatch):
        F = pmap(F5, 2, *self.TEXTS)
        assert collision_search(F, 2)
        self.refuse_witnesses(monkeypatch)
        with pytest.raises(TheoremViolation, match="unit Jacobian determinant"):
            collision_search(F, 2)

    def test_collide_exits_3(self, monkeypatch, tmp_path, capsys):
        from kellerlab.cli import main

        path = tmp_path / "map.json"
        path.write_text(json.dumps({"field": {"Fp": 5}, "nvars": 2, "polys": list(self.TEXTS)}))
        self.refuse_witnesses(monkeypatch)
        code = main(["collide", str(path), "-r", "2"])
        out, err = capsys.readouterr()
        assert code == 3 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "TheoremViolation"
        assert "unit Jacobian determinant" in payload["message"]


class TestNoWitness:
    """A search that finds no witness builds neither the determinant nor
    the Jacobian, so its cost does not grow with r."""

    @pytest.mark.parametrize("r", [2, 6, 10**12])
    def test_returns_before_the_determinant_and_the_jacobian(self, monkeypatch, r):
        def refused(self):
            raise AssertionError("built for a search without witnesses")

        F = pmap(F5, 2, "x1 + x2^2", "x2")
        monkeypatch.setattr(PolyMap, "is_keller", refused)
        monkeypatch.setattr(PolyMap, "jacobian", refused)
        assert collision_search(F, r) == []
