from fractions import Fraction

import pytest

from kellerlab import (
    Matrix,
    MPoly,
    PolyMap,
    PrimeField,
    QQ,
    VERDICT_NOT_UP_TO_BOUND,
    VERDICT_POLYNOMIAL,
    extend_inverse,
    formal_inverse,
    inverse_degree,
    invert_polymap,
    is_normalized,
    normalize_affine,
    power_linear,
    triangular_inverse,
    verify_inverse,
)
from kellerlab.errors import (
    BadSubInverse,
    DependenceViolation,
    NotInvertibleUpToBound,
    NotNormalized,
    NotStrictlyLowerTriangular,
    SingularLinearPart,
    TheoremViolation,
)
import kellerlab.inversion as inversion_module

from conftest import P, doubled_inverse, pmap, rng_for

F5 = PrimeField(5)


def subdiagonal_ones(field, n):
    return Matrix(
        field,
        [[1 if j == i - 1 else 0 for j in range(n)] for i in range(n)],
        ncols=n,
    )


class TestNormalizeAffine:
    def test_already_normalized(self):
        F = pmap(QQ, 2, "x1 + x2^2", "x2")
        norm = normalize_affine(F)
        assert norm.linear == Matrix.identity(QQ, 2)
        assert norm.constant == (Fraction(0), Fraction(0))
        assert norm.core == F

    def test_scaled_component(self):
        F = pmap(QQ, 1, "2*x1 + x1^2")
        norm = normalize_affine(F)
        assert norm.linear == Matrix(QQ, [[2]])
        assert norm.core == pmap(QQ, 1, "x1 + 1/2*x1^2")

    def test_translation(self):
        F = pmap(QQ, 2, "x1 + 1", "x2")
        norm = normalize_affine(F)
        assert norm.linear == Matrix.identity(QQ, 2)
        assert norm.constant == (Fraction(1), Fraction(0))
        assert norm.core == PolyMap.identity(QQ, 2)

    @pytest.mark.parametrize("field", [QQ, PrimeField(3)], ids=str)
    def test_reads_the_jacobian_at_the_origin_without_building_it(self, monkeypatch, field):
        # over F_3 the cubes have zero derivative and no degree-1 terms alike
        F = pmap(field, 2, "2*x1 + x2 + x1^3 + x1*x2 + 1", "x2 - x2^3 - 2")
        expected = F.jacobian().evaluate([0, 0])

        def forbidden(self):
            raise AssertionError("PolyMap.jacobian called")

        monkeypatch.setattr(PolyMap, "jacobian", forbidden)
        norm = normalize_affine(F)
        assert norm.linear == expected
        assert norm.constant == F.evaluate([0, 0])

    def test_singular_linear_part_rejected(self):
        with pytest.raises(SingularLinearPart):
            normalize_affine(pmap(QQ, 2, "x1 + x2", "x1 + x2 + x1^2"))

    def test_failed_reconstruction_is_theorem_violation(self, monkeypatch):
        monkeypatch.setattr(Matrix, "inverse", doubled_inverse(Matrix.inverse))
        with pytest.raises(TheoremViolation, match="reconstruct"):
            normalize_affine(pmap(QQ, 2, "x1 + 1", "x2 + x1^2"))

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    def test_linear_part_is_row_reduced_once_per_inversion(self, monkeypatch, field):
        calls = []
        rref = Matrix.rref
        monkeypatch.setattr(Matrix, "rref", lambda self: calls.append(self) or rref(self))
        result = invert_polymap(pmap(field, 2, "2*x1 + 1", "x1 + x2 + x1^2 + 2"))
        assert result.verdict == VERDICT_POLYNOMIAL
        assert len(calls) == 1

    @pytest.mark.parametrize("field", [QQ, F5], ids=str)
    def test_carries_the_inverse_of_the_linear_part(self, field):
        norm = normalize_affine(pmap(field, 2, "2*x1 + x2 + 1", "x1 + 4*x2 + x1^2"))
        assert norm.linear @ norm.linear_inverse == Matrix.identity(field, 2)


class TestIsNormalized:
    def test_only_maps_of_the_form_x_plus_higher_order(self):
        assert is_normalized(pmap(QQ, 2, "x1 + x2^2", "x2 + x1^3"))
        assert not is_normalized(pmap(QQ, 2, "2*x1", "x2"))
        assert not is_normalized(pmap(QQ, 2, "x1 + 1", "x2"))
        assert not is_normalized(pmap(QQ, 2, "x1"))


class TestFormalInverse:
    def test_shear(self):
        res = formal_inverse(pmap(QQ, 2, "x1", "x2 + x1^2"), 2)
        assert res.verdict == VERDICT_POLYNOMIAL
        assert res.inverse == pmap(QQ, 2, "x1", "x2 - x1^2")
        assert res.inverse_degree == 2

    def test_cubic_is_not_polynomial_at_default_bound(self):
        res = formal_inverse(pmap(QQ, 1, "x1 + x1^3"))
        assert res.bound_used == 1  # 3^(1-1)
        assert res.verdict == VERDICT_NOT_UP_TO_BOUND
        assert res.inverse_degree is None

    def test_identity(self):
        res = formal_inverse(PolyMap.identity(QQ, 3))
        assert res.verdict == VERDICT_POLYNOMIAL
        assert res.inverse == PolyMap.identity(QQ, 3)
        assert res.inverse_degree == 1

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            formal_inverse(pmap(QQ, 1, "x1 + 1"))
        with pytest.raises(NotNormalized):
            formal_inverse(pmap(QQ, 1, "2*x1"))

    def test_verdict_is_stable_when_bound_grows(self):
        F = pmap(QQ, 3, "x1", "x2 + x1^2", "x3 + x2^2")
        base = formal_inverse(F)
        for extra in (1, 3, 6):
            again = formal_inverse(F, base.bound_used + extra)
            assert again.verdict == base.verdict
            assert again.inverse == base.inverse

    def test_truncation_never_reports_false_positive(self):
        # inverse stabilizes only above the bound: candidate must fail the
        # exact composition check
        F = pmap(QQ, 2, "x1", "x2 + x1^3")
        res = formal_inverse(F, 2)
        assert res.verdict == VERDICT_NOT_UP_TO_BOUND
        res_full = formal_inverse(F, 3)
        assert res_full.verdict == VERDICT_POLYNOMIAL
        assert res_full.inverse_degree == 3


class TestInverseDegree:
    def test_quadratic_chain_dimension_three(self):
        F = power_linear(subdiagonal_ones(QQ, 3), 2)
        assert inverse_degree(F) == 4

    def test_cubic_chain_dimension_three(self):
        F = power_linear(subdiagonal_ones(QQ, 3), 3)
        assert inverse_degree(F) == 9

    def test_identity(self):
        assert inverse_degree(PolyMap.identity(QQ, 2)) == 1

    def test_quadratic_chain_dimension_five(self):
        F = power_linear(subdiagonal_ones(QQ, 5), 2)
        assert inverse_degree(F) == 16

    def test_not_invertible_raises(self):
        with pytest.raises(NotInvertibleUpToBound):
            inverse_degree(pmap(QQ, 1, "x1 + x1^3"))

    def test_general_affine_map(self):
        # inverse degree is unchanged by the affine outer factor
        F = pmap(QQ, 2, "2*x1 + 1", "x2 + x1^2 - 3")
        assert inverse_degree(F) == 2
        res = invert_polymap(F)
        assert verify_inverse(F, res.inverse)

    def test_failed_recomposition_is_theorem_violation(self, monkeypatch):
        monkeypatch.setattr(inversion_module, "verify_inverse", lambda *maps: False)
        with pytest.raises(TheoremViolation, match="recomposed"):
            invert_polymap(pmap(QQ, 2, "2*x1 + 1", "x2 + x1^2 - 3"))


class TestTriangularInverse:
    def test_single_step(self):
        A = Matrix(QQ, [[0, 0], [1, 0]])
        assert triangular_inverse(A, 2) == pmap(QQ, 2, "x1", "x2 - x1^2")

    def test_zero_matrix(self):
        assert triangular_inverse(Matrix(QQ, [[0] * 3] * 3), 4) == PolyMap.identity(QQ, 3)

    def test_two_steps_reach_degree_four(self):
        A = subdiagonal_ones(QQ, 3)
        inv = triangular_inverse(A, 2)
        assert inv == pmap(QQ, 3, "x1", "x2 - x1^2", "x3 - (x2 - x1^2)^2")
        assert inv.degree() == 4

    def test_degree_one_power(self):
        A = Matrix(QQ, [[0, 0], [3, 0]])
        inv = triangular_inverse(A, 1)
        assert verify_inverse(power_linear(A, 1), inv)

    def test_rejects_non_triangular(self):
        with pytest.raises(NotStrictlyLowerTriangular):
            triangular_inverse(Matrix(QQ, [[1, 0], [0, 0]]), 2)
        with pytest.raises(NotStrictlyLowerTriangular):
            triangular_inverse(Matrix(QQ, [[0, 1], [0, 0]]), 2)

    def test_agrees_with_formal_inverse(self):
        # two independent computations of the same object: the inductive
        # formula versus the truncated fixpoint iteration
        rng = rng_for("dual-route")
        for field in (QQ, F5):
            for d in (2, 3):
                for n in (2, 3):
                    entries = [
                        [rng.randint(1, 3) if j < i else 0 for j in range(n)] for i in range(n)
                    ]
                    A = Matrix(field, entries, ncols=n)
                    inv = triangular_inverse(A, d)
                    res = formal_inverse(power_linear(A, d), inv.degree() or 1)
                    assert res.verdict == VERDICT_POLYNOMIAL
                    assert res.inverse == inv


class TestExtendInverse:
    def test_worked_example(self):
        F = pmap(QQ, 3, "x1", "x2 + x1^2", "x3 + x1*x2")
        sub = PolyMap(QQ, 2, [MPoly.zero(QQ, 2), P("x1^2", 2, QQ)])
        inv = extend_inverse(F, 2, sub)
        assert inv == pmap(QQ, 3, "x1", "x2 - x1^2", "x3 - x1*x2 + x1^3")

    def test_full_dimension_returns_x_minus_g(self):
        F = pmap(QQ, 2, "x1", "x2 + x1^2")
        sub = PolyMap(QQ, 2, [MPoly.zero(QQ, 2), P("x1^2", 2, QQ)])
        assert extend_inverse(F, 2, sub) == pmap(QQ, 2, "x1", "x2 - x1^2")

    def test_zero_correction_gives_identity(self):
        F = PolyMap.identity(QQ, 3)
        sub = PolyMap(QQ, 1, [MPoly.zero(QQ, 1)])
        assert extend_inverse(F, 1, sub) == PolyMap.identity(QQ, 3)

    def test_dependence_violation(self):
        F = pmap(QQ, 3, "x1", "x2 + x1^2", "x3 + x3^2")
        sub = PolyMap(QQ, 2, [MPoly.zero(QQ, 2), P("x1^2", 2, QQ)])
        with pytest.raises(DependenceViolation):
            extend_inverse(F, 2, sub)

    def test_bad_sub_inverse(self):
        F = pmap(QQ, 3, "x1", "x2 + x1^2", "x3 + x1*x2")
        wrong = PolyMap(QQ, 2, [MPoly.zero(QQ, 2), P("x1^3", 2, QQ)])
        with pytest.raises(BadSubInverse):
            extend_inverse(F, 2, wrong)

    def test_extension_always_verifies(self):
        rng = rng_for("extend-verify")
        for _ in range(10):
            # random triangular data in the first two variables, dimension 4
            a = rng.randint(-2, 2)
            h2 = P("x1^2", 4, QQ) * a
            h3 = P("x1*x2", 4, QQ) * rng.randint(-2, 2) + P("x2^2", 4, QQ) * rng.randint(-2, 2)
            h4 = P("x1^2", 4, QQ) * rng.randint(-2, 2) + P("x1*x2", 4, QQ) * rng.randint(-2, 2)
            xs = MPoly.variables(QQ, 4)
            F = PolyMap(QQ, 4, [xs[0], xs[1] + h2, xs[2] + h3, xs[3] + h4])
            leading = PolyMap(QQ, 2, [P("x1", 2, QQ), P("x2", 2, QQ) + P("x1^2", 2, QQ) * a])
            sub_res = formal_inverse(leading, 4)
            assert sub_res.is_polynomial
            sub = PolyMap.identity(QQ, 2) - sub_res.inverse
            inv = extend_inverse(F, 2, sub)
            assert verify_inverse(F, inv)


class TestVerifyInverse:
    def test_shear_pair(self):
        assert verify_inverse(pmap(QQ, 2, "x1", "x2 + x1^2"), pmap(QQ, 2, "x1", "x2 - x1^2"))

    def test_map_is_not_its_own_inverse(self):
        F = pmap(QQ, 2, "x1", "x2 + x1^2")
        assert not verify_inverse(F, F)

    def test_triangular_construction(self):
        A = subdiagonal_ones(F5, 3)
        assert verify_inverse(power_linear(A, 2), triangular_inverse(A, 2))


class TestSharpAttainment:
    def test_nonzero_subdiagonal_attains_the_bound(self):
        # any strictly lower triangular coefficient matrix with nonzero
        # subdiagonal entries gives an inverse of degree exactly d^(n-1):
        # the component degrees multiply by d at each induction step
        rng = rng_for("sharp-attainment")
        for n in (2, 3, 4):
            for d in (2, 3):
                entries = [[0] * n for _ in range(n)]
                for i in range(1, n):
                    entries[i][i - 1] = rng.choice([1, -1, 2, -2])
                if d == 2:  # keep the d = 3 cases chain-shaped for speed
                    for i in range(2, n):
                        for j in range(i - 1):
                            entries[i][j] = rng.randint(-2, 2)
                A = Matrix(QQ, entries, ncols=n)
                assert triangular_inverse(A, d).degree() == d ** (n - 1)


class TestGabberBound:
    def test_verified_inverses_respect_the_bound(self):
        rng = rng_for("gabber")
        for _ in range(10):
            n = rng.randint(2, 3)
            entries = [[rng.randint(0, 2) if j < i else 0 for j in range(n)] for i in range(n)]
            A = Matrix(QQ, entries, ncols=n)
            d = rng.choice([2, 3])
            F = power_linear(A, d)
            res = invert_polymap(F)
            assert res.is_polynomial
            assert res.inverse_degree <= F.degree() ** (n - 1)
