from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from kellerlab import (
    Fp,
    Matrix,
    PrimeField,
    QQ,
    complete_to_basis,
    generalized_vandermonde,
    is_prime,
    parse_scalar,
)
from kellerlab.errors import (
    DependentInput,
    DivisorNotUnit,
    FieldMismatch,
    NonSquare,
    ParseError,
    SingularMatrix,
)

from conftest import brute_rank, perm_det, random_matrix, rng_for

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


class TestFields:
    def test_prime_validation(self):
        with pytest.raises(ValueError):
            PrimeField(1)
        with pytest.raises(ValueError):
            PrimeField(6)
        assert PrimeField(2).p == 2
        assert is_prime(9973) and not is_prime(9991)  # 9991 = 97 * 103

    def test_modulus_beyond_exact_primality_test_rejected(self):
        # the least strong pseudoprime to every base 2..41: no answer, not True
        with pytest.raises(ParseError):
            is_prime(3317044064679887385961981)
        with pytest.raises(ParseError):
            PrimeField(2**89 - 1)

    def test_rational_coercion_is_exact(self):
        assert QQ.coerce(2) == Fraction(2)
        assert QQ.from_literal(3, 6) == Fraction(1, 2)
        with pytest.raises(FieldMismatch):
            QQ.coerce(Fp(1, 5))

    def test_prime_field_literal_semantics(self):
        # the literal denominator is what must be a unit, before reduction
        assert F5.from_literal(1, 2) == Fp(3, 5)
        with pytest.raises(DivisorNotUnit):
            F5.from_literal(5, 10)

    def test_cross_modulus_arithmetic_rejected(self):
        with pytest.raises(FieldMismatch):
            Fp(1, 3) + Fp(1, 5)

    def test_fp_division_and_powers(self):
        assert Fp(2, 5) / Fp(3, 5) == Fp(4, 5)  # 2 * 3^{-1} = 2 * 2 = 4
        assert Fp(2, 5) ** -1 == Fp(3, 5)
        assert Fp(0, 5) ** 0 == Fp(1, 5)
        with pytest.raises(ZeroDivisionError):
            Fp(1, 5) / Fp(0, 5)

    @given(a=st.integers(-50, 50), b=st.integers(-50, 50))
    def test_fp_ops_agree_with_integer_ops_mod_p(self, a, b):
        for p in (2, 5, 7):
            fa, fb = Fp(a, p), Fp(b, p)
            assert (fa + fb).v == (a + b) % p
            assert (fa - fb).v == (a - b) % p
            assert (fa * fb).v == (a * b) % p

    @given(
        a=st.integers(-30, 30),
        b=st.integers(1, 30),
        c=st.integers(-30, 30),
        d=st.integers(1, 30),
    )
    def test_rational_sum_two_ways(self, a, b, c, d):
        direct = Fraction(a, b) + Fraction(c, d)
        cross = Fraction(a * d + c * b, b * d)
        assert direct == cross

    def test_parse_scalar(self):
        assert parse_scalar("-3/4", QQ) == Fraction(-3, 4)
        assert parse_scalar("1/2", F5) == Fp(3, 5)
        with pytest.raises(ParseError):
            parse_scalar("3.5", QQ)
        with pytest.raises(ParseError):
            parse_scalar("1/0", QQ)
        # a slash needs a denominator after it
        for text, field in (("1/", QQ), ("-1/", QQ), ("1/", F5), ("-1/", F5)):
            with pytest.raises(ParseError, match=f"bad scalar literal {text!r}"):
                parse_scalar(text, field)


class TestRank:
    def test_identity_over_f5(self):
        assert Matrix.identity(F5, 2).rank() == 2

    def test_full_rank_f5(self):
        m = Matrix(F5, [[1, 1], [1, 4]])
        assert m.rank() == 2
        assert m.det() == Fp(3, 5)  # 4 - 1 = 3, nonzero mod 5

    def test_dependent_rows_over_q(self):
        assert Matrix(QQ, [[1, 2], [2, 4]]).rank() == 1

    def test_rank_matches_brute_force_oracle(self):
        rng = rng_for("rank-oracle")
        for field in (QQ, F3, F5):
            for _ in range(25):
                m = random_matrix(rng, field, rng.randint(1, 3), rng.randint(1, 3), span=2)
                assert m.rank() == brute_rank(m)

    def test_rank_equals_transpose_rank(self):
        rng = rng_for("rank-transpose")
        for field in (QQ, F5):
            for _ in range(40):
                m = random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
                assert m.rank() == Matrix.from_columns(field, m.rows, nrows=m.ncols).rank()


class TestDet:
    def test_one_by_one(self):
        assert Matrix(QQ, [[2]]).det() == Fraction(2)

    def test_singular(self):
        assert Matrix(QQ, [[1, 2], [2, 4]]).det() == 0

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            Matrix(QQ, [[1, 2]]).det()

    def test_det_matches_permutation_expansion(self):
        rng = rng_for("det-oracle")
        for field in (QQ, F5):
            for _ in range(30):
                n = rng.randint(1, 4)
                m = random_matrix(rng, field, n, n)
                assert m.det() == perm_det(m)


class TestKernel:
    def test_trivial_kernel(self):
        assert Matrix.identity(QQ, 3).kernel_basis().ncols == 0

    def test_single_relation(self):
        basis = Matrix(QQ, [[1, 1]]).kernel_basis()
        assert basis.columns() == ((Fraction(-1), Fraction(1)),)

    def test_full_kernel(self):
        basis = Matrix(F3, [[0, 0], [0, 0]]).kernel_basis()
        assert basis == Matrix.identity(F3, 2)

    def test_kernel_dimension_formula_and_annihilation(self):
        rng = rng_for("kernel-props")
        for field in (QQ, F5):
            for _ in range(40):
                m = random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
                basis = m.kernel_basis()
                assert basis.ncols + m.rank() == m.ncols
                assert (m @ basis).is_zero()


class TestCompleteToBasis:
    def test_kernel_column_example(self):
        v = Matrix.from_columns(QQ, [[Fraction(-1), Fraction(1)]])
        t = complete_to_basis(v)
        assert t == Matrix(QQ, [[1, -1], [0, 1]])

    def test_empty_input_gives_identity(self):
        v = Matrix.from_columns(QQ, [], nrows=2)
        assert complete_to_basis(v) == Matrix.identity(QQ, 2)

    def test_unit_vector_input_over_f3(self):
        v = Matrix.from_columns(F3, [[1, 0]])
        t = complete_to_basis(v)
        assert t.columns() == ((Fp(0, 3), Fp(1, 3)), (Fp(1, 3), Fp(0, 3)))

    def test_dependent_columns_rejected(self):
        v = Matrix.from_columns(QQ, [[1, 2], [2, 4]])
        with pytest.raises(DependentInput):
            complete_to_basis(v)

    def test_completion_is_invertible_and_preserves_input(self):
        rng = rng_for("complete-basis")
        for field in (QQ, F5):
            for _ in range(30):
                n = rng.randint(1, 4)
                m = random_matrix(rng, field, rng.randint(0, n), n)
                basis = m.kernel_basis()
                t = complete_to_basis(basis)
                assert t.det() != field.zero
                assert t.columns()[n - basis.ncols :] == basis.columns()

    @staticmethod
    def greedy_completion(v):
        """The definition: scan e_1, e_2, ... and keep each unit vector that
        leaves the kept ones and the columns of V independent (ranks by
        brute force); V itself must be independent."""
        field, n, k = v.field, v.nrows, v.ncols
        if brute_rank(v) != k:
            return DependentInput
        kept = []
        for i in range(n):
            unit = tuple(field.one if r == i else field.zero for r in range(n))
            trial = Matrix.from_columns(field, kept + [unit] + list(v.columns()), nrows=n)
            if brute_rank(trial) == len(kept) + 1 + k:
                kept.append(unit)
        return Matrix.from_columns(field, kept + list(v.columns()), nrows=n)

    def test_matches_the_greedy_definition(self):
        rng = rng_for("complete-basis-greedy")
        dependent = 0
        for field in (QQ, F2, F3, F5):
            for _ in range(60):
                n = rng.randint(0, 3)
                # entries from a small span, so dependent inputs are common
                v = random_matrix(rng, field, n, rng.randint(0, n + 1), span=1)
                expected = self.greedy_completion(v)
                if expected is DependentInput:
                    dependent += 1
                    with pytest.raises(DependentInput):
                        complete_to_basis(v)
                else:
                    assert complete_to_basis(v) == expected
        assert 20 < dependent < 200


class TestVandermonde:
    def test_f5_example(self):
        m = generalized_vandermonde(F5, [1, 4], [0, 1])
        assert m == Matrix(F5, [[1, 1], [1, 4]])

    def test_single_entry(self):
        assert generalized_vandermonde(QQ, [7], [0]) == Matrix(QQ, [[1]])

    def test_rational_example(self):
        m = generalized_vandermonde(QQ, [2, 3], [0, 1, 2])
        assert m == Matrix(QQ, [[1, 1], [2, 3], [4, 9]])

    def test_zero_to_the_zero_is_one(self):
        assert generalized_vandermonde(QQ, [0], [0]) == Matrix(QQ, [[1]])
        assert generalized_vandermonde(F2, [0], [0, 1]) == Matrix(F2, [[1], [0]])

    def test_classical_det_is_product_of_differences(self):
        rng = rng_for("vandermonde-det")
        for field in (QQ, F5):
            universe = list(range(field.characteristic or 12))
            for _ in range(20):
                r = rng.randint(1, min(4, len(universe)))
                points = [field.coerce(x) for x in rng.sample(universe, r)]
                m = generalized_vandermonde(field, points, list(range(r)))
                expected = field.one
                for j in range(r):
                    for i in range(j):
                        expected = expected * (points[j] - points[i])
                assert m.det() == expected
                assert (expected != field.zero) == (m.rank() == r)


class TestMatrixPlumbing:
    def test_inverse_round_trip(self):
        rng = rng_for("matrix-inverse")
        for field in (QQ, F5):
            count = 0
            while count < 10:
                n = rng.randint(1, 4)
                m = random_matrix(rng, field, n, n)
                if m.rank() < n:
                    continue
                assert m @ m.inverse() == Matrix.identity(field, n)
                count += 1

    def test_singular_inverse_rejected(self):
        with pytest.raises(SingularMatrix):
            Matrix(QQ, [[1, 2], [2, 4]]).inverse()
