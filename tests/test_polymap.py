from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kellerlab import (
    Fp,
    Matrix,
    MPoly,
    PolyMap,
    PolyMatrix,
    PrimeField,
    QQ,
    euler_check,
    hadamard_power,
    power_linear,
)
from kellerlab.errors import ArityMismatch, FieldMismatch, NonSquare, NotHomogeneous
from kellerlab.polymap import apply_matrix

from conftest import P, naive_evaluate, pmap, random_mpoly, rng_for

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F101 = PrimeField(101)


def scalar(draw, field):
    """A value of the field as its own element, a plain int or (over Q) a
    fraction; over F_p ints may lie outside [0, p)."""
    if field.characteristic:
        p = field.p
        v = draw(st.integers(-2 * p, 3 * p))
        return Fp(v, p) if draw(st.booleans()) else v
    num = draw(st.integers(-9, 9))
    return Fraction(num, draw(st.integers(1, 4))) if draw(st.booleans()) else num


@st.composite
def map_case(draw):
    """A map over F_2, F_101 or Q with 1 to 3 components and a point."""
    field = draw(st.sampled_from([F2, F101, QQ]))
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(0, 4)] * n)
    comps = [
        MPoly(field, n, draw(st.dictionaries(exps, st.integers(-9, 9), max_size=5)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return PolyMap(field, n, comps), [scalar(draw, field) for _ in range(n)]


def random_map(rng, field, n, max_deg=2):
    return PolyMap(field, n, [random_mpoly(rng, field, n, max_deg, max_terms=3, span=3) for _ in range(n)])


class TestJacobian:
    def test_shear(self):
        F = pmap(QQ, 2, "x1", "x2 + x1^2")
        jac = F.jacobian()
        assert jac.grid == (
            (P("1", 2, QQ), P("0", 2, QQ)),
            (P("2*x1", 2, QQ), P("1", 2, QQ)),
        )

    def test_three_variable_quadratic(self):
        F = pmap(QQ, 3, "x1 + x2*x3", "x2 - x1*x3", "x3")
        jac = F.jacobian()
        assert jac.grid[0][0] == P("1", 3, QQ)
        assert jac.grid[0][1] == P("x3", 3, QQ)
        assert jac.grid[0][2] == P("x2", 3, QQ)
        assert jac.grid[1][0] == -P("x3", 3, QQ)
        assert jac.grid[1][1] == P("1", 3, QQ)
        assert jac.grid[1][2] == -P("x1", 3, QQ)
        assert jac.grid[2] == (P("0", 3, QQ), P("0", 3, QQ), P("1", 3, QQ))

    def test_identity(self):
        F = PolyMap.identity(QQ, 3)
        jac = F.jacobian()
        for i in range(3):
            for j in range(3):
                expected = P("1", 3, QQ) if i == j else P("0", 3, QQ)
                assert jac.grid[i][j] == expected


class TestDetJacobian:
    def test_paper_style_quadratic(self):
        F = pmap(QQ, 3, "x1 + x2*x3", "x2 - x1*x3", "x3")
        assert F.det_jacobian() == P("1 + x3^2", 3, QQ)

    def test_triangular_shear(self):
        assert pmap(QQ, 2, "x1", "x2 + x1^2").det_jacobian() == P("1", 2, QQ)

    def test_char_2_quadratic(self):
        assert pmap(F2, 1, "x1 - x1^2").det_jacobian() == P("1", 1, F2)

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            pmap(QQ, 2, "x1").det_jacobian()

    def test_5x5_det_matches_first_row_expansion(self):
        # a 5x5 map x + (random quadratic part); the seed name is historical
        rng = rng_for("bareiss")
        comps = []
        for i in range(5):
            body = random_mpoly(rng, QQ, 5, max_deg=2, max_terms=2, span=2)
            comps.append(MPoly.variable(QQ, 5, i) + body)
        F = PolyMap(QQ, 5, comps)
        det = F.det_jacobian()
        jac = F.jacobian()
        minors = PolyMatrix(QQ, 5, jac.grid)
        # cofactor expansion along the first row as an independent oracle
        oracle = MPoly.zero(QQ, 5)
        sign = 1
        for j in range(5):
            entry = jac.grid[0][j]
            if not entry.is_zero():
                minor = PolyMatrix(
                    QQ,
                    5,
                    [[row[k] for k in range(5) if k != j] for row in jac.grid[1:]],
                )
                term = entry * minor.det()
                oracle = oracle + (term if sign > 0 else -term)
            sign = -sign
        assert det == oracle

    @pytest.mark.parametrize("n", range(1, 8))
    def test_dense_det_shares_minors_and_never_divides(self, n, monkeypatch):
        # every minor on rows k..n-1 is built once: sum over m = 2..n of
        # m * C(n, m) products, that is n * 2^(n-1) - n
        rng = rng_for(f"dense-det-{n}")
        x1 = MPoly.variable(QQ, 2, 0)
        grid = [[x1**3 + random_mpoly(rng, QQ, 2, max_deg=2, max_terms=2) for _ in range(n)] for _ in range(n)]
        calls = []
        mul, exact_div = MPoly.__mul__, MPoly.exact_div
        monkeypatch.setattr(MPoly, "__mul__", lambda a, b: calls.append("mul") or mul(a, b))
        monkeypatch.setattr(MPoly, "exact_div", lambda a, b: calls.append("div") or exact_div(a, b))
        PolyMatrix(QQ, 2, grid).det()
        assert calls.count("div") == 0
        assert calls.count("mul") <= n * 2 ** (n - 1) - n


class TestKeller:
    def test_shear_is_keller(self):
        assert pmap(QQ, 2, "x1", "x2 + x1^2").is_keller()

    def test_nonconstant_det_is_not(self):
        assert not pmap(QQ, 3, "x1 + x2*x3", "x2 - x1*x3", "x3").is_keller()

    def test_char_2_zero_map_is_keller(self):
        assert pmap(F2, 1, "x1 - x1^2").is_keller()


class TestHadamardPower:
    def test_expand_rows(self):
        A = Matrix(QQ, [[1, 1], [0, 1]])
        assert hadamard_power(A, 2) == pmap(QQ, 2, "(x1+x2)^2", "x2^2")

    def test_zero_matrix(self):
        A = Matrix(QQ, [[0, 0], [0, 0]])
        assert hadamard_power(A, 3) == pmap(QQ, 2, "0", "0")

    def test_identity_matrix(self):
        A = Matrix.identity(QQ, 3)
        assert hadamard_power(A, 3) == pmap(QQ, 3, "x1^3", "x2^3", "x3^3")


class TestPowerLinear:
    def test_single_subdiagonal_entry(self):
        A = Matrix(QQ, [[0, 0], [1, 0]])
        assert power_linear(A, 2) == pmap(QQ, 2, "x1", "x2 + x1^2")

    def test_zero_matrix_gives_identity(self):
        assert power_linear(Matrix(QQ, [[0, 0], [0, 0]]), 2) == PolyMap.identity(QQ, 2)

    def test_subdiagonal_chain(self):
        A = Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        assert power_linear(A, 2) == pmap(QQ, 3, "x1", "x2 + x1^2", "x3 + x2^2")


class TestCompose:
    def test_shear_pair_gives_identity(self):
        F = pmap(QQ, 2, "x1", "x2 + x1^2")
        G = pmap(QQ, 2, "x1", "x2 - x1^2")
        assert F.compose(G) == PolyMap.identity(QQ, 2)

    def test_identity_neutral(self):
        rng = rng_for("compose-id")
        F = random_map(rng, QQ, 2)
        eye = PolyMap.identity(QQ, 2)
        assert F.compose(eye) == F
        assert eye.compose(F) == F

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            pmap(QQ, 2, "x1", "x2").compose(pmap(QQ, 2, "x1"))

    def test_evaluation_commutes_with_composition(self):
        rng = rng_for("compose-eval")
        for field in (QQ, F5):
            for _ in range(15):
                F = random_map(rng, field, 2)
                G = random_map(rng, field, 2)
                pt = [field.coerce(rng.randint(-3, 3)) for _ in range(2)]
                assert F.compose(G).evaluate(pt) == F.evaluate(G.evaluate(pt))


class TestEvaluateMap:
    def test_square_point(self):
        assert pmap(F5, 2, "x1^2", "x2").evaluate([4, 0]) == (Fp(1, 5), Fp(0, 5))

    def test_origin_gives_constants(self):
        F = pmap(QQ, 2, "3 + x1*x2", "x2 - 1")
        assert F.evaluate([0, 0]) == (Fraction(3), Fraction(-1))

    def test_zero_map_on_points_char_2(self):
        F = pmap(F2, 1, "x1 - x1^2")
        assert F.evaluate([0]) == (Fp(0, 2),)
        assert F.evaluate([1]) == (Fp(0, 2),)

    # the map and its Jacobian coerce the point once and evaluate every
    # entry on the coerced values; each entry must agree with the
    # field-element reference
    @settings(max_examples=150, deadline=None)
    @given(case=map_case())
    def test_matches_reference_per_component(self, case):
        F, point = case
        assert F.evaluate(point) == tuple(naive_evaluate(c, point) for c in F.components)
        rows = F.jacobian().evaluate(point).rows
        assert rows == tuple(
            tuple(naive_evaluate(e, point) for e in row) for row in F.jacobian().grid
        )

    def test_point_errors(self):
        F = pmap(F5, 2, "x1^2", "x2")
        for evaluate in (F.evaluate, F.jacobian().evaluate):
            with pytest.raises(ArityMismatch):
                evaluate([1])
            with pytest.raises(FieldMismatch):
                evaluate([Fp(1, 7), 2])


class TestHomogeneousDecomposition:
    def test_cubic_plus_linear(self):
        F = pmap(QQ, 1, "x1 + x1^3")
        parts = F.homogeneous_decomposition()
        assert set(parts) == {1, 3}
        assert parts[1] == pmap(QQ, 1, "x1")
        assert parts[3] == pmap(QQ, 1, "x1^3")

    def test_homogeneous_map_is_single_part(self):
        F = pmap(QQ, 2, "x1^2 + x1*x2", "x2^2")
        assert F.homogeneous_decomposition() == {2: F}

    def test_mixed_components(self):
        F = pmap(QQ, 2, "x1^2", "x2")
        parts = F.homogeneous_decomposition()
        assert parts[1] == pmap(QQ, 2, "0", "x2")
        assert parts[2] == pmap(QQ, 2, "x1^2", "0")

    def test_support_includes_zero_for_constants(self):
        F = pmap(QQ, 1, "1 + x1^2")
        assert F.degree_support() == (0, 2)

    def test_parts_sum_to_map(self):
        rng = rng_for("decomp-sum")
        for _ in range(15):
            F = random_map(rng, QQ, 2, max_deg=3)
            parts = F.homogeneous_decomposition()
            total = PolyMap(QQ, 2, [MPoly.zero(QQ, 2)] * 2)
            for part in parts.values():
                total = total + part
            assert total == F


class TestEuler:
    def test_hand_example(self):
        assert euler_check(P("x1^2 * x2", 2, QQ), 3)

    def test_zero_polynomial(self):
        assert euler_check(MPoly.zero(QQ, 2), 7)

    def test_char_p_degenerate_case(self):
        for p in (2, 3, 5):
            field = PrimeField(p)
            assert euler_check(P(f"x1^{p}", 1, field), p)

    def test_mixed_degrees_rejected(self):
        with pytest.raises(NotHomogeneous):
            euler_check(P("x1 + x1^2", 1, QQ), 2)

    def test_euler_on_homogeneous_components(self):
        rng = rng_for("euler-components")
        for field in (QQ, F5):
            for _ in range(25):
                p = random_mpoly(rng, field, 3)
                for k, part in p.homogeneous_components().items():
                    assert euler_check(part, k)


class TestChainRule:
    def test_jacobian_chain_rule(self):
        rng = rng_for("chain-rule")
        for field in (QQ, F3):
            for _ in range(15):
                F = random_map(rng, field, 2)
                G = random_map(rng, field, 2)
                lhs = F.compose(G).jacobian()
                rhs = F.jacobian().substitute(list(G.components)) @ G.jacobian()
                assert lhs == rhs

    def test_det_jacobian_multiplicativity(self):
        rng = rng_for("det-chain")
        for _ in range(10):
            F = random_map(rng, QQ, 2)
            G = random_map(rng, QQ, 2)
            lhs = F.compose(G).det_jacobian()
            rhs = F.det_jacobian().substitute(list(G.components)) * G.det_jacobian()
            assert lhs == rhs

    def test_hadamard_jacobian_identity(self):
        # jac((Ax)^{*d}) = d * diag((Ax)^{*(d-1)}) * A
        rng = rng_for("hadamard-jac")
        for field in (QQ, F5):
            for d in (2, 3):
                for _ in range(5):
                    n = rng.randint(1, 3)
                    A = Matrix(
                        field,
                        [[field.coerce(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)],
                        ncols=n,
                    )
                    lhs = hadamard_power(A, d).jacobian()
                    forms = PolyMap.linear(A).components
                    zero = MPoly.zero(field, n)
                    diag = PolyMatrix(
                        field,
                        n,
                        [
                            [forms[i] ** (d - 1) * d if i == j else zero for j in range(n)]
                            for i in range(n)
                        ],
                    )
                    const_rows = PolyMatrix(
                        field,
                        n,
                        [
                            [MPoly.constant(field, n, A.rows[i][j]) for j in range(n)]
                            for i in range(n)
                        ],
                    )
                    assert lhs == diag @ const_rows


class TestTranslate:
    def test_translate_shifts_argument(self):
        F = pmap(QQ, 2, "x1^2", "x1 + x2")
        T = F.translate([1, 2])
        assert T == pmap(QQ, 2, "(x1+1)^2", "x1 + x2 + 3")


class TestApplyMatrix:
    @staticmethod
    def random_matrix(rng, field, nrows, ncols):
        def entry():
            if rng.random() < 0.3:
                return field.zero
            return field.coerce(rng.randint(-3, 3)) / field.coerce(rng.randint(1, 3))

        return Matrix(field, [[entry() for _ in range(ncols)] for _ in range(nrows)], ncols=ncols)

    @pytest.mark.parametrize("field", [QQ, F5], ids=repr)
    def test_matches_composition_with_the_linear_map(self, field):
        # independent path: substitute the polynomials into x -> Ax
        rng = rng_for(f"apply-matrix-{field}")
        shapes = [(0, 2), (2, 0), (0, 0)] + [(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(25)]
        for nrows, ncols in shapes:
            n = rng.randint(1, 3)
            A = self.random_matrix(rng, field, nrows, ncols)
            if nrows:  # always one zero row
                A = Matrix(field, [[field.zero] * ncols, *A.rows[1:]], ncols=ncols)
            polys = [random_mpoly(rng, field, n) for _ in range(ncols)]
            expected = PolyMap.linear(A).compose(PolyMap(field, n, polys)).components
            assert apply_matrix(A, polys, n) == list(expected)

    def test_polynomial_count_must_match_the_columns(self):
        A = Matrix(QQ, [[1, 2]], ncols=2)
        with pytest.raises(ArityMismatch):
            apply_matrix(A, [P("x1", 1, QQ)], 1)
