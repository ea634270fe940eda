from fractions import Fraction

import pytest

from kellerlab import (
    Matrix,
    MPoly,
    PolyMap,
    PrimeField,
    QQ,
    constant_kernel,
    degree_bound_report,
    hadamard_power,
    inverse_degree,
    kernel_conjugate,
    pair_reduction,
    power_linear,
)
import kellerlab.reduction as reduction
from kellerlab.errors import (
    InconsistentReduction,
    NotInvertibleUpToBound,
    NotNormalized,
    TheoremViolation,
)
from kellerlab.inversion import VERDICT_NOT_UP_TO_BOUND
from kellerlab.reduction import CHAR_P_NOTE

from conftest import P, pmap, rng_for

F5 = PrimeField(5)
F7 = PrimeField(7)


def random_rank_deficient(rng, field, n, span=2):
    """Random n x n matrix of rank strictly below n (outer-product sums)."""
    while True:
        rank_target = rng.randint(0, n - 1)
        rows = [[field.zero] * n for _ in range(n)]
        for _ in range(rank_target):
            u = [field.coerce(rng.randint(-span, span)) for _ in range(n)]
            v = [field.coerce(rng.randint(-span, span)) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    rows[i][j] = rows[i][j] + u[i] * v[j]
        matrix = Matrix(field, rows, ncols=n)
        if matrix.rank() < n:
            return matrix


class TestConstantKernel:
    def test_shared_linear_form(self):
        H = pmap(QQ, 2, "(x1 + x2)^2", "0")
        basis = constant_kernel(H)
        assert basis.columns() == ((Fraction(-1), Fraction(1)),)

    def test_zero_map_has_full_kernel(self):
        H = PolyMap(QQ, 3, [MPoly.zero(QQ, 3)] * 3)
        assert constant_kernel(H) == Matrix.identity(QQ, 3)

    def test_invertible_linear_forms_have_trivial_kernel(self):
        A = Matrix(QQ, [[1, 1], [0, 1]])
        assert constant_kernel(hadamard_power(A, 2)).ncols == 0

    def test_power_linear_kernel_equals_matrix_kernel(self):
        # the Jacobian of (Ax)^{*d} is d * diag((Ax)^{*(d-1)}) * A, so its
        # constant kernel is ker A whenever the characteristic does not
        # divide d
        rng = rng_for("power-linear-kernel")
        for field in (QQ, F5, F7):
            for d in (2, 3):
                if field.characteristic and d % field.characteristic == 0:
                    continue
                for _ in range(8):
                    n = rng.randint(2, 3)
                    A = random_rank_deficient(rng, field, n)
                    H = hadamard_power(A, d)
                    assert constant_kernel(H) == A.kernel_basis()


class TestKernelConjugate:
    def test_worked_example(self):
        F = pmap(QQ, 2, "x1 + (x1 + x2)^2", "x2")
        red = kernel_conjugate(F)
        assert red.T == Matrix(QQ, [[1, -1], [0, 1]])
        assert red.r == 1
        assert red.conjugated == pmap(QQ, 2, "x1 + x1^2", "x2")

    def test_identity_map(self):
        red = kernel_conjugate(PolyMap.identity(QQ, 2))
        assert red.r == 0
        assert red.conjugated == PolyMap.identity(QQ, 2)

    def test_full_rank_keeps_identity_transform(self):
        F = pmap(QQ, 2, "x1 + x1^2", "x2 + x2^2")
        red = kernel_conjugate(F)
        assert red.r == 2
        assert red.T == Matrix.identity(QQ, 2)
        assert red.conjugated == F

    def test_zero_columns_invariant_on_random_maps(self):
        rng = rng_for("conjugate-zero-cols")
        for _ in range(10):
            # H built from the first two of four variables, then conjugated
            # by a random invertible S to hide the kernel
            h_texts = ["0", "x1^2", "x1*x2 - 2*x2^2", "3*x1^2 + x2^2"]
            xs = MPoly.variables(QQ, 4)
            F = PolyMap(QQ, 4, [x + P(t, 4, QQ) for x, t in zip(xs, h_texts)])
            while True:
                S = Matrix(QQ, [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)])
                if S.rank() == 4:
                    break
            hidden = PolyMap.linear(S.inverse()).compose(F).compose(PolyMap.linear(S))
            red = kernel_conjugate(hidden)
            assert red.r == 2
            jac = (red.conjugated - PolyMap.identity(QQ, 4)).jacobian()
            for j in range(red.r, 4):
                for i in range(4):
                    assert jac.entry(i, j).is_zero()

    def test_inverse_degree_is_preserved(self):
        # the worked example x + ((x1+x2)^2, 0) is not invertible (its paired
        # one-dimensional map is x1 + x1^2), so use an invertible
        # kernel-deficient map for the degree comparison
        F = pmap(QQ, 2, "x1 + x2^2", "x2")
        red = kernel_conjugate(F)
        assert red.r == 1
        assert inverse_degree(F) == inverse_degree(red.conjugated) == 2


class TestPairReduction:
    def test_worked_example(self):
        F = pmap(QQ, 2, "x1 + (x1 + x2)^2", "x2")
        red = kernel_conjugate(F)
        paired = pair_reduction(F, red)
        assert paired == pmap(QQ, 1, "x1 + x1^2")

    def test_full_rank_is_whole_conjugation(self):
        F = pmap(QQ, 2, "x1 + x1^2", "x2 + x2^2")
        red = kernel_conjugate(F)
        assert pair_reduction(F, red) == red.conjugated

    def test_zero_higher_part_gives_empty_map(self):
        red = kernel_conjugate(PolyMap.identity(QQ, 2))
        paired = pair_reduction(PolyMap.identity(QQ, 2), red)
        assert paired.n == 0 and paired.m == 0

    def test_bc_is_identity(self):
        rng = rng_for("pair-bc")
        for _ in range(10):
            F = pmap(QQ, 3, "x1 + (x1 - x2)^2", "x2 + (x1 - x2)^3", "x3")
            red = kernel_conjugate(F)
            B = Matrix(QQ, red.Tinv.rows[: red.r], ncols=3)
            C = Matrix.from_columns(QQ, red.T.columns()[: red.r], nrows=3)
            assert B @ C == Matrix.identity(QQ, red.r)

    def test_mismatched_reduction_rejected(self):
        F = pmap(QQ, 2, "x1 + (x1 + x2)^2", "x2")
        other = kernel_conjugate(pmap(QQ, 2, "x1 + x1^2", "x2 + x2^2"))
        with pytest.raises(InconsistentReduction):
            pair_reduction(F, other)


class TestDegreeBoundReport:
    def test_three_dim_worked_example(self):
        F = pmap(QQ, 3, "x1", "x2 + x1^2", "x3 + x1*x2")
        report = degree_bound_report(F)
        assert (report.n, report.d, report.r) == (3, 2, 2)
        assert report.bound == 4
        assert report.gabber_bound == 4
        assert report.actual_inverse_degree == 3
        assert report.satisfied and not report.escalated
        assert report.char_p_note is None

    def test_power_linear_attains_bound(self):
        A = Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        report = degree_bound_report(power_linear(A, 2))
        assert report.r == 2
        assert report.bound == 4
        assert report.actual_inverse_degree == 4
        assert report.satisfied

    def test_identity(self):
        report = degree_bound_report(PolyMap.identity(QQ, 3))
        assert report.r == 0
        assert report.bound == 1
        assert report.actual_inverse_degree == 1
        assert report.satisfied

    def test_char_p_reports_are_flagged(self):
        F = pmap(F5, 2, "x1", "x2 + x1^2")
        report = degree_bound_report(F)
        assert report.char_p_note == CHAR_P_NOTE
        assert report.satisfied

    def test_requires_normalized_map(self):
        with pytest.raises(NotNormalized):
            degree_bound_report(pmap(QQ, 1, "2*x1"))

    def test_not_invertible_propagates(self):
        with pytest.raises(NotInvertibleUpToBound):
            degree_bound_report(pmap(QQ, 1, "x1 + x1^3"))

    @pytest.mark.parametrize(
        "field,failing,outcome",
        [
            (F5, 1, "escalated"),
            (QQ, 1, TheoremViolation),
            (F5, 2, NotInvertibleUpToBound),
            (QQ, 2, NotInvertibleUpToBound),  # checked before the theorem
        ],
    )
    def test_escalation(self, monkeypatch, field, failing, outcome):
        # fault injection: the first ``failing`` inversion attempts report
        # no polynomial inverse, as if the d^r bound were too small
        bounds = []
        formal_inverse = reduction.formal_inverse

        def failing_first(polymap, max_deg):
            bounds.append(max_deg)
            result = formal_inverse(polymap, max_deg=max_deg)
            if len(bounds) <= failing:
                return result._replace(verdict=VERDICT_NOT_UP_TO_BOUND)
            return result

        monkeypatch.setattr(reduction, "formal_inverse", failing_first)
        F = pmap(field, 3, "x1", "x2 + x1^2", "x3 + x1*x2")
        if outcome != "escalated":
            with pytest.raises(outcome):
                degree_bound_report(F)
        else:
            report = degree_bound_report(F)
            assert report.escalated and report.satisfied
            assert report.actual_inverse_degree == 3
            assert report.char_p_note == CHAR_P_NOTE
        assert bounds == [4, 4]
