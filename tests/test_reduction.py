import json
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
    formal_inverse,
    hadamard_power,
    inverse_degree,
    kernel_conjugate,
    pair_reduction,
    power_linear,
)
import kellerlab.reduction as reduction
from kellerlab.cli import main
from kellerlab.errors import (
    InconsistentReduction,
    KellerlabError,
    NotInvertibleUpToBound,
    NotNormalized,
    TheoremViolation,
)
from kellerlab.inversion import VERDICT_NOT_UP_TO_BOUND, _require_normalized
from kellerlab.polymap import apply_matrix
from kellerlab.reduction import CHAR_P_NOTE, DegreeBoundReport

from conftest import P, pmap, random_matrix, random_mpoly, rng_for

F2 = PrimeField(2)
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

    def test_matches_the_jacobian_matrix_reference(self):
        # random maps, some hiding a kernel behind a rank-deficient linear
        # substitution; exponents reach past p over F_2 and F_3, so some
        # partials vanish in the characteristic
        rng = rng_for("constant-kernel-reference")
        for field in (QQ, PrimeField(2), PrimeField(3), PrimeField(101)):
            for _ in range(60):
                n = rng.randint(1, 4)
                H = PolyMap(field, n, [random_mpoly(rng, field, n, max_deg=6) for _ in range(n)])
                if rng.random() < 0.5:
                    H = H.compose(PolyMap.linear(random_rank_deficient(rng, field, n)))
                assert constant_kernel(H) == reference_constant_kernel(H)


def reference_constant_kernel(H):
    """The constraint rows read off the whole Jacobian matrix, row by row,
    each row's monomials in descending graded-lex order: the reference for
    ``constant_kernel``."""
    jac = H.jacobian()
    rows = []
    for i in range(H.m):
        monomials = set()
        for j in range(H.n):
            monomials |= set(jac.grid[i][j].terms)
        for mono in sorted(monomials, key=lambda e: (sum(e), e), reverse=True):
            rows.append([jac.grid[i][j].coefficient(mono) for j in range(H.n)])
    return Matrix(H.field, rows, ncols=H.n).kernel_basis()


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
                    assert jac.grid[i][j].is_zero()

    def test_nonzero_conjugated_column_is_refused(self, monkeypatch):
        # fault injection: a basis completion that ignores the kernel
        # span(e1) leaves x2^2 in the first component, so column 2 of the
        # conjugated Jacobian is not zero
        monkeypatch.setattr(reduction, "complete_to_basis", lambda kernel: Matrix.identity(QQ, 2))
        with pytest.raises(TheoremViolation, match="column 2 of the conjugated Jacobian is not zero"):
            kernel_conjugate(pmap(QQ, 2, "x1 + x2^2", "x2"))

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
        report = degree_bound_report(kernel_conjugate(F))
        assert (report.n, report.d, report.r) == (3, 2, 2)
        assert report.bound == 4
        assert report.gabber_bound == 4
        assert report.actual_inverse_degree == 3
        assert report.satisfied and not report.escalated
        assert report.char_p_note is None

    def test_power_linear_attains_bound(self):
        A = Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
        report = degree_bound_report(kernel_conjugate(power_linear(A, 2)))
        assert report.r == 2
        assert report.bound == 4
        assert report.actual_inverse_degree == 4
        assert report.satisfied

    def test_identity(self):
        report = degree_bound_report(kernel_conjugate(PolyMap.identity(QQ, 3)))
        assert report.r == 0
        assert report.bound == 1
        assert report.actual_inverse_degree == 1
        assert report.satisfied

    def test_char_p_reports_are_flagged(self):
        F = pmap(F5, 2, "x1", "x2 + x1^2")
        report = degree_bound_report(kernel_conjugate(F))
        assert report.char_p_note == CHAR_P_NOTE
        assert report.satisfied

    def test_real_escalation_in_characteristic_two(self, monkeypatch):
        # d(x2^2)/dx2 = 2*x2 vanishes over F_2, so the constant kernel is
        # the whole space: r = 0 and d^r = 1, below the inverse's degree 2
        bounds = record_inversions(monkeypatch, 0)
        report = degree_bound_report(kernel_conjugate(pmap(F2, 2, "x1 + x2^2", "x2")))
        assert (report.r, report.bound, report.gabber_bound) == (0, 1, 2)
        assert report.actual_inverse_degree == 2
        assert report.escalated and not report.satisfied
        assert report.char_p_note == CHAR_P_NOTE
        assert bounds == [1, 2]

    def test_same_map_over_q_is_within_the_bound(self, monkeypatch):
        bounds = record_inversions(monkeypatch, 0)
        report = degree_bound_report(kernel_conjugate(pmap(QQ, 2, "x1 + x2^2", "x2")))
        assert (report.r, report.bound, report.gabber_bound) == (1, 2, 2)
        assert report.actual_inverse_degree == 2
        assert report.satisfied and not report.escalated
        assert report.char_p_note is None
        assert bounds == [2]

    def test_requires_normalized_map(self):
        with pytest.raises(NotNormalized):
            degree_bound_report(kernel_conjugate(pmap(QQ, 1, "2*x1")))

    def test_not_invertible_propagates(self):
        # r = n = 1, so d^r = 3 is tried and the smaller d^(n-1) = 1 is not
        with pytest.raises(NotInvertibleUpToBound, match="up to degree 3$"):
            degree_bound_report(kernel_conjugate(pmap(QQ, 1, "x1 + x1^3")))

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
        # no polynomial inverse, as if the d^r bound were too small.  The
        # map has r = 1, so d^r = 2 and the fallback d^(n-1) = 4 is larger
        bounds = record_inversions(monkeypatch, failing)
        F = pmap(field, 3, "x1", "x2 + x1^2", "x3 + x1^2")
        if outcome == NotInvertibleUpToBound:
            with pytest.raises(outcome, match="up to degree 4$"):
                degree_bound_report(kernel_conjugate(F))
        elif outcome != "escalated":
            with pytest.raises(outcome):
                degree_bound_report(kernel_conjugate(F))
        else:
            report = degree_bound_report(kernel_conjugate(F))
            assert (report.r, report.bound, report.gabber_bound) == (1, 2, 4)
            assert report.escalated and report.satisfied
            assert report.actual_inverse_degree == 2
            assert report.char_p_note == CHAR_P_NOTE
        assert bounds == [2, 4]

    @pytest.mark.parametrize(
        "field,texts,failing",
        [
            # d^r = d^(n-1) = 4, failing by fault injection
            (F5, ("x1", "x2 + x1^2", "x3 + x1*x2"), 2),
            (QQ, ("x1", "x2 + x1^2", "x3 + x1*x2"), 2),
            # r = n = 2: d^r = 4 fails for real and d^(n-1) = 2 is smaller
            (QQ, ("x1 + x1*x2", "x2"), 0),
        ],
    )
    def test_no_escalation_unless_the_bound_grows(self, monkeypatch, field, texts, failing):
        # a failure at d^r settles every bound up to it: one inversion
        bounds = record_inversions(monkeypatch, failing)
        with pytest.raises(NotInvertibleUpToBound, match="up to degree 4$"):
            degree_bound_report(kernel_conjugate(pmap(field, len(texts), *texts)))
        assert bounds == [4]


def reference_degree_bound_report(F):
    """The report computed from F itself: the constant kernel of F - x,
    then ``formal_inverse(F)`` at d^r and, when that fails and d^(n-1) is
    larger, at d^(n-1)."""
    higher = _require_normalized(F)
    field, n = F.field, F.n
    d = F.degree()
    r = n - constant_kernel(higher).ncols
    bound = d**r
    gabber = d ** (n - 1) if n > 0 else 1
    result = formal_inverse(F, max_deg=bound)
    escalated = not result.is_polynomial
    if escalated and gabber > bound:
        result = formal_inverse(F, max_deg=gabber)
    if not result.is_polynomial:
        raise NotInvertibleUpToBound(f"no polynomial inverse up to degree {result.bound_used}")
    actual = result.inverse_degree
    if escalated and field.characteristic == 0:
        raise TheoremViolation(
            f"inverse degree {actual} exceeds the d^r bound {bound} over a "
            "characteristic-zero field"
        )
    return DegreeBoundReport(
        n=n,
        d=d,
        r=r,
        bound=bound,
        gabber_bound=gabber,
        actual_inverse_degree=actual,
        satisfied=actual <= bound,
        escalated=escalated,
        char_p_note=CHAR_P_NOTE if field.characteristic else None,
    )


def report_or_error(call):
    """The report's fields, or the kind and message of the error raised."""
    try:
        return call()._asdict()
    except KellerlabError as exc:
        return type(exc).__name__, str(exc)


def random_normalized(rng, field, n):
    """x + H with H of order at least 2 and degree at most 3 (2 when n = 3):
    triangular (H_i in x_1..x_(i-1), so invertible) or, for n <= 2,
    unrestricted, then conjugated by a random invertible matrix so that the
    constant kernel is not a coordinate span."""
    triangular = n > 2 or rng.random() < 0.5
    comps = []
    for i in range(n):
        allowed = i if triangular else n
        terms = {}
        for _ in range(rng.randint(1, 2) if allowed else 0):
            exps = [0] * n
            for _ in range(rng.randint(2, 3 if n < 3 else 2)):
                exps[rng.randrange(allowed)] += 1
            terms[tuple(exps)] = rng.randint(1, 3)
        comps.append(MPoly.variable(field, n, i) + MPoly(field, n, terms))
    while True:
        L = random_matrix(rng, field, n, n, span=2)
        if L.rank() == n:
            break
    inner = PolyMap(field, n, comps).compose(PolyMap.linear(L))
    return PolyMap(field, n, apply_matrix(L.inverse(), inner.components, n))


class TestReportFromTheReduction:
    """``degree_bound_report(kernel_conjugate(F))`` reads r from the
    reduction and inverts the conjugated map; it must give the report (or
    the error) that F itself gives."""

    @pytest.mark.parametrize("field", [QQ, F2, F5, PrimeField(101)], ids=str)
    def test_matches_the_reference_on_random_maps(self, field):
        rng = rng_for(f"report-oracle-{field}")
        kinds = set()
        for _ in range(16):
            F = random_normalized(rng, field, rng.randint(1, 3))
            expected = report_or_error(lambda: reference_degree_bound_report(F))
            assert report_or_error(lambda: degree_bound_report(kernel_conjugate(F))) == expected
            kinds.add(expected[0] if isinstance(expected, tuple) else "report")
        assert {"report", "NotInvertibleUpToBound"} <= kinds

    @pytest.mark.parametrize(
        "field,texts,error",
        [
            (F2, ("x1 + x2^2", "x2"), None),  # escalates from d^r = 1 to 2
            (QQ, ("x1 + x1^3",), ("NotInvertibleUpToBound", "no polynomial inverse up to degree 3")),
            (QQ, ("2*x1",), ("NotNormalized", "map must be x + H with H of order at least 2")),
            (QQ, (), None),
        ],
    )
    def test_matches_the_reference_on_edge_maps(self, field, texts, error):
        F = pmap(field, len(texts), *texts)
        expected = report_or_error(lambda: reference_degree_bound_report(F))
        assert report_or_error(lambda: degree_bound_report(kernel_conjugate(F))) == expected
        if error is None:
            assert isinstance(expected, dict)
        else:
            assert expected == error

    @pytest.mark.parametrize(
        "polys",
        [["x1", "x2 + x1^2", "x3 + x1*x2"], ["2*x1 + 1", "x2 + x1^2", "x3 - x1*x2"]],
        ids=["normalized", "affine"],
    )
    def test_reduce_computes_one_kernel(self, polys, monkeypatch, tmp_path, capsys):
        calls = []
        kernel = reduction.constant_kernel

        def counted(polymap):
            calls.append(polymap)
            return kernel(polymap)

        monkeypatch.setattr(reduction, "constant_kernel", counted)
        path = tmp_path / "map.json"
        path.write_text(json.dumps({"field": "Q", "nvars": 3, "polys": polys}))
        assert main(["reduce", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["report"]["r"] == 2
        assert len(calls) == 1


def record_inversions(monkeypatch, failing):
    """Wrap ``formal_inverse`` as ``degree_bound_report`` sees it: record
    each bound tried, and report the first ``failing`` attempts as finding
    no polynomial inverse."""
    bounds = []
    formal_inverse = reduction.formal_inverse

    def failing_first(polymap, max_deg):
        bounds.append(max_deg)
        result = formal_inverse(polymap, max_deg=max_deg)
        if len(bounds) <= failing:
            return result._replace(verdict=VERDICT_NOT_UP_TO_BOUND)
        return result

    monkeypatch.setattr(reduction, "formal_inverse", failing_first)
    return bounds
