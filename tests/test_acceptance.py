"""Acceptance suite: every criterion runs exactly (no tolerances anywhere,
all arithmetic is exact) and prints one PASS/FAIL line.  Run with ``pytest
tests/test_acceptance.py -rA -s`` to see the lines directly."""

import itertools
from contextlib import contextmanager
from fractions import Fraction

import pytest

from kellerlab import (
    Matrix,
    MPoly,
    PolyMap,
    PrimeField,
    QQ,
    VERDICT_NOT_UP_TO_BOUND,
    collision_search,
    constant_kernel,
    degree_bound_report,
    extend_inverse,
    find_rank_drop,
    formal_inverse,
    hadamard_power,
    inverse_degree,
    invert_polymap,
    kernel_conjugate,
    line_injectivity,
    parse,
    power_linear,
    render,
    triangular_inverse,
    verify_collision_obstruction,
    verify_inverse,
)
from kellerlab.errors import NotInvertibleUpToBound, PreconditionFailed, TheoremViolation

from conftest import P, pmap, random_matrix, random_mpoly, rng_for

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


@contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:2d} FAIL — {label}")
        raise
    print(f"ACCEPTANCE {number:2d} PASS — {label}")


def subdiagonal_ones(field, n):
    return Matrix(
        field, [[1 if j == i - 1 else 0 for j in range(n)] for i in range(n)], ncols=n
    )


def test_criterion_1_sharp_degree_attainment():
    with criterion(1, "power-linear chains attain inverse degree d^(n-1)"):
        expectations = {(2, 2): 2, (3, 2): 4, (3, 3): 9, (4, 2): 8}
        for (n, d), expected in expectations.items():
            A = subdiagonal_ones(QQ, n)
            F = power_linear(A, d)
            assert inverse_degree(F) == expected  # verifies both compositions
            inductive = triangular_inverse(A, d)
            assert inductive.degree() == expected
            assert verify_inverse(F, inductive)


def _random_restricted_higher_part(rng, field, nvars, allowed, d):
    """1-2 monomials of total degree in [2, d] over the first ``allowed``
    variables; zero when no variables are allowed."""
    if allowed == 0:
        return MPoly.zero(field, nvars)
    terms = {}
    for _ in range(rng.randint(1, 2)):
        deg = rng.randint(2, d)
        exps = [0] * nvars
        for _ in range(deg):
            exps[rng.randrange(allowed)] += 1
        coeff = rng.choice([-2, -1, 1, 2])
        terms[tuple(exps)] = terms.get(tuple(exps), 0) + coeff
    return MPoly(field, nvars, terms)


def _random_triangular_in_first_r(rng, field, n, r, d):
    xs = MPoly.variables(field, n)
    comps = []
    for i in range(n):
        allowed = min(i, r)
        comps.append(xs[i] + _random_restricted_higher_part(rng, field, n, allowed, d))
    return PolyMap(field, n, comps)


def test_criterion_2_degree_bound_without_escalation():
    with criterion(2, "d^r bound holds with no escalation on 25 random maps"):
        rng = rng_for("acceptance-degree-bound")
        grid = list(itertools.product((3, 4), (1, 2, 3), (2, 3)))
        cases = 0
        while cases < 25:
            n, r, d = grid[cases % len(grid)]
            F = _random_triangular_in_first_r(rng, QQ, n, r, d)
            report = degree_bound_report(kernel_conjugate(F))
            assert report.satisfied is True
            assert report.escalated is False
            assert report.actual_inverse_degree <= report.bound
            cases += 1


def _span_equal(first, second):
    if first.ncols != second.ncols:
        return False
    combined = Matrix.from_columns(
        first.field, list(first.columns()) + list(second.columns()), nrows=first.nrows
    )
    return first.rank() == second.rank() == combined.rank()


def _random_rank_deficient(rng, field, n, span=2):
    while True:
        rows = [[field.zero] * n for _ in range(n)]
        for _ in range(rng.randint(0, n - 1)):
            u = [field.coerce(rng.randint(-span, span)) for _ in range(n)]
            v = [field.coerce(rng.randint(-span, span)) for _ in range(n)]
            for i in range(n):
                for j in range(n):
                    rows[i][j] = rows[i][j] + u[i] * v[j]
        matrix = Matrix(field, rows, ncols=n)
        if matrix.rank() < n:
            return matrix


def test_criterion_3_power_linear_kernel_identity():
    with criterion(3, "constant kernel of (Ax)^{*d} spans ker A (25 per field)"):
        rng = rng_for("acceptance-kernel-identity")
        for field in (QQ, F5, F7):
            for case in range(25):
                d = 2 if case % 2 == 0 else 3
                if field.characteristic and d % field.characteristic == 0:
                    d = 5 - d  # swap 2 <-> 3; both avoid p in {5, 7}
                n = rng.randint(2, 3)
                A = _random_rank_deficient(rng, field, n)
                kernel = constant_kernel(hadamard_power(A, d))
                expected = A.kernel_basis()
                assert _span_equal(kernel, expected)
                assert kernel == expected  # canonical bases agree exactly


def test_criterion_4_kernel_conjugation():
    with criterion(4, "conjugation zeroes trailing Jacobian columns, keeps degree"):
        # worked example: not invertible, so only the zero-column conclusion
        F = pmap(QQ, 2, "x1 + (x1 + x2)^2", "x2")
        red = kernel_conjugate(F)
        assert red.r == 1
        jac = (red.conjugated - PolyMap.identity(QQ, 2)).jacobian()
        assert all(jac.grid[i][1].is_zero() for i in range(2))

        rng = rng_for("acceptance-conjugation")
        for case in range(10):
            n = 3 if case % 2 == 0 else 4
            r = rng.randint(1, 2)
            F = _random_triangular_in_first_r(rng, QQ, n, r, 2)
            while True:
                S = random_matrix(rng, QQ, n, n, span=2)
                if S.rank() == n:
                    break
            hidden = PolyMap.linear(S.inverse()).compose(F).compose(PolyMap.linear(S))
            red = kernel_conjugate(hidden)
            jac = (red.conjugated - PolyMap.identity(QQ, n)).jacobian()
            for j in range(red.r, n):
                assert all(jac.grid[i][j].is_zero() for i in range(n))
            assert inverse_degree(hidden) == inverse_degree(red.conjugated)


def test_criterion_5_line_injectivity_exhaustive():
    with criterion(5, "triangular Keller maps are injective on all lines (F5, F7)"):
        for field in (F5, F7):
            p = field.p
            points = list(itertools.product(range(p), repeat=2))
            for d in (2, 3):
                for c in range(p):
                    F = PolyMap(
                        field,
                        2,
                        [
                            MPoly.variable(field, 2, 0),
                            MPoly.variable(field, 2, 1)
                            + MPoly.variable(field, 2, 0) ** d * c,
                        ],
                    )
                    assert F.is_keller()
                    for a in points:
                        verdict = line_injectivity(F, a)
                        assert verdict.injective and verdict.certified
        # counter-fixture: x1 - x1^p collides, yet nothing may flag a
        # violation because the hypotheses exclude p | d and p | r
        for field in (F5, F7):
            F = PolyMap(
                field,
                1,
                [MPoly.variable(field, 1, 0) - MPoly.variable(field, 1, 0) ** field.p],
            )
            verdict = line_injectivity(F, [1])
            assert not verdict.injective
            assert verdict.counterexample == (field.zero, field.one)
            for r in (2, field.p):
                witnesses = collision_search(F, r)  # must not raise
                assert witnesses
                assert all(not w.det_jac_nonconstant for w in witnesses)
                # the obstruction check refuses these witnesses on a failed
                # hypothesis; it never reports a violated conclusion
                for w in witnesses:
                    with pytest.raises(PreconditionFailed):
                        verify_collision_obstruction(F, w)


def test_criterion_6_rank_drop_witness():
    with criterion(6, "rank-drop parameter 0 for (x1^2, x2) over F5"):
        F = pmap(F5, 2, "x1^2", "x2")
        result = find_rank_drop(F, [1, 0], [1, 4], [0, 1, 2])
        assert result.value == F5.zero
        jac = F.jacobian().evaluate([F5.zero, F5.zero])
        assert jac.rank() == 1 < 2


def test_criterion_7_collision_sweep():
    with criterion(7, "every collision witness has non-unit Jacobian determinant"):
        rng = rng_for("acceptance-collision-sweep")
        r = 2
        total_witnesses = 0
        for field in (F3, F5):
            for n in (1, 2):
                for _ in range(25):
                    F = PolyMap(
                        field,
                        n,
                        [random_mpoly(rng, field, n, max_deg=r, max_terms=3) for _ in range(n)],
                    )
                    assert F.degree() <= r
                    witnesses = collision_search(F, r)  # raises on any violation
                    for w in witnesses:
                        assert len(set(w.params)) == len(w.params)
                        assert w.det_jac_nonconstant is True
                    total_witnesses += len(witnesses)
        assert total_witnesses > 0


def test_criterion_8_golden_fixtures():
    with criterion(8, "introductory fixtures behave as stated"):
        quadratic = pmap(QQ, 3, "x1 + x2*x3", "x2 - x1*x3", "x3")
        assert not quadratic.is_keller()
        assert render(quadratic.det_jacobian()) == "x3^2 + 1"

        cubic = pmap(QQ, 1, "x1 + x1^3")
        result = formal_inverse(cubic)
        assert result.verdict == VERDICT_NOT_UP_TO_BOUND

        zero_map = pmap(F2, 1, "x1 - x1^2")
        assert all(zero_map.evaluate([t]) == (F2.zero,) for t in range(2))
        assert zero_map.is_keller()


def test_criterion_9_inverse_extension():
    with criterion(9, "extension reproduces the verified three-variable inverse"):
        F = pmap(QQ, 3, "x1", "x2 + x1^2", "x3 + x1*x2")
        sub = PolyMap(QQ, 2, [MPoly.zero(QQ, 2), P("x1^2", 2, QQ)])
        extended = extend_inverse(F, 2, sub)
        assert extended == pmap(QQ, 3, "x1", "x2 - x1^2", "x3 - x1*x2 + x1^3")


def test_criterion_10_infrastructure_properties():
    with criterion(10, "parser round-trip, chain rule, Leibniz, Euler, rank formula"):
        rng = rng_for("acceptance-infra")
        for _ in range(1000):
            field = QQ if rng.random() < 0.5 else F5
            poly = random_mpoly(rng, field, rng.randint(1, 3))
            assert parse(render(poly), poly.nvars, field) == poly
        for _ in range(100):
            field = QQ if rng.random() < 0.5 else F5
            F = PolyMap(field, 2, [random_mpoly(rng, field, 2, max_deg=2, max_terms=3) for _ in range(2)])
            G = PolyMap(field, 2, [random_mpoly(rng, field, 2, max_deg=2, max_terms=3) for _ in range(2)])
            lhs = F.compose(G).jacobian()
            rhs = F.jacobian().substitute(list(G.components)) @ G.jacobian()
            assert lhs == rhs
            a = random_mpoly(rng, field, 2)
            b = random_mpoly(rng, field, 2)
            for j in range(2):
                assert (a * b).derivative(j) == a.derivative(j) * b + a * b.derivative(j)
        from kellerlab import euler_check

        for _ in range(100):
            field = QQ if rng.random() < 0.5 else F5
            poly = random_mpoly(rng, field, 3)
            for k, part in poly.homogeneous_components().items():
                assert euler_check(part, k)
        for _ in range(100):
            field = QQ if rng.random() < 0.5 else F5
            m = random_matrix(rng, field, rng.randint(1, 4), rng.randint(1, 4))
            basis = m.kernel_basis()
            assert basis.ncols + m.rank() == m.ncols
            assert (m @ basis).is_zero()
