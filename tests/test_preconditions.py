"""Each precondition check raises its documented exception kind with a
message that names the problem: one row per guard, called through the
public API with the smallest input that breaks exactly that guard."""

import pytest

from kellerlab import (
    ArityMismatch,
    BadIndex,
    FieldMismatch,
    Fp,
    InconsistentReduction,
    Matrix,
    MPoly,
    NonSquare,
    PolyMap,
    PolyMatrix,
    PrimeField,
    QQ,
    UniPoly,
    collision_search,
    constant_kernel,
    extend_inverse,
    formal_inverse,
    hadamard_power,
    kernel_conjugate,
    pair_reduction,
    rational_roots,
    triangular_inverse,
    verify_inverse,
)

from conftest import P, pmap

F5 = PrimeField(5)
X1 = P("x1", 1, QQ)
IDENTITY_1 = pmap(QQ, 1, "x1")
IDENTITY_2 = pmap(QQ, 2, "x1", "x2")
NON_SQUARE = pmap(QQ, 2, "x1")
ROW = Matrix(QQ, [[1, 2]])

CASES = [
    ("collision_search-r", lambda: collision_search(pmap(F5, 1, "x1"), 1), ValueError, "r must be at least 2"),
    ("Fp-rtruediv-zero", lambda: 1 / Fp(0, 5), ZeroDivisionError, "division by zero in F_5"),
    ("Fp-negative-power-of-zero", lambda: Fp(0, 5) ** -1, ZeroDivisionError, "division by zero in F_5"),
    ("Rationals-coerce", lambda: QQ.coerce("1"), FieldMismatch, "into Q"),
    ("Rationals-from_literal", lambda: QQ.from_literal(1, 0), ValueError, "denominator must be a positive"),
    ("PrimeField-coerce", lambda: F5.coerce(1.5), FieldMismatch, "cannot coerce 1.5 into F_5"),
    ("PrimeField-from_literal", lambda: F5.from_literal(1, 0), ValueError, "denominator must be a positive"),
    ("Matrix-ragged", lambda: Matrix(QQ, [[1, 2], [1]]), ArityMismatch, "ragged matrix rows"),
    ("Matrix-no-rows", lambda: Matrix(QQ, []), ArityMismatch, "0-row matrix needs an explicit ncols"),
    ("Matrix-ncols", lambda: Matrix(QQ, [[1, 2]], ncols=3), ArityMismatch, "expected 3 columns, got 2"),
    ("Matrix-from_columns", lambda: Matrix.from_columns(QQ, []), ArityMismatch, "needs an explicit nrows"),
    ("Matrix-matmul-field", lambda: ROW @ Matrix(F5, [[1], [2]]), FieldMismatch, "over different fields"),
    ("Matrix-matmul-shape", lambda: ROW @ ROW, ArityMismatch, "cannot multiply 2-column by 1-row"),
    ("Matrix-inverse", lambda: ROW.inverse(), NonSquare, "inverse of a 1x2 matrix"),
    ("formal_inverse-non-square", lambda: formal_inverse(NON_SQUARE), NonSquare, "1x2 map"),
    ("formal_inverse-max_deg", lambda: formal_inverse(IDENTITY_1, 0), ValueError, "max_deg must be at least 1"),
    ("verify_inverse", lambda: verify_inverse(IDENTITY_1, IDENTITY_2), ArityMismatch, "same dimension"),
    ("triangular_inverse-non-square", lambda: triangular_inverse(ROW, 2), NonSquare, "1x2 coefficient matrix"),
    ("triangular_inverse-power", lambda: triangular_inverse(Matrix(QQ, [[0]]), 0), ValueError, "must be positive"),
    ("extend_inverse-r", lambda: extend_inverse(IDENTITY_1, 2, IDENTITY_1), ArityMismatch, "r = 2 outside 0..1"),
    (
        "extend_inverse-sub-dimension",
        lambda: extend_inverse(IDENTITY_2, 1, IDENTITY_2),
        ArityMismatch,
        "sub-inverse must be an 1-dimensional map",
    ),
    (
        "extend_inverse-sub-field",
        lambda: extend_inverse(IDENTITY_2, 1, pmap(F5, 1, "0")),
        FieldMismatch,
        "sub-inverse over a different field",
    ),
    ("MPoly-arity", lambda: MPoly(QQ, 2, {(1,): 1}), ArityMismatch, "monomial (1,) in a 2-variable ring"),
    ("MPoly-negative-exponent", lambda: MPoly(QQ, 1, {(-1,): 1}), ValueError, "negative exponent in (-1,)"),
    ("MPoly-variable", lambda: MPoly.variable(QQ, 2, 2), BadIndex, "variable index 2 outside 0..1"),
    ("MPoly-negative-power", lambda: X1**-1, ValueError, "negative polynomial power"),
    ("MPoly-evaluate", lambda: X1.evaluate([1, 2]), ArityMismatch, "point of length 2 in 1 variables"),
    ("MPoly-restrict_to_line", lambda: X1.restrict_to_line([1, 2]), ArityMismatch, "direction of length 2"),
    ("MPoly-exact_div-zero", lambda: X1.exact_div(MPoly(QQ, 1)), ZeroDivisionError, "polynomial division by zero"),
    ("PolyMap-not-a-polynomial", lambda: PolyMap(QQ, 1, ["x1"]), FieldMismatch, "components must be polynomials"),
    ("PolyMap-component-field", lambda: PolyMap(QQ, 1, [P("x1", 1, F5)]), FieldMismatch, "in a map over Q"),
    ("PolyMap-component-arity", lambda: PolyMap(QQ, 2, [X1]), ArityMismatch, "component in 1 variables, map has 2"),
    ("PolyMap-add-field", lambda: IDENTITY_1 + pmap(F5, 1, "x1"), FieldMismatch, "Q vs F_5"),
    ("PolyMap-add-shape", lambda: IDENTITY_1 + IDENTITY_2, ArityMismatch, "maps of different shapes"),
    ("PolyMap-compose-field", lambda: IDENTITY_1.compose(pmap(F5, 1, "x1")), FieldMismatch, "Q vs F_5"),
    ("PolyMap-translate", lambda: IDENTITY_1.translate([1, 2]), ArityMismatch, "point of length 2 for a map on 1"),
    ("hadamard_power-non-square", lambda: hadamard_power(ROW, 2), NonSquare, "1x2 coefficient matrix"),
    ("hadamard_power-exponent", lambda: hadamard_power(Matrix(QQ, [[1]]), 0), ValueError, "must be positive"),
    ("PolyMatrix-ragged", lambda: PolyMatrix(QQ, 1, [[X1], []]), ArityMismatch, "ragged polynomial matrix"),
    ("PolyMatrix-entry-ring", lambda: PolyMatrix(QQ, 2, [[X1]]), FieldMismatch, "from a different polynomial ring"),
    (
        "PolyMatrix-matmul",
        lambda: PolyMatrix(QQ, 1, [[X1]]) @ PolyMatrix(QQ, 1, [[X1], [X1]]),
        ArityMismatch,
        "polynomial matrix shapes do not match",
    ),
    ("PolyMatrix-det", lambda: PolyMatrix(QQ, 1, [[X1, X1]]).det(), NonSquare, "determinant of a 1x2 polynomial"),
    ("constant_kernel", lambda: constant_kernel(NON_SQUARE), NonSquare, "1x2 map"),
    ("kernel_conjugate", lambda: kernel_conjugate(NON_SQUARE), NonSquare, "1x2 map"),
    (
        "pair_reduction",
        lambda: pair_reduction(IDENTITY_2, kernel_conjugate(IDENTITY_1)),
        InconsistentReduction,
        "does not match the map's dimension",
    ),
    ("rational_roots-field", lambda: rational_roots(UniPoly(F5, [1, 1])), FieldMismatch, "needs a polynomial over Q"),
]


@pytest.mark.parametrize("call, kind, fragment", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_precondition_raises_its_kind(call, kind, fragment):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert fragment in str(info.value)
