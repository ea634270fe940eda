#!/usr/bin/env python3
"""Formal inversion and the degree of polynomial inverses.

Shows the bounded series inversion of maps x + H, the inductive inverse of
power-linear maps with strictly lower triangular coefficient matrix, the
sharp d^(n-1) inverse degree of subdiagonal chains, and the tighter d^r
bound coming from the constant kernel of jac H.

Run:  python demos/02_inverses_and_degree_bounds.py
"""

from kellerlab import (
    Matrix,
    PolyMap,
    QQ,
    degree_bound_report,
    formal_inverse,
    inverse_degree,
    kernel_conjugate,
    pair_reduction,
    parse,
    power_linear,
    triangular_inverse,
)


def pmap(field, nvars, *texts):
    return PolyMap(field, nvars, [parse(t, nvars, field) for t in texts])


def show(title):
    print()
    print(title)
    print("-" * len(title))


show("Series inversion of a shear")
S = pmap(QQ, 2, "x1", "x2 + x1^2")
result = formal_inverse(S)
print("S =", S)
print("verdict:", result.verdict, "| inverse:", result.inverse, "| degree:", result.inverse_degree)

show("x + x^3 has no polynomial inverse (and the verdict says only that)")
C = pmap(QQ, 1, "x1 + x1^3")
result = formal_inverse(C)
print("verdict:", result.verdict, "at bound", result.bound_used)
print("In one variable the bound d^(n-1) is 1, and indeed the series inverse")
print("of x + x^3 never terminates; the map is injective on Q regardless.")

show("Power-linear chains attain the d^(n-1) bound")
for n, d in ((2, 2), (3, 2), (3, 3), (4, 2)):
    A = Matrix(QQ, [[1 if j == i - 1 else 0 for j in range(n)] for i in range(n)])
    F = power_linear(A, d)
    print(f"n={n} d={d}: inverse degree {inverse_degree(F)} (= d^(n-1) = {d ** (n - 1)})")

show("The inductive inverse agrees with the fixpoint iteration")
A = Matrix(QQ, [[0, 0, 0], [1, 0, 0], [0, 1, 0]])
inductive = triangular_inverse(A, 2)
iterated = formal_inverse(power_linear(A, 2)).inverse
print("inductive:", inductive)
print("same object twice?", inductive == iterated)

show("A tighter bound from the constant kernel of jac H")
F = pmap(QQ, 3, "x1", "x2 + x1^2", "x3 + x1*x2")
report = degree_bound_report(kernel_conjugate(F))
print("F =", F)
print(
    f"n={report.n} d={report.d}: kernel rank r={report.r}, bound d^r={report.bound},"
    f" fallback d^(n-1)={report.gabber_bound}"
)
print("actual inverse degree:", report.actual_inverse_degree, "| satisfied:", report.satisfied)

show("Conjugating the kernel onto the last coordinates")
G = pmap(QQ, 2, "x1 + (x1 + x2)^2", "x2")
red = kernel_conjugate(G)
print("G =", G)
print("T =", red.T, " r =", red.r)
print("conjugated =", red.conjugated, "(trailing Jacobian columns of G - x vanish)")
print("paired one-variable map =", pair_reduction(G, red))
print("The paired map x1 + x1^2 is not invertible, which certifies that G")
print("itself has no polynomial inverse.")
