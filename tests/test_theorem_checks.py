"""Every runtime re-check of a guaranteed conclusion is reached by a test.

``SITES`` lists each ``raise TheoremViolation`` in the package by module,
function and message.  No honest input can fail such a check, so each row
injects one fault (a patched helper) and names the call that then reaches
the raise.  A scan of the source fails on a raise the table does not list,
and a line tracer confirms that each row's call runs its raise line.  Where
a subcommand reaches a site, the CLI's exit 3 with one stderr JSON line is
asserted too.
"""

import ast
import importlib
import json
import os
import pathlib
import re
import sys
from typing import Callable, NamedTuple, Optional

import pytest

import kellerlab
import kellerlab.collinear as collinear
import kellerlab.inversion as inversion
import kellerlab.reduction as reduction
from kellerlab import (
    CollisionWitness,
    Matrix,
    PolyMap,
    PrimeField,
    QQ,
    collision_search,
    degree_bound_report,
    extend_inverse,
    invert_polymap,
    kernel_conjugate,
    line_restriction,
    normalize_affine,
    triangular_inverse,
    verify_coefficient_rank,
    verify_collision_obstruction,
)
from kellerlab.cli import main
from kellerlab.errors import TheoremViolation
from kellerlab.inversion import VERDICT_NOT_UP_TO_BOUND

from conftest import doubled_inverse, pmap, transposed_jacobian

F5 = PrimeField(5)
PACKAGE = pathlib.Path(kellerlab.__file__).parent


class Site(NamedTuple):
    """One ``raise TheoremViolation``: where it is, the fault that reaches
    it, the call that runs into it and, when a subcommand reaches it, the
    map file and the argv after the map file's name."""

    module: str
    function: str
    message: str  # a fragment of the raise's literal text, outside any f-string field
    fault: Callable
    call: Callable
    mapdoc: Optional[dict] = None
    argv: tuple = ()


def _patch(target, name, value):
    return lambda monkeypatch: monkeypatch.setattr(target, name, value)


def _identity_completion(monkeypatch):
    # a basis completion that ignores the kernel: for (x1 + x2^2, x2) it
    # leaves x2^2 in the first component
    monkeypatch.setattr(reduction, "complete_to_basis", lambda kernel: Matrix.identity(kernel.field, 2))


def _tight_bound_fails(monkeypatch):
    # the inversion at the d^r bound 2 reports no inverse, so the report
    # escalates to d^(n-1) = 4 and finds one of degree 2 there
    formal_inverse = reduction.formal_inverse

    def failing_below_4(polymap, max_deg=None):
        result = formal_inverse(polymap, max_deg=max_deg)
        return result if max_deg >= 4 else result._replace(verdict=VERDICT_NOT_UP_TO_BOUND)

    monkeypatch.setattr(reduction, "formal_inverse", failing_below_4)


def _doubled_inverse(monkeypatch):
    monkeypatch.setattr(Matrix, "inverse", doubled_inverse(Matrix.inverse))


def _verify_inverse_says(*answers):
    """A ``verify_inverse`` that gives these answers, in order."""

    def fault(monkeypatch):
        replies = iter(answers)
        monkeypatch.setattr(inversion, "verify_inverse", lambda *maps: next(replies))

    return fault


# a valid witness against (x1^2, x2) over F_5: (1, 0) and (4, 0) share the
# image (1, 0) on the line (1, 0) + t (1, 0)
WITNESS = CollisionWitness(
    b=(1, 0), base=(1, 0), params=(0, 3), degrees=(0, 1, 2),
    vandermonde_rank=2, rank_drop_param=None, det_jac_nonconstant=True,
)
SHEAR_3 = ("x1", "x2 + x1^2", "x3 + x1^2")

SITES = [
    Site(
        "reduction", "kernel_conjugate", "of the conjugated Jacobian is not zero",
        _identity_completion,
        lambda: kernel_conjugate(pmap(QQ, 2, "x1 + x2^2", "x2")),
        {"field": "Q", "nvars": 2, "polys": ["x1 + x2^2", "x2"]}, ("reduce",),
    ),
    Site(
        "reduction", "degree_bound_report", "exceeds the d^r bound",
        _tight_bound_fails,
        lambda: degree_bound_report(kernel_conjugate(pmap(QQ, 3, *SHEAR_3))),
        {"field": "Q", "nvars": 3, "polys": list(SHEAR_3)}, ("reduce",),
    ),
    Site(
        "inversion", "normalize_affine", "affine normalization failed to reconstruct",
        _doubled_inverse,
        lambda: normalize_affine(pmap(QQ, 2, "2*x1 + 1", "x2 + x1^2")),
        {"field": "Q", "nvars": 2, "polys": ["2*x1 + 1", "x2 + x1^2"]}, ("invert",),
    ),
    Site(
        "inversion", "invert_polymap", "recomposed inverse failed",
        _verify_inverse_says(False),
        lambda: invert_polymap(pmap(QQ, 2, "2*x1 + 1", "x2 + x1^2")),
        {"field": "Q", "nvars": 2, "polys": ["2*x1 + 1", "x2 + x1^2"]}, ("inverse-degree",),
    ),
    Site(
        "inversion", "triangular_inverse", "inductive triangular inverse failed",
        _verify_inverse_says(False),
        lambda: triangular_inverse(Matrix(QQ, [[0, 0], [1, 0]]), 2),
    ),
    Site(
        # the leading sub-inverse passes its check, the extension fails
        "inversion", "extend_inverse", "extended inverse failed",
        _verify_inverse_says(True, False),
        lambda: extend_inverse(pmap(QQ, 2, "x1", "x2 + x1^2"), 1, pmap(QQ, 1, "0")),
    ),
    Site(
        # with the hypotheses waved through, G = (t, t^2) does not vanish at
        # the parameter and its coefficient matrix has rank 2
        "collinear", "verify_coefficient_rank", "rank above 1",
        _patch(collinear, "_check_hypotheses", lambda *args, **kwargs: None),
        lambda: verify_coefficient_rank(line_restriction(pmap(QQ, 1, "x1", "x1^2"), [1], 0), [1]),
    ),
    Site(
        # G = (t) against the degrees 0, 1, 2: rank 1, zero last column
        "collinear", "verify_coefficient_rank", "zero last column",
        _patch(collinear, "_check_hypotheses", lambda *args, **kwargs: None),
        lambda: verify_coefficient_rank(line_restriction(pmap(QQ, 1, "x1"), [1], 0, [0, 1, 2]), [1, 2]),
    ),
    Site(
        "collinear", "_check_annihilation", "does not annihilate the direction",
        _patch(PolyMap, "jacobian", transposed_jacobian(PolyMap.jacobian)),
        lambda: collision_search(pmap(F5, 2, "x1^2 + x2", "x1*x2"), 2),
        {"field": {"Fp": 5}, "nvars": 2, "polys": ["x1^2 + x2", "x1*x2"]}, ("collide", "-r", "2"),
    ),
    Site(
        "collinear", "verify_collision_obstruction", "valid collision witness against a map with unit",
        _patch(PolyMap, "is_keller", lambda self: True),
        lambda: verify_collision_obstruction(pmap(F5, 2, "x1^2", "x2"), WITNESS),
    ),
    Site(
        "collinear", "collision_search", "unit Jacobian determinant (r = ",
        _patch(PolyMap, "is_keller", lambda self: True),
        lambda: collision_search(pmap(F5, 2, "x1^2", "x2"), 2),
        {"field": {"Fp": 5}, "nvars": 2, "polys": ["x1^2", "x2"]}, ("collide", "-r", "2"),
    ),
]


def site_id(row: Site) -> str:
    return f"{row.module}.{row.function}:{row.message[:24].strip()}"


def _message_text(node) -> str:
    """The literal text of a raise's message; an f-string's fields read as
    ``{}``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return ""


def raise_sites(source: str) -> list:
    """(function, line, message text) of each ``raise TheoremViolation`` in
    the source; the function is the innermost one holding the raise."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            exc = child.exc if isinstance(child, ast.Raise) else None
            call = exc if isinstance(exc, ast.Call) else None
            target = call.func if call is not None else exc
            name = getattr(target, "id", None) or getattr(target, "attr", None)
            if name == "TheoremViolation":
                message = _message_text(call.args[0]) if call is not None and call.args else ""
                found.append((function, child.lineno, message))
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def package_sites() -> list:
    return [
        (path.stem, function, line, message)
        for path in sorted(PACKAGE.glob("*.py"))
        for function, line, message in raise_sites(path.read_text())
    ]


def unlisted(sites: list, table: list) -> list:
    """The sites that no row of the table names."""
    return [
        site for site in sites
        if not any((row.module, row.function) == site[:2] and row.message in site[3] for row in table)
    ]


def site_line(row: Site) -> int:
    """The line of the one package site a table row names."""
    lines = [
        line for module, function, line, message in package_sites()
        if (module, function) == (row.module, row.function) and row.message in message
    ]
    assert len(lines) == 1, (row.module, row.function, row.message, lines)
    return lines[0]


def lines_run(call) -> set:
    """(file name, line) of every package line that runs during the call."""
    seen = set()
    prefix = os.path.dirname(kellerlab.__file__)

    def local(frame, event, arg):
        if event == "line":
            seen.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        call()
    finally:
        sys.settrace(previous)
    return seen


def test_every_raise_site_is_in_the_table():
    sites = package_sites()
    assert len(sites) == len(SITES)
    assert unlisted(sites, SITES) == []
    for row in SITES:
        site_line(row)


def test_the_scan_sees_every_raise_form():
    source = (
        "from . import errors\n"
        "from .errors import TheoremViolation\n"
        "class A:\n"
        "    def check(self):\n"
        "        def inner():\n"
        "            raise TheoremViolation(f'part {1} failed')\n"
        "        raise errors.TheoremViolation('method failed')\n"
        "def bare():\n"
        "    raise TheoremViolation\n"
        "def other():\n"
        "    raise ValueError('not a site')\n"
    )
    sites = raise_sites(source)
    assert sites == [("inner", 6, "part {} failed"), ("check", 7, "method failed"), ("bare", 9, "")]
    # a site the table does not list is reported
    table = [Site("m", "inner", " failed", None, None), Site("m", "check", "method", None, None)]
    assert unlisted([("m", *site) for site in sites], table) == [("m", "bare", 9, "")]


@pytest.mark.parametrize("row", SITES, ids=site_id)
def test_fault_reaches_its_raise(row, monkeypatch):
    line = site_line(row)
    row.fault(monkeypatch)

    def call():
        with pytest.raises(TheoremViolation, match=re.escape(row.message)):
            row.call()

    source = importlib.import_module(f"kellerlab.{row.module}").__file__
    assert (source, line) in lines_run(call)


@pytest.mark.parametrize("row", [row for row in SITES if row.mapdoc is not None], ids=site_id)
def test_subcommand_exits_3(row, monkeypatch, tmp_path, capsys):
    path = tmp_path / "map.json"
    path.write_text(json.dumps(row.mapdoc))
    row.fault(monkeypatch)
    code = main([row.argv[0], str(path), *row.argv[1:]])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert (payload["error"], payload["exit_code"]) == ("TheoremViolation", 3)
    assert row.message in payload["message"]
