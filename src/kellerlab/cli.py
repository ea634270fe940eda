"""Command-line front end: parse map files, dispatch to the library, emit
deterministic JSON reports.

Exit codes: 0 success, 1 usage or parse errors, 2 violated preconditions,
3 a failed theorem conclusion (an implementation bug; CI-fatal).  Reports go
to stdout, structured errors to stderr; every run with identical inputs
produces byte-identical output (keys sorted, orderings fixed).

Map file schema::

    {"field": "Q" | {"Fp": p}, "nvars": n, "polys": ["expr", ...]}

Matrix files are JSON arrays of arrays of scalar strings ("2", "-1/3").
The environment variable ``KELLERLAB_BUDGET`` overrides the default
collision-search budget.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

from . import __version__
from .errors import (
    KellerlabError,
    ParseError,
    PreconditionError,
    TheoremViolation,
)
from .field_linalg import Field, Matrix, PrimeField, QQ, generalized_vandermonde, parse_scalar
from .mpoly import parse as parse_poly
from .mpoly import render
from .polymap import PolyMap, power_linear
from .inversion import invert_polymap, inverse_degree, is_normalized, normalize_affine
from .reduction import degree_bound_report, kernel_conjugate, pair_reduction
from .collinear import (
    DEFAULT_COLLISION_BUDGET,
    collision_search,
    find_rank_drop,
    line_injectivity,
)


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _field_from_json(spec) -> Field:
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"} and isinstance(spec["Fp"], int):
        try:
            return PrimeField(spec["Fp"])
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"bad field spec {spec!r}: expected \"Q\" or {{\"Fp\": p}}")


def _field_to_json(field: Field):
    if isinstance(field, PrimeField):
        return {"Fp": field.p}
    return "Q"


def _field_from_flag(text: str) -> Field:
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            return PrimeField(int(text[3:]))
        except ValueError as exc:
            raise ParseError(f"bad field flag {text!r}: {exc}") from None
    raise ParseError(f"bad field flag {text!r}: expected 'Q' or 'Fp:<prime>'")


def _load_json(path: str):
    try:
        with open(path, "rb") as handle:
            raw = handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return json.loads(raw), raw
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def load_mapfile(path: str):
    data, raw = _load_json(path)
    if not isinstance(data, dict) or set(data) != {"field", "nvars", "polys"}:
        raise ParseError(f"{path}: map file needs exactly the keys field, nvars, polys")
    field = _field_from_json(data["field"])
    nvars = data["nvars"]
    if not isinstance(nvars, int) or nvars < 0:
        raise ParseError(f"{path}: nvars must be a nonnegative integer")
    polys = data["polys"]
    if not isinstance(polys, list) or not all(isinstance(s, str) for s in polys):
        raise ParseError(f"{path}: polys must be a list of strings")
    components = [parse_poly(text, nvars, field) for text in polys]
    return PolyMap(field, nvars, components), raw


def load_matrixfile(path: str, field: Field) -> Matrix:
    data, _raw = _load_json(path)
    if not isinstance(data, list) or not all(
        isinstance(row, list) and all(isinstance(e, str) for e in row) for row in data
    ):
        raise ParseError(f"{path}: matrix file must be an array of arrays of scalar strings")
    rows = [[parse_scalar(e, field) for e in row] for row in data]
    if not rows:
        raise ParseError(f"{path}: matrix file must have at least one row")
    return Matrix(field, rows)


def _scalars(text: str, field: Field) -> list:
    return [parse_scalar(tok, field) for tok in text.split(",")]


def _ints(text: str) -> list:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise ParseError(f"bad integer list {text!r}") from None


def _render_scalar(field: Field, value) -> str:
    return field.render(value)


def _render_matrix(matrix: Matrix) -> list:
    return [[matrix.field.render(e) for e in row] for row in matrix.rows]


def _normalized_for_reduction(polymap: PolyMap):
    if is_normalized(polymap):
        return polymap, False
    return normalize_affine(polymap).core, True


# ---- subcommand handlers --------------------------------------------------


def _cmd_jacobian(args):
    polymap, raw = load_mapfile(args.mapfile)
    grid = [[render(e) for e in row] for row in polymap.jacobian().grid]
    return {"jacobian": grid, "nvars": polymap.n}, raw


def _cmd_keller(args):
    polymap, raw = load_mapfile(args.mapfile)
    det = polymap.det_jacobian()
    return {"det": render(det), "keller": polymap.is_keller()}, raw


def _cmd_invert(args):
    if args.max_deg is not None and args.max_deg < 1:
        raise _UsageError("--max-deg must be at least 1")
    polymap, raw = load_mapfile(args.mapfile)
    result = invert_polymap(polymap, args.max_deg)
    return {
        "bound_used": result.bound_used,
        "inverse": [render(c) for c in result.inverse.components],
        "inverse_degree": result.inverse_degree,
        "verdict": result.verdict,
    }, raw


def _cmd_inverse_degree(args):
    polymap, raw = load_mapfile(args.mapfile)
    return {"degree": inverse_degree(polymap)}, raw


def _cmd_druzkowski(args):
    if args.deg < 1:
        raise _UsageError("--deg must be at least 1")
    field = _field_from_flag(args.field)
    matrix = load_matrixfile(args.matrix, field)
    polymap = power_linear(matrix, args.deg)
    payload = {
        "field": _field_to_json(field),
        "nvars": polymap.n,
        "polys": [render(c) for c in polymap.components],
    }
    return payload, None


def _cmd_reduce(args):
    polymap, raw = load_mapfile(args.mapfile)
    core, was_normalized = _normalized_for_reduction(polymap)
    reduction = kernel_conjugate(core)
    paired = pair_reduction(core, reduction)
    report = degree_bound_report(core)
    return {
        "T": _render_matrix(reduction.T),
        "Tinv": _render_matrix(reduction.Tinv),
        "conjugated": [render(c) for c in reduction.conjugated.components],
        "normalized_first": was_normalized,
        "paired": [render(c) for c in paired.components],
        "r": reduction.r,
        "report": {
            "actual_inverse_degree": report.actual_inverse_degree,
            "bound": report.bound,
            "char_p_note": report.char_p_note,
            "d": report.d,
            "escalated": report.escalated,
            "gabber_bound": report.gabber_bound,
            "n": report.n,
            "r": report.r,
            "satisfied": report.satisfied,
        },
    }, raw


def _cmd_line_check(args):
    polymap, raw = load_mapfile(args.mapfile)
    point = _scalars(args.point, polymap.field)
    verdict = line_injectivity(polymap, point)
    pair = None
    if verdict.counterexample is not None:
        pair = [_render_scalar(polymap.field, v) for v in verdict.counterexample]
    return {
        "certified": verdict.certified,
        "counterexample": pair,
        "injective": verdict.injective,
    }, raw


def _cmd_rank_drop(args):
    polymap, raw = load_mapfile(args.mapfile)
    field = polymap.field
    direction = _scalars(args.dir, field)
    params = _scalars(args.params, field)
    degrees = _ints(args.degrees) if args.degrees else list(range(len(params) + 1))
    result = find_rank_drop(polymap, direction, params, degrees)
    return {
        "derivative": result.derivative.render(),
        "found": result.found,
        "value": _render_scalar(field, result.value) if result.found else None,
    }, raw


def _cmd_collide(args):
    if args.r < 2:
        raise _UsageError("-r must be at least 2")
    polymap, raw = load_mapfile(args.mapfile)
    field = polymap.field
    budget = args.budget
    if budget is None:
        env = os.environ.get("KELLERLAB_BUDGET")
        if env is not None:
            try:
                budget = int(env)
            except ValueError:
                raise _UsageError(f"KELLERLAB_BUDGET must be an integer, got {env!r}") from None
    witnesses = collision_search(polymap, args.r, budget)
    rendered = []
    for w in witnesses:
        rendered.append(
            {
                "b": [_render_scalar(field, v) for v in w.b],
                "base": [_render_scalar(field, v) for v in w.base],
                "degrees": list(w.degrees),
                "det_jac_nonconstant": w.det_jac_nonconstant,
                "params": [_render_scalar(field, v) for v in w.params],
                "rank_drop_param": (
                    _render_scalar(field, w.rank_drop_param)
                    if w.rank_drop_param is not None
                    else None
                ),
                "vandermonde_rank": w.vandermonde_rank,
            }
        )
    return {"count": len(rendered), "witnesses": rendered}, raw


def _cmd_vandermonde(args):
    field = _field_from_flag(args.field)
    points = _scalars(args.points, field)
    degrees = _ints(args.degrees)
    if any(d < 0 for d in degrees):
        raise ParseError("degrees must be nonnegative")
    matrix = generalized_vandermonde(field, points, degrees)
    return {"matrix": _render_matrix(matrix), "rank": matrix.rank()}, None


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="kellerlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kellerlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        return cmd

    cmd = add("jacobian", _cmd_jacobian, "Jacobian matrix of a map")
    cmd.add_argument("mapfile")

    cmd = add("keller", _cmd_keller, "Jacobian determinant and the Keller condition")
    cmd.add_argument("mapfile")

    cmd = add("invert", _cmd_invert, "bounded polynomial inversion")
    cmd.add_argument("mapfile")
    cmd.add_argument("--max-deg", type=int, default=None, dest="max_deg")

    cmd = add("inverse-degree", _cmd_inverse_degree, "degree of the verified inverse")
    cmd.add_argument("mapfile")

    cmd = add("druzkowski", _cmd_druzkowski, "emit the power-linear map x + (Ax)^{*d}")
    cmd.add_argument("--matrix", required=True)
    cmd.add_argument("--deg", type=int, required=True)
    cmd.add_argument("--field", default="Q", help="Q (default) or Fp:<prime>")

    cmd = add("reduce", _cmd_reduce, "kernel conjugation, paired map, degree bounds")
    cmd.add_argument("mapfile")

    cmd = add("line-check", _cmd_line_check, "injectivity on the line through a point")
    cmd.add_argument("mapfile")
    cmd.add_argument("--point", required=True, help="comma-separated scalars")

    cmd = add("rank-drop", _cmd_rank_drop, "rank-drop parameter along a line")
    cmd.add_argument("mapfile")
    cmd.add_argument("--dir", required=True, help="comma-separated direction vector")
    cmd.add_argument("--params", required=True, help="comma-separated collision parameters")
    cmd.add_argument("--degrees", default=None, help="comma-separated degree list (default 0..r)")

    cmd = add("collide", _cmd_collide, "exhaustive collinear collision search")
    cmd.add_argument("mapfile")
    cmd.add_argument("-r", type=int, required=True)
    cmd.add_argument("--budget", type=int, default=None)

    cmd = add("vandermonde", _cmd_vandermonde, "generalized Vandermonde matrix and rank")
    cmd.add_argument("--points", required=True)
    cmd.add_argument("--degrees", required=True)
    cmd.add_argument("--field", default="Q", help="Q (default) or Fp:<prime>")

    return parser


def _digest(tokens, raw_inputs) -> str:
    hasher = hashlib.sha256()
    for tok in tokens:
        hasher.update(tok.encode())
        hasher.update(b"\x00")
    for raw in raw_inputs:
        if raw is not None:
            hasher.update(raw)
            hasher.update(b"\x00")
    return hasher.hexdigest()


def _emit_error(kind: str, message: str, code: int) -> int:
    print(json.dumps({"error": kind, "exit_code": code, "message": message}, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    tokens = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(tokens)
        payload, raw = args.handler(args)
    except _UsageError as exc:
        return _emit_error("UsageError", str(exc), 1)
    except ParseError as exc:
        return _emit_error(type(exc).__name__, str(exc), 1)
    except TheoremViolation as exc:
        return _emit_error("TheoremViolation", str(exc), 3)
    except PreconditionError as exc:
        return _emit_error(type(exc).__name__, str(exc), 2)
    except KellerlabError as exc:  # pragma: no cover - defensive
        return _emit_error(type(exc).__name__, str(exc), 2)
    if args.command == "druzkowski":
        # the output is itself a loadable map file, so no report envelope
        report = payload
    else:
        report = {"command": args.command, "digest": _digest(tokens, [raw]), **payload}
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
