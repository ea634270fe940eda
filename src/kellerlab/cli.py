"""Command-line front end: parse map files, dispatch to the library, emit
deterministic JSON reports.

Each report is a library result written out: a result type as an object
keyed by its fields, a scalar as its canonical text ("-1/3", or a residue
0..p-1), a polynomial in the map-file grammar, a matrix as nested arrays.

Exit codes: 0 success, 1 usage or parse errors (also a report with a number
too long to convert to text), 2 violated preconditions, 3 a failed theorem
conclusion (an implementation bug; CI-fatal).  Reports go to stdout,
structured errors to stderr; every run with identical inputs produces
byte-identical output (keys sorted, orderings fixed).

Map file schema::

    {"field": "Q" | {"Fp": p}, "nvars": n, "polys": ["expr", ...]}

Matrix files are JSON arrays of arrays of scalar strings ("2", "-1/3").
"""

from __future__ import annotations

import argparse
import json
import sys

import kellerlab

from .errors import KellerlabError, ParseError, TheoremViolation
from .mpoly import MAX_POWER_TERMS, MPoly, power_term_bound, render
from .mpoly import parse as parse_poly
from .polymap import PolyMap, power_linear
from .scalars import Field, Fp, PrimeField, QQ, _loaded, parse_scalar, power_too_long

# Handlers call the library as ``kellerlab.<name>``: the package loads a
# module on first use and looks the name up in it on every call, so a process
# loads only its own subcommand's modules and a wrapper installed on the
# defining module is what runs.  Every public name of the package stays
# readable as an attribute of this module.
def __getattr__(name):
    if name not in kellerlab.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(kellerlab, name)


class _UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _field_from_json(spec) -> Field:
    if spec == "Q":
        return QQ
    if isinstance(spec, dict) and set(spec) == {"Fp"} and type(spec["Fp"]) is int:  # not a bool
        try:
            return PrimeField(spec["Fp"])
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError(f"bad field spec {spec!r}: expected \"Q\" or {{\"Fp\": p}}")


def _int(text: str) -> int:
    """``int(text)`` for ASCII text only: ``int()`` also reads the digits of
    other scripts, "\u0663" as 3.  Refused text raises ValueError, as ``int()``
    does, so each reader below keeps its own error kind."""
    if not text.isascii():
        raise ValueError(f"invalid literal for int(): {text!r}")
    return int(text)


_int.__name__ = "int"  # argparse names the type in "invalid int value: ..."


def _field_from_flag(text: str) -> Field:
    if text == "Q":
        return QQ
    if text.startswith("Fp:"):
        try:
            return PrimeField(_int(text[3:]))
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
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deeply
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def load_mapfile(path: str):
    data, raw = _load_json(path)
    if not isinstance(data, dict) or set(data) != {"field", "nvars", "polys"}:
        raise ParseError(f"{path}: map file needs exactly the keys field, nvars, polys")
    field = _field_from_json(data["field"])
    nvars = data["nvars"]
    if type(nvars) is not int or nvars < 0:  # a JSON true or false is not a count
        raise ParseError(f"{path}: nvars must be a nonnegative integer")
    polys = data["polys"]
    if not isinstance(polys, list) or not all(isinstance(s, str) for s in polys):
        raise ParseError(f"{path}: polys must be a list of strings")
    components = [parse_poly(text, nvars, field) for text in polys]
    return PolyMap(field, nvars, components), raw


def load_matrixfile(path: str, field: Field) -> Matrix:
    from .field_linalg import Matrix

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
        return [_int(tok) for tok in text.split(",")]
    except ValueError:
        raise ParseError(f"bad integer list {text!r}") from None


def _refuse_long_powers(points: list, degrees: list, noun: str) -> None:
    """ParseError when, over Q, some point to the top degree would be too
    long to convert.  Only a positive top degree is checked: a power 0 is
    1, and a negative degree list is refused elsewhere (0^-1 is undefined)."""
    top = max(degrees, default=0)
    if top > 0 and any(power_too_long(x, top) for x in points):
        raise ParseError(f"a {noun} to the power {top} is too long to convert")


def _json(value):
    """The report form of a library value; any type not listed is a
    TypeError.  Residues, plain containers and result types are tested by
    exact type first: they are most of every report.  The other classes
    are recognised without loading their modules."""
    kind = type(value)
    if kind is Fp:
        return str(value)
    if value is None or kind in (bool, int, str):
        return value
    if kind is list or kind is tuple:
        return list(map(_json, value))
    if isinstance(value, tuple) and hasattr(kind, "_fields"):  # a NamedTuple result type
        return dict(zip(value._fields, map(_json, value)))
    if kind is dict:
        return dict(zip(value, map(_json, value.values())))
    if isinstance(value, _loaded("fractions", "Fraction")):
        return str(value)
    if isinstance(value, MPoly):
        return render(value)
    if isinstance(value, PolyMap):
        return [render(c) for c in value.components]
    if isinstance(value, Field):
        return {"Fp": value.p} if isinstance(value, PrimeField) else "Q"
    if isinstance(value, _loaded("kellerlab.field_linalg", "Matrix")):
        return _json(value.rows)
    if isinstance(value, _loaded("kellerlab.polymatrix", "PolyMatrix")):
        return _json(value.grid)
    if isinstance(value, _loaded("kellerlab.unipoly", "UniPoly")):
        return value.render()
    raise TypeError(f"no report form for a {kind.__name__}")


# ---- subcommand handlers --------------------------------------------------


def _cmd_jacobian(args):
    polymap, raw = load_mapfile(args.mapfile)
    return {"jacobian": polymap.jacobian(), "nvars": polymap.n}, raw


def _cmd_keller(args):
    polymap, raw = load_mapfile(args.mapfile)
    det = polymap.det_jacobian()
    return {"det": det, "keller": not det.is_zero() and det.is_constant()}, raw


def _cmd_invert(args):
    if args.max_deg is not None and args.max_deg < 1:
        raise _UsageError("--max-deg must be at least 1")
    polymap, raw = load_mapfile(args.mapfile)
    return kellerlab.invert_polymap(polymap, args.max_deg), raw


def _cmd_inverse_degree(args):
    polymap, raw = load_mapfile(args.mapfile)
    return {"degree": kellerlab.inverse_degree(polymap)}, raw


def _cmd_druzkowski(args):
    if args.deg < 1:
        raise _UsageError("--deg must be at least 1")
    field = _field_from_flag(args.field)
    matrix = load_matrixfile(args.matrix, field)
    # each component is the power of a row form: degree 1, a term per nonzero entry
    bound = max(power_term_bound(matrix.ncols, 1, sum(map(bool, row)), args.deg) for row in matrix.rows)
    if bound > MAX_POWER_TERMS:
        raise ParseError(f"power may expand to {bound} terms, more than {MAX_POWER_TERMS}")
    polymap = power_linear(matrix, args.deg)
    return {"field": field, "nvars": polymap.n, "polys": polymap}, None


def _cmd_reduce(args):
    polymap, raw = load_mapfile(args.mapfile)
    normalized_first = not kellerlab.is_normalized(polymap)
    core = kellerlab.normalize_affine(polymap).core if normalized_first else polymap
    reduction = kellerlab.kernel_conjugate(core)
    paired = kellerlab.pair_reduction(core, reduction)
    report = kellerlab.degree_bound_report(reduction)
    return {**reduction._asdict(), "normalized_first": normalized_first, "paired": paired, "report": report}, raw


def _cmd_line_check(args):
    polymap, raw = load_mapfile(args.mapfile)
    point = _scalars(args.point, polymap.field)
    return kellerlab.line_injectivity(polymap, point), raw


def _cmd_rank_drop(args):
    polymap, raw = load_mapfile(args.mapfile)
    direction = _scalars(args.dir, polymap.field)
    params = _scalars(args.params, polymap.field)
    degrees = list(range(len(params) + 1)) if args.degrees is None else _ints(args.degrees)
    # the Vandermonde check raises the params to the first len(params) degrees
    _refuse_long_powers(params, degrees[: len(params)], "parameter")
    result = kellerlab.find_rank_drop(polymap, direction, params, degrees)
    return {**result._asdict(), "found": result.found}, raw


def _cmd_collide(args):
    if args.r < 2:
        raise _UsageError("-r must be at least 2")
    polymap, raw = load_mapfile(args.mapfile)
    witnesses = kellerlab.collision_search(polymap, args.r, args.budget)
    return {"count": len(witnesses), "witnesses": witnesses}, raw


def _cmd_vandermonde(args):
    field = _field_from_flag(args.field)
    points = _scalars(args.points, field)
    degrees = _ints(args.degrees)
    if any(d < 0 for d in degrees):
        raise ParseError("degrees must be nonnegative")
    _refuse_long_powers(points, degrees, "point")
    from .field_linalg import generalized_vandermonde

    matrix = generalized_vandermonde(field, points, degrees)
    return {"matrix": matrix, "rank": matrix.rank()}, None


def _arg(*names, **options):
    """One ``add_argument`` call, as a row of ``_COMMANDS``."""
    return names, options


_MAPFILE = _arg("mapfile")
_FIELD = _arg("--field", default="Q", help="Q (default) or Fp:<prime>")

# subcommand -> handler, help text, arguments
_COMMANDS = {
    "jacobian": (_cmd_jacobian, "Jacobian matrix of a map", [_MAPFILE]),
    "keller": (_cmd_keller, "Jacobian determinant and the Keller condition", [_MAPFILE]),
    "invert": (
        _cmd_invert,
        "bounded polynomial inversion",
        [_MAPFILE, _arg("--max-deg", type=_int, default=None, dest="max_deg")],
    ),
    "inverse-degree": (_cmd_inverse_degree, "degree of the verified inverse", [_MAPFILE]),
    "druzkowski": (
        _cmd_druzkowski,
        "emit the power-linear map x + (Ax)^{*d}",
        [_arg("--matrix", required=True), _arg("--deg", type=_int, required=True), _FIELD],
    ),
    "reduce": (_cmd_reduce, "kernel conjugation, paired map, degree bounds", [_MAPFILE]),
    "line-check": (
        _cmd_line_check,
        "injectivity on the line through a point",
        [_MAPFILE, _arg("--point", required=True, help="comma-separated scalars")],
    ),
    "rank-drop": (
        _cmd_rank_drop,
        "rank-drop parameter along a line",
        [
            _MAPFILE,
            _arg("--dir", required=True, help="comma-separated direction vector"),
            _arg("--params", required=True, help="comma-separated collision parameters"),
            _arg("--degrees", default=None, help="comma-separated degree list (default 0..r)"),
        ],
    ),
    "collide": (
        _cmd_collide,
        "exhaustive collinear collision search",
        [_MAPFILE, _arg("-r", type=_int, required=True), _arg("--budget", type=_int, default=None)],
    ),
    "vandermonde": (
        _cmd_vandermonde,
        "generalized Vandermonde matrix and rank",
        [_arg("--points", required=True), _arg("--degrees", required=True), _FIELD],
    ),
}


def build_parser(argv=()) -> _ArgumentParser:
    """The parser for ``argv``: with only the subparser that ``argv[0]``
    names, or with all ten when it names none, for ``--help``,
    ``--version`` and the error that lists the subcommands."""
    parser = _ArgumentParser(prog="kellerlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"kellerlab {kellerlab.__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    for name in names:
        handler, help_text, arguments = _COMMANDS[name]
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(handler=handler)
        for flags, options in arguments:
            cmd.add_argument(*flags, **options)
    return parser


def _digest(tokens, raw_inputs) -> str:
    try:  # the builtin module: hashlib would load OpenSSL
        from _sha256 import sha256
    except ImportError:  # renamed in Python 3.12
        from hashlib import sha256
    hasher = sha256()
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
    parser = build_parser(tokens)
    try:
        args = parser.parse_args(tokens)
        payload, raw = args.handler(args)
    except _UsageError as exc:
        return _emit_error("UsageError", str(exc), 1)
    except KellerlabError as exc:
        code = 1 if isinstance(exc, ParseError) else 3 if isinstance(exc, TheoremViolation) else 2
        return _emit_error(type(exc).__name__, str(exc), code)
    try:
        report = _json(payload)
        if args.command != "druzkowski":  # its output is a loadable map file: no envelope
            report = {"command": args.command, "digest": _digest(tokens, [raw]), **report}
        text = json.dumps(report, sort_keys=True)
    except ValueError as exc:  # only the interpreter's int-to-text limit
        if "integer string conversion" not in str(exc):
            raise
        return _emit_error("ParseError", "the report has a number too long to convert", 1)
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
