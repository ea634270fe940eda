"""Import policy: each CLI subcommand loads only the modules it uses, the
package loads its submodules on first attribute access, and nothing imports
``dataclasses``, nor ``hashlib`` where the builtin ``_sha256`` or ``_sha2``
exists, nor ``fractions`` over F_p, nor ``argparse`` for a plain argv.
Module loading is checked in fresh interpreters, since the test process
itself has imported everything."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kellerlab
from kellerlab import (
    AffineNormalization,
    CollisionWitness,
    DegreeBoundReport,
    InverseResult,
    KernelReduction,
    LineData,
    LineInjectivity,
    RankDropResult,
)

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = ("kellerlab.inversion", "kellerlab.reduction", "kellerlab.collinear", "dataclasses")


def fresh_python(code, *args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()[-1]


def modules_after_main(argv, cwd):
    """The exit code of ``main(argv)`` (it exits for ``--version``), the
    modules loaded then, and every name bound in a loaded kellerlab module,
    so a class is seen absent wherever it is defined."""
    code = (
        "import json, sys\n"
        "from kellerlab.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "ours = [vars(m) for name, m in list(sys.modules.items()) if name.split('.')[0] == 'kellerlab']\n"
        "print(json.dumps([code, sorted(sys.modules), sorted({n for names in ours for n in names})]))\n"
    )
    exit_code, modules, names = json.loads(fresh_python(code, *argv, cwd=cwd))
    return exit_code, set(modules), set(names)


@pytest.fixture
def mapfile(tmp_path):
    """A normalized map (identity linear part, no constant term), a map over
    Q with a constant and a non-identity linear part, a cubic over Q, and a
    matrix file for ``druzkowski``, in one directory."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"field": {"Fp": 3}, "nvars": 2, "polys": ["x1 + x2^2", "x2"]}))
    (tmp_path / "affine.json").write_text(
        json.dumps({"field": "Q", "nvars": 2, "polys": ["2*x1 + x2 + x2^2 + 1", "x2 - 3"]})
    )
    (tmp_path / "cubic.json").write_text(json.dumps({"field": "Q", "nvars": 1, "polys": ["x1 + x1^3"]}))
    (tmp_path / "A.json").write_text(json.dumps([["1", "1"], ["-1", "-1"]]))
    return path


@pytest.mark.parametrize(
    "argv, absent",
    [
        (["keller", "map.json"], HEAVY),
        (["jacobian", "map.json"], HEAVY),
        (["vandermonde", "--points", "1,2", "--degrees", "0,1"], HEAVY),
        (["invert", "map.json"], ("kellerlab.collinear", "kellerlab.reduction", "dataclasses")),
        (["collide", "map.json", "-r", "2"], ("kellerlab.inversion", "kellerlab.reduction", "dataclasses")),
        (["line-check", "map.json", "--point", "1,0"], ("kellerlab.inversion", "kellerlab.reduction")),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_subcommand_loads_only_its_modules(mapfile, argv, absent):
    code, loaded, _names = modules_after_main(argv, mapfile.parent)
    assert code == 0
    assert not loaded & set(absent)
    assert "kellerlab.polymap" in loaded


# the digest comes from the builtin _sha256 (_sha2 from Python 3.12) module:
# hashlib loads OpenSSL.  A dense univariate polynomial is built only for a
# rank-drop derivative and the root searches over Q, and no subcommand runs
# the certificate checks.
@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["keller", "map.json"],
        ["jacobian", "map.json"],
        ["invert", "map.json"],
        ["inverse-degree", "map.json"],
        ["reduce", "map.json"],
        ["druzkowski", "--matrix", "A.json", "--deg", "2"],
        ["vandermonde", "--points", "1,2", "--degrees", "0,1"],
        ["collide", "map.json", "-r", "2"],
        pytest.param(["line-check", "map.json", "--point", "1,0"], id="line-check-fp"),
    ],
    ids=lambda argv: argv[0],
)
def test_no_openssl_and_no_univariate_polynomials(mapfile, argv):
    code, loaded, names = modules_after_main(argv, mapfile.parent)
    assert code == 0
    assert not loaded & {"hashlib", "_hashlib", "kellerlab.unipoly", "kellerlab.certificates"}
    assert not names & {"UniPoly", "rational_roots", "verify_coefficient_rank"}


# a recorded call that abbreviates --max-deg: argparse reads it
ABBREVIATED = ["invert", "map.json", "--max", "3"]


def test_every_golden_exit_0_argv_loads_no_argparse(tmp_path):
    """Each recorded call that exits 0 but the abbreviated one, and
    ``--version``, is read without argparse, which loads ``gettext`` and
    ``locale`` with it; all of them run in one fresh interpreter, each in
    its own directory of files."""
    cases = json.loads((Path(__file__).resolve().parent / "cli_expected.json").read_text())
    assert ABBREVIATED in [case["argv"] for case in cases]
    runs = [["--version"]]
    plain = [case for case in cases if case["exit_code"] == 0 and case["argv"] != ABBREVIATED]
    for index, case in enumerate(plain):
        directory = tmp_path / str(index)
        directory.mkdir()
        for name, text in case["files"].items():
            (directory / name).write_text(text)
        runs.append([str(directory), *case["argv"]])
    code = (
        "import contextlib, io, json, os, sys\n"
        "from kellerlab.cli import main\n"
        "codes = []\n"
        "for run in json.loads(sys.argv[1]):\n"
        "    if run != ['--version']:\n"
        "        os.chdir(run.pop(0))\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(main(run))\n"
        "print(json.dumps([codes, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules))]))\n"
    )
    codes, loaded = json.loads(fresh_python(code, json.dumps(runs)))
    assert len(codes) > 40 and set(codes) == {0}
    assert loaded == []


@pytest.mark.parametrize(
    "argv",
    [["collide", "map.json", "-h"], ["no-such-command"], ABBREVIATED],
    ids=["help", "unknown-subcommand", "abbreviation"],
)
def test_help_usage_errors_and_abbreviations_go_through_argparse(mapfile, argv):
    _code, loaded, _names = modules_after_main(argv, mapfile.parent)
    assert "argparse" in loaded


# a polynomial matrix is built only as a Jacobian, and neither inversion,
# the reduction nor the line check needs one: the affine normalization reads
# the linear part off the degree-1 coefficients, and the constant kernel and
# its re-check read single partial derivatives
@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["druzkowski", "--matrix", "A.json", "--deg", "2"],
        ["vandermonde", "--points", "1,2", "--degrees", "0,1"],
        ["invert", "map.json"],
        pytest.param(["invert", "affine.json"], id="invert-affine"),
        pytest.param(["inverse-degree", "affine.json"], id="inverse-degree-affine"),
        ["reduce", "map.json"],
        pytest.param(["reduce", "affine.json"], id="reduce-affine"),
        pytest.param(["line-check", "cubic.json", "--point", "1"], id="line-check-q"),
        pytest.param(["line-check", "map.json", "--point", "1,0"], id="line-check-fp"),
    ],
    ids=lambda argv: argv[0],
)
def test_no_polynomial_matrices(mapfile, argv):
    code, loaded, names = modules_after_main(argv, mapfile.parent)
    assert code == 0
    assert "kellerlab.polymatrix" not in loaded
    assert "PolyMatrix" not in names


# over F_p no rational is built, and ``fractions`` (which loads ``decimal``)
# is imported only where one is
@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["keller", "map.json"],
        ["invert", "map.json"],
        ["collide", "map.json", "-r", "2"],
        ["line-check", "map.json", "--point", "1,0"],
    ],
    ids=lambda argv: argv[0],
)
def test_prime_field_processes_load_no_fractions(mapfile, argv):
    code, loaded, _names = modules_after_main(argv, mapfile.parent)
    assert code == 0
    assert not loaded & {"fractions", "decimal", "_decimal"}


# a dense matrix is built only by the affine normalization, the reduction,
# a polynomial matrix's value at a point, the collinear Vandermonde and
# coefficient-rank checks, and the CLI's matrix file and ``vandermonde``
@pytest.mark.parametrize(
    "argv",
    [
        ["--version"],
        ["keller", "map.json"],
        ["jacobian", "map.json"],
        ["collide", "map.json", "-r", "2"],
        ["line-check", "map.json", "--point", "1,0"],
        pytest.param(["line-check", "cubic.json", "--point", "1"], id="line-check-q"),
        ["invert", "map.json"],
    ],
    ids=lambda argv: argv[0],
)
def test_no_dense_matrices(mapfile, argv):
    code, loaded, names = modules_after_main(argv, mapfile.parent)
    assert code == 0
    assert "kellerlab.field_linalg" not in loaded
    assert "Matrix" not in names


def test_rationals_and_matrices_load_where_they_are_built(mapfile):
    code, loaded, _names = modules_after_main(["invert", "affine.json"], mapfile.parent)
    assert code == 0
    assert {"fractions", "kellerlab.field_linalg"} <= loaded


def test_a_fraction_loaded_after_the_scalars_is_recognised():
    """``PrimeField.coerce`` and ``power_too_long`` look for ``fractions``
    when they run, not when ``scalars`` is imported."""
    code = (
        "import json, sys\n"
        "from kellerlab.scalars import PrimeField, power_too_long\n"
        "assert 'fractions' not in sys.modules\n"
        "from fractions import Fraction\n"
        "limit = sys.get_int_max_str_digits()\n"
        "print(json.dumps([PrimeField(7).coerce(Fraction(1, 3)).v,\n"
        "                  power_too_long(Fraction(1, 10), limit), power_too_long(Fraction(1, 10), limit - 1),\n"
        "                  power_too_long(10, limit)]))\n"
    )
    assert json.loads(fresh_python(code)) == [5, True, False, False]


def test_every_library_module_is_in_the_export_table():
    """Each module file under ``src/kellerlab`` has a row in ``_EXPORTS``,
    and each row names a module file; ``cli`` is the command-line front end,
    not a library module."""
    files = {path.stem for path in (SRC / "kellerlab").glob("*.py")} - {"__init__", "cli"}
    assert files == set(kellerlab._EXPORTS)


def unused_imports(source: str) -> list:
    """The names an import statement in ``source`` binds and the module
    never reads, at module level or in a function (``__future__`` imports
    bind nothing).  A name counts as read where it appears as an
    identifier, so an attribute chain reads its first name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name.partition(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.asname or a.name, node.lineno) for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in bound if name not in read]


@pytest.mark.parametrize("path", sorted((SRC / "kellerlab").glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert unused_imports(path.read_text()) == []


def test_the_unused_import_check_sees_function_level_imports():
    source = (
        "from .scalars import Field, Fp\n"
        "import os.path\n"
        "def f(x: Field):\n"
        "    from fractions import Fraction\n"
        "    return os.sep\n"
    )
    assert unused_imports(source) == [("Fp", 1), ("Fraction", 4)]


def unused_private_definitions(sources: dict) -> list:
    """The private functions, methods and classes (a leading underscore,
    not a dunder) defined in ``sources`` (file name -> text) whose name
    appears nowhere in them outside their own definition: not as an
    identifier, an attribute or an imported name.  Names in strings and
    docstrings do not count."""
    trees = {file: ast.parse(text) for file, text in sources.items()}
    uses = {}
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((file, node.lineno))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((file, node.lineno))
            elif isinstance(node, ast.alias):
                uses.setdefault(node.name, []).append((file, node.lineno))
    unused = []
    for file, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
                continue
            outside = [
                use for use in uses.get(name, [])
                if use[0] != file or not node.lineno <= use[1] <= node.end_lineno
            ]
            if not outside:
                unused.append((file, name, node.lineno))
    return sorted(unused, key=lambda u: (u[0], u[2]))


def test_no_private_definition_is_dead():
    sources = {path.name: path.read_text() for path in sorted((SRC / "kellerlab").glob("*.py"))}
    assert unused_private_definitions(sources) == []


def test_the_dead_private_definition_check():
    sources = {
        "a.py": (
            "def _used_elsewhere(): pass\n"
            "def _dead(): pass\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1)\n"
            "class _Dead:\n"
            "    def __init__(self): pass\n"
            "    def _method(self): pass\n"
            "    def _called(self): pass\n"
            "    def public(self):\n"
            "        return self._called()\n"
            "def _named_in_a_string():\n"
            '    """_named_in_a_string"""\n'
        ),
        "b.py": "from .a import _used_elsewhere\n_used_elsewhere()\n",
    }
    assert unused_private_definitions(sources) == [
        ("a.py", "_dead", 2),
        ("a.py", "_recursive", 3),
        ("a.py", "_Dead", 5),
        ("a.py", "_method", 7),
        ("a.py", "_named_in_a_string", 11),
    ]


def test_reduce_loads_reduction_but_not_collinear(mapfile):
    code, loaded, _names = modules_after_main(["reduce", "map.json"], mapfile.parent)
    assert code == 0
    assert {"kellerlab.inversion", "kellerlab.reduction"} <= loaded
    assert not loaded & {"kellerlab.collinear", "dataclasses"}


def test_bare_package_import_loads_no_submodule():
    code = "import json, sys, kellerlab\nprint(json.dumps(sorted(sys.modules)))\n"
    loaded = set(json.loads(fresh_python(code)))
    assert not {m for m in loaded if m.startswith("kellerlab.")}


def test_star_import_binds_every_public_name():
    code = (
        "import json, kellerlab\n"
        "from kellerlab import *\n"
        "print(json.dumps([n for n in kellerlab.__all__ if n not in globals()]))\n"
    )
    assert json.loads(fresh_python(code)) == []


def test_every_public_name_resolves_and_is_listed_by_dir():
    assert len(kellerlab.__all__) == len(set(kellerlab.__all__))
    for name in kellerlab.__all__:
        assert getattr(kellerlab, name) is not None, name
    assert set(kellerlab.__all__) <= set(dir(kellerlab))
    assert kellerlab.inversion.formal_inverse is kellerlab.formal_inverse
    with pytest.raises(AttributeError):
        kellerlab.no_such_name


def test_handler_names_stay_readable_on_the_cli_module():
    from kellerlab import cli, collinear, inversion, reduction

    handlers = {
        inversion: ("invert_polymap", "inverse_degree", "is_normalized", "normalize_affine"),
        reduction: ("degree_bound_report", "kernel_conjugate", "pair_reduction"),
        collinear: ("collision_search", "find_rank_drop", "line_injectivity"),
    }
    for module, names in handlers.items():
        for name in names:
            assert getattr(cli, name) is getattr(module, name), name


@pytest.mark.parametrize("name", ["__path__", "__all__", "no_such_name"])
def test_cli_module_reads_only_the_package_public_names(name):
    from kellerlab import cli

    with pytest.raises(AttributeError, match=f"^module 'kellerlab.cli' has no attribute '{name}'$"):
        getattr(cli, name)


def test_handlers_run_the_function_now_bound_in_its_module(mapfile, monkeypatch, capsys):
    """The package looks each name up in its module on every use, so a
    function replaced after a first read is the one the CLI runs."""
    from kellerlab import cli, inversion

    assert kellerlab.invert_polymap is inversion.invert_polymap
    calls = []
    original = inversion.invert_polymap
    monkeypatch.setattr(inversion, "invert_polymap", lambda *args: calls.append(args) or original(*args))
    assert cli.main(["invert", str(mapfile)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "PolynomialInverse"
    assert len(calls) == 1


def test_no_module_imports_dataclasses():
    code = (
        "import json, sys\n"
        "import kellerlab.cli\n"
        "from kellerlab import *\n"
        "print(json.dumps('dataclasses' in sys.modules))\n"
    )
    assert json.loads(fresh_python(code)) is False


RESULTS = [
    LineData(b=(1,), base=0, degrees=(0, 1), C=None),
    CollisionWitness(
        b=(1,), base=(0,), params=(0, 1), degrees=(0, 1, 2), vandermonde_rank=2,
        rank_drop_param=None, det_jac_nonconstant=True,
    ),
    RankDropResult(value=None, derivative=None),
    LineInjectivity(injective=True, counterexample=None, certified=True),
    InverseResult(verdict="PolynomialInverse", inverse=None, inverse_degree=2, bound_used=2),
    AffineNormalization(linear=None, constant=(0,), core=None, linear_inverse=None),
    KernelReduction(T=None, Tinv=None, r=1, conjugated=None),
    DegreeBoundReport(
        n=2, d=2, r=1, bound=2, gabber_bound=2, actual_inverse_degree=2,
        satisfied=True, escalated=False, char_p_note=None,
    ),
]


@pytest.mark.parametrize("result", RESULTS, ids=lambda r: type(r).__name__)
def test_result_objects_are_immutable_tuples(result):
    field = result._fields[0]
    with pytest.raises(AttributeError):
        setattr(result, field, 0)
    with pytest.raises(AttributeError):
        result.extra = 0
    assert result == tuple(result)
    assert getattr(result, field) == result[0]
