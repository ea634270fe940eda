import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kellerlab import (
    CollisionWitness,
    DegreeBoundReport,
    Fp,
    InverseResult,
    KernelReduction,
    LineInjectivity,
    Matrix,
    PolyMap,
    PrimeField,
    QQ,
    RankDropResult,
    UniPoly,
    parse,
)
from kellerlab import cli
from kellerlab.cli import _digest, _json, main
from kellerlab.errors import KellerlabError, ParseError, PreconditionError, TheoremViolation
from kellerlab.mpoly import MAX_NESTING, MAX_POWER_TERMS
from kellerlab.polymatrix import PolyMatrix

from conftest import doubled_inverse


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


F5 = PrimeField(5)
QUADRATIC_3VAR = {"field": "Q", "nvars": 3, "polys": ["x1 + x2*x3", "x2 - x1*x3", "x3"]}
ZERO_MAP_F2 = {"field": {"Fp": 2}, "nvars": 1, "polys": ["x1 - x1^2"]}


class TestKellerCommand:
    def test_nonconstant_determinant(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", QUADRATIC_3VAR)
        code, out, err = run(capsys, ["keller", path])
        assert code == 0 and err == ""
        report = json.loads(out)
        assert report["command"] == "keller"
        assert report["det"] == "x3^2 + 1"
        assert report["keller"] is False

    def test_char_2_unit_determinant(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", ZERO_MAP_F2)
        code, out, _ = run(capsys, ["keller", path])
        assert code == 0
        report = json.loads(out)
        assert report["keller"] is True and report["det"] == "1"

    def test_computes_the_determinant_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        det = PolyMatrix.det
        monkeypatch.setattr(PolyMatrix, "det", lambda self: calls.append(self) or det(self))
        path = write(tmp_path, "map.json", QUADRATIC_3VAR)
        code, out, _ = run(capsys, ["keller", path])
        assert code == 0 and json.loads(out)["keller"] is False
        assert len(calls) == 1

    def test_output_is_byte_deterministic(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", QUADRATIC_3VAR)
        _, first, _ = run(capsys, ["keller", path])
        _, second, _ = run(capsys, ["keller", path])
        assert first == second


class TestInversionCommands:
    def test_invert_shear(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 2, "polys": ["x1", "x2 + x1^2"]})
        code, out, _ = run(capsys, ["invert", path])
        report = json.loads(out)
        assert code == 0
        assert report["verdict"] == "PolynomialInverse"
        assert report["inverse"] == ["x1", "-1*x1^2 + x2"]
        assert report["inverse_degree"] == 2

    def test_invert_cubic_not_polynomial(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": ["x1 + x1^3"]})
        code, out, _ = run(capsys, ["invert", path])
        report = json.loads(out)
        assert code == 0
        assert report["verdict"] == "NotPolynomialUpToBound"
        assert report["inverse_degree"] is None
        assert report["bound_used"] == 1

    def test_druzkowski_pipes_into_inverse_degree(self, tmp_path, capsys):
        matrix = tmp_path / "A.json"
        matrix.write_text(json.dumps([["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"]]))
        code, out, _ = run(capsys, ["druzkowski", "--matrix", str(matrix), "--deg", "2"])
        assert code == 0
        emitted = json.loads(out)
        assert emitted == {"field": "Q", "nvars": 3, "polys": ["x1", "x1^2 + x2", "x2^2 + x3"]}
        mapfile = tmp_path / "pl.json"
        mapfile.write_text(out)
        code, out, _ = run(capsys, ["inverse-degree", str(mapfile)])
        assert code == 0
        assert json.loads(out)["degree"] == 4

    def test_inverse_degree_failure_is_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": ["x1 + x1^3"]})
        code, out, err = run(capsys, ["inverse-degree", path])
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["error"] == "NotInvertibleUpToBound"
        assert payload["exit_code"] == 2


class TestReduceCommand:
    def test_reduce_report(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "map.json",
            {"field": "Q", "nvars": 3, "polys": ["x1", "x2 + x1^2", "x3 + x1*x2"]},
        )
        code, out, _ = run(capsys, ["reduce", path])
        assert code == 0
        report = json.loads(out)
        assert report["r"] == 2
        assert report["report"]["bound"] == 4
        assert report["report"]["actual_inverse_degree"] == 3
        assert report["report"]["satisfied"] is True
        assert report["report"]["escalated"] is False


class TestLineCheckCommand:
    def test_zero_map_counterexample(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", ZERO_MAP_F2)
        code, out, _ = run(capsys, ["line-check", path, "--point", "1"])
        assert code == 0
        report = json.loads(out)
        assert report["injective"] is False
        assert report["counterexample"] == ["0", "1"]
        assert report["certified"] is True

    def test_rational_flagged_verdict(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": ["x1 + x1^3"]})
        code, out, _ = run(capsys, ["line-check", path, "--point", "1"])
        report = json.loads(out)
        assert report["injective"] is True
        assert report["certified"] is False

    def test_rational_point_flag(self, tmp_path, capsys):
        path = write(
            tmp_path, "map.json", {"field": "Q", "nvars": 2, "polys": ["x1", "x2 + x1^2"]}
        )
        code, out, _ = run(capsys, ["line-check", path, "--point", "1/2,-3"])
        assert code == 0
        assert json.loads(out)["injective"] is True


class TestRankDropCommand:
    def test_f5_witness(self, tmp_path, capsys):
        path = write(
            tmp_path, "map.json", {"field": {"Fp": 5}, "nvars": 2, "polys": ["x1^2", "x2"]}
        )
        code, out, _ = run(
            capsys,
            ["rank-drop", path, "--dir", "1,0", "--params", "1,4", "--degrees", "0,1,2"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["found"] is True and report["value"] == "0"
        assert report["derivative"] == "2*t"

    def test_precondition_failure_is_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": ["x1^2"]})
        code, _, err = run(capsys, ["rank-drop", path, "--dir", "1", "--params", "0,1"])
        assert code == 2
        assert json.loads(err)["error"] == "PreconditionFailed"

    # one input per hypothesis, in the order they are checked
    SQUARE_F5 = {"field": {"Fp": 5}, "nvars": 2, "polys": ["x1^2", "x2"]}

    @pytest.mark.parametrize(
        "payload, flags, line",
        [
            (
                SQUARE_F5,
                ["--dir", "0,0", "--params", "1,4", "--degrees", "0,1,2"],
                '{"error": "ZeroDirection", "exit_code": 2, "message": '
                '"the line direction must be nonzero"}',
            ),
            (
                SQUARE_F5,
                ["--dir", "1,0", "--params", "1,4", "--degrees", "0,1"],
                '{"error": "PreconditionFailed", "exit_code": 2, "message": '
                '"degree list has length 2, expected r + 1 = 3"}',
            ),
            (
                SQUARE_F5,
                ["--dir", "1,0", "--params", "1,4", "--degrees", "0,2,1"],
                '{"error": "PreconditionFailed", "exit_code": 2, "message": '
                '"the degree list must be strictly increasing"}',
            ),
            (
                {"field": "Q", "nvars": 1, "polys": ["x1^2"]},
                ["--dir=1", "--params=0,0", "--degrees=-1,0,2"],
                '{"error": "PreconditionFailed", "exit_code": 2, "message": '
                '"the degree list must be nonnegative"}',
            ),
            (
                SQUARE_F5,
                ["--dir", "1,0", "--params", "1,4", "--degrees", "1,2,3"],
                '{"error": "PreconditionFailed", "exit_code": 2, "message": '
                '"the degree list must contain 0"}',
            ),
            (
                {"field": "Q", "nvars": 1, "polys": ["x1^4 - x1"]},
                ["--dir", "1", "--params", "0,1", "--degrees", "0,1,3"],
                '{"error": "PreconditionFailed", "exit_code": 2, "message": '
                '"map has term degrees [1, 4] outside the list (0, 1, 3)"}',
            ),
            (
                {"field": "Q", "nvars": 1, "polys": ["x1^2"]},
                ["--dir", "1", "--params", "0,1"],
                '{"error": "PreconditionFailed", "exit_code": 2, "message": '
                '"the map takes different values at the given points"}',
            ),
            (
                {"field": {"Fp": 3}, "nvars": 1, "polys": ["x1 - x1^3"]},
                ["--dir", "1", "--params", "0,1,2", "--degrees", "0,1,3,4"],
                '{"error": "PreconditionFailed", "exit_code": 2, "message": '
                '"the generalized Vandermonde matrix does not have full rank"}',
            ),
        ],
        ids=["zero-direction", "length", "increasing", "nonnegative", "contains-0", "support", "values", "vandermonde"],
    )
    def test_failed_hypothesis_error_line(self, tmp_path, capsys, payload, flags, line):
        path = write(tmp_path, "map.json", payload)
        code, out, err = run(capsys, ["rank-drop", path, *flags])
        assert (code, out, err) == (2, "", line + "\n")


class TestCollideCommand:
    def test_zero_map_witness(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", ZERO_MAP_F2)
        code, out, _ = run(capsys, ["collide", path, "-r", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 1
        witness = report["witnesses"][0]
        assert witness["params"] == ["0", "1"]
        assert witness["det_jac_nonconstant"] is False
        assert witness["vandermonde_rank"] == 2

    def test_budget_flag(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", ZERO_MAP_F2)
        code, _, err = run(capsys, ["collide", path, "-r", "2", "--budget", "1"])
        assert code == 2
        assert json.loads(err)["error"] == "BudgetExceeded"


class TestVandermondeCommand:
    def test_f5_matrix(self, capsys):
        code, out, _ = run(
            capsys,
            ["vandermonde", "--points", "1,4", "--degrees", "0,1", "--field", "Fp:5"],
        )
        assert code == 0
        report = json.loads(out)
        assert report["matrix"] == [["1", "1"], ["1", "4"]]
        assert report["rank"] == 2

    def test_rational_points(self, capsys):
        code, out, _ = run(capsys, ["vandermonde", "--points", "1/2,0,3", "--degrees", "0,1"])
        assert code == 0
        assert json.loads(out)["matrix"] == [["1", "1", "1"], ["1/2", "0", "3"]]


class TestErrorPaths:
    def test_unparsable_expression_is_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": ["x1 + + 1"]})
        code, _, err = run(capsys, ["keller", path])
        assert code == 1
        assert json.loads(err)["error"] == "ParseError"

    def test_bad_schema_is_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", {"field": "Q", "polys": []})
        code, _, err = run(capsys, ["keller", path])
        assert code == 1

    def test_missing_file_is_exit_1(self, capsys):
        code, _, err = run(capsys, ["keller", "/nonexistent/map.json"])
        assert code == 1

    def test_bad_field_spec_is_exit_1(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", {"field": {"Fp": 6}, "nvars": 1, "polys": ["x1"]})
        code, _, err = run(capsys, ["keller", path])
        assert code == 1
        assert "prime" in json.loads(err)["message"]

    # json reads true and false as bools, and a bool is an int to isinstance
    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"field": "Q", "nvars": True, "polys": ["x1"]}, "nvars must be a nonnegative integer"),
            ({"field": "Q", "nvars": False, "polys": []}, "nvars must be a nonnegative integer"),
            ({"field": {"Fp": True}, "nvars": 1, "polys": ["x1"]}, "bad field spec {'Fp': True}"),
            ({"field": {"Fp": False}, "nvars": 1, "polys": ["x1"]}, "bad field spec {'Fp': False}"),
        ],
        ids=["nvars-true", "nvars-false", "fp-true", "fp-false"],
    )
    def test_json_booleans_are_not_integers(self, tmp_path, capsys, payload, message):
        path = write(tmp_path, "map.json", payload)
        code, out, err = run(capsys, ["keller", path])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        report = json.loads(err)
        assert report["error"] == "ParseError" and message in report["message"]

    def test_modulus_too_large_to_certify_is_exit_1(self, capsys):
        argv = ["vandermonde", "--points", "1", "--degrees", "0", "--field", f"Fp:{2**89 - 1}"]
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ParseError"

    def test_usage_error_is_exit_1(self, capsys):
        code, _, err = run(capsys, ["no-such-command"])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["collide", "MAP", "-r", "1"],
            ["invert", "MAP", "--max-deg", "0"],
            ["druzkowski", "--matrix", "A", "--deg", "0"],
        ],
        ids=["collide-r", "invert-max-deg", "druzkowski-deg"],
    )
    def test_out_of_range_flag_is_usage_error(self, tmp_path, capsys, argv):
        files = {"MAP": write(tmp_path, "map.json", ZERO_MAP_F2), "A": write(tmp_path, "A.json", [["0"]])}
        code, out, err = run(capsys, [files.get(tok, tok) for tok in argv])
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "UsageError"
        assert argv[-2] in payload["message"]

    @pytest.mark.parametrize(
        "text",
        ["(" * 3000 + "x1" + ")" * 3000, "-" * 3000 + "x1", "(" * (MAX_NESTING + 1) + "x1" + ")" * (MAX_NESTING + 1)],
        ids=["parentheses", "unary-minus", "one-past-the-limit"],
    )
    def test_deep_nesting_is_parse_error(self, tmp_path, capsys, text):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": [text]})
        code, out, err = run(capsys, ["keller", path])
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ParseError"
        assert str(MAX_NESTING) in payload["message"]

    def test_nesting_at_the_limit_parses(self, tmp_path, capsys):
        text = "(" * MAX_NESTING + "x1" + ")" * MAX_NESTING
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": [text]})
        code, out, _ = run(capsys, ["keller", path])
        assert code == 0 and json.loads(out)["det"] == "1"

    def test_unbounded_power_is_parse_error(self, tmp_path, capsys):
        polys = ["(x1+x2+x3+x4+1)^40", "x2", "x3", "x4"]
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 4, "polys": polys})
        code, out, err = run(capsys, ["keller", path])
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "ParseError"
        assert str(MAX_POWER_TERMS) in payload["message"]

    def test_unbounded_product_is_parse_error(self, tmp_path, capsys):
        # each factor has C(23, 4) = 8855 terms, their product up to C(42, 4)
        factor = "(x1+x2+x3+x4+1)^19"
        polys = [f"{factor}*{factor}", "x2", "x3", "x4"]
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 4, "polys": polys})
        code, out, err = run(capsys, ["jacobian", path])
        assert (code, out) == (1, "")
        assert err == (
            '{"error": "ParseError", "exit_code": 1, "message": "product may expand to '
            f'111930 terms, more than {MAX_POWER_TERMS} (at position 19)"}}\n'
        )

    def test_product_within_the_term_bound_parses(self, tmp_path, capsys):
        # bounded by C(22, 4) = 7315 terms
        factor = "(x1+x2+x3+x4+1)^9"
        polys = [f"{factor}*{factor}", "x2", "x3", "x4"]
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 4, "polys": polys})
        code, out, _ = run(capsys, ["keller", path])
        assert code == 0 and json.loads(out)["keller"] is False

    # digits are ASCII 0-9 only, and a literal longer than CPython's default
    # int conversion limit of 4300 digits is a parse error, not a traceback
    @pytest.mark.parametrize(
        "text,message",
        [
            ("x1 + \u00b2", "expected a number, variable, '(' or '-' (at position 6)"),
            ("x\u00b9", "expected a variable index after 'x' (at position 2)"),
            ("x1 + \u0663", "expected a number, variable, '(' or '-' (at position 6)"),
            ("x1 + " + "7" * 5000, "integer literal of 5000 digits is too long to convert (at position 6)"),
            ("x1^" + "2" * 5000, "integer literal of 5000 digits is too long to convert (at position 4)"),
        ],
        ids=["superscript-two", "superscript-index", "arabic-indic-three", "long-literal", "long-exponent"],
    )
    def test_bad_digits_in_a_map_are_parse_errors(self, tmp_path, capsys, text, message):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": [text]})
        code, out, err = run(capsys, ["keller", path])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "ParseError", "exit_code": 1, "message": message}

    @pytest.mark.parametrize(
        "point,message",
        [
            ("\u00b2", "bad scalar literal '\u00b2'"),
            ("\u0663", "bad scalar literal '\u0663'"),
            ("7" * 5000, "bad scalar literal: 5000 digits are too long to convert"),
            ("1/" + "7" * 5000, "bad scalar literal: 5000 digits are too long to convert"),
        ],
        ids=["superscript-two", "arabic-indic-three", "long-literal", "long-denominator"],
    )
    def test_bad_digits_in_a_point_are_parse_errors(self, tmp_path, capsys, point, message):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": ["x1^2"]})
        code, out, err = run(capsys, ["line-check", path, f"--point={point}"])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "ParseError", "exit_code": 1, "message": message}

    def test_literals_at_the_digit_limit_parse(self, tmp_path, capsys):
        literal = "7" * 4300
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": [f"x1 + {literal}"]})
        code, out, _ = run(capsys, ["keller", path])
        assert code == 0 and json.loads(out)["det"] == "1"
        code, out, _ = run(capsys, ["line-check", path, f"--point={literal}"])
        assert code == 0 and json.loads(out)["injective"] is True

    # int() alone reads the digits of other scripts: "\u0662" as 2
    @pytest.mark.parametrize(
        "argv,kind",
        [
            (["rank-drop", "MAP", "--dir=1", "--params=1,-1", "--degrees=\u0660,\u0661,\u0662"], "ParseError"),
            (["vandermonde", "--points=1", "--degrees=\u0660"], "ParseError"),
            (["vandermonde", "--points=1", "--degrees=0", "--field=Fp:\u0667"], "ParseError"),
            (["druzkowski", "--matrix", "A", "--deg", "2", "--field=Fp:\u0667"], "ParseError"),
            (["collide", "MAP", "-r", "\u0662"], "UsageError"),
            (["collide", "MAP", "-r", "2", "--budget", "\u0661\u0660"], "UsageError"),
            (["invert", "MAP", "--max-deg", "\u0663"], "UsageError"),
            (["druzkowski", "--matrix", "A", "--deg", "\u0662"], "UsageError"),
        ],
        ids=["rank-drop-degrees", "vandermonde-degrees", "vandermonde-field", "druzkowski-field",
             "collide-r", "collide-budget", "invert-max-deg", "druzkowski-deg"],
    )
    def test_non_ascii_integers_are_refused(self, tmp_path, capsys, argv, kind):
        files = {"MAP": write(tmp_path, "map.json", ZERO_MAP_F2), "A": write(tmp_path, "A.json", [["0"]])}
        code, out, err = run(capsys, [files.get(tok, tok) for tok in argv])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == kind

    # over Q a power of a constant, and a vandermonde entry, is refused when
    # its numerator or denominator would pass CPython's default int
    # conversion limit of 4300 digits: 3^9012 and 2^14284 have 4300 digits
    @pytest.mark.parametrize(
        "command,text",
        [("keller", "x1 + 3^10000000"), ("jacobian", "3^10000*x1"), ("keller", "x1 + (1/2)^14285")],
        ids=["huge-exponent", "jacobian-coefficient", "denominator"],
    )
    def test_long_constant_powers_are_parse_errors(self, tmp_path, capsys, command, text):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": [text]})
        code, out, err = run(capsys, [command, path])
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ParseError"
        assert payload["message"].startswith("constant power is too long to convert (at position")

    def test_constant_powers_within_the_limit_parse(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": ["x1 + 3^9012 - (1/2)^14284"]})
        code, out, _ = run(capsys, ["keller", path])
        assert code == 0 and json.loads(out)["det"] == "1"
        path = write(tmp_path, "map.json", {"field": {"Fp": 7}, "nvars": 1, "polys": ["3^10000000*x1"]})
        code, out, _ = run(capsys, ["jacobian", path])
        assert code == 0 and json.loads(out)["jacobian"] == [["4"]]  # 3^(10^7 mod 6) = 3^4

    def test_long_vandermonde_entries_are_parse_errors(self, capsys):
        code, out, err = run(capsys, ["vandermonde", "--points=1,2", "--degrees=0,20000"])
        assert (code, out) == (1, "")
        assert json.loads(err) == {
            "error": "ParseError",
            "exit_code": 1,
            "message": "a point to the power 20000 is too long to convert",
        }
        code, out, _ = run(capsys, ["vandermonde", "--points=1/2", "--degrees=14284"])
        assert code == 0 and json.loads(out)["rank"] == 1
        code, out, _ = run(capsys, ["vandermonde", "--points=2", "--degrees=20000", "--field=Fp:7"])
        assert code == 0 and json.loads(out)["matrix"] == [["4"]]  # 2^(20000 mod 3) = 2^2

    # both scans test at most DEFAULT_COLLISION_BUDGET values, made small
    # here: the prime fields are the large ones on which they ran unbounded
    @pytest.mark.parametrize(
        "field,poly,argv",
        [
            (1_000_000_007, "x1", ["line-check", "MAP", "--point=1"]),
            (1_000_000_097, "x1^3 - x1", ["rank-drop", "MAP", "--dir=1", "--params=1,-1", "--degrees=0,1,3"]),
        ],
        ids=["line-check", "rank-drop"],
    )
    def test_prime_field_scans_are_bounded(self, tmp_path, capsys, monkeypatch, field, poly, argv):
        import kellerlab.collinear as collinear

        monkeypatch.setattr(collinear, "DEFAULT_COLLISION_BUDGET", 1000)
        path = write(tmp_path, "map.json", {"field": {"Fp": field}, "nvars": 1, "polys": [poly]})
        code, out, err = run(capsys, [path if tok == "MAP" else tok for tok in argv])
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "BudgetExceeded",
            "exit_code": 2,
            "message": f"search requires {field} point evaluations, budget is 1000",
        }

    @pytest.mark.parametrize(
        "raw", [b"[" * 100_000, b"\xff\xfe{}", b'{"field": "\xc3"}'], ids=["deep-json", "bad-utf8", "bad-utf8-in-string"]
    )
    def test_unreadable_json_is_parse_error(self, tmp_path, capsys, raw):
        path = tmp_path / "map.json"
        path.write_bytes(raw)
        code, out, err = run(capsys, ["keller", str(path)])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "ParseError"

    def test_precondition_is_exit_2(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 2, "polys": ["x1"]})
        code, _, err = run(capsys, ["keller", path])
        assert code == 2
        assert json.loads(err)["error"] == "NonSquare"

    def test_theorem_violation_is_exit_3(self, capsys, monkeypatch):
        # no honest input can trigger a violation, so fault-inject one to pin
        # the exit-code contract
        import kellerlab.cli as cli_module

        def explode(path):
            raise TheoremViolation("injected")

        monkeypatch.setattr(cli_module, "load_mapfile", explode)
        code, _, err = run(capsys, ["keller", "whatever"])
        assert code == 3
        payload = json.loads(err)
        assert payload["error"] == "TheoremViolation"
        assert payload["exit_code"] == 3

    class Refused(PreconditionError):
        pass

    class Unreadable(ParseError):
        pass

    @pytest.mark.parametrize(
        "error, code",
        [(KellerlabError, 2), (Refused, 2), (Unreadable, 1)],
        ids=lambda v: getattr(v, "__name__", None),
    )
    def test_every_library_error_maps_to_its_exit_code(self, tmp_path, capsys, monkeypatch, error, code):
        # a ParseError is exit 1, a TheoremViolation 3, and any other library
        # error 2, reported under its own class name
        import kellerlab.inversion as inversion_module

        def refuse(polymap, max_deg=None):
            raise error("injected")

        monkeypatch.setattr(inversion_module, "invert_polymap", refuse)
        path = write(tmp_path, "map.json", {"field": "Q", "nvars": 1, "polys": ["x1"]})
        assert run(capsys, ["invert", path]) == (
            code,
            "",
            json.dumps({"error": error.__name__, "exit_code": code, "message": "injected"}) + "\n",
        )

    @pytest.mark.parametrize("site", ["reconstruct", "recomposed"])
    def test_failed_inversion_check_is_exit_3(self, tmp_path, capsys, monkeypatch, site):
        import kellerlab.inversion as inversion_module

        if site == "reconstruct":
            monkeypatch.setattr(Matrix, "inverse", doubled_inverse(Matrix.inverse))
        else:
            monkeypatch.setattr(inversion_module, "verify_inverse", lambda *maps: False)
        affine = {"field": "Q", "nvars": 2, "polys": ["2*x1 + 1", "x2 + x1^2"]}
        path = write(tmp_path, "map.json", affine)
        code, out, err = run(capsys, ["invert", path])
        assert code == 3 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        payload = json.loads(lines[0])
        assert payload["error"] == "TheoremViolation"
        assert payload["exit_code"] == 3
        assert site in payload["message"]


class TestReportConverter:
    """``cli._json`` is the one place a library value becomes report text."""

    Q_MAP = PolyMap(QQ, 2, [parse("x1 - 1/2*x2^2", 2, QQ), parse("x2", 2, QQ)])
    F5_MAP = PolyMap(F5, 1, [parse("3*x1^2 + x1", 1, F5)])

    @pytest.mark.parametrize(
        "value, expected",
        [
            (InverseResult("PolynomialInverse", Q_MAP, 2, 4),
             {"verdict": "PolynomialInverse", "inverse": ["-1/2*x2^2 + x1", "x2"], "inverse_degree": 2,
              "bound_used": 4}),
            (LineInjectivity(False, (Fp(0, 5), Fp(3, 5)), True),
             {"injective": False, "counterexample": ["0", "3"], "certified": True}),
            (RankDropResult(None, UniPoly(QQ, [Fraction(-1, 3), 0, 2])),
             {"value": None, "derivative": "2*t^2 - 1/3"}),
            (CollisionWitness((Fp(1, 5),), (Fp(4, 5),), (Fp(0, 5), Fp(2, 5)), (0, 1, 2), 2, None, True),
             {"b": ["1"], "base": ["4"], "params": ["0", "2"], "degrees": [0, 1, 2], "vandermonde_rank": 2,
              "rank_drop_param": None, "det_jac_nonconstant": True}),
            (KernelReduction(Matrix(QQ, [[0, 1], [1, Fraction(1, 2)]]), Matrix.identity(QQ, 2), 1, F5_MAP),
             {"T": [["0", "1"], ["1", "1/2"]], "Tinv": [["1", "0"], ["0", "1"]], "r": 1,
              "conjugated": ["3*x1^2 + x1"]}),
            (DegreeBoundReport(3, 2, 1, 2, 4, 2, True, False, None),
             {"n": 3, "d": 2, "r": 1, "bound": 2, "gabber_bound": 4, "actual_inverse_degree": 2,
              "satisfied": True, "escalated": False, "char_p_note": None}),
        ],
        ids=lambda v: type(v).__name__ if hasattr(v, "_fields") else None,
    )
    def test_result_types_become_objects_keyed_by_their_fields(self, value, expected):
        report = _json(value)
        assert list(report) == list(type(value)._fields)
        assert report == expected
        json.dumps(report)

    def test_scalars_polynomials_and_fields(self):
        assert _json(Fraction(-1, 3)) == "-1/3"
        assert _json(Fp(6, 7)) == "6"
        assert [_json(True), _json(7), _json("x"), _json(None)] == [True, 7, "x", None]
        assert _json(QQ) == "Q" and _json(F5) == {"Fp": 5}
        assert _json(self.Q_MAP.jacobian()) == [["1", "-1*x2"], ["0", "1"]]
        assert _json({"det": parse("x1 + 1", 1, F5), "rows": []}) == {"det": "x1 + 1", "rows": []}

    @pytest.mark.parametrize("value", [1.5, object(), {1, 2}, b"1", [Fraction(1), 2j]], ids=repr)
    def test_any_other_type_is_a_type_error(self, value):
        with pytest.raises(TypeError, match="no report form"):
            _json(value)


class TestDigest:
    """The report digest is SHA-256 over the argument tokens and the input
    file bytes, each followed by a zero byte, whichever module computes it."""

    def test_matches_hashlib(self):
        tokens, raw = ["keller", "map.json"], b'{"field": "Q"}'
        expected = hashlib.sha256(b"keller\x00map.json\x00" + raw + b"\x00").hexdigest()
        assert _digest(tokens, [raw]) == expected
        assert _digest(tokens, [None]) == hashlib.sha256(b"keller\x00map.json\x00").hexdigest()

    def test_same_digest_without_the_builtin_module(self, tmp_path, capsys):
        path = write(tmp_path, "map.json", QUADRATIC_3VAR)
        code, out, _ = run(capsys, ["keller", path])
        assert code == 0
        # the fallback: a None entry makes ``import _sha256`` fail
        script = (
            "import sys\n"
            "sys.modules['_sha256'] = None\n"
            "from kellerlab.cli import main\n"
            "main(sys.argv[1:])\n"
            "assert 'hashlib' in sys.modules\n"
        )
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        fallback = subprocess.run(
            [sys.executable, "-c", script, "keller", path], env=env, capture_output=True, text=True, timeout=60
        )
        assert (fallback.returncode, fallback.stderr) == (0, "")
        assert fallback.stdout == out
        assert json.loads(out)["digest"] == _digest(["keller", path], [pathlib.Path(path).read_bytes()])


class TestNumbersTooLongToConvert:
    # 3000 digits parse; their product has about 6000, past CPython's
    # default int conversion limit of 4300 digits
    LONG = {"field": "Q", "nvars": 1, "polys": ["3" * 3000 + "*" + "7" * 3000 + "*x1"]}

    @pytest.mark.parametrize("command", ["jacobian", "keller"])
    def test_report_is_refused_with_exit_1(self, tmp_path, capsys, command):
        path = write(tmp_path, "map.json", self.LONG)
        code, out, err = run(capsys, [command, path])
        assert (code, out) == (1, "")
        assert err == (
            '{"error": "ParseError", "exit_code": 1, "message": '
            '"the report has a number too long to convert"}\n'
        )

    def test_other_value_errors_are_not_caught(self, tmp_path, capsys, monkeypatch):
        import kellerlab.cli as cli_module

        def broken(poly):
            raise ValueError("not a conversion limit")

        monkeypatch.setattr(cli_module, "render", broken)
        path = write(tmp_path, "map.json", QUADRATIC_3VAR)
        with pytest.raises(ValueError, match="not a conversion limit"):
            main(["keller", path])



# recorded before the parser was built one subcommand at a time; none of
# these can be a golden entry, whose first argument names a subcommand
TOP_LEVEL_HELP = """\
usage: kellerlab [-h] [--version]
                 {jacobian,keller,invert,inverse-degree,druzkowski,reduce,line-check,rank-drop,collide,vandermonde}
                 ...

Command-line front end: parse map files, dispatch to the library, emit
deterministic JSON reports. Each report is a library result written out: a
result type as an object keyed by its fields, a scalar as its canonical text
("-1/3", or a residue 0..p-1), a polynomial in the map-file grammar, a matrix
as nested arrays. Exit codes: 0 success, 1 usage or parse errors (also a
report with a number too long to convert to text), 2 violated preconditions, 3
a failed theorem conclusion (an implementation bug; CI-fatal). Reports go to
stdout, structured errors to stderr; every run with identical inputs produces
byte-identical output (keys sorted, orderings fixed). Map file schema::
{"field": "Q" | {"Fp": p}, "nvars": n, "polys": ["expr", ...]} Matrix files
are JSON arrays of arrays of scalar strings ("2", "-1/3").

positional arguments:
  {jacobian,keller,invert,inverse-degree,druzkowski,reduce,line-check,rank-drop,collide,vandermonde}
    jacobian            Jacobian matrix of a map
    keller              Jacobian determinant and the Keller condition
    invert              bounded polynomial inversion
    inverse-degree      degree of the verified inverse
    druzkowski          emit the power-linear map x + (Ax)^{*d}
    reduce              kernel conjugation, paired map, degree bounds
    line-check          injectivity on the line through a point
    rank-drop           rank-drop parameter along a line
    collide             exhaustive collinear collision search
    vandermonde         generalized Vandermonde matrix and rank

options:
  -h, --help            show this help message and exit
  --version             show program's version number and exit
"""

COLLIDE_HELP = """\
usage: kellerlab collide [-h] -r R [--budget BUDGET] mapfile

positional arguments:
  mapfile

options:
  -h, --help       show this help message and exit
  -r R
  --budget BUDGET
"""

CHOICES = "'jacobian', 'keller', 'invert', 'inverse-degree', 'druzkowski', 'reduce', 'line-check', 'rank-drop', 'collide', 'vandermonde'"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        ([], 1, "", '{"error": "UsageError", "exit_code": 1, "message": '
         '"the following arguments are required: command"}\n'),
        (["no-such-command"], 1, "", '{"error": "UsageError", "exit_code": 1, "message": '
         f'"argument command: invalid choice: \'no-such-command\' (choose from {CHOICES})"}}\n'),
        (["--help"], 0, TOP_LEVEL_HELP, ""),
        (["collide", "--help"], 0, COLLIDE_HELP, ""),
        (["collide", "map.json", "-h"], 0, COLLIDE_HELP, ""),
        (["--version"], 0, "kellerlab 0.1.0\n", ""),
    ],
    ids=["no-arguments", "unknown-subcommand", "help", "collide-help", "collide-h", "version"],
)
def test_parser_output_is_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    try:
        exit_code = main(argv)
    except SystemExit as exc:  # --help and --version exit from the parser
        exit_code = exc.code
    captured = capsys.readouterr()
    assert (exit_code, captured.out, captured.err) == (code, out, err)


# ---- the plain argv reader ------------------------------------------------
#
# ``_plain_args`` reads an argv without argparse or declines it; whenever it
# reads one, argparse must read the same argv to the same namespace.

READER_VALUES = st.sampled_from([
    "2", "2", "3", "map.json", "1,0", "0,1,2", "Q", "Fp:5", "x", "", "a b", "x=1",
    "\u0662", "\u00e9", "-1", "-1,0", "--", "-",
])
READER_EXTRAS = st.sampled_from([
    "map.json", "-h", "--help", "--", "-r2", "-r=2", "--max", "--poi", "--version", "-x", "--point=1", "-r",
])


@st.composite
def reader_argvs(draw):
    """A subcommand's own positionals and options, each option exact or
    abbreviated, as two tokens or joined by "=", sometimes left out, in any
    order, with stray tokens now and then."""
    command = draw(st.sampled_from([*cli._COMMANDS, "no-such-command"]))
    rows = cli._COMMANDS[command][2] if command in cli._COMMANDS else []
    pieces = []
    for flags, options in rows:
        name = flags[0]
        if not name.startswith("-"):
            pieces.append([draw(READER_VALUES)])
        elif draw(st.booleans()) or (options.get("required") and draw(st.integers(0, 9))):
            spelled = draw(st.sampled_from([name, name, name, name[:4]]))
            value = draw(READER_VALUES)
            pieces.append([f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value])
    pieces += draw(st.lists(READER_EXTRAS.map(lambda token: [token]), max_size=2))
    return [command, *(token for piece in draw(st.permutations(pieces)) for token in piece)]


@settings(max_examples=500, deadline=None)
@given(argv=reader_argvs())
def test_plain_reader_agrees_with_argparse(argv):
    plain = cli._plain_args(argv)
    if plain is not None:
        assert vars(plain) == vars(cli.build_parser(argv).parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        ["collide", "m", "-r", "2"],
        ["collide", "--budget=9", "-r=2", "m"],
        ["line-check", "m", "--point=-1,0"],
        ["invert", "m", "--max-deg", "3"],
        ["druzkowski", "--field", "Fp:3", "--matrix", "A", "--deg", "2"],
        ["rank-drop", "m", "--dir", "1", "--params", "0,1", "--degrees", "0,1,2"],
        ["vandermonde", "--points=", "--degrees", "\u00e9"],
    ],
)
def test_plain_reader_reads_exact_options(argv):
    plain = cli._plain_args(argv)
    assert plain is not None
    assert vars(plain) == vars(cli.build_parser(argv).parse_args(argv))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["no-such-command"],
        ["--version", "keller", "m"],
        ["collide", "m", "-h"],
        ["collide", "--", "m", "-r", "2"],
        ["collide", "m", "-r2"],
        ["collide", "m", "-r", "x"],
        ["collide", "m", "-r", "\u0662"],
        ["collide", "m", "-r", "2", "-r", "3"],
        ["collide", "m"],
        ["collide", "m", "n", "-r", "2"],
        ["collide", "m", "-r"],
        ["invert", "m", "--max", "3"],
        ["line-check", "m", "--point", "-1,0"],
    ],
)
def test_plain_reader_leaves_the_rest_to_argparse(argv):
    assert cli._plain_args(argv) is None


# ---- fuzzing main() -------------------------------------------------------
#
# Inputs stay small (at most 3 variables, total degree at most 3, short
# literals) so every example runs in milliseconds: the point is the exit
# contract on odd inputs, not the cost of large ones.  Most argument lists
# follow a subcommand's own shape, so the handlers are reached; the rest are
# free-form.

COMMANDS = [
    "jacobian", "keller", "invert", "inverse-degree", "druzkowski", "reduce",
    "line-check", "rank-drop", "collide", "vandermonde", "no-such-command",
]
TOKENS = [
    "MAP", "--max-deg", "-r", "--budget", "--point", "--dir", "--params", "--degrees", "--points",
    "--field", "--matrix", "--deg", "0", "1", "2", "-1", "1,0", "1/2", "x", "", "Q", "Fp:3", "--",
]

small_ints = st.sampled_from(["1", "2", "3", "2", "0", "-1", "x", "\u0662"])
# the last three: a superscript digit, an Arabic-Indic digit, and one digit
# past CPython's default int conversion limit
scalar_lists = st.lists(
    st.sampled_from(["0", "1", "2", "-1", "1/2", "2/0", "x", "", "\u00b2", "\u0663", "1" * 4301]),
    min_size=1,
    max_size=3,
)
int_lists = st.lists(st.sampled_from(["0", "1", "2", "3", "-1", "x", "\u0662"]), min_size=1, max_size=3)
field_flags = st.sampled_from(["Q", "Fp:2", "Fp:3", "Fp:5", "Fp:4", "Fp:", "R", "Fp:\u0667"])
argvs = st.one_of(
    st.sampled_from(["jacobian", "keller", "invert", "inverse-degree", "reduce"]).map(lambda c: [c, "MAP"]),
    st.builds(lambda d: ["invert", "MAP", "--max-deg", d], small_ints),
    st.builds(lambda d, f: ["druzkowski", "--matrix", "MAP", "--deg", d, "--field", f], small_ints, field_flags),
    st.builds(lambda pt: ["line-check", "MAP", "--point", ",".join(pt)], scalar_lists),
    st.builds(
        lambda b, ts, ds: ["rank-drop", "MAP", "--dir", ",".join(b), "--params", ",".join(ts), "--degrees", ",".join(ds)],
        scalar_lists, scalar_lists, int_lists,
    ),
    st.builds(lambda r, b: ["collide", "MAP", "-r", r, "--budget", b], small_ints, st.sampled_from(["0", "9", "99999"])),
    st.builds(
        lambda pts, ds, f: ["vandermonde", "--points", ",".join(pts), "--degrees", ",".join(ds), "--field", f],
        scalar_lists, int_lists, field_flags,
    ),
    st.builds(lambda c, rest: [c, *rest], st.sampled_from(COMMANDS), st.lists(st.sampled_from(TOKENS), max_size=6)),
)


def poly_texts(n):
    exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(lambda exps: sum(exps) <= 3)
    monomial = st.builds(
        lambda c, exps: "*".join([c] + [f"x{j + 1}^{e}" for j, e in enumerate(exps) if e]),
        st.sampled_from(["1", "2", "-1", "1/2"]),
        exponents,
    )
    sums = st.lists(monomial, min_size=1, max_size=3).map(" + ".join)
    # one draw in four is short free text, mostly malformed (no '^')
    return st.one_of(sums, sums, sums, st.text(alphabet="x0123+-*()/ \u00b2\u0663", max_size=8))


def square_maps(n):
    # "x_i + ..." keeps the linear part invertible often enough to reach inversion
    comps = st.tuples(*[st.tuples(st.booleans(), poly_texts(n)) for _ in range(n)])
    return st.fixed_dictionaries(
        {
            "field": st.sampled_from(["Q", {"Fp": 2}, {"Fp": 3}, {"Fp": 5}]),
            "nvars": st.just(n),
            "polys": comps.map(lambda cs: [f"x{i + 1} + {t}" if lead else t for i, (lead, t) in enumerate(cs)]),
        }
    )


odd_maps = st.fixed_dictionaries(
    {
        "field": st.sampled_from(["Q", "R", 3, {"Fp": 4}, {"Fp": 1}, {"Fp": 0}, {"Fp": 3}]),
        "nvars": st.integers(-1, 3),
        "polys": st.one_of(st.lists(poly_texts(3), max_size=3), st.just("x1")),
    }
)
square_map_files = st.integers(1, 3).flatmap(square_maps).map(lambda doc: json.dumps(doc).encode())
file_contents = st.one_of(
    square_map_files,
    square_map_files,
    square_map_files,
    odd_maps.map(lambda doc: json.dumps(doc).encode()),
    scalar_lists.map(lambda row: json.dumps([row] * len(row)).encode()),  # a matrix file
    st.binary(max_size=24),
)


@settings(max_examples=60, deadline=2000)
@given(argv=argvs, contents=file_contents)
def test_fuzzed_main_keeps_the_exit_contract(argv, contents):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "map.json")
        with open(path, "wb") as handle:
            handle.write(contents)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([path if tok == "MAP" else tok for tok in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code:
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and err.endswith("\n")
        assert json.loads(lines[0])["exit_code"] == code
    else:
        assert err == ""
        assert len(out.splitlines()) == 1
        json.loads(out)
