import json

import pytest

from kellerlab import Matrix
from kellerlab.cli import main
from kellerlab.errors import TheoremViolation

from conftest import doubled_inverse


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_budget_env_override(self, tmp_path, capsys, monkeypatch):
        path = write(tmp_path, "map.json", ZERO_MAP_F2)
        monkeypatch.setenv("KELLERLAB_BUDGET", "1")
        code, _, err = run(capsys, ["collide", path, "-r", "2"])
        assert code == 2
        assert json.loads(err)["error"] == "BudgetExceeded"
        monkeypatch.setenv("KELLERLAB_BUDGET", "1000")
        code, out, _ = run(capsys, ["collide", path, "-r", "2"])
        assert code == 0


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
