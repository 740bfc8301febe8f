import csv
import io
import json
from fractions import Fraction as F

import pytest

from multimeixner.cli import main
from multimeixner.harness import random_matrix
from multimeixner.lorentz import matrix_to_json


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(random_matrix(7, 2, 4)))
    return str(path)


class TestEval:
    def test_degree_zero_prints_one(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys, "eval", "--route", "gf", "--degrees", "0,0",
            "--point", "3,1", "--matrix", matrix_file,
        )
        assert code == 0
        assert out.strip() == "1"

    def test_routes_print_identical_strings(self, capsys, matrix_file):
        outputs = []
        for route in ("gf", "raising", "hyp"):
            code, out, _ = run_cli(
                capsys, "eval", "--route", route, "--beta", "7/3",
                "--degrees", "2,1", "--point", "3,2", "--matrix", matrix_file,
            )
            assert code == 0
            outputs.append(out.strip())
        assert len(set(outputs)) == 1
        assert "/" in outputs[0]

    def test_raising_route_has_no_depth_limit(self, capsys):
        # total degree 1200 descends 1200 levels; the value is the hyp
        # route's, which takes seconds at this degree
        code, out, err = run_cli(
            capsys, "eval", "--route", "raising", "--degrees", "600,600", "--point", "1,1",
        )
        assert code == 0, err
        assert out.strip() == "-231841232/243"

    def test_non_generic_matrix_exits_3(self, capsys, tmp_path):
        path = tmp_path / "id.json"
        path.write_text(
            json.dumps({"d": 2, "entries": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]})
        )
        code, _, err = run_cli(
            capsys, "eval", "--route", "gf", "--degrees", "1,0",
            "--point", "0,0", "--matrix", str(path),
        )
        assert code == 3
        assert "generic" in err

    def test_corrupted_matrix_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"d": 2, "entries": [["1", "0", "0"], ["0", "1", "1"], ["0", "0", "1"]]})
        )
        code, _, err = run_cli(
            capsys, "eval", "--route", "gf", "--degrees", "0,0",
            "--point", "0,0", "--matrix", str(path),
        )
        assert code == 2
        assert "metric" in err

    def test_tratnik_route(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--route", "tratnik", "--beta", "2",
            "--subgroup", "boost:2,3:2 boost:1,3:3",
            "--degrees", "2,1", "--point", "1,2",
        )
        assert code == 0
        assert out.strip() == "-25/144"

    def test_dompe3_route_matches_gf(self, capsys):
        spec = "rotation:1,2:1/2 boost:2,3:2 rotation:1,2:2/3"
        code, out1, _ = run_cli(
            capsys, "eval", "--route", "dompe3", "--beta", "2",
            "--subgroup", spec, "--degrees", "2,1", "--point", "1,2",
        )
        assert code == 0
        code, out2, _ = run_cli(
            capsys, "eval", "--route", "gf", "--beta", "2",
            "--subgroup", spec, "--degrees", "2,1", "--point", "1,2",
        )
        assert code == 0
        assert out1 == out2

    def test_float_value_kinds(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys, "eval", "--route", "gf", "--mode", "float", "--value", "orthonormal",
            "--degrees", "0,0", "--point", "2,1", "--matrix", matrix_file,
        )
        assert code == 0
        assert float(out) == 1.0
        code, out, _ = run_cli(
            capsys, "eval", "--mode", "float", "--value", "matrix-element",
            "--degrees", "0,0", "--point", "0,0", "--matrix", matrix_file,
        )
        assert code == 0
        assert abs(float(out)) <= 1.0

    def test_d3_eval(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--d", "3", "--seed", "31", "--route", "raising",
            "--degrees", "1,0,2", "--point", "2,1,0",
        )
        assert code == 0
        code, out2, _ = run_cli(
            capsys, "eval", "--d", "3", "--seed", "31", "--route", "gf",
            "--degrees", "1,0,2", "--point", "2,1,0",
        )
        assert code == 0
        assert out == out2


class TestVerify:
    def test_recurrence_passes(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "recurrence", "--matrix", matrix_file,
            "--box", "2,2,3,3",
        )
        assert code == 0
        assert out.startswith("PASS")

    def test_duality_with_corrupted_matrix_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"d": 2, "entries": [["1", "0", "0"], ["0", "1", "1"], ["0", "0", "1"]]})
        )
        code, _, err = run_cli(
            capsys, "verify", "--suite", "duality", "--matrix", str(path)
        )
        assert code == 2

    def test_orthogonality_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "orthogonality", "--tol", "1e-8",
            "--box", "2,2,0,0", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["pass"] is True
        assert payload[0]["mode"] == "float"
        assert float(payload[0]["max_discrepancy"]) < 1e-8

    def test_lowering_beta_one_exits_3(self, capsys, matrix_file):
        code, _, err = run_cli(
            capsys, "verify", "--suite", "lowering", "--beta", "1",
            "--matrix", matrix_file, "--box", "1,1,1,1",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "suite, extra",
        [
            ("orthogonality", ["--box", "1,1,0,0"]),
            ("addition", ["--tuples", "1"]),
            ("subgroup-unitarity", []),
        ],
    )
    @pytest.mark.parametrize("tol", ["inf", "nan", "0"])
    def test_tolerance_must_be_positive_and_finite(self, capsys, suite, extra, tol):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--tol", tol, *extra)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "tol" in err

    @pytest.mark.parametrize("tuples", ["0", "-3"])
    def test_addition_without_tuples_exits_2(self, capsys, tuples):
        code, out, err = run_cli(capsys, "verify", "--suite", "addition", "--tuples", tuples)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--tuples" in err

    def test_multivariate_names_bad_dimension(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "multivariate", "--d", "0")
        assert code == 2
        assert err.startswith("error:") and "--d" in err

    @pytest.mark.parametrize("suite", ["orthogonality", "addition", "subgroup-unitarity"])
    def test_exact_mode_on_float_suite_exits_2(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--mode", "exact")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "float" in err

    def test_unknown_suite_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "nonsense"])
        assert exc.value.code == 2


class TestTable:
    def test_csv_row_count_matches_box_volume(self, capsys, matrix_file):
        code, out, _ = run_cli(
            capsys, "table", "--matrix", matrix_file, "--box", "1,2,1,1",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 * 3 * 2 * 2
        base = [r for r in rows if r["m"] == r["n"] == r["i"] == r["k"] == "0"]
        assert base[0]["value"] == "1"

    def test_json_round_trip_feeds_recurrence(self, capsys, tmp_path, matrix_file):
        out_path = tmp_path / "table.json"
        code, _, _ = run_cli(
            capsys, "table", "--matrix", matrix_file, "--box", "3,3,2,2",
            "--format", "json", "--out", str(out_path),
        )
        assert code == 0
        rows = json.loads(out_path.read_text())
        values = {
            (r["m"], r["n"], r["i"], r["k"]): F(r["value"]) for r in rows
        }
        # one recurrence instance rebuilt purely from the emitted table
        lam = random_matrix(7, 2, 4)
        e = lam.entries
        beta = F(2)
        m, n, i, k = 1, 1, 2, 1
        total = m + n + beta
        rhs = (m * e[0][0] ** 2 + n * e[0][1] ** 2 + total * e[0][2] ** 2) * values[(m, n, i, k)]
        rhs += (e[0][0] * e[0][1] * e[2][1] / e[2][0]) * m * values[(m - 1, n + 1, i, k)]
        rhs += (e[0][0] * e[0][1] * e[2][0] / e[2][1]) * n * values[(m + 1, n - 1, i, k)]
        rhs -= (e[0][0] * e[0][2] * e[2][2] / e[2][0]) * m * values[(m - 1, n, i, k)]
        rhs -= (e[0][0] * e[0][2] * e[2][0] / e[2][2]) * total * values[(m + 1, n, i, k)]
        rhs -= (e[0][1] * e[0][2] * e[2][2] / e[2][1]) * n * values[(m, n - 1, i, k)]
        rhs -= (e[0][1] * e[0][2] * e[2][1] / e[2][2]) * total * values[(m, n + 1, i, k)]
        assert i * values[(m, n, i, k)] == rhs
        # and the full library checker still passes on the same matrix
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "recurrence", "--matrix", matrix_file,
            "--box", "2,2,2,2",
        )
        assert code == 0

    def test_zero_factors_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--box", "1,1,1,1", "--seed", "7", "--factors", "0",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "factor" in err


class TestGenMatrix:
    def test_round_trip_through_eval(self, capsys, tmp_path):
        out_path = tmp_path / "gen.json"
        code, _, _ = run_cli(
            capsys, "gen-matrix", "--seed", "11", "--out", str(out_path)
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "eval", "--route", "gf", "--degrees", "0,0", "--point", "1,1",
            "--matrix", str(out_path),
        )
        assert code == 0
        assert out.strip() == "1"

    def test_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "gen-matrix", "--seed", "3")
        code, out2, _ = run_cli(capsys, "gen-matrix", "--seed", "3")
        assert out1 == out2

    def test_zero_factors_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "gen-matrix", "--seed", "7", "--factors", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "factor" in err
