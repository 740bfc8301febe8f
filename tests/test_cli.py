import contextlib
import csv
import io
import json
import math
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from multimeixner import multivariate
from multimeixner.cli import _parse_subgroup, main
from multimeixner.harness import random_matrix
from multimeixner.lorentz import matrix_to_json, product_of


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def matrix_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(matrix_to_json(random_matrix(7, 2, 4)))
    return str(path)


# each closed-form route with the factors it reads
CLOSED_FORMS = [
    ("tratnik", "boost:2,3:2 boost:1,3:3"),
    ("dompe3", "rotation:1,2:1/2 boost:2,3:2 rotation:1,2:2/3"),
]


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

    @pytest.mark.parametrize("value", ["orthonormal", "matrix-element"])
    def test_exact_mode_gives_no_float_value_kind(self, capsys, value):
        code, out, err = run_cli(
            capsys, "eval", "--mode", "exact", "--value", value,
            "--degrees", "1,1", "--point", "1,1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--mode" in err
        code, out, _ = run_cli(
            capsys, "eval", "--value", value, "--degrees", "1,1", "--point", "1,1"
        )
        assert code == 0
        assert "/" not in out and float(out) != 0.0

    @pytest.mark.parametrize("value, degrees, point", [
        ("orthonormal", "600,600", "0,0"), ("matrix-element", "0,0", "600,600"),
        # the monic value passes 1e308; the matrix element is about 1e-971
        ("matrix-element", "200,0", "0,3000"),
    ])
    def test_float_values_at_far_points_are_finite(self, capsys, value, degrees, point):
        code, out, err = run_cli(
            capsys, "eval", "--mode", "float", "--value", value,
            "--degrees", degrees, "--point", point,
        )
        assert code == 0, err
        assert math.isfinite(float(out))

    @pytest.mark.parametrize("argv, exit_code", [
        # the value is about 10^358.8
        pytest.param(
            ["eval", "--mode", "float", "--value", "orthonormal",
             "--degrees", "200,0", "--point", "0,3000"],
            3, id="orthonormal-past-the-float-range",
        ),
        pytest.param(["eval", "--degrees", "1,1", "--point", "1"], 2, id="arity-mismatch"),
        pytest.param(
            ["eval", "--route", "tratnik", "--degrees", "1,1,1", "--point", "1,1,1",
             "--subgroup", "boost:2,3:2"],
            2, id="closed-form-at-d3",
        ),
        pytest.param(
            ["eval", "--d", "3", "--degrees", "1,1,1", "--point", "1,1,1",
             "--value", "orthonormal"],
            3, id="orthonormal-at-d3",
        ),
        pytest.param(["verify", "--suite", "recurrence", "--box", "1,1,1"], 2, id="short-box"),
    ])
    def test_exits_with_one_error_line(self, capsys, argv, exit_code):
        code, out, err = run_cli(capsys, *argv)
        assert code == exit_code
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("degrees, point, magnitude", [
        ("200,0", "0,3000", "10^408.9"), ("200,0,0", "0,0,3000", "10^696.2"),
    ])
    def test_monic_float_past_the_float_range_exits_3(self, capsys, degrees, point, magnitude):
        code, out, err = run_cli(
            capsys, "eval", "--mode", "float", "--route", "raising",
            "--degrees", degrees, "--point", point,
        )
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert magnitude in err

    def test_far_gf_fill_is_refused_within_seconds(self, capsys):
        # about 6e7 coefficient cells: the store refuses the fill up front
        # and names the route that answers such a point
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "eval", "--mode", "float", "--route", "gf",
            "--degrees", "200,0", "--point", "0,3000",
        )
        assert time.perf_counter() - start < 5
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert "--route raising" in err

    def test_d_must_agree_with_the_arity(self, capsys):
        code, out, err = run_cli(capsys, "eval", "--d", "3", "--degrees", "1,1", "--point", "1,1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--d" in err
        code, out, _ = run_cli(capsys, "eval", "--d", "2", "--degrees", "1,1", "--point", "1,1")
        assert code == 0
        assert out.strip() == "11683/17496"

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

    def test_d3_hyp_eval(self, capsys):
        # the generating-function route gives the same value
        code, out, err = run_cli(
            capsys, "eval", "--d", "3", "--route", "hyp", "--seed", "7",
            "--degrees", "1,1,0", "--point", "1,0,2",
        )
        assert code == 0, err
        assert out.strip() == "-12489/13850"

    @pytest.mark.parametrize("value", ["orthonormal", "matrix-element"])
    def test_d3_float_value_kinds_exit_3(self, capsys, value):
        code, out, err = run_cli(
            capsys, "eval", "--d", "3", "--value", value, "--degrees", "1,1,1", "--point", "1,1,1",
        )
        assert code == 3
        assert out == ""
        assert err == f"error: d != 2 gives monic values only, not --value {value}\n"

    @pytest.mark.parametrize("beta", ["-1/2", "0"])
    @pytest.mark.parametrize("route, spec", CLOSED_FORMS)
    def test_closed_form_rejects_nonpositive_beta(self, capsys, route, spec, beta):
        code, out, err = run_cli(
            capsys, "eval", "--route", route, f"--beta={beta}", "--subgroup", spec,
            "--degrees", "1,1", "--point", "1,1",
        )
        assert code == 2
        assert out == ""
        assert err == f"error: beta must be positive, got {beta}\n"

    def test_factors_without_a_draw_exits_2(self, capsys, matrix_file):
        # the canonical matrix and a --matrix file draw nothing to count
        for source in ([], ["--matrix", matrix_file]):
            code, out, err = run_cli(
                capsys, "eval", "--factors", "9", "--degrees", "1,1", "--point", "1,1", *source
            )
            assert code == 2
            assert out == "" and err.startswith("error:") and "--factors" in err
        code, out, err = run_cli(
            capsys, "eval", "--factors", "9", "--seed", "5", "--degrees", "1,1", "--point", "1,1"
        )
        assert code == 0, err

    def test_closed_form_checks_the_boost_plane(self, capsys):
        code, out, err = run_cli(
            capsys, "eval", "--route", "dompe3", "--degrees", "2,1", "--point", "1,2",
            "--subgroup", "rotation:1,2:1/2 boost:1,3:2 rotation:1,2:2/3",
        )
        assert code == 3
        assert out == "" and err.startswith("error:") and "boost:2,3" in err

    @pytest.mark.parametrize("route, spec", CLOSED_FORMS)
    def test_closed_form_reads_only_subgroup(self, capsys, matrix_file, route, spec):
        for source in (["--seed", "5"], ["--matrix", matrix_file]):
            code, out, err = run_cli(
                capsys, "eval", "--route", route, "--subgroup", spec,
                "--degrees", "2,1", "--point", "1,2", *source,
            )
            assert code == 2
            assert out == "" and err.startswith("error:") and source[0] in err

    @pytest.mark.parametrize("route, spec", CLOSED_FORMS)
    @pytest.mark.parametrize("flag, value", [
        ("--mode", "float"), ("--value", "orthonormal"), ("--value", "matrix-element"),
    ])
    def test_closed_form_gives_exact_monic_values_only(self, capsys, route, spec, flag, value):
        code, out, err = run_cli(
            capsys, "eval", "--route", route, "--subgroup", spec,
            "--degrees", "2,1", "--point", "1,2", flag, value,
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and flag in err


# the matrix sources each suite reads; giving it any other is an input error
SUITE_SOURCES = {
    "orthogonality": {"--matrix", "--seed", "--subgroup"},
    "recurrence": {"--matrix", "--seed", "--subgroup"},
    "difference": {"--matrix", "--seed", "--subgroup"},
    "lowering": {"--matrix", "--seed", "--subgroup"},
    "duality": {"--matrix", "--seed", "--subgroup"},
    "routes": {"--matrix", "--seed", "--subgroup"},
    "factorization": {"--subgroup"},
    "dompe3": {"--subgroup"},
    "addition": {"--seed"},
    "subgroup-unitarity": set(),
    "multivariate": {"--matrix", "--seed", "--subgroup"},
}
SOURCE_VALUES = {"--seed": "5", "--subgroup": "boost:2,3:2 boost:1,3:3"}
# the other flags each suite reads; likewise
SUITE_FLAGS = {
    "orthogonality": {"--box", "--tol"},
    "recurrence": {"--box"},
    "difference": {"--box"},
    "lowering": {"--box"},
    "duality": {"--box"},
    "routes": {"--box"},
    "factorization": {"--box"},
    "dompe3": {"--box"},
    "addition": {"--tol", "--tuples"},
    "subgroup-unitarity": {"--tol"},
    "multivariate": {"--tol", "--degree-max", "--coord-max"},
}
FLAG_VALUES = {
    "--box": "1,1,1,1", "--tol": "1e-8", "--tuples": "1", "--degree-max": "1", "--coord-max": "1",
}
# a 4x4 product whose weight tail is short, so its Gram sum settles fast
SUBGROUP_D3 = "boost:3,4:3/2 rotation:1,2:1/2 boost:1,4:4/3 rotation:2,3:1/3"


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

    @pytest.mark.parametrize(
        "bounds, flag",
        [(["--coord-max", "-1", "--degree-max", "0"], "--coord-max"),
         (["--degree-max", "-1", "--coord-max", "1"], "--degree-max")],
    )
    def test_multivariate_without_degrees_or_points_exits_2(self, capsys, bounds, flag):
        code, out, err = run_cli(capsys, "verify", "--suite", "multivariate", *bounds)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and flag in err

    def test_multivariate_names_bad_dimension(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "multivariate", "--d", "0")
        assert code == 2
        assert err.startswith("error:") and "--d" in err

    def test_column_norm_below_the_float_floor_exits_3(self, capsys):
        # tol/100 is 0.0 here, so no term is ever small enough
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "verify", "--suite", "subgroup-unitarity", "--tol", "5e-324"
        )
        assert time.perf_counter() - start < 10
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "did not settle" in err

    @pytest.mark.parametrize("suite", ["orthogonality", "addition", "subgroup-unitarity"])
    def test_exact_mode_on_float_suite_exits_2(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--mode", "exact")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "float" in err

    @pytest.mark.parametrize(
        "suite",
        ["recurrence", "difference", "lowering", "duality", "routes", "factorization", "dompe3"],
    )
    def test_float_mode_on_exact_suite_exits_2(self, capsys, suite):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--mode", "float", "--box", "1,1,1,1"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "exact" in err

    def test_multivariate_runs_on_the_given_matrix(self, capsys, tmp_path):
        # the suite's own default matrix is seed 31 with 5 factors
        runs = {}
        for seed in (31, 5):
            path = tmp_path / f"m{seed}.json"
            path.write_text(matrix_to_json(random_matrix(seed, 3, 5)))
            runs[seed] = run_cli(
                capsys, "verify", "--suite", "multivariate", "--degree-max", "0",
                "--coord-max", "1", "--matrix", str(path),
            )
        default = run_cli(capsys, "verify", "--suite", "multivariate", "--degree-max", "0",
                          "--coord-max", "1")
        seeded = run_cli(capsys, "verify", "--suite", "multivariate", "--degree-max", "0",
                         "--coord-max", "1", "--seed", "31")
        assert default[0] == 0
        assert runs[31] == default == seeded
        assert runs[5][0] == 0
        assert runs[5][1] != default[1]
        code, out, err = run_cli(
            capsys, "verify", "--suite", "multivariate", "--d", "4",
            "--matrix", str(tmp_path / "m31.json"),
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and "--d" in err

    @pytest.mark.parametrize("suite, source", [
        (suite, source)
        for suite, reads in SUITE_SOURCES.items()
        for source in ("--matrix", "--seed", "--subgroup")
        if source not in reads
    ])
    def test_unread_matrix_source_exits_2(self, capsys, matrix_file, suite, source):
        value = matrix_file if source == "--matrix" else SOURCE_VALUES[source]
        code, out, err = run_cli(capsys, "verify", "--suite", suite, source, value)
        assert code == 2
        assert out == "" and err.startswith("error:") and source in err

    @pytest.mark.parametrize("suite, flag", [
        (suite, flag)
        for suite, reads in SUITE_FLAGS.items()
        for flag in FLAG_VALUES
        if flag not in reads
    ])
    def test_unread_flag_exits_2(self, capsys, suite, flag):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, flag, FLAG_VALUES[flag])
        assert code == 2
        assert out == "" and err.startswith("error:") and flag in err

    def test_default_matrix_names_no_factor_count_it_was_not_given(self, capsys):
        # at d = 8 the default matrix draws 8 factors, not 5, and seeds 31
        # (multivariate) and 0 (eval) find no generic product of them
        for argv in (
            ["verify", "--suite", "multivariate", "--d", "8"],
            ["eval", "--degrees", "1,0,0,0,0,0,0,0", "--point", "0,0,0,0,0,0,0,1"],
        ):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == "" and err.startswith("error:") and "--factors" in err
            assert "got 5" not in err

    @pytest.mark.parametrize("suite", sorted(set(SUITE_SOURCES) - {"multivariate"}))
    def test_d_other_than_2_exits_2(self, capsys, suite):
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--d", "3")
        assert code == 2
        assert out == "" and err.startswith("error:") and "--d" in err

    def test_multivariate_runs_on_the_given_subgroup(self, capsys, tmp_path):
        small = ["--degree-max", "0", "--coord-max", "1"]
        path = tmp_path / "product.json"
        path.write_text(matrix_to_json(product_of(_parse_subgroup(SUBGROUP_D3), 3)))
        by_subgroup = run_cli(capsys, "verify", "--suite", "multivariate", *small,
                              "--subgroup", SUBGROUP_D3)
        by_matrix = run_cli(capsys, "verify", "--suite", "multivariate", *small,
                            "--matrix", str(path))
        default = run_cli(capsys, "verify", "--suite", "multivariate", *small)
        assert by_subgroup[0] == 0
        assert by_subgroup == by_matrix
        assert by_subgroup[1] != default[1]
        code, out, err = run_cli(capsys, "verify", "--suite", "multivariate", *small,
                                 "--subgroup", SUBGROUP_D3, "--seed", "5")
        assert code == 2
        assert out == "" and err.startswith("error:") and "at most one" in err

    def test_multivariate_keeps_d_and_tolerance(self, capsys):
        small = ["--degree-max", "1", "--coord-max", "1", "--format", "json"]
        code, out, err = run_cli(capsys, "verify", "--suite", "multivariate", "--d", "2", *small)
        assert code == 0, err
        assert [report["box"]["d"] for report in json.loads(out)] == [2, 2]
        code, out, err = run_cli(capsys, "verify", "--suite", "multivariate", "--mode", "float",
                                 "--degree-max", "0", "--coord-max", "0")
        assert code == 0, err
        assert out.splitlines()[1].endswith("tol=9.9999999999999995e-08")

    def test_factors_without_a_draw_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "--suite", "recurrence", "--factors", "9", "--box", "1,1,1,1"
        )
        assert code == 2
        assert out == "" and err.startswith("error:") and "--factors" in err
        code, out, err = run_cli(
            capsys, "verify", "--suite", "recurrence", "--factors", "9", "--seed", "5",
            "--box", "1,1,1,1",
        )
        assert code == 0, err

    def test_multivariate_names_the_failing_route(self, capsys, monkeypatch):
        hyp = multivariate.monic_eval_hyp_d
        monkeypatch.setattr(multivariate, "monic_eval_hyp_d", lambda *args: hyp(*args) + 1)
        code, out, err = run_cli(
            capsys, "verify", "--suite", "multivariate", "--degree-max", "1",
            "--coord-max", "1", "--format", "json",
        )
        assert code == 1, err
        routes, gram = json.loads(out)
        assert not routes["pass"] and routes["max_discrepancy"] == "1"
        assert routes["counterexample"] == [[0, 0, 0], [0, 0, 0], "monic_eval_hyp_d"]
        assert gram["pass"]

    def test_multivariate_gram_loop_at_d4_exits_3(self, capsys):
        # the float Gram sum does not settle within the point budget at d = 4
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "verify", "--suite", "multivariate", "--degree-max", "1",
            "--coord-max", "1", "--seed", "9", "--d", "4",
        )
        assert time.perf_counter() - start < 10
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

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

    def test_too_few_factors_for_a_generic_product_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "table", "--box", "1,1,1,1", "--seed", "3", "--factors", "1",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--factors" in err

    def test_factors_without_a_seed_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "table", "--box", "1,1,1,1", "--factors", "9")
        assert code == 2
        assert out == "" and err.startswith("error:") and "--factors" in err

    def test_d_other_than_2_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "table", "--box", "1,1,1,1", "--d", "3")
        assert code == 2
        assert out == "" and err.startswith("error:") and "--d" in err


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

    def test_fewer_factors_than_d_exits_2_before_drawing(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gen-matrix", "--seed", "3", "--d", "8")
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "--factors" in err and "8" in err
        code, out, _ = run_cli(capsys, "gen-matrix", "--seed", "3", "--d", "4", "--factors", "4")
        assert code == 0 and json.loads(out)["d"] == 4

    def test_planes_that_leave_an_axis_apart_fail_fast(self, capsys):
        # 8 planes seldom join all 9 axes; such draws are skipped unmultiplied
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "gen-matrix", "--seed", "3", "--d", "8", "--factors", "8")
        assert time.perf_counter() - start < 10
        assert code == 2
        assert out == "" and err.startswith("error:") and "--factors" in err
        code, out, _ = run_cli(capsys, "gen-matrix", "--seed", "7")
        assert code == 0
        assert json.loads(out)["entries"] == [
            ["1011/845", "-548/845", "-12/13"],
            ["9428/4225", "4071/4225", "-144/65"],
            ["-756/325", "-192/325", "13/5"],
        ]


# ---------------------------------------------------------------------------
# the CLI contract as a property: exit code 0-3 or a parser exit 2, an
# error line with 2 and 3, and no exit 0 for an input the verb or suite
# does not read

SUITE_RUN_SIZE = {
    "multivariate": ["--degree-max", "0", "--coord-max", "1"],
    "addition": ["--tuples", "1"],
}
NUMBERS = ["2", "7/3", "1/2", "0", "-1", "nan", "inf", "3/0", "x"]
TOLS = ["1e-8", "0", "-1e-8", "nan", "inf", "x"]
BOXES = ["0,0,0,0", "1,0,0,1", "1,1,1,1", "1,1", "-1,0,0,0", "a,b,c,d"]
SUBGROUPS = [
    "boost:2,3:2 boost:1,3:3",
    "rotation:1,2:1/2 boost:2,3:2 rotation:1,2:2/3",
    SUBGROUP_D3,
    "boost:2,3",
    "spin:1,2:1",
    "rotation:1:1/2",
    "boost:2,3:-1",
    ";",
]
DIMENSIONS = ["-1", "0", "1", "2", "3"]


@pytest.fixture(scope="module")
def matrix_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("matrices")
    files = {"missing": str(root / "missing.json")}
    for name, text in {
        "d2": matrix_to_json(random_matrix(7, 2, 4)),
        "d3": matrix_to_json(random_matrix(5, 3, 5)),
        "corrupt": '{"d": 2, "entries": [["1", "0", "0"], ["0", "1", "1"], ["0", "0", "1"]]}',
        "garbled": "{not json",
    }.items():
        (root / f"{name}.json").write_text(text)
        files[name] = str(root / f"{name}.json")
    return files


def _optional(data, flag, values):
    value = data.draw(st.none() | st.sampled_from(values))
    return [] if value is None else [flag, value]


def _draw_argv(data, matrix_files):
    """An argument vector and what its verb or suite reads of it: the
    matrix sources and other flags, and whether the --d given (if any) is
    one it runs at."""
    verb = data.draw(st.sampled_from(["eval", "verify", "table", "gen-matrix"]))
    argv = [verb]
    given = set()
    for flag, values in (
        ("--matrix", sorted(matrix_files.values())),
        ("--seed", ["5", "31", "-1"]),
        ("--subgroup", SUBGROUPS),
    ):
        value = data.draw(st.none() | st.sampled_from(values))
        if value is not None:
            argv += [flag, value]
            given.add(flag)
    argv += _optional(data, "--factors", ["-1", "0", "4"])
    d_args = _optional(data, "--d", DIMENSIONS)
    d = int(d_args[1]) if d_args else None
    argv += d_args
    if verb == "gen-matrix":
        return argv, {"--seed"}, d is None or d >= 1
    argv += _optional(data, "--beta", NUMBERS)
    if verb == "eval":
        arity = data.draw(st.integers(1, 3))
        cells = st.lists(st.integers(-1, 3), min_size=arity, max_size=arity)
        route = data.draw(st.sampled_from(["raising", "gf", "hyp", "tratnik", "dompe3"]))
        argv += ["--route", route]
        argv += ["--degrees", ",".join(map(str, data.draw(cells)))]
        argv += ["--point", ",".join(map(str, data.draw(cells)))]
        argv += _optional(data, "--mode", ["exact", "float"])
        argv += _optional(data, "--value", ["monic", "orthonormal", "matrix-element"])
        closed = route in ("tratnik", "dompe3")
        reads = {"--subgroup"} if closed else {"--matrix", "--seed", "--subgroup"}
        return argv, reads, d is None or d == arity
    if verb == "table":
        argv += ["--box", data.draw(st.sampled_from(BOXES))]
        argv += _optional(data, "--route", ["raising", "gf", "hyp"])
        return argv, {"--matrix", "--seed", "--subgroup", "--box"}, d in (None, 2)
    suite = data.draw(st.sampled_from(sorted(SUITE_SOURCES)))
    argv += ["--suite", suite, *SUITE_RUN_SIZE.get(suite, [])]
    argv += _optional(data, "--box", BOXES)
    argv += _optional(data, "--mode", ["exact", "float"])
    argv += _optional(data, "--tol", TOLS)
    argv += _optional(data, "--format", ["text", "json"])
    d_ok = d is None or (d >= 1 if suite == "multivariate" else d == 2)
    return argv, SUITE_SOURCES[suite] | SUITE_FLAGS[suite], d_ok


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cli_contract(matrix_files, data):
    argv, reads, d_ok = _draw_argv(data, matrix_files)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert "error:" in err.getvalue()
    if code == 0:
        assert set(argv) & {"--matrix", "--seed", "--subgroup", *FLAG_VALUES} <= reads
        assert d_ok
