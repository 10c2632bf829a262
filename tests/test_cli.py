import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

from conftest import DATA_DIR, patch_everywhere
from opreduce import cli, exactcore
from opreduce.cauchy import manufacture_solution
from opreduce.cli import main
from opreduce.exactcore import Matrix, format_rational
from opreduce.operators import ElementColumn, FiniteSequence, OperatorKind

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestReduce:
    def test_two_by_two_fixture_json(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["reduce", "--spec", str(DATA_DIR / "shift_2x2.json"), "--format", "json"]
        )
        assert rc == 0
        report = json.loads(out)
        assert report["char_poly"] == ["-5", "-2"]
        assert report["route_agreement"] is True
        first = report["rhs"][0]
        assert [t["sign"] for t in first["terms"]] == [1, -1]
        assert first["terms"][0]["coeffs"] == ["1", "0"]
        assert first["terms"][1]["coeffs"] == ["4", "-2"]
        assert first["evaluated"] == {"kind": "sequence", "origin": 0, "values": ["-4", "0", "0"]}
        assert report["rhs"][1]["evaluated"]["values"] == ["3", "0", "0"]

    def test_two_by_two_fixture_text(self, capsys):
        rc, out, _ = run_cli(capsys, ["reduce", "--spec", str(DATA_DIR / "shift_2x2.json")])
        assert rc == 0
        assert "A^2 - 5*A^1 - 2*I" in out
        assert "delta_1^1(B; A^1 phi)" in out
        assert "delta_2^2(B; A^0 phi)" in out
        assert "route agreement: true" in out

    def test_first_order_reduction_is_input_equation(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "n": 1,
                "matrix": [["4"]],
                "operator": "shift",
                "phi": [{"origin": 0, "values": ["1", "2", "3"]}],
            },
        )
        rc, out, _ = run_cli(capsys, ["reduce", "--spec", spec, "--format", "json"])
        assert rc == 0
        report = json.loads(out)
        assert report["char_poly"] == ["-4"]
        assert report["rhs"][0]["evaluated"]["values"] == ["1", "2", "3"]
        assert report["rhs"][0]["terms"] == [
            {"order": 1, "sign": 1, "power": 0, "coeffs": ["1"]}
        ]

    def test_golden_file(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["reduce", "--spec", str(DATA_DIR / "derivative_3x3.json"), "--format", "json"],
        )
        assert rc == 0
        golden = (DATA_DIR / "derivative_3x3_golden.json").read_text(encoding="utf-8")
        assert out == golden

    def test_byte_identical_reruns(self, capsys):
        argv = ["reduce", "--spec", str(DATA_DIR / "derivative_3x3.json"), "--format", "json"]
        rc1, out1, _ = run_cli(capsys, argv)
        rc2, out2, _ = run_cli(capsys, argv)
        assert (rc1, rc2) == (0, 0)
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run_cli(
            capsys,
            [
                "reduce",
                "--spec",
                str(DATA_DIR / "shift_2x2.json"),
                "--format",
                "json",
                "--out",
                str(target),
            ],
        )
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["char_poly"] == ["-5", "-2"]

    def test_unwritable_out_file_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        rc, out, err = run_cli(
            capsys, ["reduce", "--spec", str(DATA_DIR / "shift_2x2.json"), "--out", str(target)]
        )
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: cannot write report to {target}: ")
        assert not target.parent.exists()

    def test_dimension_cap(self, capsys):
        rc, _, err = run_cli(
            capsys, ["reduce", "--spec", str(DATA_DIR / "shift_2x2.json"), "--nmax", "1"]
        )
        assert rc == 2
        assert "brute-force cap" in err


class TestSolve:
    def homogeneous_spec(self, tmp_path):
        return write_spec(
            tmp_path,
            {
                "n": 2,
                "matrix": [["1", "2"], ["3", "4"]],
                "operator": "shift",
                "phi": [
                    {"origin": 0, "values": ["0", "0", "0", "0", "0"]},
                    {"origin": 0, "values": ["0", "0", "0", "0", "0"]},
                ],
                "initial": {"t0": 0, "x0": ["1", "0"]},
                "horizon": 5,
            },
        )

    def test_homogeneous_trajectory(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, ["solve", "--spec", self.homogeneous_spec(tmp_path), "--format", "json"]
        )
        assert rc == 0
        report = json.loads(out)
        values = [t["values"] for t in report["trajectories"]]
        assert values[0][:3] == ["1", "1", "7"]
        assert values[1][:3] == ["0", "3", "15"]
        assert report["route_agreement"] is True
        assert report["all_zero"] is True
        assert all(block["is_zero"] for block in report["verification"])
        assert all(block["matches_trajectory"] for block in report["derived_conditions"])
        assert report["derived_conditions"][0]["values"] == ["1"]
        assert report["derived_conditions"][1]["values"] == ["3"]

    def test_identity_system_constant_trajectories(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "n": 2,
                "matrix": [["1", "0"], ["0", "1"]],
                "operator": "shift",
                "phi": [
                    {"origin": 0, "values": ["0", "0", "0", "0"]},
                    {"origin": 0, "values": ["0", "0", "0", "0"]},
                ],
                "initial": {"t0": 0, "x0": ["5", "-2"]},
                "horizon": 4,
            },
        )
        rc, out, _ = run_cli(capsys, ["solve", "--spec", spec, "--format", "json"])
        assert rc == 0
        report = json.loads(out)
        assert report["trajectories"][0]["values"] == ["5"] * 5
        assert report["trajectories"][1]["values"] == ["-2"] * 5
        assert report["all_zero"] is True

    def test_horizon_flag_overrides(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys,
            ["solve", "--spec", self.homogeneous_spec(tmp_path), "--format", "json", "--horizon", "3"],
        )
        assert rc == 0
        assert len(json.loads(out)["trajectories"][0]["values"]) == 4

    def test_missing_initial(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "n": 1,
                "matrix": [["1"]],
                "operator": "shift",
                "phi": [{"origin": 0, "values": ["0", "0", "0"]}],
                "horizon": 2,
            },
        )
        rc, _, err = run_cli(capsys, ["solve", "--spec", spec])
        assert rc == 2
        assert "initial" in err

    def test_missing_horizon(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "n": 1,
                "matrix": [["1"]],
                "operator": "shift",
                "phi": [{"origin": 0, "values": ["0", "0", "0"]}],
                "initial": {"t0": 0, "x0": ["1"]},
            },
        )
        rc, _, err = run_cli(capsys, ["solve", "--spec", spec])
        assert rc == 2
        assert "horizon" in err

    def test_wrong_operator(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "n": 1,
                "matrix": [["1"]],
                "operator": "derivative",
                "phi": [{"coeffs": ["1"]}],
                "initial": {"t0": 0, "x0": ["1"]},
                "horizon": 3,
            },
        )
        rc, _, err = run_cli(capsys, ["solve", "--spec", spec])
        assert rc == 2
        assert "shift" in err

    def test_results_past_the_int_digit_limit(self, capsys, tmp_path):
        # x_t = 10^(10 t) reaches 5001 digits at t = 500, past CPython's
        # default 4300-digit limit on int/str conversion
        horizon = 500
        spec = write_spec(
            tmp_path,
            {
                "n": 1,
                "matrix": [["10000000000"]],
                "operator": "shift",
                "phi": [{"origin": 0, "values": ["0"] * (horizon + 1)}],
                "initial": {"t0": 0, "x0": ["1"]},
                "horizon": horizon,
            },
        )
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        rc, out, err = run_cli(capsys, ["solve", "--spec", spec, "--format", "json"])
        assert (rc, err) == (0, "")
        report = json.loads(out)
        assert report["trajectories"][0]["values"][-1] == "1" + "0" * 5000
        assert report["all_zero"] is True
        if limit is not None:
            assert sys.get_int_max_str_digits() == limit

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no int/str digit limit"
    )
    def test_spec_literals_stay_under_the_int_digit_limit(self, capsys, tmp_path):
        digits = sys.get_int_max_str_digits()
        if digits == 0:
            pytest.skip("int/str digit limit is switched off")
        spec = write_spec(
            tmp_path,
            {
                "n": 1,
                "matrix": [["1" * (digits + 1)]],
                "operator": "shift",
                "phi": [{"origin": 0, "values": ["0", "0", "0"]}],
                "initial": {"t0": 0, "x0": ["1"]},
                "horizon": 2,
            },
        )
        rc, _, err = run_cli(capsys, ["solve", "--spec", spec])
        assert rc == 2
        assert "matrix" in err


class TestCramer:
    def spec(self, tmp_path, matrix):
        return write_spec(
            tmp_path,
            {"n": 2, "matrix": matrix, "operator": "zero", "phi": ["1", "1"]},
        )

    def test_solution_and_agreement(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys,
            ["cramer", "--spec", self.spec(tmp_path, [["1", "2"], ["3", "4"]]), "--format", "json"],
        )
        assert rc == 0
        report = json.loads(out)
        assert report["solution"] == ["1", "-1"]
        assert report["residual"] == ["0", "0"]
        assert report["pipeline_agreement"] is True

    def test_identity_negates(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {"n": 2, "matrix": [["1", "0"], ["0", "1"]], "operator": "zero", "phi": ["2/3", "-5"]},
        )
        rc, out, _ = run_cli(capsys, ["cramer", "--spec", spec, "--format", "json"])
        assert rc == 0
        assert json.loads(out)["solution"] == ["-2/3", "5"]

    def test_singular_exit_code(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, ["cramer", "--spec", self.spec(tmp_path, [["1", "1"], ["1", "1"]])]
        )
        assert rc == 3
        assert "det(B) = 0" in err

    def test_wrong_operator(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "n": 1,
                "matrix": [["1"]],
                "operator": "shift",
                "phi": [{"origin": 0, "values": ["0", "0"]}],
            },
        )
        rc, _, err = run_cli(capsys, ["cramer", "--spec", spec])
        assert rc == 2
        assert "zero" in err

    def test_determinants_per_command(self, capsys, monkeypatch):
        # det(B) in cramer_solve and in the minor route's char_poly_minors,
        # plus the three substituted matrices; d_n comes from the minor route
        calls = []
        original = exactcore.det

        def counting_det(m):
            calls.append(m)
            return original(m)

        patch_everywhere(monkeypatch, original, counting_det)
        rc, _, _ = run_cli(capsys, ["cramer", "--spec", str(DATA_DIR / "zero_3x3.json")])
        assert rc == 0
        assert len(calls) == 5

    def test_nonconstant_phi_rejected(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {"n": 1, "matrix": [["1"]], "operator": "zero", "phi": [{"coeffs": ["1", "2"]}]},
        )
        rc, _, err = run_cli(capsys, ["cramer", "--spec", spec])
        assert rc == 2
        assert "constant" in err


class TestOracle:
    def test_small_run_passes(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["oracle", "--trials", "16", "--nmax", "4", "--format", "json"]
        )
        assert rc == 0
        report = json.loads(out)
        assert report["all_passed"] is True
        assert all(block["fail"] == 0 for block in report["checks"].values())
        assert sum(block["pass"] for block in report["checks"].values()) == 16 * 4

    def test_seeded_runs_are_byte_identical(self, capsys):
        argv = ["oracle", "--trials", "10", "--nmax", "3", "--seed", "42", "--format", "json"]
        rc1, out1, _ = run_cli(capsys, argv)
        rc2, out2, _ = run_cli(capsys, argv)
        assert (rc1, rc2) == (0, 0)
        assert out1 == out2

    def test_injected_fault_fails_suite(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["oracle", "--trials", "10", "--nmax", "3", "--inject-fault", "--format", "json"],
        )
        assert rc == 4
        report = json.loads(out)
        assert report["all_passed"] is False
        assert report["checks"]["char_poly_routes"]["fail"] > 0

    def test_cap_and_range_validation(self, capsys):
        rc, _, err = run_cli(capsys, ["oracle", "--nmax", "13"])
        assert rc == 2
        assert "cap" in err
        rc, _, err = run_cli(capsys, ["oracle", "--nmin", "3", "--nmax", "2"])
        assert rc == 2
        rc, _, err = run_cli(capsys, ["oracle", "--trials", "0"])
        assert rc == 2


class TestVerify:
    def build_spec(self, tmp_path, perturb=False):
        b = Matrix([[1, 2], [3, 4]])
        x = ElementColumn([FiniteSequence(0, [1, 0, 2, 5, 3, 1, 4]), FiniteSequence(0, [2, 1, 0, 1, 2, 0, 1])])
        phi = manufacture_solution(b, x, OperatorKind.SHIFT)
        x_values = [list(entry.values) for entry in x]
        if perturb:
            x_values[1][3] += 1
        payload = {
            "n": 2,
            "matrix": [["1", "2"], ["3", "4"]],
            "operator": "shift",
            "phi": [
                {"origin": 0, "values": [format_rational(v) for v in entry.values]}
                for entry in phi
            ],
            "x": [
                {"origin": 0, "values": [format_rational(v) for v in values]}
                for values in x_values
            ],
        }
        return write_spec(tmp_path, payload)

    def test_manufactured_solution_verifies(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys, ["verify", "--spec", self.build_spec(tmp_path), "--format", "json"]
        )
        assert rc == 0
        report = json.loads(out)
        assert report["all_zero"] is True
        assert report["route_agreement"] is True

    def test_perturbed_solution_fails(self, capsys, tmp_path):
        rc, out, _ = run_cli(
            capsys,
            ["verify", "--spec", self.build_spec(tmp_path, perturb=True), "--format", "json"],
        )
        assert rc == 4
        report = json.loads(out)
        assert report["all_zero"] is False
        assert any(not block["is_zero"] for block in report["residuals"])

    def test_missing_candidate(self, capsys):
        rc, _, err = run_cli(capsys, ["verify", "--spec", str(DATA_DIR / "shift_2x2.json")])
        assert rc == 2
        assert "x" in err


class TestSpecParsing:
    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2,', encoding="utf-8")
        rc, _, err = run_cli(capsys, ["reduce", "--spec", str(path)])
        assert rc == 2
        assert "not valid JSON" in err
        assert "line" in err

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, ["reduce", "--spec", "/nonexistent/spec.json"])
        assert rc == 2
        assert "cannot read" in err

    def test_bad_rational_names_field(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "n": 2,
                "matrix": [["1", "x"], ["3", "4"]],
                "operator": "zero",
                "phi": ["0", "0"],
            },
        )
        rc, _, err = run_cli(capsys, ["reduce", "--spec", spec])
        assert rc == 2
        assert "matrix[0][1]" in err

    def test_float_rejected(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {"n": 1, "matrix": [[0.5]], "operator": "zero", "phi": ["0"]},
        )
        rc, _, err = run_cli(capsys, ["reduce", "--spec", spec])
        assert rc == 2
        assert "float" in err

    def test_zero_dimension_rejected(self, capsys, tmp_path):
        spec = write_spec(tmp_path, {"n": 0, "matrix": [], "operator": "zero", "phi": []})
        rc, _, err = run_cli(capsys, ["reduce", "--spec", spec])
        assert rc == 2
        assert "n" in err

    def test_unknown_field_rejected(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {"n": 1, "matrix": [["1"]], "operator": "zero", "phi": ["0"], "extra": 1},
        )
        rc, _, err = run_cli(capsys, ["reduce", "--spec", spec])
        assert rc == 2
        assert "unknown" in err

    def test_wrong_literal_kind_for_operator(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path,
            {
                "n": 1,
                "matrix": [["1"]],
                "operator": "derivative",
                "phi": [{"origin": 0, "values": ["1", "2"]}],
            },
        )
        rc, _, err = run_cli(capsys, ["reduce", "--spec", spec])
        assert rc == 2
        assert "phi[0]" in err

    def test_unknown_operator(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path, {"n": 1, "matrix": [["1"]], "operator": "integral", "phi": ["0"]}
        )
        rc, _, err = run_cli(capsys, ["reduce", "--spec", spec])
        assert rc == 2
        assert "operator" in err

    def test_phi_length_mismatch(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path, {"n": 2, "matrix": [["1", "0"], ["0", "1"]], "operator": "zero", "phi": ["0"]}
        )
        rc, _, err = run_cli(capsys, ["reduce", "--spec", spec])
        assert rc == 2
        assert "phi" in err


def test_internal_index_error_is_not_an_input_error(monkeypatch):
    # an IndexError can only come from a bug, so main lets it escape
    def broken(*args):
        raise IndexError("internal indexing bug")

    monkeypatch.setattr(cli, "total_reduce_adjugate", broken)
    with pytest.raises(IndexError, match="internal indexing bug"):
        main(["reduce", "--spec", str(DATA_DIR / "shift_2x2.json")])


def test_module_invocation_subprocess(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "opreduce",
            "reduce",
            "--spec",
            str(DATA_DIR / "shift_2x2.json"),
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["route_agreement"] is True


# Golden reports: every case is one CLI invocation whose exit code, stdout and
# stderr are pinned in tests/data/cli_goldens.json.  Regenerate that file
# with `PYTHONPATH=src python tests/test_cli.py` after an intended change of
# output.  zero_3x3.json's candidate x is the Cramer solution with its second
# component off by one, so its verify case pins the NONZERO path.
ORACLE = ["oracle", "--seed", "5", "--trials", "12", "--nmax", "4"]
GOLDEN_CASES = {
    "reduce-shift-json": ["reduce", "--spec", "shift_2x2_x.json", "--format", "json"],
    "reduce-shift-text": ["reduce", "--spec", "shift_2x2_x.json"],
    "reduce-derivative-json": ["reduce", "--spec", "derivative_3x3_x.json", "--format", "json"],
    "reduce-derivative-text": ["reduce", "--spec", "derivative_3x3_x.json"],
    "reduce-zero-json": ["reduce", "--spec", "zero_3x3.json", "--format", "json"],
    "reduce-zero-text": ["reduce", "--spec", "zero_3x3.json"],
    "solve-shift-json": ["solve", "--spec", "shift_2x2_x.json", "--format", "json"],
    "solve-shift-text": ["solve", "--spec", "shift_2x2_x.json"],
    "solve-derivative-rejected": ["solve", "--spec", "derivative_3x3_x.json"],
    "verify-shift-json": ["verify", "--spec", "shift_2x2_x.json", "--format", "json"],
    "verify-shift-text": ["verify", "--spec", "shift_2x2_x.json"],
    "verify-derivative-json": ["verify", "--spec", "derivative_3x3_x.json", "--format", "json"],
    "verify-derivative-text": ["verify", "--spec", "derivative_3x3_x.json"],
    "verify-zero-nonzero-json": ["verify", "--spec", "zero_3x3.json", "--format", "json"],
    "verify-zero-nonzero-text": ["verify", "--spec", "zero_3x3.json"],
    "cramer-zero-json": ["cramer", "--spec", "zero_3x3.json", "--format", "json"],
    "cramer-zero-text": ["cramer", "--spec", "zero_3x3.json"],
    "cramer-shift-rejected": ["cramer", "--spec", "shift_2x2_x.json"],
    "oracle-json": [*ORACLE, "--format", "json"],
    "oracle-text": ORACLE,
    "oracle-fault-json": [*ORACLE, "--inject-fault", "--format", "json"],
    "oracle-fault-text": [*ORACLE, "--inject-fault"],
    "help": ["--help"],
    **{f"help-{name}": [name, "--help"] for name in ("reduce", "solve", "cramer", "oracle", "verify")},
}
GOLDEN_PATH = DATA_DIR / "cli_goldens.json"


def run_golden_case(argv):
    """Exit code, stdout and stderr of one CLI call, spec paths under tests/data."""
    argv = [str(DATA_DIR / arg) if arg.endswith(".json") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help text to the terminal width it reads from COLUMNS
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(
        out
    ), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def test_golden_cases_match_the_golden_file():
    assert sorted(json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))) == sorted(GOLDEN_CASES)


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_report(name):
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[name]
    assert run_golden_case(GOLDEN_CASES[name]) == golden


if __name__ == "__main__":
    goldens = {name: run_golden_case(argv) for name, argv in sorted(GOLDEN_CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2) + "\n", encoding="utf-8")
