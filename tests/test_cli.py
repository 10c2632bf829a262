import argparse
import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DATA_DIR, patch_everywhere
from opreduce import cauchy, cli, exactcore, faddeev, minors, specio
from opreduce.cauchy import manufacture_solution
from opreduce.cli import main
from opreduce.exactcore import Matrix
from opreduce.operators import ElementColumn, FiniteSequence, OperatorKind, apply_vector, lincomb
from opreduce.reduction import ReducedSystem
from opreduce.specio import load_spec

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def write_spec(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def power_spec(tmp_path, horizon=500):
    """x_t = 10^(10 t): at horizon 500 the last value has 5001 digits and a solve report passes 1.2 MB."""
    return write_spec(
        tmp_path,
        {
            "n": 1,
            "matrix": [["10000000000"]],
            "operator": "shift",
            "phi": [{"origin": 0, "values": ["0"] * (horizon + 1)}],
            "initial": {"t0": 0, "x0": ["1"]},
            "horizon": horizon,
        },
        name="power.json",
    )


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

    def test_unwritable_out_file_fails_before_any_work(self, capsys, tmp_path, monkeypatch):
        calls = []

        def recording(*args):
            calls.append(args)
            raise AssertionError("the reduction ran before --out was opened")

        monkeypatch.setattr(cli, "reduce_checked", recording)
        target = tmp_path / "missing" / "report.json"
        rc, out, err = run_cli(
            capsys, ["reduce", "--spec", str(DATA_DIR / "shift_2x2.json"), "--out", str(target)]
        )
        assert (rc, out, calls) == (2, "", [])
        assert err.startswith(f"error: cannot write report to {target}: ")

    def test_out_may_name_the_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_bytes((DATA_DIR / "shift_2x2.json").read_bytes())
        rc, out, err = run_cli(capsys, ["reduce", "--spec", str(spec), "--format", "json", "--out", str(spec)])
        assert (rc, out, err) == (0, "", "")
        assert json.loads(spec.read_text())["char_poly"] == ["-5", "-2"]

    def test_bad_spec_leaves_the_out_file_alone(self, capsys, tmp_path):
        spec = tmp_path / "broken.json"
        spec.write_text('{"n": 2,', encoding="utf-8")
        target = tmp_path / "report.txt"
        target.write_text("earlier report\n", encoding="utf-8")
        rc, _, err = run_cli(capsys, ["reduce", "--spec", str(spec), "--out", str(target)])
        assert rc == 2
        assert "not valid JSON" in err
        assert target.read_text(encoding="utf-8") == "earlier report\n"

    @pytest.mark.parametrize("command", ["reduce", "solve", "verify"])
    def test_dimension_cap(self, capsys, tmp_path, command):
        # the cap is checked before --out opens, so a capped run leaves an earlier report as it was
        target = tmp_path / "report.txt"
        target.write_text("earlier report\n", encoding="utf-8")
        spec = str(DATA_DIR / "shift_2x2_x.json")
        rc, out, err = run_cli(capsys, [command, "--spec", spec, "--nmax", "1", "--out", str(target)])
        assert (rc, out) == (2, "")
        assert err == "error: dimension n = 2 exceeds the brute-force cap 1; raise --nmax to override\n"
        assert target.read_text(encoding="utf-8") == "earlier report\n"


class TestSolve:
    def homogeneous_spec(self, tmp_path, t0=0):
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
                "initial": {"t0": t0, "x0": ["1", "0"]},
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

    def test_initial_time_must_be_the_free_column_origin(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, ["solve", "--spec", self.homogeneous_spec(tmp_path, t0=1)])
        assert (rc, out, err) == (2, "", "error: free column origin must match t0\n")

    def test_horizon_must_exceed_the_order(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, ["solve", "--spec", self.homogeneous_spec(tmp_path), "--horizon", "2"])
        assert (rc, out, err) == (2, "", "error: horizon must be >= n + 1 = 3, got 2\n")

    def test_horizon_past_the_free_column(self, capsys, tmp_path):
        rc, out, err = run_cli(capsys, ["solve", "--spec", self.homogeneous_spec(tmp_path), "--horizon", "6"])
        assert (rc, out, err) == (2, "", "error: shift^5 needs horizon > 5, got 5\n")

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
        spec = power_spec(tmp_path)
        limit = sys.get_int_max_str_digits()
        rc, out, err = run_cli(capsys, ["solve", "--spec", spec, "--format", "json"])
        assert (rc, err) == (0, "")
        report = json.loads(out)
        assert report["trajectories"][0]["values"][-1] == "1" + "0" * 5000
        assert report["all_zero"] is True
        assert sys.get_int_max_str_digits() == limit

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
        # det(B) in cramer_solve plus the three substituted matrices; the
        # pipeline takes d_n and B_{n-1} from the trace recurrence, with no det
        calls = []
        original = exactcore.det

        def counting_det(m):
            calls.append(m)
            return original(m)

        patch_everywhere(monkeypatch, original, counting_det)
        rc, _, _ = run_cli(capsys, ["cramer", "--spec", str(DATA_DIR / "zero_3x3.json")])
        assert rc == 0
        assert len(calls) == 4

    def test_no_brute_force_cap(self, capsys, tmp_path):
        # cramer enumerates no minors, so it runs above the cap of the commands that do
        rng = random.Random(13)
        n = cli.BRUTE_FORCE_CAP + 1

        def literal():
            return f"{rng.randint(-9, 9)}/{rng.randint(1, 9)}"

        spec = write_spec(
            tmp_path,
            {
                "n": n,
                "matrix": [[literal() for _ in range(n)] for _ in range(n)],
                "operator": "zero",
                "phi": [literal() for _ in range(n)],
            },
        )
        rc, out, err = run_cli(capsys, ["cramer", "--spec", spec, "--format", "json"])
        assert (rc, err) == (0, "")
        assert json.loads(out)["pipeline_agreement"] is True
        with pytest.raises(SystemExit):
            main(["cramer", "--spec", spec, "--nmax", "20"])
        assert "unrecognized arguments: --nmax 20" in capsys.readouterr().err

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

    def test_each_route_is_built_once_per_trial(self, capsys, monkeypatch):
        # per trial: one adjugate_coeffs, one anchored table per order (for
        # adjugate_coeffs_minors) and one delta_k per order (for char_poly_minors);
        # the checks compare whole matrices, so no column is ever multiplied
        calls = {"table": [], "delta_k": [], "adjugate": [], "mat_vec": []}

        def counting(name, original):
            def counted(m, *rest):
                calls[name].append((m.n, *rest))
                return original(m, *rest)

            patch_everywhere(monkeypatch, original, counted)

        counting("table", minors._anchored_table)
        counting("delta_k", minors.delta_k)
        counting("adjugate", faddeev.adjugate_coeffs)
        counting("mat_vec", exactcore.mat_vec)
        rc, _, _ = run_cli(capsys, ["oracle", "--nmin", "1", "--nmax", "4", "--trials", "8"])
        assert rc == 0
        sizes = [1, 2, 3, 4] * 2
        assert calls["table"] == calls["delta_k"] == [(n, k) for n in sizes for k in range(1, n + 1)]
        assert calls["adjugate"] == [(n,) for n in sizes]
        assert calls["mat_vec"] == []

    def test_cap_and_range_validation(self, capsys):
        rc, _, err = run_cli(capsys, ["oracle", "--nmax", "13"])
        assert rc == 2
        assert "cap" in err
        rc, _, err = run_cli(capsys, ["oracle", "--nmin", "3", "--nmax", "2"])
        assert rc == 2
        rc, _, err = run_cli(capsys, ["oracle", "--trials", "0"])
        assert rc == 2


class TestIntegerForms:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--spec", str(DATA_DIR / "shift_2x2_x.json")],
            ["verify", "--spec", str(DATA_DIR / "derivative_3x3_x.json")],
            ["oracle", "--nmin", "1", "--nmax", "5", "--trials", "10"],
        ],
    )
    def test_no_matrix_is_cleared_after_birth(self, capsys, monkeypatch, argv):
        # every check reads a matrix's integer form, so the Fraction rows of a
        # matrix, once read, never reach clear_denominators
        read = []
        original_rows = Matrix.rows

        def recording_rows(m):
            read.append(original_rows(m))
            return read[-1]

        cleared = []
        original_clear = exactcore.clear_denominators

        def recording_clear(rows):
            cleared.append(rows)
            return original_clear(rows)

        monkeypatch.setattr(Matrix, "rows", recording_rows)
        patch_everywhere(monkeypatch, original_clear, recording_clear)
        rc, _, _ = run_cli(capsys, argv)
        assert rc == 0
        # the matrices of the spec or of the oracle trials are cleared at birth
        assert cleared
        assert not [rows for rows in cleared if any(rows is r for r in read)]
        if argv[0] == "oracle":
            # an oracle report holds no matrix, so no Fraction row is built at all
            assert read == []

    def test_only_the_reduce_report_reads_fraction_rows(self, capsys, monkeypatch):
        # every computation reads the integer forms; reduce's report alone
        # formats its terms from the rows of the coefficient matrices
        reads = {"report": 0, "elsewhere": 0}
        in_report = []
        original_rows = Matrix.rows
        original_report = specio.reduced_to_json

        def counting_rows(m):
            reads["report" if in_report else "elsewhere"] += 1
            return original_rows(m)

        def marking_report(reduced):
            in_report.append(True)
            try:
                return original_report(reduced)
            finally:
                in_report.pop()

        monkeypatch.setattr(Matrix, "rows", counting_rows)
        patch_everywhere(monkeypatch, original_report, marking_report)
        for command, spec in [
            ("verify", "shift_2x2_x.json"),
            ("solve", "shift_3x3_long.json"),
            ("cramer", "zero_3x3.json"),
            ("reduce", "shift_2x2_x.json"),
        ]:
            for fmt in ("json", "text"):
                rc, _, _ = run_cli(capsys, [command, "--spec", str(DATA_DIR / spec), "--format", fmt])
                assert rc in (0, 4)
                assert reads["elsewhere"] == 0, (command, fmt)
                assert (reads["report"] > 0) == (command == "reduce"), (command, fmt)
                reads["report"] = 0


class TestVerify:
    def build_spec(self, tmp_path, perturb=False, x_origin=0):
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
                {"origin": 0, "values": list(map(str, entry.values))}
                for entry in phi
            ],
            "x": [
                {"origin": x_origin, "values": list(map(str, values))}
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

    def test_missing_candidate(self, capsys, tmp_path):
        rc, _, err = run_cli(capsys, ["verify", "--spec", str(DATA_DIR / "shift_2x2.json")])
        assert rc == 2
        assert "x" in err
        # a candidate at another origin than phi is an input error too, named as such
        rc, out, err = run_cli(capsys, ["verify", "--spec", self.build_spec(tmp_path, x_origin=1)])
        assert (rc, out) == (2, "")
        assert err == "error: candidate and free columns must share a variant and an origin\n"


class TestCrossCheck:
    SPEC = str(DATA_DIR / "shift_2x2_x.json")

    @pytest.mark.parametrize("command", ["reduce", "verify", "solve"])
    def test_cross_check_builds_no_right_hand_side(self, capsys, monkeypatch, command):
        # one reduction's worth of evaluation: the minor route is compared by its coefficients
        n = 2
        calls = {"lincomb": 0, "apply_vector": 0}

        def counting(original):
            def counted(*args):
                calls[original.__name__] += 1
                return original(*args)

            return counted

        for original in (lincomb, apply_vector):
            patch_everywhere(monkeypatch, original, counting(original))
        rc, _, _ = run_cli(capsys, [command, "--spec", self.SPEC, "--format", "json"])
        assert rc == 0
        residual_combinations = 0 if command == "reduce" else n
        assert calls == {"lincomb": 1 + residual_combinations, "apply_vector": n - 1}

    @staticmethod
    def off_by_one(ac):
        """``ac`` with the first entry of B_1 off by 1."""
        rows = [list(row) for row in ac.coeffs[1].rows()]
        rows[0][0] += 1
        return faddeev.AdjugateCoeffs((ac.coeffs[0], Matrix(rows), *ac.coeffs[2:]), ac.cp)

    @pytest.mark.parametrize("command", ["reduce", "verify", "solve"])
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_route_disagreement_reaches_the_cli(self, capsys, monkeypatch, command, fmt):
        original = faddeev.adjugate_coeffs_minors
        patch_everywhere(monkeypatch, original, lambda b: self.off_by_one(original(b)))
        rc, out, _ = run_cli(capsys, [command, "--spec", self.SPEC, "--format", fmt])
        assert rc == 4
        if fmt == "json":
            report = json.loads(out)
            assert report["route_agreement"] is False
            if command != "reduce":
                assert report["all_zero"] is False
        else:
            assert "route agreement: false" in out
            if command != "reduce":
                assert "all residuals zero: false" in out

    @pytest.mark.parametrize("command", ["reduce", "verify", "solve"])
    def test_every_command_compares_the_routes_in_one_place(self, capsys, monkeypatch, command):
        # the minor route replaced where cauchy.reduce_checked reads it, and nowhere else
        original = cauchy.total_reduce_minors

        def perturbed(b, phi, kind):
            return ReducedSystem(self.off_by_one(original(b, phi, kind).ac), phi, kind)

        monkeypatch.setattr(cauchy, "total_reduce_minors", perturbed)
        rc, out, _ = run_cli(capsys, [command, "--spec", self.SPEC, "--format", "json"])
        assert rc == 4
        assert json.loads(out)["route_agreement"] is False


class TestSpecParsing:
    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2,', encoding="utf-8")
        rc, _, err = run_cli(capsys, ["reduce", "--spec", str(path)])
        assert rc == 2
        assert "not valid JSON" in err
        assert "line" in err

    @pytest.mark.parametrize(
        "content",
        [
            ("[" * 100000 + "]" * 100000).encode(),
            b"\xff\xfe",
            b'{"origin": ' + b"7" * 5000 + b"}",
        ],
        ids=["deeply-nested", "not-utf-8", "over-digit-limit"],
    )
    def test_undecodable_spec_names_the_file(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        rc, _, err = run_cli(capsys, ["verify", "--spec", str(path)])
        assert rc == 2
        assert f"spec file {path} is not valid JSON" in err

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
        # an Arabic-Indic three is a Unicode decimal digit, but not a rational literal;
        # no-break, em and ideographic spaces are Unicode whitespace, which is not trimmed
        for literal in ("\u0663", "\xa05", "5\u2003", "\u30003/7"):
            spec = write_spec(
                tmp_path,
                {"n": 2, "matrix": [["1", literal], ["3", "4"]], "operator": "zero", "phi": ["0", "0"]},
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

    @pytest.mark.parametrize(
        "literal, reason",
        [
            (None, "not an exact rational: None"),
            ([1], "not an exact rational: [1]"),
            ({}, "not an exact rational: {}"),
            (True, "bool is not a rational scalar"),
            (0.5, "float 0.5 not accepted; use a rational literal string"),
        ],
        ids=["null", "list", "object", "true", "float"],
    )
    @pytest.mark.parametrize("field", ["matrix[0][1]", "phi[0].values[0]", "initial.x0[1]"])
    def test_non_literal_names_field(self, capsys, tmp_path, literal, reason, field):
        payload = {
            "n": 2,
            "matrix": [["1", "2"], ["3", "4"]],
            "operator": "shift",
            "phi": [{"origin": 0, "values": ["0"] * 4} for _ in range(2)],
            "initial": {"t0": 0, "x0": ["1", "0"]},
            "horizon": 3,
        }
        slot = {
            "matrix[0][1]": (payload["matrix"][0], 1),
            "phi[0].values[0]": (payload["phi"][0]["values"], 0),
            "initial.x0[1]": (payload["initial"]["x0"], 1),
        }
        target, index = slot[field]
        target[index] = literal
        rc, out, err = run_cli(capsys, ["solve", "--spec", write_spec(tmp_path, payload)])
        assert (rc, out, err) == (2, "", f"error: spec field {field}: {reason}\n")

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
        assert (rc, err) == (2, "error: spec field operator: unknown operator kind 'integral'\n")

    def test_phi_length_mismatch(self, capsys, tmp_path):
        spec = write_spec(
            tmp_path, {"n": 2, "matrix": [["1", "0"], ["0", "1"]], "operator": "zero", "phi": ["0"]}
        )
        rc, _, err = run_cli(capsys, ["reduce", "--spec", spec])
        assert rc == 2
        assert "phi" in err


class TestReportWriting:
    """Reports are written as they are encoded, and a failed write exits 2."""

    SMALL = {
        "reduce": ["reduce", "--spec", "shift_2x2_x.json"],
        "solve": ["solve", "--spec", "shift_3x3_long.json"],
        "cramer": ["cramer", "--spec", "zero_3x3.json"],
        "verify": ["verify", "--spec", "shift_2x2_x.json"],
        "oracle": ["oracle", "--trials", "4", "--nmax", "3"],
    }

    @staticmethod
    def solve_payload(spec):
        with cli._no_int_str_digit_limit():
            return cli.cmd_solve(argparse.Namespace(horizon=None), load_spec(spec))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("case", [*SMALL, "solve-long-horizon"])
    def test_full_device_exits_2(self, capsys, tmp_path, case, fmt):
        # a small report fails when it is flushed, a large one inside a write
        argv = ["solve", "--spec", power_spec(tmp_path)] if case == "solve-long-horizon" else self.SMALL[case]
        rc, out, err = run_cli(capsys, [*resolve_spec_paths(argv), "--format", fmt, "--out", "/dev/full"])
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot write report to /dev/full: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_reports_are_streamed(self, tmp_path, monkeypatch, fmt):
        # The payload is built first; rendering and writing the report then
        # allocates a small share of its size, not an encoded copy of it.
        spec = power_spec(tmp_path)
        payload, ok = self.solve_payload(spec)
        monkeypatch.setattr(cli, "cmd_solve", lambda args, spec: (payload, ok))
        target = tmp_path / f"report.{fmt}"
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rc = main(["solve", "--spec", spec, "--format", fmt, "--out", str(target)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert rc == 0
        assert size >= 1 << 20
        assert peak - before < size / 4

    def test_long_reports_are_byte_identical(self, capsys, tmp_path):
        spec = power_spec(tmp_path)
        payload, _ = self.solve_payload(spec)
        _, out, _ = run_cli(capsys, ["solve", "--spec", spec, "--format", "json"])
        assert out == json.dumps(payload, indent=2) + "\n"
        _, out, _ = run_cli(capsys, ["solve", "--spec", spec])
        assert out == "".join(cli._solve_text(payload))
        assert out.splitlines()[1] == "x1: " + ", ".join(payload["trajectories"][0]["values"])

    @staticmethod
    def cli_command(case, unbuffered=False):
        """argv and environment of ``python -m opreduce`` on a small case; stdout unbuffered or not."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        return [sys.executable, "-m", "opreduce", *resolve_spec_paths(TestReportWriting.SMALL[case])], env

    @staticmethod
    def into_closed_pipe(argv, env):
        """Exit code and stderr of a process whose stdout reader is gone before it writes."""
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        with proc.stderr:
            err = proc.stderr.read().decode()
        return proc.wait(timeout=60), err

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("case", ["reduce", "solve"])
    def test_closed_stdout_pipe_exits_2(self, case, unbuffered):
        # buffered, the reduce report fails when it is flushed, the solve report inside a write
        code, err = self.into_closed_pipe(*self.cli_command(case, unbuffered))
        assert code == 2
        assert err.startswith("error: cannot write report to -: ")
        assert err.count("\n") == 1

    def test_help_into_a_closed_stdout_pipe_is_quiet(self):
        argv, env = self.cli_command("reduce")
        assert self.into_closed_pipe([*argv[:3], "--help"], env) == (0, "")

    @pytest.mark.skipif(os.name != "posix", reason="closes descriptor 1 through the shell")
    def test_closed_stdout_exits_2(self):
        argv, env = self.cli_command("reduce")
        run = subprocess.run(
            ["sh", "-c", 'exec "$@" >&-', "sh", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        assert (run.returncode, run.stderr) == (2, "error: cannot write report to -: standard output is closed\n")


def test_internal_index_error_is_not_an_input_error(monkeypatch):
    # an IndexError can only come from a bug, so main lets it escape
    def broken(*args):
        raise IndexError("internal indexing bug")

    monkeypatch.setattr(cli, "reduce_checked", broken)
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
    "solve-long-shift-json": ["solve", "--spec", "shift_3x3_long.json", "--format", "json"],
    "solve-derivative-rejected": ["solve", "--spec", "derivative_3x3_x.json"],
    "verify-shift-json": ["verify", "--spec", "shift_2x2_x.json", "--format", "json"],
    "verify-shift-text": ["verify", "--spec", "shift_2x2_x.json"],
    "verify-derivative-json": ["verify", "--spec", "derivative_3x3_x.json", "--format", "json"],
    "verify-derivative-text": ["verify", "--spec", "derivative_3x3_x.json"],
    "verify-zero-nonzero-json": ["verify", "--spec", "zero_3x3.json", "--format", "json"],
    "verify-zero-nonzero-text": ["verify", "--spec", "zero_3x3.json"],
    "verify-long-shift-nonzero-json": ["verify", "--spec", "shift_3x3_long.json", "--format", "json"],
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


def resolve_spec_paths(argv):
    """``argv`` with every spec file name resolved under tests/data."""
    return [str(DATA_DIR / arg) if arg.endswith(".json") else arg for arg in argv]


def run_golden_case(argv):
    """Exit code, stdout and stderr of one CLI call, spec paths under tests/data."""
    argv = resolve_spec_paths(argv)
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


SPEC_FIXTURES = sorted(path for path in DATA_DIR.glob("*.json") if "golden" not in path.stem)
# a value of each JSON type, and small ints that are odd in every field that takes a count
SWAPPED_VALUES = ("1/2", "x", 1, 0.5, None, True, [], {})
ODD_INTS = (-1, 0, 1, 2, 3, 7)


def _paths(node, path=()):
    """Every path below ``node``, as a tuple of keys and list indices."""
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield (*path, key)
        yield from _paths(child, (*path, key))


@st.composite
def edited_specs(draw):
    """A spec fixture with 1-3 edits: a value swapped for another type, a key or item deleted, an odd small int."""
    spec = json.loads(draw(st.sampled_from(SPEC_FIXTURES)).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(spec))
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = spec
        for step in parent_path:
            parent = parent[step]
        edit = draw(st.sampled_from(("swap", "delete", "int")))
        if edit == "delete":
            del parent[key]
        else:
            parent[key] = draw(st.sampled_from(SWAPPED_VALUES if edit == "swap" else ODD_INTS))
    return spec


@given(
    spec=edited_specs(),
    command=st.sampled_from(("reduce", "solve", "verify", "cramer")),
    fmt=st.sampled_from(("json", "text")),
    horizon=st.one_of(st.none(), st.integers(-1, 45)),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_exit_code_contract(tmp_path_factory, spec, command, fmt, horizon):
    # exit 0 or 4 writes a report and nothing else; exit 2 (bad input) or 3 (singular
    # matrix) writes no report and one error line; nothing else escapes cli.main
    path = tmp_path_factory.getbasetemp() / "edited_spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    argv = [command, "--spec", str(path), "--format", fmt]
    if command == "solve" and horizon is not None:
        argv += ["--horizon", str(horizon)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    else:
        assert err == "" and out.endswith("\n")
        if fmt == "json":
            assert json.loads(out)["command"] == command


if __name__ == "__main__":
    goldens = {name: run_golden_case(argv) for name, argv in sorted(GOLDEN_CASES.items())}
    GOLDEN_PATH.write_text(json.dumps(goldens, indent=2) + "\n", encoding="utf-8")
