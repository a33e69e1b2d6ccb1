"""CLI contract tests: subcommand outputs, exit codes, determinism."""

import argparse
import io
import json
import math
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sphkern
from sphkern import cli, interpolation
from sphkern.cli import _build_parser, main

N3_DESC = json.dumps({"family": "cap_conv", "d": 3, "s": math.pi / 4})
F2_DESC = json.dumps({"family": "truncated_power", "m": 2, "t": math.pi / 2})


def run_main(argv):
    return main(argv)


def _child_env():
    # the child interpreter imports the same package this test run does
    src = os.path.dirname(os.path.dirname(sphkern.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}


def read_rows(path):
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return lines[0], [ln.split(",") for ln in lines[1:]]


class TestEval:
    def test_cap_kernel_table_last_row_is_one(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = run_main(["eval", "--kernel", N3_DESC, "--grid", "5", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == "x,theta,value"
        assert float(rows[-1][0]) == 1.0
        assert float(rows[-1][2]) == 1.0

    def test_truncated_power_vanishes_at_pi(self, tmp_path):
        out = tmp_path / "t.csv"
        rc = run_main(
            ["eval", "--kernel", F2_DESC, "--grid", "9", "--grid-space", "theta", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_rows(out)
        assert float(rows[-1][1]) == pytest.approx(math.pi)
        assert float(rows[-1][2]) == 0.0

    def test_empty_grid_header_only(self, tmp_path):
        out = tmp_path / "t.csv"
        assert run_main(["eval", "--kernel", F2_DESC, "--grid", "0", "--out", str(out)]) == 0
        header, rows = read_rows(out)
        assert header == "x,theta,value"
        assert rows == []

    def test_bad_descriptor_exit_2(self, capsys):
        assert run_main(["eval", "--kernel", '{"family": "nope"}']) == 2
        assert "error" in capsys.readouterr().err

    def test_descriptor_from_file(self, tmp_path):
        desc = tmp_path / "k.json"
        desc.write_text(N3_DESC)
        out = tmp_path / "t.csv"
        assert run_main(["eval", "--kernel", str(desc), "--grid", "3", "--out", str(out)]) == 0


# Each of these used to end in a traceback (exit 1), a NaN table (exit 0) or
# a silently truncated field.
MALFORMED = [
    ('{"family": "truncated_power", "m": null, "t": 1.0}', 2),
    ('{"family": "truncated_power", "m": 2, "t": [1]}', 2),
    ('{"family": "cap_conv", "d": Infinity, "s": 0.5}', 2),
    ('{"family": "series", "coeffs": [], "lambda": 1.0}', 2),
    ('{"family": "series", "coeffs": [1.0, 0.5], "lambda": 1e300}', 2),
    ('{"family": "montee", "m": 2, "k": 1000, "t": 1.0}', 2),
    ('{"family": "montee", "m": 1000, "k": 1, "t": 1.0}', 2),
    ('{"family": "montee", "m": 171, "k": 1, "t": 1.0}', 2),
    ('{"family": "series", "coeffs": [1.0, NaN], "lambda": 1.0}', 2),
    ('{"family": "truncated_power", "m": 2.7, "t": 1.0}', 2),
    ('{"family": "truncated_power", "m": true, "t": 1.0}', 2),
    ('{"family": "series", "coeffs": {}, "lambda": 1.0}', 2),
]


class TestMalformedDescriptors:
    @pytest.mark.parametrize("desc, code", MALFORMED)
    def test_exit_code_and_one_error_line(self, capsys, desc, code):
        assert run_main(["eval", "--kernel", desc, "--grid", "5"]) == code
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_non_finite_values_exit_3(self, capsys):
        # 3^1000 overflows; numpy's own overflow warning is not the contract
        desc = '{"family": "truncated_power", "m": 1000, "t": 3.0}'
        with np.errstate(over="ignore"):
            assert run_main(["eval", "--kernel", desc, "--grid", "5"]) == 3
        assert "non-finite" in capsys.readouterr().err

    def test_largest_montee_order_evaluates(self):
        from sphkern.kernels import MAX_MONTEE_ORDER

        ok = json.dumps({"family": "montee", "m": MAX_MONTEE_ORDER, "k": 1, "t": 1.0})
        assert run_main(["eval", "--kernel", ok, "--grid", "5", "--out", os.devnull]) == 0

    def test_huge_float_m_fails_fast(self):
        # _primitive_term looped m times: this ran for over 20 s
        desc = '{"family": "montee", "m": 1e300, "k": 1, "t": 1.0}'
        proc = subprocess.run(
            [sys.executable, "-m", "sphkern.cli", "eval", "--kernel", desc, "--grid", "5"],
            capture_output=True,
            text=True,
            env=_child_env(),
            timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:") and len(proc.stderr.splitlines()) == 1


_MISSING, _VALID = object(), object()
_FAMILY_FIELDS = {
    "truncated_power": {"m": 2, "t": 1.0},
    "montee": {"m": 3, "k": 2, "t": 1.0},
    "cap_conv": {"d": 3, "s": 0.5},
    "series": {"coeffs": [1.0, 0.5, 0.25], "lambda": 1.0},
}
# values past the montee bound are left out: at the parent they ran for minutes
_FIELD_VALUES = [_MISSING, None, True, "x", [], -1, 0, 2.7, math.nan, math.inf, _VALID]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_descriptor_fuzz_never_raises(data):
    for family, valid in _FAMILY_FIELDS.items():
        desc = {"family": family}
        for key, good in valid.items():
            v = data.draw(st.sampled_from(_FIELD_VALUES), label=f"{family}.{key}")
            if v is not _MISSING:
                desc[key] = good if v is _VALID else v
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            rc = main(["eval", "--kernel", json.dumps(desc), "--grid", "5"])
        assert rc in (0, 2, 3), desc


class TestCoeffs:
    def test_single_gegenbauer_term(self, tmp_path):
        # descriptor coeffs are fhat values; the table holds w(n) * fhat(n)
        from sphkern.gegenbauer import GegenbauerParams, weight_w

        desc = json.dumps({"family": "series", "coeffs": [0.0, 0.0, 0.0, 4.0], "lambda": 1.0})
        out = tmp_path / "c.csv"
        rc = run_main(
            ["coeffs", "--kernel", desc, "--lambda", "1", "--trunc", "5", "--quad-order", "64", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_rows(out)
        vals = np.array([float(r[1]) for r in rows])
        assert vals[3] == pytest.approx(4.0 * weight_w(GegenbauerParams(1.0), 3), rel=1e-10)
        mask = np.ones(6, bool)
        mask[3] = False
        assert np.max(np.abs(vals[mask])) < 1e-10

    def test_f2_all_rows_positive(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = run_main(
            ["coeffs", "--kernel", F2_DESC, "--lambda", "1", "--trunc", "40", "--quad-order", "256", "--out", str(out)]
        )
        assert rc == 0
        _, rows = read_rows(out)
        assert len(rows) == 41
        assert all(float(r[1]) > 0 for r in rows)

    def test_truncation_zero_single_row(self, tmp_path):
        out = tmp_path / "c.csv"
        rc = run_main(["coeffs", "--kernel", F2_DESC, "--lambda", "1", "--trunc", "0", "--out", str(out)])
        assert rc == 0
        _, rows = read_rows(out)
        assert len(rows) == 1

    def test_lambda_past_the_bound_exit_2(self, capsys):
        # lambda = 1e15 printed a table from C^lam_1(1) = 7.9e13, not 2e15
        assert run_main(["coeffs", "--kernel", F2_DESC, "--lambda", "1e15", "--trunc", "2"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:") and "at most 1000" in err[0]


class TestVerify:
    FAST_CHECKS = [
        "--check", "quadrature_exactness",
        "--check", "identity_D_on_gegenbauer",
        "--check", "hop_constant",
        "--check", "cap_kernel_boundary",
    ]

    def test_selected_checks_pass(self, tmp_path):
        out = tmp_path / "report.json"
        rc = run_main(["verify", *self.FAST_CHECKS, "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["all_passed"]
        assert len(report["checks"]) == 4

    def test_tightened_tolerance_fails(self, tmp_path):
        out = tmp_path / "report.json"
        rc = run_main(["verify", *self.FAST_CHECKS, "--tol", "1e-16", "--out", str(out)])
        assert rc == 1
        report = json.loads(out.read_text())
        assert not report["all_passed"]
        failing = [c["name"] for c in report["checks"] if not c["passed"]]
        assert failing

    def test_single_check_selection(self, tmp_path):
        out = tmp_path / "report.json"
        rc = run_main(["verify", "--check", "hop_constant", "--out", str(out)])
        assert rc == 0
        report = json.loads(out.read_text())
        assert [c["name"] for c in report["checks"]] == ["hop_constant"]


class TestConv:
    def test_cap_self_convolution_values(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = run_main(
            ["conv", "--cap-s", str(math.pi / 4), "--lambda", "1", "--grid", "7", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == "x,value"
        assert len(rows) == 7
        xs = np.array([float(r[0]) for r in rows])
        vals = np.array([float(r[1]) for r in rows])
        assert np.all(vals[xs <= math.cos(math.pi / 2)] == 0.0)

    def test_coefficient_table(self, tmp_path):
        out = tmp_path / "conv.csv"
        rc = run_main(
            ["conv", "--cap-s", "1.0", "--lambda", "1", "--table", "coeffs", "--trunc", "12", "--out", str(out)]
        )
        assert rc == 0
        header, rows = read_rows(out)
        assert header == "n,coeff"
        assert all(float(r[1]) >= -1e-12 for r in rows)  # squares

    def test_noninteger_lambda_values_rejected(self):
        assert run_main(["conv", "--cap-s", "1.0", "--lambda", "0.5", "--grid", "3"]) == 2

    def test_numeric_ladder_table_does_not_depend_on_the_theta_block(self, tmp_path, monkeypatch):
        # the hop of N_3 at lambda = 3 integrates montee images of montee
        # images; each is built once, so no value depends on the other x of
        # its theta block
        n3 = json.dumps({"family": "cap_conv", "d": 3, "s": 0.5})
        tables = []
        for block in (64, 32):
            monkeypatch.setattr("sphkern.convolution._THETA_BLOCK", block)
            out = tmp_path / f"block{block}.csv"
            assert run_main(["conv", "--kernel", n3, "--lambda", "3", "--grid", "101", "--out", str(out)]) == 0
            tables.append(out.read_bytes())
        assert tables[0] == tables[1]


class TestIntegerOptions:
    # --grid and --trunc take 0 and up, --quad-order and gen-points --n 1
    # and up, --seed 0 and up; any other value is a usage error before
    # anything runs, naming the option
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["eval", "--kernel", F2_DESC, "--grid", "-2"], "must be an integer >= 0"),
            (["conv", "--cap-s", "0.5", "--lambda", "1", "--grid", "-3"], "must be an integer >= 0"),
            (["conv", "--cap-s", "0.5", "--lambda", "1", "--quad-order", "0"], "must be an integer >= 1"),
            (["coeffs", "--kernel", F2_DESC, "--lambda", "1", "--quad-order", "0"], "must be an integer >= 1"),
            (["coeffs", "--kernel", F2_DESC, "--lambda", "1", "--trunc", "-1"], "argument --trunc: must be an integer >= 0"),
            (["conv", "--cap-s", "0.5", "--lambda", "1", "--table", "coeffs", "--trunc", "-1"], "must be an integer >= 0"),
            (["gen-points", "--sphere-dim", "2", "--n", "0"], "argument --n: must be an integer >= 1"),
            (["gen-points", "--sphere-dim", "2", "--scheme", "random_seeded", "--seed", "-1"], "argument --seed: must be an integer >= 0"),
            (["eval", "--kernel", F2_DESC, "--grid", "2.5"], "invalid integer value"),
        ],
        ids=(
            "eval-grid", "conv-grid", "conv-quad-order", "coeffs-quad-order", "coeffs-trunc", "conv-trunc",
            "gen-points-n", "gen-points-seed", "non-integer",
        ),
    )
    def test_out_of_range_exits_2_at_parse_time(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--kernel", F2_DESC, "--lambda", "1", "--trunc", "0"],
            ["gen-points", "--sphere-dim", "2", "--n", "1", "--scheme", "random_seeded", "--seed", "0"],
        ],
        ids=("trunc-0", "n-1-seed-0"),
    )
    def test_lowest_values_are_accepted(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 0


class TestCaps:
    def test_json_payload(self, tmp_path):
        out = tmp_path / "caps.json"
        rc = run_main(["caps", "--d", "3", "--s", str(math.pi / 4), "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["a"] == pytest.approx(math.pi / 8 - 0.25)
        assert payload["products"]["ab"] == -0.25
        assert payload["coefficients"]["b"] == pytest.approx(-0.25 / (math.pi / 8 - 0.25))

    def test_bad_dimension_exit_2(self, capsys):
        with pytest.raises(SystemExit):
            run_main(["caps", "--d", "4", "--s", "0.5"])


class TestGenPoints:
    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = run_main(
                ["gen-points", "--sphere-dim", "4", "--n", "20", "--scheme", "random_seeded", "--seed", "7", "--out", str(path)]
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()

    def test_fibonacci_output(self, tmp_path):
        out = tmp_path / "p.csv"
        rc = run_main(["gen-points", "--sphere-dim", "2", "--n", "10", "--out", str(out)])
        assert rc == 0
        header, rows = read_rows(out)
        assert header == "x0,x1,x2"
        pts = np.array([[float(v) for v in r] for r in rows])
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("lam", ["0.7", "-0.5", "nan"])
    def test_lambda_off_the_sphere_ladder_exit_2(self, capsys, lam):
        # 0.7 used to print points on S^2
        assert run_main(["gen-points", "--lambda", lam, "--n", "3"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestInterp:
    def _write_problem(self, tmp_path, n=20):
        pts_file = tmp_path / "pts.csv"
        val_file = tmp_path / "vals.csv"
        rc = run_main(["gen-points", "--sphere-dim", "2", "--n", str(n), "--out", str(pts_file)])
        assert rc == 0
        pts = np.array([[float(v) for v in row.split(",")] for row in pts_file.read_text().splitlines()[1:]])
        vals = pts[:, 2] ** 2
        val_file.write_text("\n".join(format(v, ".17g") for v in vals) + "\n")
        return pts_file, val_file, pts, vals

    def test_single_point_unit_coefficient(self, tmp_path):
        pts_file = tmp_path / "p.csv"
        pts_file.write_text("x0,x1,x2\n0,0,1\n")
        val_file = tmp_path / "v.csv"
        val_file.write_text("1.0\n")
        out = tmp_path / "itp.json"
        rc = run_main(
            ["interp", "--points", str(pts_file), "--values", str(val_file), "--kernel", N3_DESC, "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["coefficients"] == [1.0]
        assert payload["kernel"]["family"] == "cap_conv"

    def test_harmonic_problem_with_evaluation(self, tmp_path):
        pts_file, val_file, pts, vals = self._write_problem(tmp_path, n=50)
        out = tmp_path / "itp.json"
        eval_out = tmp_path / "eval.csv"
        rc = run_main(
            [
                "interp", "--points", str(pts_file), "--values", str(val_file),
                "--kernel", json.dumps({"family": "cap_conv", "d": 5, "s": math.pi / 3}),
                "--out", str(out), "--eval-points", str(pts_file), "--eval-out", str(eval_out),
            ]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["residual_inf"] <= 1e-9 * np.max(np.abs(vals))
        _, rows = read_rows(eval_out)
        evaluated = np.array([float(r[-1]) for r in rows])
        assert np.max(np.abs(evaluated - vals)) <= 1e-9

    @pytest.mark.parametrize("query", ["missing", "two_columns"])
    def test_bad_eval_points_exit_2_before_any_output(self, tmp_path, capsys, query):
        pts_file, val_file, _, _ = self._write_problem(tmp_path)
        q_file = tmp_path / "q.csv"
        if query == "two_columns":
            q_file.write_text("x0,x1\n0,1\n1,0\n")
        eval_out = tmp_path / "eval.csv"
        rc = run_main(
            [
                "interp", "--points", str(pts_file), "--values", str(val_file), "--kernel", N3_DESC,
                "--eval-points", str(q_file), "--eval-out", str(eval_out),
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not eval_out.exists()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    def test_duplicate_point_exit_2(self, tmp_path):
        pts_file = tmp_path / "p.csv"
        pts_file.write_text("x0,x1,x2\n0,0,1\n0,0,1\n")
        val_file = tmp_path / "v.csv"
        val_file.write_text("1.0\n2.0\n")
        rc = run_main(["interp", "--points", str(pts_file), "--values", str(val_file), "--kernel", N3_DESC])
        assert rc == 2

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_value_exit_2(self, tmp_path, capsys, bad):
        pts_file, val_file, _, vals = self._write_problem(tmp_path, n=20)
        capsys.readouterr()
        lines = [format(v, ".17g") for v in vals]
        lines[5] = bad
        val_file.write_text("\n".join(lines) + "\n")
        rc = run_main(["interp", "--points", str(pts_file), "--values", str(val_file), "--kernel", N3_DESC])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "finite" in captured.err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    def test_bad_tolerance_exit_2(self, tmp_path, capsys, tol):
        pts_file, val_file, _, _ = self._write_problem(tmp_path, n=20)
        capsys.readouterr()
        rc = run_main(
            ["interp", "--points", str(pts_file), "--values", str(val_file), "--kernel", N3_DESC, f"--tol={tol}"]
        )
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert "tolerance" in captured.err and "singular" not in captured.err

    def test_non_spd_kernel_exit_3(self, tmp_path):
        pts_file, val_file, _, _ = self._write_problem(tmp_path, n=30)
        harmonic_desc = json.dumps(
            {"family": "series", "coeffs": [0.0, 0.0, 1.0], "lambda": 1.0}
        )
        rc = run_main(
            ["interp", "--points", str(pts_file), "--values", str(val_file), "--kernel", harmonic_desc]
        )
        assert rc == 3

    def test_cg_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(interpolation, "_CG_MAX_ITER", 3)
        pts_file, val_file, _, _ = self._write_problem(tmp_path, n=4000)
        capsys.readouterr()
        narrow = json.dumps({"family": "cap_conv", "d": 3, "s": math.pi / 32})  # the CG route
        rc = run_main(["interp", "--points", str(pts_file), "--values", str(val_file), "--kernel", narrow])
        captured = capsys.readouterr()
        assert rc == 3
        assert captured.out == ""
        assert "CG did not converge in 3 iterations" in captured.err and "singular" not in captured.err

    def test_evaluation_is_byte_identical_on_1_and_3_workers(self, tmp_path, monkeypatch):
        pts_file, val_file, _, _ = self._write_problem(tmp_path, n=500)
        queries = tmp_path / "q.csv"
        assert run_main(["gen-points", "--sphere-dim", "2", "--n", "1000", "--scheme", "random_seeded", "--out", str(queries)]) == 0
        tables = []
        for workers in (1, 3):
            monkeypatch.setattr(interpolation, "_worker_count", lambda workers=workers: workers)
            eval_out = tmp_path / f"eval{workers}.csv"
            rc = run_main(
                [
                    "interp", "--points", str(pts_file), "--values", str(val_file), "--kernel", N3_DESC,
                    "--out", str(tmp_path / "itp.json"), "--eval-points", str(queries), "--eval-out", str(eval_out),
                ]
            )
            assert rc == 0
            tables.append(eval_out.read_bytes())
        assert tables[0] == tables[1] and tables[0].count(b"\n") == 1001

    def test_lonlat_ingestion(self, tmp_path):
        pts_file = tmp_path / "p.csv"
        pts_file.write_text("lon,lat\n0,0\n90,0\n0,90\n")
        val_file = tmp_path / "v.csv"
        val_file.write_text("1\n2\n3\n")
        out = tmp_path / "itp.json"
        rc = run_main(
            ["interp", "--points", str(pts_file), "--values", str(val_file), "--kernel", N3_DESC, "--lonlat", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["sphere_dim"] == 2
        centers = np.array(payload["centers"])
        assert np.allclose(centers[0], [1, 0, 0], atol=1e-15)
        assert np.allclose(centers[2], [0, 0, 1], atol=1e-15)


# Each table's last option names its file; {pts} and {vals} are written by
# the test.  interp's evaluation table is CSV only (--out holds the interpolant).
ROW_TABLES = {
    "eval": ["eval", "--kernel", F2_DESC, "--grid", "9", "--out"],
    "coeffs": ["coeffs", "--kernel", F2_DESC, "--lambda", "1", "--trunc", "6", "--quad-order", "64", "--out"],
    "conv_coeffs": ["conv", "--cap-s", "1.0", "--lambda", "1", "--table", "coeffs", "--trunc", "6", "--out"],
    "conv_values": ["conv", "--cap-s", "1.0", "--lambda", "1", "--grid", "7", "--out"],
    "gen_points": ["gen-points", "--sphere-dim", "2", "--n", "5", "--out"],
    "interp_eval": [
        "interp", "--points", "{pts}", "--values", "{vals}", "--kernel", N3_DESC,
        "--eval-points", "{pts}", "--out", os.devnull, "--eval-out",
    ],
}


class TestFormats:
    @pytest.mark.parametrize("name", sorted(ROW_TABLES))
    def test_csv_and_json_hold_the_same_rows(self, tmp_path, name):
        pts, vals = tmp_path / "pts.csv", tmp_path / "vals.csv"
        pts.write_text("x0,x1,x2\n1,0,0\n0,1,0\n0,0,1\n")
        vals.write_text("1\n2\n3\n")
        files = {"{pts}": str(pts), "{vals}": str(vals)}
        argv = [files.get(a, a) for a in ROW_TABLES[name]]
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
        assert run_main([*argv, str(csv_out)]) == 0
        header, rows = read_rows(csv_out)
        assert len(rows) > 0
        # every field is its value at 17 significant digits
        assert all(v == format(float(v), ".17g") for row in rows for v in row)
        if "--format" not in OPTIONS[argv[0]]:
            return
        assert run_main([*argv[:-1], "--format", "json", argv[-1], str(json_out)]) == 0
        table = json.loads(json_out.read_text())
        assert table["columns"] == header.split(",")
        # 17 significant digits give back the JSON float exactly
        assert [[float(v) for v in row] for row in rows] == table["rows"]
        if header.startswith("n,"):
            n = list(range(len(rows)))
            assert [row[0] for row in rows] == [str(k) for k in n]
            assert [row[0] for row in table["rows"]] == n and all(type(row[0]) is int for row in table["rows"])


# Every option of every subcommand; each command reads all of its own.
OPTIONS = {
    "eval": "--kernel --grid --grid-space --lambda --sphere-dim --out --format",
    "coeffs": "--kernel --lambda --sphere-dim --trunc --quad-order --out --format",
    "verify": "--check --tol --out",
    "conv": "--kernel --kernel2 --cap-s --grid --table --lambda --sphere-dim --trunc --quad-order --out --format",
    "caps": "--d --s --out",
    "interp": "--points --values --kernel --lonlat --eval-points --eval-out --lambda --sphere-dim --tol --out",
    "gen-points": "--n --scheme --seed --lambda --sphere-dim --out --format",
}
OPTIONS = {command: set(opts.split()) for command, opts in OPTIONS.items()}
# The options every subcommand took before each declared only what it
# reads, each with a value.
_ONCE_SHARED = {
    "--lambda": "1", "--sphere-dim": "3", "--trunc": "5", "--quad-order": "8",
    "--seed": "3", "--tol": "1e-3", "--out": "o", "--format": "csv",
}
# Arguments each subcommand parses without them.
_PARSES = {
    "eval": ["--kernel", F2_DESC],
    "coeffs": ["--kernel", F2_DESC],
    "verify": ["--check", "hop_constant"],
    "conv": ["--cap-s", "1.0"],
    "caps": ["--d", "3", "--s", "0.5"],
    "interp": ["--points", "p.csv", "--values", "v.csv", "--kernel", N3_DESC],
    "gen-points": ["--n", "2"],
}
_REMOVED = [(c, o) for c in sorted(OPTIONS) for o in sorted(_ONCE_SHARED.keys() - OPTIONS[c])]


class TestSurface:
    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_each_subcommand_takes_exactly_its_options(self, command):
        parser = _build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        taken = {o for a in sub.choices[command]._actions for o in a.option_strings if o not in ("-h", "--help")}
        assert taken == OPTIONS[command]

    def test_the_parser_has_48_options(self):
        assert sum(map(len, OPTIONS.values())) == 48 and len(_REMOVED) == 28

    @pytest.mark.parametrize("command, option", _REMOVED)
    def test_an_option_the_command_does_not_read_exits_2(self, capsys, command, option):
        with pytest.raises(SystemExit) as exc:
            main([command, *_PARSES[command], option, _ONCE_SHARED[option]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option}" in capsys.readouterr().err


class TestParserReuse:
    # one parser serves every main() call of a process
    def test_the_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_repeated_verify_reports_only_its_own_check(self, capsys):
        for name in ("hop_constant", "cap_transform"):
            assert run_main(["verify", "--check", name]) == 0
            report = json.loads(capsys.readouterr().out)
            assert [c["name"] for c in report["checks"]] == [name]

    def test_after_a_usage_error_coeffs_prints_what_a_fresh_process_prints(self, capsys):
        argv = ["coeffs", "--kernel", F2_DESC, "--lambda", "1", "--trunc", "12"]
        with pytest.raises(SystemExit) as exc:
            main(["coeffs", "--kernel", F2_DESC, "--lambda", "2", "--trunc", "many"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert run_main(argv) == 0
        fresh = subprocess.run([sys.executable, "-m", "sphkern.cli", *argv], capture_output=True, env=_child_env())
        assert fresh.returncode == 0
        assert capsys.readouterr().out.encode() == fresh.stdout


def _address_space_cap():
    # a bound that stopped working would fail here, not take the machine's memory
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


class TestOversizedInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["coeffs", "--kernel", F2_DESC, "--lambda", "1", "--trunc", "200000"],
            ["coeffs", "--kernel", json.dumps({"family": "series", "coeffs": [1.0], "lambda": 1.0}), "--lambda", "1", "--trunc", "99999"],
            ["coeffs", "--kernel", F2_DESC, "--lambda", "1", "--quad-order", "1000000000"],
            ["conv", "--cap-s", "1.0", "--lambda", "1", "--table", "coeffs", "--trunc", "200000"],
            ["conv", "--cap-s", "1.0", "--lambda", "1", "--grid", "3", "--quad-order", "1000000000"],
        ],
        ids=["trunc", "series_trunc", "quad_order", "conv_trunc", "conv_quad_order"],
    )
    def test_past_the_quadrature_bound_exits_2_at_once(self, argv):
        # before the shared bound: a traceback from a 74.5-298 GiB allocation, exit 1
        proc = subprocess.run(
            [sys.executable, "-m", "sphkern.cli", *argv],
            capture_output=True,
            text=True,
            env=_child_env(),
            preexec_fn=_address_space_cap,
            timeout=30,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: quadrature order") and len(proc.stderr.splitlines()) == 1

    @pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 74.5 GiB")])
    def test_memory_error_exits_2_with_one_line(self, monkeypatch, capsys, exc):
        # stands in for e.g. eval --grid 10000000000, which tier-1 must not allocate
        def oversized(args):
            raise exc

        monkeypatch.setitem(cli._DISPATCH, "eval", oversized)
        assert run_main(["eval", "--kernel", F2_DESC]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: out of memory: ")


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            rc = run_main(
                ["coeffs", "--kernel", F2_DESC, "--lambda", "1", "--trunc", "25", "--quad-order", "200", "--out", str(path)]
            )
            assert rc == 0
        assert a.read_bytes() == b.read_bytes()


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sphkern.cli", "caps", "--d", "5", "--s", "0.6"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["d"] == 5


def test_import_leaves_scipy_spatial_and_sparse_unloaded():
    # the sparse interpolation path imports them on first use, so that
    # `import sphkern` stays as cheap as before it existed
    probe = "import sys, sphkern; print(sorted(m for m in ('scipy.spatial', 'scipy.sparse') if m in sys.modules))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
