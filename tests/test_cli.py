import hashlib
import json
import math
import subprocess
import sys

import pytest

from bench_configs import BENCH_CONFIGS
from loewner.cli import main

PI = math.pi


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "loewner.cli", *argv],
        capture_output=True,
        timeout=600,
    )


def write_config(tmp_path, name="config.json", **overrides):
    d = {
        "field": {"kind": "corollary", "schedule": {"segments": [
            {"t0": 0, "t1": 1, "measure": {
                "atoms": [{"angle": PI, "weight": 1.0}], "excluded_angle": 0.0}}]}},
        "integration": {"t0": 0, "t1": 1, "rel_tol": 1e-10, "abs_tol": 1e-12},
        "grid": {"kind": "polar", "radii": [0.3, 0.6], "angles": 4},
        "checks": ["semigroup", "dilation_tracking"],
        "fixed_points": [{"angle": PI, "expected_role": "brfp"},
                         {"angle": 0.0, "expected_role": "dw"}],
    }
    d.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(d))
    return path


class TestVerifyCommand:
    def test_exit_zero_and_deterministic_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        first = run_cli("verify", "--config", str(cfg))
        second = run_cli("verify", "--config", str(cfg))
        assert first.returncode == 0
        assert first.stdout == second.stdout
        payload = json.loads(first.stdout)
        assert all(c["pass"] for c in payload["checks"])

    def test_report_file_and_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        report = tmp_path / "report.json"
        res = run_cli("verify", "--config", str(cfg), "--report", str(report))
        assert res.returncode == 0
        assert b"pass semigroup" in res.stdout
        payload = json.loads(report.read_bytes())
        assert [c["name"] for c in payload["checks"]] == ["dilation_tracking", "semigroup"]

    def test_check_failure_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path,
            field={"kind": "corollary", "schedule": {"segments": [
                {"t0": 0, "t1": 1, "measure": {
                    "atoms": [{"angle": PI, "weight": 1.5}], "excluded_angle": 0.0}}]}},
            checks=["julia", "schwarz_pick"],
            skip_field_validation=True,
        )
        res = run_cli("verify", "--config", str(cfg))
        assert res.returncode == 1
        payload = json.loads(res.stdout)
        by_name = {c["name"]: c for c in payload["checks"]}
        assert by_name["julia"]["pass"] is False
        assert by_name["julia"]["max_residual"] > 0.0

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        res = run_cli("verify", "--config", str(path))
        assert res.returncode == 2
        assert b"config error" in res.stderr

    def test_semantic_config_error(self, tmp_path):
        cfg = write_config(tmp_path, checks=["frobnicate"])
        res = run_cli("verify", "--config", str(cfg))
        assert res.returncode == 2
        assert b"/checks/0" in res.stderr

    def test_missing_file(self):
        res = run_cli("verify", "--config", "/nonexistent/cfg.json")
        assert res.returncode == 2

    @pytest.mark.parametrize("overrides,pointer", [
        ({"tolerances": [1]}, "/tolerances"),
        ({"field": {"kind": "reciprocal", "tau": {"angle": "a"},
                    "data": [{"angle": 2.0, "alpha": 1.0}]}, "fixed_points": []},
         "/field/tau/angle"),
        ({"checks": [["x"]]}, "/checks/0"),
        ({"grid": {"kind": "polar", "radii": [0.3], "angles": True}}, "/grid/angles"),
        # json.dumps writes a bare NaN, a JSON extension the reader must refuse
        ({"field": {"kind": "reciprocal", "tau": {"angle": math.nan},
                    "data": [{"angle": 2.0, "alpha": 1.0}]},
          "fixed_points": [{"angle": 0.0, "expected_role": "dw"}]}, "/field/tau/angle"),
        ({"field": {"kind": "reciprocal", "tau": {"angle": 0.0}, "data": [{"angle": 2.0}]},
          "fixed_points": []}, "/field/data/0/alpha"),
        ({"field": {"kind": "reciprocal", "tau": {"angle": 0.0}, "data": [5]},
          "fixed_points": []}, "/field/data/0"),
        ({"field": {"kind": "reciprocal", "data": [{"angle": 2.0, "alpha": 1.0}]},
          "fixed_points": []}, "/field/tau"),
        ({"field": {"kind": "berkson_porta", "tau": {"angle": 0.0}}, "fixed_points": []},
         "/field/p"),
        ({"field": {"kind": "corollary", "schedule": {}}}, "/field/schedule/segments"),
        ({"field": {"kind": "corollary", "schedule": {"segments": [
            {"t0": 0, "measure": {"atoms": [], "excluded_angle": 0.0}}]}}},
         "/field/schedule/segments/0/t1"),
        ({"field": {"kind": "corollary", "schedule": {"segments": [
            {"t0": 0, "t1": 1, "measure": {"atoms": [{"angle": PI}], "excluded_angle": 0.0}}]}}},
         "/field/schedule/segments/0/measure/atoms/0/weight"),
        # schedule structure: the second segment does not start where the first ends
        ({"field": {"kind": "corollary", "schedule": {"segments": [
            {"t0": 0, "t1": 1, "measure": {"atoms": [{"angle": PI, "weight": 1.0}],
                                           "excluded_angle": 0.0}},
            {"t0": 2, "t1": 3, "measure": {"atoms": [{"angle": PI, "weight": 1.0}],
                                           "excluded_angle": 0.0}}]}}}, "/field/schedule"),
        ({"field": {"kind": "berkson_porta", "tau": {"angle": 0.0}, "p": {"schedule": {
            "segments": [{"t0": 0, "t1": 1, "measure": {"atoms": []}},
                         {"t0": 2, "t1": 3, "measure": {"atoms": []}}]}}},
          "fixed_points": []}, "/field/p/schedule"),
        ({"integration": {"t0": 0, "t1": 2}}, "/integration/t1"),
        # values out of range name the member, not the field
        ({"field": {"kind": "reciprocal", "tau": {"angle": 0.0},
                    "data": [{"angle": 2.0, "alpha": 1.0}, {"angle": 4.0, "alpha": -1}]},
          "fixed_points": []}, "/field/data/1/alpha"),
        ({"field": {"kind": "berkson_porta", "tau": {"angle": 0.0}, "p": {"measure": {
            "atoms": [{"angle": 2.0, "weight": 1.0}, {"angle": 4.0, "weight": 0}]}}},
          "fixed_points": []}, "/field/p/measure/atoms/1/weight"),
        ({"field": {"kind": "corollary", "schedule": {"segments": [
            {"t0": 0, "t1": 1, "measure": {"atoms": [{"angle": PI, "weight": -0.5}],
                                           "excluded_angle": 0.0}}]}}},
         "/field/schedule/segments/0/measure/atoms/0/weight"),
        ({"field": {"kind": "berkson_porta", "tau": {"angle": 0.0}, "p": {"const_re": 0.0}},
          "fixed_points": []}, "/field/p/const_re"),
        ({"field": {"kind": "reciprocal", "tau": {"re": 1.5, "im": 0.0},
                    "data": [{"angle": 2.0, "alpha": 1.0}]}, "fixed_points": []}, "/field/tau"),
        # atoms that coincide: the measure holding them
        ({"field": {"kind": "berkson_porta", "tau": {"angle": 0.0}, "p": {"measure": {
            "atoms": [{"angle": 2.0, "weight": 1.0}, {"angle": 2.0, "weight": 1.0}]}}},
          "fixed_points": []}, "/field/p/measure"),
    ], ids=["tolerances-list", "string-angle", "list-check-name", "bool-angles", "nan-angle",
            "missing-alpha", "non-object-data-entry", "missing-tau", "missing-p", "missing-segments",
            "missing-segment-t1", "missing-atom-weight", "corollary-schedule-gap",
            "berkson-porta-schedule-gap", "t1-past-schedule", "negative-alpha",
            "zero-atom-weight", "negative-segment-atom-weight", "nonpositive-const-p",
            "tau-outside-disk", "coincident-atoms"])
    def test_malformed_members_name_their_pointer(self, tmp_path, capsys, overrides, pointer):
        cfg = write_config(tmp_path, **overrides)
        assert main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {pointer}: ")
        assert "Traceback" not in err

    def test_misspelled_member_exits_at_its_pointer(self, tmp_path, capsys):
        # the seed-1 verify_dilation bench config, with fixed_points misspelled
        d = dict(BENCH_CONFIGS["verify_dilation", 1])
        d["fixed_point"] = d.pop("fixed_points")
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(d))
        assert main(["verify", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: /fixed_point: unknown member 'fixed_point'\n"

    @pytest.mark.parametrize("p,pointer", [
        ({"const_re": 1.0, "measure": {"atoms": [{"angle": 2.0, "weight": 1.0}]}},
         "/field/p/measure"),
        ({"measure": {"atoms": []}, "schedule": {"segments": []}}, "/field/p/schedule"),
        ({"const_re": 1.0, "imag_const": 0.5}, "/field/p/imag_const"),
    ], ids=["const-and-measure", "measure-and-schedule", "const-and-imag-const"])
    def test_two_forms_of_p_exit_at_the_second(self, tmp_path, capsys, p, pointer):
        cfg = write_config(tmp_path, field={"kind": "berkson_porta", "tau": {"angle": 0.0},
                                            "p": p}, fixed_points=[])
        assert main(["verify", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {pointer}: unknown member ")

    def test_two_forms_of_tau_exit_at_the_second(self, tmp_path, capsys):
        cfg = write_config(tmp_path, field={
            "kind": "reciprocal", "tau": {"angle": 0.0, "re": 1.0, "im": 0.0},
            "data": [{"angle": 2.0, "alpha": 1.0}]}, fixed_points=[])
        assert main(["verify", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("config error: /field/tau/re: unknown member ")


class TestSimulateCommand:
    def test_per_point_trajectories(self, tmp_path):
        cfg = write_config(tmp_path, output={"trajectory_csv": str(tmp_path / "out")})
        res = run_cli("simulate", "--config", str(cfg))
        assert res.returncode == 0
        files = sorted((tmp_path / "out").glob("trajectory_z*.csv"))
        assert len(files) == 8
        lines = files[0].read_text().splitlines()
        assert lines[0] == "t,w_re,w_im"
        assert len(lines) > 2

    def test_rows_interpolate_hyperbolic_group(self, tmp_path):
        # grid radius pushed tiny so the first grid point is nearly z = 0
        cfg = write_config(
            tmp_path,
            grid={"kind": "polar", "radii": [1e-12], "angles": 1},
            output={"trajectory_csv": str(tmp_path / "out")},
        )
        res = run_cli("simulate", "--config", str(cfg))
        assert res.returncode == 0
        rows = (tmp_path / "out" / "trajectory_z000.csv").read_text().splitlines()[1:]
        for row in rows:
            t, w_re, w_im = (float(v) for v in row.split(","))
            x = (math.exp(t) - 1.0) / (math.exp(t) + 1.0)
            assert abs(complex(w_re, w_im) - x) < 1e-8

    def test_combined_csv(self, tmp_path):
        out = tmp_path / "combined.csv"
        cfg = write_config(tmp_path, output={"trajectory_csv": str(out), "combined": True})
        res = run_cli("simulate", "--config", str(cfg))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "z_index,t,w_re,w_im"
        indices = {line.split(",")[0] for line in lines[1:]}
        assert indices == {str(i) for i in range(8)}

    def test_determinism_across_runs(self, tmp_path):
        cfg = write_config(tmp_path, output={"trajectory_csv": str(tmp_path / "a")})
        run_cli("simulate", "--config", str(cfg))
        first = (tmp_path / "a" / "trajectory_z000.csv").read_bytes()
        cfg2 = write_config(tmp_path, name="config2.json",
                            output={"trajectory_csv": str(tmp_path / "b")})
        run_cli("simulate", "--config", str(cfg2))
        assert (tmp_path / "b" / "trajectory_z000.csv").read_bytes() == first

    def test_degenerate_window_single_row(self, tmp_path):
        cfg = write_config(tmp_path,
                           integration={"t0": 0.5, "t1": 0.5},
                           output={"trajectory_csv": str(tmp_path / "out")})
        res = run_cli("simulate", "--config", str(cfg))
        assert res.returncode == 0
        lines = (tmp_path / "out" / "trajectory_z000.csv").read_text().splitlines()
        assert len(lines) == 2  # header + the single w = z row

    def test_missing_output_path(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli("simulate", "--config", str(cfg))
        assert res.returncode == 2

    def test_unreachable_output_path(self, tmp_path):
        cfg = write_config(tmp_path, output={"trajectory_csv": "/proc/nope/out"})
        res = run_cli("simulate", "--config", str(cfg))
        assert res.returncode != 0


class TestDerivativeCommand:
    def test_dilation_curve_output(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli("derivative", "--config", str(cfg), "--sigma", str(PI),
                      "--times", "0.25,0.5,1")
        assert res.returncode == 0
        lines = res.stdout.decode().splitlines()
        assert lines[0] == "t,dilation"
        for line in lines[1:]:
            t, v = (float(x) for x in line.split(","))
            assert v == pytest.approx(math.exp(t), rel=1e-3)

    def test_bad_times(self, tmp_path):
        cfg = write_config(tmp_path)
        res = run_cli("derivative", "--config", str(cfg), "--sigma", "0",
                      "--times", "abc")
        assert res.returncode == 2

    @pytest.mark.parametrize("sigma,times,argument", [
        ("abc", "0.5", "--sigma"),
        ("nan", "0.5", "--sigma"),
        ("inf", "0.5", "--sigma"),
        (str(PI), "nan", "--times"),
        (str(PI), "0.5,inf", "--times"),
        (str(PI), "0.5,x", "--times"),
        (str(PI), "0.5,2", "--times"),  # the schedule ends at 1 and hold_last is off
        (str(PI), "1,0.5", "--times"),
        (str(PI), ",", "--times"),
    ], ids=["sigma-text", "sigma-nan", "sigma-inf", "times-nan", "times-inf", "times-text",
            "times-past-schedule", "times-decreasing", "times-empty"])
    def test_bad_arguments_exit_2_naming_them(self, tmp_path, capsys, sigma, times, argument):
        cfg = write_config(tmp_path)
        code = main(["derivative", "--config", str(cfg), "--sigma", sigma, "--times", times])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"config error: {argument}: ")
        assert "Traceback" not in captured.err


#: (exit code, sha256) of what the CLI makes of the bench configs of
#: ``tests/bench_configs.py``: each verify report, the stdout of
#: ``derivative --sigma pi --times 0.5,1,2`` on each verify config, and the
#: simulate_grid CSVs (with their count), recorded with the program that
#: preceded the arc comparison's own normalization
BENCH_OUTPUT_SHA256 = {
    (1, "verify_oracle", "verify"):
        (0, "41f5071a4265af1dc09a37002df231638ba5d5ba8f604cc6b0a541369d3bdc70"),
    (1, "verify_oracle", "derivative"):
        (0, "e27110d8348ef4440bce701fc6e4c1c47b4c2459371d6a32c6485bbddf6e770d"),
    (1, "verify_dilation", "verify"):
        (0, "1bc2f1fd2444de9796f098a96c17dea73e393b2f02c743289f66f9f424349abe"),
    (1, "verify_dilation", "derivative"):
        (3, "40d4d8df284df23d1e5e289b02cf752826fd6d8f58efc628056cb61ef844b28e"),
    (1, "simulate_grid", "simulate"):
        (0, 128, "3d061263044276e9966fb91cb6434da557ae265664c51e3caa99686143fdfa4b"),
    (7, "verify_oracle", "verify"):
        (0, "ad8bd760a3c78c70305b297520347bfb2a89b8832b326ded01a9fdd4bfdb50a6"),
    (7, "verify_oracle", "derivative"):
        (0, "7242e34750d8397fb37e1e4a7c7e54273a938ccf35b6240e9521bd5a98017b70"),
    (7, "verify_dilation", "verify"):
        (0, "9b9b499e5d690f0e5287caa0f2e495777391a6bcba8762f3cfa15798b7e5a62d"),
    (7, "verify_dilation", "derivative"):
        (3, "40d4d8df284df23d1e5e289b02cf752826fd6d8f58efc628056cb61ef844b28e"),
    (7, "simulate_grid", "simulate"):
        (0, 128, "1cad9f85a0530c6393f1c753916559be42830ca0631ae67e42f072b1eeae373e"),
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("seed", [1, 7])
def test_bench_outputs_are_pinned(tmp_path, capsys, seed):
    """The bytes of every output of the bench workloads, so that a change
    meant to keep them shows that it does.  The digests are of this
    platform's numpy and libm; another platform may round differently."""
    got = {}
    for workload in ("verify_oracle", "verify_dilation", "simulate_grid"):
        cfg = tmp_path / f"{workload}.json"
        cfg.write_text(json.dumps(BENCH_CONFIGS[workload, seed]))
        if workload == "simulate_grid":
            out = tmp_path / "trajectories"
            code = main(["simulate", "--config", str(cfg), "--out", str(out)])
            files = [[p.name, _sha256(p.read_bytes())] for p in sorted(out.iterdir())]
            got[seed, workload, "simulate"] = (code, len(files),
                                               _sha256(json.dumps(files).encode()))
            continue
        report = tmp_path / f"{workload}.report.json"
        code = main(["verify", "--config", str(cfg), "--report", str(report)])
        got[seed, workload, "verify"] = (code, _sha256(report.read_bytes()))
        capsys.readouterr()
        code = main(["derivative", "--config", str(cfg), "--sigma", "3.141592653589793",
                     "--times", "0.5,1,2"])
        got[seed, workload, "derivative"] = (code, _sha256(capsys.readouterr().out.encode()))
    assert got == {k: v for k, v in BENCH_OUTPUT_SHA256.items() if k[0] == seed}
