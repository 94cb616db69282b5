import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from leolab import cli, opalg
from leolab.codes import spin_sector_decomposition
from leolab.leo import leo_from_json
from leolab.opalg import operator_to_json, pauli_string, random_hermitian


def run_cli(argv):
    try:
        cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)
    raise AssertionError("cli.main must exit")


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "model": "dfs2_leakage",
        "params": {"leak_set": ["XI"]},
        "g": 0.05,
        "seed": 3,
        "bath_dim": 4,
        "leo": {"route": "exchange_2dfs"},
        "schedule": {"n_cycles": 4, "tau": 0.05},
        "initial_state": "code:0",
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestSynth:
    def test_s_squared_route_spectrum(self, tmp_path):
        out = tmp_path / "pulse.json"
        assert run_cli(["synth", "--code", "dfs4", "--route", "s_squared",
                        "--out", out]) == 0
        pulse = leo_from_json(json.loads(out.read_text()))
        basis = spin_sector_decomposition(4).full_basis()
        diag = np.diag(basis.conj().T @ pulse.unitary.mat @ basis)
        assert np.sum(np.abs(diag - 1.0) < 1e-10) == 2
        assert np.sum(np.abs(diag + 1.0) < 1e-10) == 14

    def test_projector_any_code(self, tmp_path):
        out = tmp_path / "p.json"
        assert run_cli(["synth", "--code", "bare4", "--route", "projector",
                        "--out", out]) == 0
        pulse = leo_from_json(json.loads(out.read_text()))
        np.testing.assert_allclose(pulse.unitary.mat,
                                   np.diag([-1.0, -1.0, 1.0, 1.0]), atol=1e-15)

    def test_canonical_with_sigma_file(self, tmp_path):
        sigma = tmp_path / "sigma.json"
        xbar = (pauli_string("XX").mat + pauli_string("YY").mat) / 2.0
        sigma.write_text(json.dumps({
            "dim": 4, "re": xbar.real.tolist(), "im": xbar.imag.tolist(),
        }))
        out = tmp_path / "pulse.json"
        assert run_cli(["synth", "--code", "dfs2", "--route", "canonical",
                        "--sigma", sigma, "--out", out]) == 0
        pulse = leo_from_json(json.loads(out.read_text()))
        assert np.linalg.norm(pulse.unitary.mat - pauli_string("ZZ").mat) <= 1e-12

    def test_generalized_builtin_generator(self, tmp_path):
        out = tmp_path / "pulse.json"
        assert run_cli(["synth", "--code", "dfs4", "--route", "generalized",
                        "--generator", "half_s_squared", "--out", out]) == 0

    def test_route_code_mismatch(self, tmp_path, capsys):
        code = run_cli(["synth", "--code", "dfs2", "--route", "s_squared",
                        "--out", tmp_path / "x.json"])
        assert code == 1
        assert "dfs4" in capsys.readouterr().err

    def test_canonical_without_sigma(self, tmp_path, capsys):
        code = run_cli(["synth", "--code", "dfs2", "--route", "canonical",
                        "--out", tmp_path / "x.json"])
        assert code == 1
        assert "--sigma" in capsys.readouterr().err


class TestVerify:
    def test_pass_with_default_probes(self, tmp_path, capsys):
        pulse_file = tmp_path / "pulse.json"
        run_cli(["synth", "--code", "dfs2", "--route", "exchange_2dfs",
                 "--out", pulse_file])
        capsys.readouterr()
        assert run_cli(["verify", "--leo", pulse_file,
                        "--probes", "random:100:seed=5"]) == 0
        out = capsys.readouterr().out
        assert "pass" in out

    def test_fail_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(operator_to_json(pauli_string("XI"))))
        code = run_cli(["verify", "--leo", bad, "--code", "dfs2"])
        assert code == 2
        assert "FAIL" in capsys.readouterr().out

    def test_report_written(self, tmp_path):
        pulse_file = tmp_path / "pulse.json"
        run_cli(["synth", "--code", "dfs4", "--route", "s_squared",
                 "--out", pulse_file])
        report_file = tmp_path / "report.json"
        assert run_cli(["verify", "--leo", pulse_file,
                        "--probes", "random:10:seed=2",
                        "--out", report_file]) == 0
        report = json.loads(report_file.read_text())
        assert report["passed"] is True
        assert len(report["probes"]) == 10
        assert report["max_residual"] <= 1e-10

    def test_report_layout(self, tmp_path):
        pulse_file = tmp_path / "pulse.json"
        run_cli(["synth", "--code", "dfs2", "--route", "exchange_2dfs",
                 "--out", pulse_file])
        report_file = tmp_path / "report.json"
        assert run_cli(["verify", "--leo", pulse_file, "--probes",
                        "random:7:seed=2", "--out", report_file]) == 0
        report = json.loads(report_file.read_text())
        assert list(report) == ["passed", "phase", "structural_residual",
                                "max_residual", "tolerance", "probes"]
        assert report["tolerance"] == 1e-10
        assert [p["index"] for p in report["probes"]] == list(range(7))
        for p in report["probes"]:
            assert list(p) == ["index", "anticommutator_leakage",
                               "commutator_code", "commutator_outside"]

    @pytest.mark.parametrize("phase,exit_code", [
        (None, 0), ([-1.0, -0.0], 2), ([0.0, 1.0], 2),
    ], ids=["as_written", "negated", "rotated"])
    def test_stated_phase_checked(self, tmp_path, capsys, phase, exit_code):
        pulse_file = tmp_path / "pulse.json"
        run_cli(["synth", "--code", "dfs2", "--route", "exchange_2dfs",
                 "--out", pulse_file])
        if phase is not None:
            data = json.loads(pulse_file.read_text())
            data["phase"] = phase
            pulse_file.write_text(json.dumps(data))
        capsys.readouterr()
        report_file = tmp_path / "report.json"
        assert run_cli(["verify", "--leo", pulse_file,
                        "--out", report_file]) == exit_code
        out = capsys.readouterr().out
        assert json.loads(report_file.read_text())["passed"] is (exit_code == 0)
        if exit_code:
            assert out.startswith(f"verify: FAIL: stated phase {phase}")
        else:
            assert out.startswith("verify: pass")

    def test_operator_without_code_label(self, tmp_path, capsys):
        bad = tmp_path / "op.json"
        bad.write_text(json.dumps(operator_to_json(pauli_string("ZZ"))))
        assert run_cli(["verify", "--leo", bad]) == 1
        assert "--code" in capsys.readouterr().err

    def test_bad_probe_spec(self, tmp_path, capsys):
        pulse_file = tmp_path / "pulse.json"
        run_cli(["synth", "--code", "dfs2", "--route", "projector",
                 "--out", pulse_file])
        capsys.readouterr()
        assert run_cli(["verify", "--leo", pulse_file,
                        "--probes", "all-of-them"]) == 1
        assert "probe spec" in capsys.readouterr().err


class TestDecompose:
    def test_pauli_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run_cli(["decompose", "--code", "dfs2", "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "pauli_string,class,e_norm,eperp_norm,l_norm"
        assert len(lines) == 17

    def test_single_operator(self, tmp_path):
        op_file = tmp_path / "op.json"
        op_file.write_text(json.dumps(operator_to_json(random_hermitian(4, 3))))
        out = tmp_path / "dec.json"
        assert run_cli(["decompose", "--code", "dfs2", "--operator", op_file,
                        "--out", out]) == 0
        data = json.loads(out.read_text())
        assert set(data) >= {"e_part", "eperp_part", "l_part", "l_norm"}
        total = (np.array(data["e_part"]["re"]) + np.array(data["eperp_part"]["re"])
                 + np.array(data["l_part"]["re"]))
        np.testing.assert_allclose(total, random_hermitian(4, 3).mat.real,
                                   atol=1e-12)

    def test_non_qubit_code_needs_operator(self, tmp_path, capsys):
        assert run_cli(["decompose", "--code", "dual_rail",
                        "--out", tmp_path / "x.csv"]) == 1
        assert "--operator" in capsys.readouterr().err


class TestSimulateAndSweep:
    def test_simulate_writes_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,elapsed_time,leakage_population,code_fidelity"
        assert len(lines) == 6

    def test_free_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "free.csv"
        assert run_cli(["simulate", "--config", cfg, "--free", "--out", out]) == 0
        assert "free" in capsys.readouterr().out

    @pytest.mark.parametrize("model,route,flags,kind", [
        ({}, "exchange_2dfs", [], "pulsed (exchange_2dfs)"),
        ({}, "exchange_2dfs", ["--free"], "free"),
        ({"model": "hopping", "params": {"n_levels": 4}}, "number_op", [],
         "pulsed (number_op)"),
        ({"model": "linear_optics", "params": {}, "bath_dim": 1},
         "phase_shifter", [], "pulsed (phase_shifter)"),
    ], ids=["dfs2_pulsed", "dfs2_free", "hopping", "linear_optics"])
    def test_stdout_names_the_run(self, tmp_path, capsys, model, route, flags,
                                  kind):
        cfg = write_config(tmp_path, leo={"route": route}, **model)
        assert run_cli(["simulate", "--config", cfg, "--out",
                        tmp_path / "o.csv", *flags]) == 0
        assert capsys.readouterr().out.startswith(
            f"simulate: {kind}, final leakage ")

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("entry", ["NaN", "Infinity"])
    def test_non_finite_initial_state(self, tmp_path, capsys, command, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(write_config(tmp_path).read_text().replace(
            '"initial_state": "code:0"',
            f'"initial_state": {{"re": [0, {entry}, 0, 0], "im": [0, 0, 0, 0]}}'))
        extra = ["--n", "1,2"] if command == "sweep" else []
        assert run_cli([command, "--config", cfg, *extra,
                        "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: initial state must be finite")
        assert "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["simulate", "--config", cfg, "--out", a])
        run_cli(["simulate", "--config", cfg, "--seed", "4", "--out", b])
        assert a.read_text() != b.read_text()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", a]) == 0
        assert run_cli(["simulate", "--config", cfg, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_shape(self, tmp_path):
        cfg = write_config(tmp_path, **{"schedule": {"n_cycles": 8,
                                                     "total_time": 0.8}})
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", cfg, "--n", "1,2,4,8",
                        "--out", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "n,tau,final_leakage,distance_to_limit"
        ns = [int(ln.split(",")[0]) for ln in lines[1:]]
        assert ns == [1, 2, 4, 8]

    def test_sweep_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, **{"schedule": {"n_cycles": 4,
                                                     "total_time": 0.4}})
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["sweep", "--config", cfg, "--n", "1,2,4", "--out", a])
        run_cli(["sweep", "--config", cfg, "--n", "1,2,4", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    def test_long_run_never_reports_bad_input(self, tmp_path):
        # dfs2 at joint dim 64 with 4096 cycles: cycle^n can drift past the
        # unitarity tolerance; that is a numerical failure (exit 2), never a
        # config error (exit 1)
        cfg = write_config(tmp_path, bath_dim=16,
                           schedule={"n_cycles": 4096, "total_time": 2.0})
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", "from leolab.cli import main; main()",
             "simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode in (0, 2), proc.stderr
        if proc.returncode == 2:
            assert proc.stderr.startswith("numerical failure:")
            assert "residual" in proc.stderr


class TestConfigLeoBlock:
    """The config 'leo' block goes through the same dispatch as synth."""

    BENCH = Path(__file__).resolve().parent.parent / "bench" / "dfs2_benchmark.json"

    def test_canonical_sigma_matches_shipped_exchange_run(self, tmp_path):
        config = json.loads(self.BENCH.read_text())
        assert config["leo"] == {"route": "exchange_2dfs"}
        sigma = tmp_path / "sigma.json"
        xbar = (pauli_string("XX").mat + pauli_string("YY").mat) / 2.0
        sigma.write_text(json.dumps({
            "dim": 4, "re": xbar.real.tolist(), "im": xbar.imag.tolist(),
        }))
        config["leo"] = {"route": "canonical", "sigma": str(sigma)}
        canonical = tmp_path / "canonical.json"
        canonical.write_text(json.dumps(config))
        a = tmp_path / "exchange.csv"
        b = tmp_path / "canonical.csv"
        assert run_cli(["simulate", "--config", self.BENCH, "--out", a]) == 0
        assert run_cli(["simulate", "--config", canonical, "--out", b]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_route_listed(self, tmp_path, capsys):
        cfg = write_config(tmp_path, leo={"route": "teleport"})
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 1
        assert "projector" in capsys.readouterr().err
        assert not out.exists()


class TestPlotData:
    def test_timeseries_zero_coupling(self, tmp_path):
        cfg = write_config(tmp_path, g=0.0)
        out = tmp_path / "run.csv"
        plot = tmp_path / "run.dat"
        assert run_cli(["simulate", "--config", cfg, "--out", out,
                        "--plot-out", plot]) == 0
        rows = [ln.split() for ln in plot.read_text().strip().split("\n")]
        assert len(rows) == 5
        assert all(float(r[1]) <= 1e-12 for r in rows)

    def test_timeseries_columns_match_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run.csv"
        plot = tmp_path / "run.dat"
        run_cli(["simulate", "--config", cfg, "--out", out, "--plot-out", plot])
        csv_rows = out.read_text().strip().split("\n")[1:]
        dat_rows = plot.read_text().strip().split("\n")
        assert len(csv_rows) == len(dat_rows)
        for c, d in zip(csv_rows, dat_rows):
            _, t, leak, _ = c.split(",")
            x, y = d.split()
            assert float(x) == pytest.approx(float(t))
            assert float(y) == pytest.approx(float(leak))

    def test_convergence_slope_near_minus_one(self, tmp_path):
        cfg = write_config(tmp_path, **{"schedule": {"n_cycles": 64,
                                                     "total_time": 2.0}})
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.dat"
        assert run_cli(["sweep", "--config", cfg, "--n", "1,2,4,8,16,32,64",
                        "--out", out, "--plot-out", plot]) == 0
        pts = np.array([[float(v) for v in ln.split()]
                        for ln in plot.read_text().strip().split("\n")])
        slope = float(np.polyfit(pts[:, 0], pts[:, 1], 1)[0])
        assert slope == pytest.approx(-1.0, abs=0.25)

    def test_single_point_single_line(self, tmp_path):
        cfg = write_config(tmp_path, **{"schedule": {"n_cycles": 1,
                                                     "total_time": 0.2}})
        plot = tmp_path / "one.dat"
        run_cli(["sweep", "--config", cfg, "--n", "4",
                 "--out", tmp_path / "one.csv", "--plot-out", plot])
        assert len(plot.read_text().strip().split("\n")) == 1


MALFORMED_CONFIGS = [
    ("not_json", "{" '"model": "dfs2_leakage"'),
    ("top_level_array", "[1, 2, 3]"),
    ("missing_model", json.dumps({"params": {}, "g": 0.1, "seed": 1,
                                  "schedule": {"n_cycles": 1, "tau": 0.1}})),
    ("unknown_model", json.dumps({"model": "ising", "params": {}, "g": 0.1,
                                  "seed": 1,
                                  "schedule": {"n_cycles": 1, "tau": 0.1}})),
    ("missing_g", json.dumps({"model": "hopping", "params": {}, "seed": 1,
                              "schedule": {"n_cycles": 1, "tau": 0.1}})),
    ("string_g", json.dumps({"model": "hopping", "params": {}, "g": "strong",
                             "seed": 1,
                             "schedule": {"n_cycles": 1, "tau": 0.1}})),
    ("infinite_g", '{"model": "hopping", "params": {}, "g": 1e999, "seed": 1,'
                   ' "schedule": {"n_cycles": 1, "tau": 0.1}}'),
    ("missing_seed", json.dumps({"model": "hopping", "params": {}, "g": 0.1,
                                 "schedule": {"n_cycles": 1, "tau": 0.1}})),
    ("params_not_object", json.dumps({"model": "hopping", "params": 5,
                                      "g": 0.1, "seed": 1,
                                      "schedule": {"n_cycles": 1, "tau": 0.1}})),
    ("unknown_param", json.dumps({"model": "hopping",
                                  "params": {"n_levels": 4, "flavor": "mild"},
                                  "g": 0.1, "seed": 1,
                                  "schedule": {"n_cycles": 1, "tau": 0.1}})),
    ("leak_set_missing", json.dumps({"model": "dfs2_leakage", "params": {},
                                     "g": 0.1, "seed": 1,
                                     "schedule": {"n_cycles": 1, "tau": 0.1}})),
    ("leak_set_string", json.dumps({"model": "dfs2_leakage",
                                    "params": {"leak_set": "XI"},
                                    "g": 0.1, "seed": 1,
                                    "schedule": {"n_cycles": 1, "tau": 0.1}})),
    ("leak_set_empty", json.dumps({"model": "dfs2_leakage",
                                   "params": {"leak_set": []},
                                   "g": 0.1, "seed": 1,
                                   "schedule": {"n_cycles": 1, "tau": 0.1}})),
    ("leak_set_bad_label", json.dumps({"model": "dfs2_leakage",
                                       "params": {"leak_set": ["XX"]},
                                       "g": 0.1, "seed": 1,
                                       "schedule": {"n_cycles": 1,
                                                    "tau": 0.1}})),
    ("missing_schedule", json.dumps({"model": "dfs2_leakage",
                                     "params": {"leak_set": ["XI"]},
                                     "g": 0.1, "seed": 1})),
    ("schedule_both_times", json.dumps({"model": "dfs2_leakage",
                                        "params": {"leak_set": ["XI"]},
                                        "g": 0.1, "seed": 1,
                                        "schedule": {"n_cycles": 1, "tau": 0.1,
                                                     "total_time": 1.0}})),
    ("schedule_no_times", json.dumps({"model": "dfs2_leakage",
                                      "params": {"leak_set": ["XI"]},
                                      "g": 0.1, "seed": 1,
                                      "schedule": {"n_cycles": 1}})),
    ("schedule_negative_tau", json.dumps({"model": "dfs2_leakage",
                                          "params": {"leak_set": ["XI"]},
                                          "g": 0.1, "seed": 1,
                                          "schedule": {"n_cycles": 1,
                                                       "tau": -0.1}})),
    ("schedule_string_cycles", json.dumps({"model": "dfs2_leakage",
                                           "params": {"leak_set": ["XI"]},
                                           "g": 0.1, "seed": 1,
                                           "schedule": {"n_cycles": "many",
                                                        "tau": 0.1}})),
    ("initial_state_out_of_range", json.dumps({
        "model": "dfs2_leakage", "params": {"leak_set": ["XI"]},
        "g": 0.1, "seed": 1, "schedule": {"n_cycles": 1, "tau": 0.1},
        "initial_state": "code:9"})),
]


class TestMalformedConfigs:
    @pytest.mark.parametrize("name,text", MALFORMED_CONFIGS,
                             ids=[n for n, _ in MALFORMED_CONFIGS])
    def test_exit_one_with_diagnostic(self, tmp_path, capsys, name, text):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(text)
        code = run_cli(["simulate", "--config", cfg,
                        "--out", tmp_path / "out.csv"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.strip()
        assert not (tmp_path / "out.csv").exists()

    def test_twenty_cases_curated(self):
        assert len(MALFORMED_CONFIGS) == 20

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli(["simulate", "--config", tmp_path / "absent.json",
                        "--out", tmp_path / "o.csv"]) == 1
        assert "absent.json" in capsys.readouterr().err

    def test_json_error_has_line_and_column(self, tmp_path, capsys):
        cfg = tmp_path / "broken.json"
        cfg.write_text('{\n  "model": }\n')
        assert run_cli(["simulate", "--config", cfg,
                        "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert "broken.json:2:" in err


MISTYPED_VALUES = [
    ("schedule", "tau", [1]),
    ("schedule", "total_time", [1]),
    (None, "bath_dim", [4]),
    ("params", "collective_strength", [1]),
    ("params", "n_levels", [4]),
    ("leo", "sigma", [1]),
    ("leo", "route", [1]),
]

# integers must be JSON integers, flags JSON booleans and real values JSON
# numbers: int(3.7) would truncate, int(true) would read 1, bool("false") is
# True and float(true) and float("0.05") would read 1.0 and 0.05
STRICT_VALUES = [
    ("params", "shared_bath", "false"),
    ("params", "shared_bath", 0),
    (None, "seed", 3.7),
    (None, "seed", True),
    (None, "bath_dim", 3.7),
    (None, "bath_dim", True),
    ("params", "n_levels", 3.7),
    ("params", "n_levels", True),
    ("schedule", "n_cycles", 3.7),
    ("schedule", "n_cycles", True),
    (None, "g", True),
    (None, "g", "0.05"),
    ("params", "collective_strength", True),
    ("params", "collective_strength", "0.05"),
    ("schedule", "tau", True),
    ("schedule", "tau", "0.05"),
    ("schedule", "total_time", True),
    ("schedule", "total_time", "0.05"),
]


class TestMistypedConfigValues:
    """A value of the wrong JSON type is a config error, not a crash."""

    BENCH = Path(__file__).resolve().parent.parent / "bench" / "dfs2_benchmark.json"

    @pytest.mark.parametrize("block,key,value", MISTYPED_VALUES,
                             ids=[f"{b}.{k}" if b else k
                                  for b, k, _ in MISTYPED_VALUES])
    def test_exit_one_without_traceback(self, tmp_path, capsys, block, key,
                                        value):
        self.check_rejected(tmp_path, capsys, block, key, value)

    @pytest.mark.parametrize("block,key,value", STRICT_VALUES,
                             ids=[f"{b}.{k}={v!r}" if b else f"{k}={v!r}"
                                  for b, k, v in STRICT_VALUES])
    def test_no_truncation_or_truthiness(self, tmp_path, capsys, block, key,
                                         value):
        self.check_rejected(tmp_path, capsys, block, key, value)

    def test_integer_too_large_for_a_float(self, tmp_path, capsys):
        self.check_rejected(tmp_path, capsys, None, "g", 10**400)

    @pytest.mark.parametrize("spec", [
        {"re": [0, 1, 0, 0], "im": [0]},
        {"re": [0, True, 0, 0], "im": [0, 0, 0, 0]},
    ], ids=["unequal_lengths", "bool_entry"])
    def test_initial_state_object(self, tmp_path, capsys, spec):
        self.check_rejected(tmp_path, capsys, None, "initial_state", spec)

    def check_rejected(self, tmp_path, capsys, block, key, value):
        config = json.loads(self.BENCH.read_text())
        if key == "n_levels":
            config.update(model="hopping", params={})
        if key == "tau":
            del config["schedule"]["total_time"]
        (config[block] if block else config)[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli(["simulate", "--config", cfg,
                        "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert key in err


class TestMistypedRecords:
    """Operator and pulse records read their numbers as strictly as configs."""

    @pytest.mark.parametrize("record", [
        {"dim": 2.9, "re": [[True, 0], [0, "-1"]], "im": [[0, 0], [0, 0]]},
        {"dim": 2.9, "re": [[1, 0], [0, -1]], "im": [[0, 0], [0, 0]]},
        {"dim": 2, "re": [[True, 0], [0, -1]], "im": [[0, 0], [0, 0]]},
        {"dim": 2, "re": [[1, 0], [0, "-1"]], "im": [[0, 0], [0, 0]]},
    ], ids=["all_three", "float_dim", "bool_entry", "string_entry"])
    def test_decompose_operator(self, tmp_path, capsys, record):
        op_file = tmp_path / "op.json"
        op_file.write_text(json.dumps(record))
        self.check_rejected(capsys, ["decompose", "--code", "bare2",
                                     "--operator", op_file,
                                     "--out", tmp_path / "dec.json"])

    def test_verify_pulse_phase(self, tmp_path, capsys):
        pulse_file = tmp_path / "pulse.json"
        run_cli(["synth", "--code", "dfs2", "--route", "exchange_2dfs",
                 "--out", pulse_file])
        data = json.loads(pulse_file.read_text())
        data["phase"] = [True, 0]
        pulse_file.write_text(json.dumps(data))
        capsys.readouterr()
        self.check_rejected(capsys, ["verify", "--leo", pulse_file])

    @pytest.mark.parametrize("label", [3, ["dfs2"]], ids=["number", "list"])
    def test_verify_pulse_code_label(self, tmp_path, capsys, label):
        pulse_file = tmp_path / "pulse.json"
        run_cli(["synth", "--code", "dfs2", "--route", "exchange_2dfs",
                 "--out", pulse_file])
        data = json.loads(pulse_file.read_text())
        data["code_label"] = label
        pulse_file.write_text(json.dumps(data))
        capsys.readouterr()
        assert run_cli(["verify", "--leo", pulse_file]) == 1
        assert "malformed pulse record" in capsys.readouterr().err

    def test_pulse_record_phase(self, tmp_path):
        pulse_file = tmp_path / "pulse.json"
        run_cli(["synth", "--code", "dfs2", "--route", "exchange_2dfs",
                 "--out", pulse_file])
        data = json.loads(pulse_file.read_text())
        data["phase"] = [True, 0]
        with pytest.raises(ValueError, match="malformed pulse record"):
            leo_from_json(data)

    @staticmethod
    def check_rejected(capsys, argv):
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestFailedPropagatorCheck:
    def test_free_run_exits_two(self, tmp_path, capsys, monkeypatch):
        # --free builds no pulse, so the first tag check under the zero
        # tolerance is a propagator's
        monkeypatch.setattr(opalg, "UNITARY_TOL", 0.0)
        bench = Path(__file__).resolve().parent.parent / "bench"
        assert run_cli(["simulate", "--config", bench / "dfs2_benchmark.json",
                        "--free", "--out", tmp_path / "o.csv"]) == 2
        assert capsys.readouterr().err.startswith("numerical failure:")


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        assert run_cli(["transmogrify"]) == 1
        assert capsys.readouterr().err.strip()

    def test_unknown_code_listed(self, tmp_path, capsys):
        assert run_cli(["decompose", "--code", "qld", "--out",
                        tmp_path / "x.csv"]) == 1
        assert "dfs2" in capsys.readouterr().err

    def test_unknown_route_listed(self, tmp_path, capsys):
        assert run_cli(["synth", "--code", "dfs2", "--route", "teleport",
                        "--out", tmp_path / "x.json"]) == 1
        assert "projector" in capsys.readouterr().err

    def test_bad_cycle_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run_cli(["sweep", "--config", cfg, "--n", "1,two,4",
                        "--out", tmp_path / "x.csv"]) == 1
        assert capsys.readouterr().err.strip()

    def test_descending_cycle_list(self, tmp_path, capsys):
        cfg = write_config(tmp_path, **{"schedule": {"n_cycles": 4,
                                                     "total_time": 0.4}})
        assert run_cli(["sweep", "--config", cfg, "--n", "4,2,1",
                        "--out", tmp_path / "x.csv"]) == 1
        assert capsys.readouterr().err.strip()


class TestRoundTrips:
    def test_operator_file_round_trip(self, tmp_path):
        from leolab.opalg import operator_from_json

        op = random_hermitian(6, 11)
        path = tmp_path / "op.json"
        path.write_text(json.dumps(operator_to_json(op)))
        back = operator_from_json(json.loads(path.read_text()))
        assert np.max(np.abs(back.mat - op.mat)) <= 1e-15

    def test_leo_file_round_trip(self, tmp_path):
        out = tmp_path / "pulse.json"
        run_cli(["synth", "--code", "dual_rail", "--route", "phase_shifter",
                 "--out", out])
        pulse = leo_from_json(json.loads(out.read_text()))
        assert pulse.route == "phase_shifter"
        assert pulse.code.label == "dual_rail"
        again = tmp_path / "pulse2.json"
        run_cli(["synth", "--code", "dual_rail", "--route", "phase_shifter",
                 "--out", again])
        assert out.read_bytes() == again.read_bytes()
