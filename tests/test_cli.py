import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leolab import cli, dynamics, opalg
from leolab.codes import spin_sector_decomposition
from leolab.leo import leo_from_json
from leolab.opalg import Operator, operator_to_json, pauli_string, random_hermitian


def run_cli(argv):
    try:
        cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)
    raise AssertionError("cli.main must exit")


def run_fresh(*args):
    """Run python with args in a fresh interpreter that imports src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


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

    def test_dimension_mismatch_names_code(self, tmp_path, capsys):
        # verify_leo's check, with the operator dim, code and ambient dim
        op = tmp_path / "xi.json"
        op.write_text(json.dumps(operator_to_json(pauli_string("XI"))))
        assert run_cli(["verify", "--leo", op, "--code", "dfs4"]) == 1
        assert capsys.readouterr().err == (
            "error: operator dim 4 does not match code dfs4 (ambient 16)\n")

    def test_dimension_checked_before_any_probe(self, tmp_path, monkeypatch,
                                                capsys):
        # a mismatched operator draws none of its 20000 probes
        drawn = []
        monkeypatch.setattr(cli.leo_mod, "random_probes",
                            lambda *args: drawn.append(args))
        op = tmp_path / "xi.json"
        op.write_text(json.dumps(operator_to_json(pauli_string("XI"))))
        assert run_cli(["verify", "--leo", op, "--code", "dfs4",
                        "--probes", "random:20000:seed=1"]) == 1
        assert capsys.readouterr().err == (
            "error: operator dim 4 does not match code dfs4 (ambient 16)\n")
        assert drawn == []

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

    def test_non_finite_residuals_are_null(self, tmp_path, capsys):
        # 1e300 times the identity: every residual that overflows is written
        # as null, as strict JSON has no Infinity or NaN token
        big = tmp_path / "big.json"
        big.write_text(json.dumps(operator_to_json(
            Operator(1e300 * np.eye(4), frozenset()))))
        report_file = tmp_path / "report.json"
        assert run_cli(["verify", "--leo", big, "--code", "dfs2",
                        "--out", report_file]) == 2
        assert capsys.readouterr().out == (
            "verify: FAIL: structural residual inf, max probe residual inf "
            "over 100 probes (tolerance 1e-10)\n")
        report = json.loads(report_file.read_text(),
                            parse_constant=lambda token: 1 / 0)
        assert report["structural_residual"] is None
        assert report["max_residual"] is None
        assert {p["anticommutator_leakage"] for p in report["probes"]} == {None}
        assert report["phase"] == [1.0, 0.0]

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

    def test_norms_that_overflow_are_null(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(operator_to_json(
            Operator(1e300 * np.eye(4), frozenset()))))
        out = tmp_path / "dec.json"
        assert run_cli(["decompose", "--code", "dfs2", "--operator", big,
                        "--out", out]) == 0
        dec = json.loads(out.read_text(), parse_constant=lambda token: 1 / 0)
        assert (dec["e_norm"], dec["eperp_norm"], dec["l_norm"]) == (None, None, 0.0)

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

    def test_sweep_runs_at_the_configured_total_time(self, tmp_path, capsys):
        # 2 * 3 * (0.9 / 6) is 0.89999999999999991: a total_time schedule
        # sweeps at its own T, and row n gets T / 2n
        cfg = write_config(tmp_path, **{"schedule": {"n_cycles": 3,
                                                     "total_time": 0.9}})
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", cfg, "--n", "1,3",
                        "--out", out]) == 0
        assert "runs at T=0.90000000000000002," in capsys.readouterr().out
        taus = [float(ln.split(",")[1])
                for ln in out.read_text().strip().split("\n")[1:]]
        assert taus == [0.9 / 2, 0.9 / 6]

    def test_sweep_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, **{"schedule": {"n_cycles": 4,
                                                     "total_time": 0.4}})
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli(["sweep", "--config", cfg, "--n", "1,2,4", "--out", a])
        run_cli(["sweep", "--config", cfg, "--n", "1,2,4", "--out", b])
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("argv,limits", [
        (["simulate"], 0), (["simulate", "--free"], 0),
        (["sweep", "--n", "1,2,4"], 1),
    ], ids=["simulate", "free", "sweep"])
    def test_only_sweep_forms_the_limit(self, tmp_path, monkeypatch, argv,
                                        limits):
        # simulate writes no distance, so its report never forms the limit
        calls = []
        limit = dynamics._limit
        monkeypatch.setattr(dynamics, "_limit",
                            lambda *args: calls.append(args) or limit(*args))
        cfg = write_config(tmp_path, **{"schedule": {"n_cycles": 4,
                                                     "total_time": 0.4}})
        assert run_cli([argv[0], "--config", cfg, *argv[1:],
                        "--out", tmp_path / "o.csv"]) == 0
        assert len(calls) == limits

    def test_total_time_that_overflows_is_bad_input(self, tmp_path, capsys):
        # 2 n tau = 8e308 overflows to inf: a config error, not a failed
        # unitarity check of the limit
        cfg = write_config(tmp_path, schedule={"n_cycles": 4, "tau": 1e308})
        assert run_cli(["simulate", "--config", cfg,
                        "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("n", [2**60 - 1, 2**62, 2**70],
                             ids=["2^60-1", "2^62", "2^70"])
    @pytest.mark.parametrize("free", [False, True], ids=["pulsed", "free"])
    def test_cycle_count_no_array_holds_is_bad_input(self, tmp_path, capsys,
                                                    free, n):
        # from 2^60 - 1 on, the n + 1 float64 samples fit in no array: a
        # config error naming n_cycles, raised before anything is allocated
        # or any propagator drifts
        cfg = write_config(tmp_path, schedule={"n_cycles": n,
                                               "total_time": 2.0})
        argv = ["simulate", "--config", cfg, "--out", tmp_path / "o.csv"]
        assert run_cli(argv + ["--free"] * free) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n_cycles" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_sweep_count_past_the_float_range_is_bad_input(self, tmp_path,
                                                            capsys):
        # T / 2n cannot even be formed at n = 10^400: a config error that
        # names the count, not an OverflowError
        cfg = write_config(tmp_path, schedule={"n_cycles": 4,
                                               "total_time": 2.0})
        assert run_cli(["sweep", "--config", cfg, "--n", f"1,{10**400}",
                        "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(10**400) in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "o.csv").exists()

    def test_long_run_never_reports_bad_input(self, tmp_path):
        # dfs2 at joint dim 64 with 65536 cycles: cycle^n drifts past the
        # unitarity tolerance, but a pulsed simulate never forms it, so the
        # run writes every sample (header and steps 0..n)
        cfg = write_config(tmp_path, bath_dim=16,
                           schedule={"n_cycles": 65536, "total_time": 2.0})
        proc = run_fresh("-c", "from leolab.cli import main; main()",
                         "simulate", "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv"))
        assert proc.returncode == 0, proc.stderr
        with open(tmp_path / "o.csv") as f:
            assert sum(1 for _ in f) == 65538

    def test_import_loads_no_thread_pool(self):
        # sweep rows run on the calling thread, so the CLI never pays for
        # concurrent.futures; a fresh interpreter, as this one may have
        # loaded it for something else
        proc = run_fresh("-c", "import sys, leolab.cli; "
                         "print('concurrent.futures' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize("message", ["Unable to allocate 8.00 TiB for an "
                                         "array with shape (1000000, 1000000) "
                                         "and data type complex128", ""],
                             ids=["numpy", "empty"])
    def test_run_too_large_to_allocate(self, tmp_path, capsys, monkeypatch,
                                       message):
        # raised, never allocated: under memory overcommit a huge np.empty
        # succeeds and then fills memory
        def too_large(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "simulate", too_large)
        cfg = write_config(tmp_path)
        assert run_cli(["simulate", "--config", cfg,
                        "--out", tmp_path / "o.csv"]) == 1
        assert capsys.readouterr().err == f"error: {message or 'out of memory'}\n"
        assert not (tmp_path / "o.csv").exists()


class TestOutputFileMode:
    """--out files get the mode a plain open(path, "w") gives, 0o666 less
    the umask, not the temp file's 0o600."""

    @pytest.mark.parametrize("umask", [0o022, 0o002, 0o077],
                             ids=["022", "002", "077"])
    def test_mode_follows_the_umask(self, tmp_path, umask):
        cfg = write_config(tmp_path)
        out, pulse = tmp_path / "o.csv", tmp_path / "p.json"
        old = os.umask(umask)
        try:
            assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
            assert run_cli(["synth", "--code", "dfs2", "--route", "projector",
                            "--out", pulse]) == 0
            plain = tmp_path / "plain"
            open(plain, "w").close()
        finally:
            os.umask(old)
        want = 0o666 & ~umask
        assert plain.stat().st_mode & 0o777 == want
        assert out.stat().st_mode & 0o777 == want
        assert pulse.stat().st_mode & 0o777 == want

    def test_never_reads_the_umask(self, tmp_path, monkeypatch):
        # the process-wide umask is never set, not even to read it
        def forbidden(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", forbidden)
        cfg, out = write_config(tmp_path), tmp_path / "o.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0
        assert out.read_text().startswith(
            "step,elapsed_time,leakage_population,code_fidelity\n")

    def test_taken_temp_name_is_retried(self, tmp_path, monkeypatch):
        # a temp name that already exists is skipped, not overwritten
        draws = [bytes(8), bytes([1] * 8)]
        monkeypatch.setattr(os, "urandom", lambda k: draws.pop(0))
        taken = tmp_path / f".tmp_{bytes(8).hex()}"
        taken.write_text("someone else's")
        out = tmp_path / "p.json"
        assert run_cli(["synth", "--code", "dfs2", "--route", "projector",
                        "--out", out]) == 0
        assert draws == []
        assert taken.read_text() == "someone else's"
        assert sorted(p.name for p in tmp_path.iterdir()) == [taken.name, "p.json"]


class TestUnwritableOutput:
    """An output path that cannot be written is bad input (exit 1) with one
    line of diagnostic, and leaves no temp file behind."""

    @pytest.mark.parametrize("flag", ["--out", "--plot-out"])
    @pytest.mark.parametrize("target", ["missing_directory", "directory"])
    def test_exit_one_without_traceback(self, tmp_path, capsys, flag, target):
        cfg = write_config(tmp_path)
        (tmp_path / "busy").mkdir()
        path = (tmp_path / "missing" / "o.txt" if target == "missing_directory"
                else tmp_path / "busy")
        paths = {"--out": tmp_path / "o.csv", "--plot-out": tmp_path / "p.txt",
                 flag: path}
        argv = ["simulate", "--config", cfg]
        for name, value in paths.items():
            argv += [name, value]
        before = set(tmp_path.iterdir())
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ")
        assert "Traceback" not in err
        left = {p.name for p in set(tmp_path.iterdir()) - before}
        assert not any(name.startswith(".tmp_") for name in left)
        assert not any((tmp_path / "busy").iterdir())


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

    @pytest.mark.parametrize("key,route", [("sigma", "canonical"),
                                           ("generator", "generalized")])
    def test_unreadable_file_names_its_key(self, tmp_path, monkeypatch, capsys,
                                           key, route):
        # a relative path is read against the working directory, not the
        # config's: the file sits next to the config, the run starts
        # elsewhere, and the error names the key as well as the path
        # (XX + YY) / 2: dfs2's logical X, and a generalized generator too
        xbar = (pauli_string("XX").mat + pauli_string("YY").mat) / 2.0
        (tmp_path / "op.json").write_text(json.dumps({
            "dim": 4, "re": xbar.real.tolist(), "im": xbar.imag.tolist()}))
        cfg = write_config(tmp_path, leo={"route": route, key: "op.json"})
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        out = tmp_path / "run.csv"
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: config '{key}' has a bad value: cannot read op.json: ")
        assert not out.exists()
        monkeypatch.chdir(tmp_path)
        assert run_cli(["simulate", "--config", cfg, "--out", out]) == 0

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

    @pytest.mark.parametrize("model", [{}, {"model": "hopping",
                                            "params": {"n_levels": 5},
                                            "leo": {"route": "number_op"}}],
                             ids=["dfs2", "hopping"])
    def test_timeseries_is_the_samples_text(self, tmp_path, monkeypatch, model):
        # the plot reads the report's columns; its bytes are those of the
        # (elapsed_time, leakage_population) of every sample record
        reports = []
        simulate = cli.simulate

        def recording(*args):
            reports.append(simulate(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "simulate", recording)
        cfg = write_config(tmp_path, **model,
                           **{"schedule": {"n_cycles": 300, "total_time": 2.0}})
        plot = tmp_path / "run.dat"
        assert run_cli(["simulate", "--config", cfg, "--out", tmp_path / "run.csv",
                        "--plot-out", plot]) == 0
        (report,) = reports
        assert plot.read_bytes() == "".join(
            "%.17g %.17g\n" % (s.elapsed_time, s.leakage_population)
            for s in report.samples).encode()
        assert len(plot.read_text().splitlines()) == 301

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
    ("leo", "route", None),
    ("leo", "generator", None),
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

    @pytest.mark.parametrize("bath_dim", [0, -2])
    def test_bath_dim_below_one(self, tmp_path, capsys, bath_dim):
        # named by the config reader, not by the bath draw it would reach
        err = self.check_rejected(tmp_path, capsys, None, "bath_dim", bath_dim)
        assert err.count("\n") == 1 and "at least 1" in err

    @pytest.mark.parametrize("model", ["dfs2_leakage", "hopping",
                                       "linear_optics"])
    def test_negative_seed(self, tmp_path, capsys, model):
        # named by the config reader, not by numpy's SeedSequence
        err = self.check_rejected(tmp_path, capsys, None, "seed", -1,
                                  model=model)
        assert err.count("\n") == 1 and "at least 0" in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_negative_seed_option(self, tmp_path, capsys, command):
        # --seed is written into the config, so the same reader names it
        extra = ["--n", "1,2"] if command == "sweep" else []
        assert run_cli([command, "--config", self.BENCH, "--seed", "-1", *extra,
                        "--out", tmp_path / "o.csv"]) == 1
        err = capsys.readouterr().err
        assert err == ("error: config 'seed' has a bad value: expected at "
                       "least 0, got -1\n")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("spec", [
        {"re": [0, 1, 0, 0], "im": [0]},
        {"re": [0, True, 0, 0], "im": [0, 0, 0, 0]},
    ], ids=["unequal_lengths", "bool_entry"])
    def test_initial_state_object(self, tmp_path, capsys, spec):
        self.check_rejected(tmp_path, capsys, None, "initial_state", spec)

    def check_rejected(self, tmp_path, capsys, block, key, value,
                       model="dfs2_leakage"):
        config = json.loads(self.BENCH.read_text())
        if key == "n_levels":
            model = "hopping"
        if model != "dfs2_leakage":
            config.update(model=model, params={})
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
        return err


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
        # --free builds no pulse, so the first check under the zero
        # tolerance is the model's eigenvector certificate
        monkeypatch.setattr(opalg, "UNITARY_TOL", 0.0)
        bench = Path(__file__).resolve().parent.parent / "bench"
        assert run_cli(["simulate", "--config", bench / "dfs2_benchmark.json",
                        "--free", "--out", tmp_path / "o.csv"]) == 2
        assert capsys.readouterr().err.startswith("numerical failure:")


class TestLeakageOutOfRange:
    @pytest.mark.parametrize("value", [1.5, np.nan])
    def test_simulate_exits_two(self, tmp_path, capsys, monkeypatch, value):
        # a computed leakage outside [0, 1] is a numerical failure, not bad
        # input, and no CSV is written
        observables = dynamics._observables

        def patched(*args):
            leak, fid = observables(*args)
            leak[1] = value
            return leak, fid

        monkeypatch.setattr(dynamics, "_observables", patched)
        bench = Path(__file__).resolve().parent.parent / "bench"
        out = tmp_path / "o.csv"
        assert run_cli(["simulate", "--config", bench / "dfs2_benchmark.json",
                        "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: leakage population")
        assert not out.exists()

    @pytest.mark.parametrize("value", [1.5, np.nan])
    def test_sweep_exits_two(self, tmp_path, capsys, monkeypatch, value):
        # a sweep row range-checks its final leakage: exit 2, not 1, and no
        # CSV is written
        monkeypatch.setattr(dynamics, "_leakage",
                            lambda sectors, parts: np.full(len(parts[0]), value))
        bench = Path(__file__).resolve().parent.parent / "bench"
        out = tmp_path / "sweep.csv"
        assert run_cli(["sweep", "--config", bench / "dfs2_benchmark.json",
                        "--n", "1,3,300", "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: leakage population")
        assert not out.exists()


class TestFidelityNotFinite:
    def test_overflowing_target_phases_exit_two(self, tmp_path, capsys):
        # a pulsed hopping run whose stepped target's phases 2 tau k w pass
        # the float range (g = 1e300, tau = 1e8) is refused before any
        # phase is formed: one stderr line naming t, exit 2 and no CSV
        config = {"model": "hopping", "params": {"n_levels": 4}, "g": 1e300,
                  "seed": 3, "bath_dim": 2, "leo": {"route": "projector"},
                  "schedule": {"n_cycles": 1, "tau": 1e8},
                  "initial_state": "code:0"}
        path, out = tmp_path / "c.json", tmp_path / "o.csv"
        path.write_text(json.dumps(config))
        assert run_cli(["simulate", "--config", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: stepped targets: phases at "
                              "t = 200000000.0 keep no correct digit (max|w| "
                              "t eps = ")
        assert err.endswith(" > 1)\n") and err.count("\n") == 1
        assert not out.exists()

    def test_overflowing_states_of_a_free_non_qubit_run_exit_two(
            self, tmp_path, capsys):
        # a free linear-optics run (code dim 4) at g = 1e300, tau = 1e8 is
        # refused before any phase is formed: a numerical failure (2) with
        # one stderr line and no CSV, not bad input (1)
        config = {"model": "linear_optics", "params": {}, "g": 1e300,
                  "seed": 3, "leo": {"route": "phase_shifter"},
                  "schedule": {"n_cycles": 1, "tau": 1e8},
                  "initial_state": "code:0"}
        path, out = tmp_path / "c.json", tmp_path / "o.csv"
        path.write_text(json.dumps(config))
        assert run_cli(["simulate", "--config", path, "--free",
                        "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: stepped targets: phases at "
                              "t = 200000000.0 keep no correct digit (max|w| "
                              "t eps = ")
        assert err.endswith(" > 1)\n") and err.count("\n") == 1
        assert not out.exists()


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


class TestFloatLimit:
    """Inputs near the float limit overflow inside numpy; the run still
    ends with its one line (or, for a failed verification, the verdict on
    stdout alone) and no RuntimeWarning on stderr. Each runs in a fresh
    interpreter, where a warning would reach stderr."""

    BENCH = Path(__file__).resolve().parent.parent / "bench" / "dfs2_benchmark.json"
    BIG = {"dim": 4, "re": [[1e308] * 4] * 4, "im": [[0] * 4] * 4,
           "code_label": "dfs2"}

    @pytest.mark.parametrize("command,extra", [("simulate", []),
                                               ("sweep", ["--n", "1,2"])])
    def test_collective_strength(self, tmp_path, command, extra):
        config = json.loads(self.BENCH.read_text())
        config["params"]["collective_strength"] = 1e308
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        run = self.run(command, "--config", cfg, *extra,
                       "--out", tmp_path / "o.csv")
        assert run.returncode == 2
        assert run.stderr.startswith("numerical failure:")
        assert run.stderr.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    def test_verify(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(self.BIG))
        run = self.run("verify", "--leo", big)
        assert run.returncode == 2
        assert run.stdout.startswith("verify: FAIL")
        assert run.stderr == ""

    def test_synth(self, tmp_path):
        big = tmp_path / "big.json"
        big.write_text(json.dumps(self.BIG))
        run = self.run("synth", "--code", "dfs2", "--route", "canonical",
                       "--sigma", big, "--out", tmp_path / "p.json")
        assert run.returncode == 1
        assert run.stderr.startswith("error:")
        assert run.stderr.count("\n") == 1
        assert not (tmp_path / "p.json").exists()

    @staticmethod
    def run(*argv):
        return run_fresh("-m", "leolab.cli", *map(str, argv))


_REMOVED = object()

# every key a simulate or sweep config reads, and the block that holds it
CONTRACT_KEYS = [
    (None, "model"), (None, "g"), (None, "seed"), (None, "bath_dim"),
    (None, "initial_state"), (None, "params"), (None, "leo"),
    (None, "schedule"), ("params", "leak_set"),
    ("params", "collective_strength"), ("params", "shared_bath"),
    ("params", "n_levels"), ("leo", "route"), ("leo", "sigma"),
    ("leo", "generator"), ("schedule", "n_cycles"), ("schedule", "tau"),
    ("schedule", "total_time"),
]
# a wrong JSON type, a negative, 0, the float limit, NaN, a huge int, or
# the key removed; a string is a wrong type only where a string is not read,
# and a bad path where a file is (sigma, generator)
CONTRACT_VALUES = [None, True, "x", [1], {"re": 1}, -1, -0.5, 0, 1e308,
                   float("nan"), 2**70, 10**400, _REMOVED]
STRING_KEYS = {"model", "initial_state", "route"}
# dims: a huge one would be refused only by the allocation it asks for (a
# huge n_cycles is refused before any)
BOUNDED_KEYS = {"bath_dim", "n_levels"}
CONTRACT_MUTATIONS = [
    (block, key, value) for block, key in CONTRACT_KEYS
    for value in CONTRACT_VALUES
    if not (value == "x" and key in STRING_KEYS)
    and not (value in (2**70, 10**400) and key in BOUNDED_KEYS)
]
CONTRACT_BASES = {
    "dfs2_leakage": {
        "model": "dfs2_leakage", "params": {"leak_set": ["XI"]}, "g": 0.05,
        "seed": 3, "bath_dim": 4, "leo": {"route": "exchange_2dfs"},
        "schedule": {"n_cycles": 4, "total_time": 0.4},
        "initial_state": "code:0"},
    "hopping": {
        "model": "hopping", "params": {"n_levels": 4}, "g": 0.2, "seed": 7,
        "bath_dim": 3, "leo": {"route": "number_op"},
        "schedule": {"n_cycles": 4, "tau": 0.02}, "initial_state": "code:1"},
    "linear_optics": {
        "model": "linear_optics", "params": {}, "g": 0.2, "seed": 5,
        "leo": {"route": "phase_shifter"},
        "schedule": {"n_cycles": 4, "total_time": 1.0}},
}


class TestConfigContract:
    """Any config with one key mutated: the run exits 0, 1 or 2; a failure
    prints one stderr line and a success none, with no traceback and no
    warning; and a config error (1) names the key it mutated, or, for a
    removed block, a key the block held."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(family=st.sampled_from(sorted(CONTRACT_BASES)),
           command=st.sampled_from(["simulate", "sweep"]),
           mutation=st.sampled_from(CONTRACT_MUTATIONS))
    @example(family="dfs2_leakage", command="simulate",
             mutation=(None, "seed", -1))
    @example(family="hopping", command="sweep", mutation=(None, "seed", -1))
    @example(family="dfs2_leakage", command="simulate",
             mutation=("params", "collective_strength", 1e308))
    @example(family="dfs2_leakage", command="sweep",
             mutation=("params", "collective_strength", 1e308))
    @example(family="linear_optics", command="simulate",
             mutation=("schedule", "total_time", -1))
    @example(family="hopping", command="sweep",
             mutation=("schedule", "n_cycles", 0))
    @example(family="hopping", command="sweep",
             mutation=("schedule", "tau", 1e308))
    @example(family="hopping", command="simulate",
             mutation=("schedule", "n_cycles", 10**400))
    @example(family="hopping", command="simulate",
             mutation=("params", "n_levels", 0))
    @example(family="dfs2_leakage", command="simulate",
             mutation=("leo", "sigma", "x"))
    @example(family="linear_optics", command="sweep",
             mutation=("leo", "generator", "x"))
    def test_mutated_config(self, family, command, mutation):
        block, key, value = mutation
        config = json.loads(json.dumps(CONTRACT_BASES[family]))
        target = config.setdefault(block, {}) if block else config
        held = target.get(key)
        if value is _REMOVED:
            target.pop(key, None)
        else:
            target[key] = value
        names = {key} | (set(held) if value is _REMOVED
                         and isinstance(held, dict) else set())
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps(config))
            extra = ["--n", "1,2"] if command == "sweep" else []
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("always")
                status = run_cli([command, "--config", cfg, *extra,
                                  "--out", Path(tmp) / "o.csv"])
        err = err.getvalue()
        assert status in (0, 1, 2)
        assert err.count("\n") == (status != 0)
        assert "Traceback" not in err
        assert not caught, [str(w.message) for w in caught]
        if status == 1:
            assert any(name in err for name in names), err
