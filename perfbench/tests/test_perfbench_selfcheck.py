"""Self-checks for the benchmark in perfbench/.

Run with: PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import run  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def golden_outputs() -> dict:
    return {out: (ROOT / "bench" / "golden" / golden).read_bytes()
            for out, golden in checks.GOLDEN_FILES.items()}


def csv_verdicts(files: dict) -> dict:
    verdicts = checks.check_cli(files, {}, ROOT, run.PROBES)
    return {name: v for name, v in verdicts.items()
            if name.startswith(("simulate_", "sweep_"))}


def test_golden_outputs_pass():
    verdicts = csv_verdicts(golden_outputs())
    assert all(v.ok and v.golden_identical for v in verdicts.values())


def perturb(out: str, factor: float) -> dict:
    """Golden outputs with one row's leakage value multiplied by factor."""
    files = golden_outputs()
    lines = files[out].decode().splitlines(keepends=True)
    fields = lines[3].split(",")
    fields[2] = repr(float(fields[2]) * factor)
    lines[3] = ",".join(fields)
    files[out] = "".join(lines).encode()
    return files


@pytest.mark.parametrize("out,op", [
    ("bench_pulsed.csv", "simulate_benchmark_pulsed"),
    ("sweep.csv", "sweep_benchmark"),
])
def test_perturbed_golden_row_is_a_failure(out, op):
    # a mid-series row, beyond the leakage tolerance but inside [0, 1]
    verdicts = csv_verdicts(perturb(out, 1 + 1e-6))
    assert not verdicts[op].ok
    assert any("vs bench/golden/" in e for e in verdicts[op].errors)
    assert all(v.ok for name, v in verdicts.items() if name != op)


@pytest.mark.parametrize("out,op", [
    ("bench_pulsed.csv", "simulate_benchmark_pulsed"),
    ("sweep.csv", "sweep_benchmark"),
])
def test_last_bit_change_passes_but_is_reported(out, op):
    verdicts = csv_verdicts(perturb(out, 1 + 4e-16))
    assert verdicts[op].ok, verdicts[op].errors
    assert verdicts[op].golden_identical is False
    assert 0 < verdicts[op].max_rel_err < checks.LEAK_RTOL


def run_benchmark(capsys, workload, trace):
    assert run.main(["--workload", workload, "--seconds", "0.5",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    printed = [line.split()[1] for line in lines if line.startswith("metric:")]
    return printed, json.loads(lines[-1]), lines


@pytest.mark.parametrize("workload,trace", [
    ("synth_verify", 0), ("synth_verify", 1), ("cli_pinned", 1),
])
def test_printed_metrics_are_declared(capsys, workload, trace):
    printed, result, lines = run_benchmark(capsys, workload, trace)
    kind = "per_layer" if trace else "end_to_end"
    declared = [m["name"] for m in DECLARED[kind]]
    assert printed == declared
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert list(result["metrics"]) == declared
    assert [result["metrics"][m["name"]]["unit"] for m in DECLARED[kind]] == [
        m["unit"] for m in DECLARED[kind]]
    assert result["correct"] and result["failed"] == 0, lines


def fake_result(traced_ops):
    op = {"seconds": 0.1, "error": None, "cycles": 0}
    untraced = {"traced": False, "wall_s": 0.2, "raw_wall_s": 0.2, "speed": 1.0,
                "ops": [dict(op, name="a"), dict(op, name="b")]}
    traced = {"traced": True, "wall_s": 0.2, "raw_wall_s": 0.2, "speed": 1.0,
              "ops": [dict(op, name=n) for n in traced_ops],
              "layers": {"models.build_s": 0.0}}
    verdict = {"errors": [], "max_abs_err": 0.0, "max_rel_err": 0.0}
    return {"passes": [untraced, traced], "verdicts": {"a": verdict, "b": verdict},
            "peak_rss_kb": 1024}


@pytest.mark.parametrize("traced_ops,same", [(["a", "b"], True), (["a"], False),
                                             (["b", "a"], False)])
def test_traced_and_untraced_passes_must_run_the_same_operations(traced_ops, same):
    setups = [{"setup_s": 0.1, "import_numpy_s": 0.05, "import_leolab_s": 0.02}]
    lines = []
    _, _, _, correct = run.compute("synth_verify", setups, fake_result(traced_ops),
                                   1, lines)
    assert correct is same
    assert any("different operation lists" in line for line in lines) is not same
