#!/usr/bin/env python3
"""leolab benchmark: four workloads, end-to-end metrics, per-layer tracing.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

NAME is one of cli_pinned, long_run, sweep_ladder, synth_verify, or all.
Each workload runs whole passes over a fixed list of operations until S
seconds have gone by, checks every output against an independent
reference, and prints one line per metric followed, as the last line, by
{"correct", "attempted", "failed", "metrics"} as JSON. --trace 0 reports
the end-to-end metrics of BENCHMARK.json; --trace 1 alternates untraced
and traced passes and reports the per-layer metrics instead.

Load model: a closed loop, one client, this single driver process running
one child at a time. BLAS runs one thread; the sweep keeps its default
pool of os.cpu_count() threads. Work files go under .bench_work/ in the
checkout and are removed at exit.

The seed sets the bath seed (3 + seed) and the probe seed (5 + seed), so
seed 0 reproduces the shipped configs. cli_pinned runs the shipped configs
as they are, so its outputs can be compared with bench/golden row by row;
there the seed only sets the verify probe seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402

WORKLOADS = ("cli_pinned", "long_run", "sweep_ladder", "synth_verify")
# op_tail_s percentile per workload: the highest of 50/75/90/95/99 that
# leaves at least ten operations beyond it at the default run length. It
# is fixed rather than picked from each run's count, so runs compare.
TAIL_PCT = {"cli_pinned": 75, "long_run": 75, "sweep_ladder": 50, "synth_verify": 95}
SETUP_REPS = 5
CHILD_TIMEOUT_S = 170
PROBES = 100
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    # bytecode caching stays on, as in an installed package: a user does
    # not recompile leolab on every command
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "LEOLAB_THREADS")}
    env.update({k: "1" for k in BLAS_THREADS})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Child:
    """One finished child process: exit code, wall time, peak RSS, output."""

    def __init__(self, argv: list[str], logs: Path):
        out_path, err_path = logs / "stdout.txt", logs / "stderr.txt"
        status = None
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                    stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                if status is None:
                    proc.kill()
                    os.waitpid(proc.pid, 0)
            self.seconds = time.perf_counter() - t0
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.rss_kb = usage.ru_maxrss
        self.stdout = out_path.read_text(errors="replace")
        self.stderr = err_path.read_text(errors="replace")

    def error(self) -> str | None:
        if self.returncode == 0:
            return None
        last = (self.stderr.strip().splitlines() or ["(no stderr)"])[-1]
        return f"exit {self.returncode}: {last}"

    def check(self) -> "Child":
        if self.returncode != 0:
            raise RuntimeError(f"benchmark worker failed ({self.error()}):\n{self.stderr}")
        return self

    def json(self) -> dict:
        return json.loads(self.check().stdout.strip().splitlines()[-1])


def worker(*args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), *map(str, args)]


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return percentile(values, 25), percentile(values, 50), percentile(values, 75)


def fmt(x: float) -> str:
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# the cold CLI workload
# ---------------------------------------------------------------------------


def cli_operations(out: Path, probe_seed: int) -> list[tuple[str, list[str], str, int]]:
    """(name, leolab arguments, output file, parity-kick cycles) per process."""
    bench, example = "bench/dfs2_benchmark.json", "bench/dfs2_example.json"
    return [
        ("simulate_benchmark_pulsed",
         ["simulate", "--config", bench, "--out", f"{out}/bench_pulsed.csv"],
         "bench_pulsed.csv", 64),
        ("simulate_benchmark_free",
         ["simulate", "--config", bench, "--free", "--out", f"{out}/bench_free.csv"],
         "bench_free.csv", 64),
        ("simulate_example_pulsed",
         ["simulate", "--config", example, "--out", f"{out}/example_pulsed.csv"],
         "example_pulsed.csv", 64),
        ("sweep_benchmark",
         ["sweep", "--config", bench, "--n", "1,2,4,8,16,32,64",
          "--out", f"{out}/sweep.csv"], "sweep.csv", 127),
        ("synth_dfs4_s_squared",
         ["synth", "--code", "dfs4", "--route", "s_squared", "--out", f"{out}/s2.json"],
         "s2.json", 0),
        ("verify_dfs4_s_squared",
         ["verify", "--leo", f"{out}/s2.json", "--probes",
          f"random:{PROBES}:seed={probe_seed}", "--out", f"{out}/verify.json"],
         "verify.json", 0),
        ("decompose_dfs4",
         ["decompose", "--code", "dfs4", "--out", f"{out}/dfs4_table.csv"],
         "dfs4_table.csv", 0),
    ]


def run_cli(work: Path, seed: int, seconds: float, trace: int) -> dict:
    ops = cli_operations((work / "out").relative_to(ROOT), 5 + seed)
    # the speed probe lives in a child that waits on its stdin between
    # probes: a child's peak RSS includes this process's at exec time, so
    # the driver must stay smaller than a leolab process
    with open(work / "speed_stderr.txt", "wb") as err:
        server = subprocess.Popen(worker("speed"), cwd=ROOT, env=child_env(), text=True,
                                  stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err)
    try:
        result = _cli_passes(server, ops, work, seconds, trace)
    finally:
        server.stdin.close()
        try:
            server.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
    return result


def _cli_passes(server, ops, work: Path, seconds: float, trace: int) -> dict:
    out, first_dir = work / "out", work / "first"
    passes, first, nondeterministic = [], None, set()

    def probe() -> float:
        server.stdin.write("\n")
        server.stdin.flush()
        line = server.stdout.readline()
        if not line:
            raise RuntimeError("speed probe exited: "
                               + (work / "speed_stderr.txt").read_text())
        return float(line)

    before = probe()
    start = time.perf_counter()
    while True:
        traced = bool(trace) and len(passes) % 2 == 1
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        record = {"traced": traced, "ops": []}
        pass_spans = []
        for k, (name, args, _, cycles) in enumerate(ops):
            span_file = work / f"spans{k}.json"
            argv = ([sys.executable, str(HERE / "clitrace.py"), str(span_file), *args]
                    if traced else
                    [sys.executable, "-c", "from leolab.cli import main; main()", *args])
            child = Child(argv, work)
            after = probe()
            op = {"name": name, "seconds": child.seconds, "error": child.error(),
                  "cycles": cycles, "rss_kb": child.rss_kb, "stdout": child.stdout,
                  "speed": (before + after) / 2}
            before = after
            if traced and span_file.exists():
                offset = (k + 1) * 10**9  # span ids are per process
                for s in json.loads(span_file.read_text())["spans"]:
                    s["id"] += offset
                    s["parent"] = None if s["parent"] is None else s["parent"] + offset
                    s["op"] = name
                    pass_spans.append(s)
                op["main_s"] = sum(s["t1"] - s["t0"] for s in pass_spans
                                   if s["name"] == "cli.main" and s["op"] == name)
            record["ops"].append(op)
        files = {name: (out / f).read_bytes() if (out / f).exists() else None
                 for name, _, f, _ in ops}
        if first is None:
            first = files
            shutil.copytree(out, first_dir)
            (first_dir / "stdout.json").write_text(json.dumps(
                {op["name"]: op["stdout"] for op in record["ops"]}))
        else:
            nondeterministic |= {n for n in files if files[n] != first[n]}
        if traced:
            record["layers"] = spans.per_layer(pass_spans)
        passes.append(record)
        enough = len(passes) >= 1 + trace and len(passes) % (1 + trace) == 0
        if enough and time.perf_counter() - start >= seconds:
            break
    verdicts = Child(worker("check-cli", "--outdir", first_dir, "--probes", PROBES),
                     work).json()
    for name in nondeterministic:
        verdicts[name]["errors"].append("output differs between passes")
    peak = max(op["rss_kb"] for p in passes if not p["traced"] for op in p["ops"])
    return {"passes": passes, "verdicts": verdicts, "peak_rss_kb": peak}


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def environment(seed: int, worker_env: dict) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (no .git in this checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown (git unavailable)"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        **worker_env,
        "git_commit": commit,
        "driver_processes": 1,
        "sweep_pool_workers": os.cpu_count(),
        "workload_seed": seed,
        "bath_seed": 3 + seed,
        "probe_seed": 5 + seed,
    }


def op_failures(result: dict) -> dict[str, list[str]]:
    """Failure messages per operation name, one entry per failed run of it."""
    failures: dict[str, list[str]] = {}
    verdicts = result["verdicts"]
    for p in result["passes"]:
        for op in p["ops"]:
            reason = op["error"]
            errors = verdicts.get(op["name"], {}).get("errors")
            if reason is None and errors:
                reason = "check: " + "; ".join(errors)
            if reason is not None:
                failures.setdefault(op["name"], []).append(reason)
    return failures


def _is_time(layer_metric: str) -> bool:
    return any(part.endswith("_s") or part == "us_per_cycle"
               for part in layer_metric.split("."))


def normalize(setups: list[dict], result: dict) -> None:
    """Rescale every measured time by its speed factor (see speed.py).

    A pass's wall time is the sum of its operations' wall times; span times
    take the pass's time-weighted mean factor.
    """
    for s in setups:
        for key in ("setup_s", "import_numpy_s", "import_leolab_s"):
            s[key] *= s["speed"]
    for p in result["passes"]:
        p["raw_wall_s"] = sum(op["seconds"] for op in p["ops"])
        for op in p["ops"]:
            op["seconds"] *= op["speed"]
            if "main_s" in op:
                op["main_s"] *= op["speed"]
        p["wall_s"] = sum(op["seconds"] for op in p["ops"])
        p["speed"] = p["wall_s"] / p["raw_wall_s"]
        f = p["speed"]
        for key in p.get("layers", {}):
            if _is_time(key):
                p["layers"][key] *= f


def compute(workload: str, setups: list[dict], result: dict, trace: int,
            lines: list[str]) -> tuple[dict, int, int, bool]:
    """Metrics from normalized passes and set-ups; appends report lines."""
    passes = result["passes"]
    plain = [p for p in passes if not p["traced"]]
    failures = op_failures(result)
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(len(v) for v in failures.values())
    correct = all(not v["errors"] for v in result["verdicts"].values())
    op_lists = {tuple(op["name"] for op in p["ops"]) for p in passes}
    if len(op_lists) != 1:
        correct = False
        lines.append("check: passes ran different operation lists")

    walls = [p["wall_s"] for p in plain]
    op_secs = [op["seconds"] for p in plain for op in p["ops"]]
    tail = TAIL_PCT[workload]
    tail_value = percentile(op_secs, tail)
    beyond = sum(1 for x in op_secs if x > tail_value)
    setup_vals = [s["setup_s"] for s in setups]
    q1, med, q3 = quartiles(walls)
    s1, smed, s3 = quartiles(setup_vals)
    metrics = {
        "setup_s": (smed, f"median of {len(setup_vals)} fresh-interpreter set-ups, "
                          f"q1 {fmt(s1)} q3 {fmt(s3)}"),
        "wall_s": (med, f"median of {len(walls)} passes, q1 {fmt(q1)} q3 {fmt(q3)}; "
                        f"raw median {fmt(statistics.median(p['raw_wall_s'] for p in plain))}"
                        f" s, speed factor median "
                        f"{fmt(statistics.median(p['speed'] for p in plain))}"),
        "op_p50_s": (percentile(op_secs, 50), f"{len(op_secs)} operations"),
        "op_tail_s": (tail_value, f"p{tail}, {beyond} of {len(op_secs)} operations beyond"),
        "ok_frac": ((attempted - failed) / attempted,
                    f"{attempted - failed} of {attempted} operations ok, "
                    f"fail_frac {fmt(failed / attempted)}"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0,
                        "largest CLI process" if workload == "cli_pinned"
                        else "workload process"),
    }

    dyn = [op for p in plain for op in p["ops"] if op["cycles"]]
    cycles_done = sum(op["cycles"] for op in dyn if op["name"] not in failures)
    dyn_s = sum(op["seconds"] for op in dyn)
    lines.append("table: median seconds per operation over untraced passes")
    for name in [op["name"] for op in plain[0]["ops"]]:
        secs = [op["seconds"] for p in plain for op in p["ops"] if op["name"] == name]
        cyc = next(op["cycles"] for op in plain[0]["ops"] if op["name"] == name)
        per = (f"  {1e6 * statistics.median(secs) / cyc:10.1f} us/cycle"
               if cyc and workload != "cli_pinned" else "")
        lines.append(f"table:   {name:34s} {statistics.median(secs):9.4f} s{per}")
    lines.append("table: cold start, median of set-ups: import numpy "
                 f"{fmt(statistics.median(s['import_numpy_s'] for s in setups))} s, "
                 f"import leolab {fmt(statistics.median(s['import_leolab_s'] for s in setups))} s")
    for name, v in sorted(result["verdicts"].items()):
        if v.get("golden_identical") is not None:
            lines.append(f"golden: {name}: "
                         + ("every value within tolerance" if not v["errors"]
                            else "check failed")
                         + ("; byte-identical to bench/golden" if v["golden_identical"]
                            else "; not byte-identical to bench/golden (not gated)"))
    for name, msgs in sorted(failures.items()):
        lines.append(f"failure: {name} failed {len(msgs)} times: {msgs[0]}")
    for name, v in sorted(result["verdicts"].items()):
        for err in v["errors"]:
            lines.append(f"check: {name}: {err}")

    if trace:
        traced = [p for p in passes if p["traced"]]
        layers = {k: statistics.median(p["layers"][k] for p in traced)
                  for k in traced[0]["layers"]}
        layers["cli.import_numpy_s"] = statistics.median(s["import_numpy_s"] for s in setups)
        layers["cli.import_leolab_s"] = statistics.median(s["import_leolab_s"] for s in setups)
        overhead = 0.0
        if workload == "cli_pinned":
            gaps = []
            for name in [op["name"] for op in plain[0]["ops"]]:
                cold = statistics.median(op["seconds"] for p in plain for op in p["ops"]
                                         if op["name"] == name)
                main = statistics.median(op["main_s"] for p in traced for op in p["ops"]
                                         if op["name"] == name)
                gaps.append(cold - main)
            overhead = statistics.mean(gaps)
        layers["cli.process_overhead_s"] = overhead
        layers["dynamics.cycles_per_s"] = cycles_done / dyn_s if dyn_s else 0.0
        layers["check.max_abs_err"] = max(v["max_abs_err"] for v in result["verdicts"].values())
        layers["check.max_rel_err"] = max(v["max_rel_err"] for v in result["verdicts"].values())
        layers["check.fail_frac"] = failed / attempted
        layers["trace.overhead_frac"] = (
            statistics.median(p["wall_s"] for p in traced) / med - 1.0)
        metrics = {k: (v, "") for k, v in layers.items()}
    return metrics, attempted, failed, correct


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        # the first set-up fills the bytecode and file caches and is not counted
        setups = [Child(worker("setup", "--workload", workload, "--seed", seed), work).json()
                  for _ in range(1 + SETUP_REPS)][1:]
        if workload == "cli_pinned":
            result = run_cli(work, seed, seconds, trace)
        else:
            out = work / "result.json"
            Child(worker("run", "--workload", workload, "--seed", seed, "--seconds",
                         seconds, "--trace", trace, "--out", out), work).check()
            result = json.loads(out.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    lines: list[str] = []
    normalize(setups, result)
    metrics, attempted, failed, correct = compute(workload, setups, result, trace, lines)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not "
                           f"declared in BENCHMARK.json, or declared but not measured")
    print(f"workload: {workload}  seed: {seed}  seconds: {seconds:g}  trace: {trace}")
    print("env: " + json.dumps(environment(seed, setups[0]["env"]), sort_keys=True))
    for line in lines:
        print(line)
    for name in units:
        value, note = metrics[name]
        print(f"metric: {name} = {fmt(value)} {units[name]}" + (f"  ({note})" if note else ""))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": units[name]}
                    for name in units},
    }), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the finally blocks stop children and remove .bench_work
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    missing = [p for p in ("src/leolab/__init__.py", "bench/golden_oracle.json",
                           "BENCHMARK.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a leolab checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
