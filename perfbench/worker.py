"""Fresh-interpreter worker for the benchmark driver (run.py).

  worker.py setup --workload W --seed S
      import numpy, then leolab, then build the workload's inputs; print the
      three times and the environment as one JSON line.
  worker.py run --workload W --seed S --seconds N --trace 0|1 --out FILE
      build the inputs, run timed passes of an in-process workload for N
      seconds, check every output against the reference and write a JSON
      record. With --trace 1 the passes alternate untraced and traced.
  worker.py speed
      print a machine-speed factor (speed.py) for every line read from stdin.
  worker.py check-cli --outdir DIR --probes N
      check the files one pass of the CLI workload wrote.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _imports(cli: bool) -> tuple[float, float]:
    import numpy  # noqa: F401

    t_numpy = time.perf_counter()
    import leolab

    if cli:
        import leolab.cli  # noqa: F401
    leolab_file = Path(leolab.__file__).resolve()
    if ROOT / "src" not in leolab_file.parents:
        raise SystemExit(f"leolab imported from {leolab_file}, not from this checkout")
    return t_numpy - T_START, time.perf_counter() - t_numpy


def cmd_setup(args) -> None:
    import_numpy_s, import_leolab_s = _imports(args.workload == "cli_pinned")
    if args.workload == "cli_pinned":
        for name in ("dfs2_benchmark.json", "dfs2_example.json"):
            json.loads((ROOT / "bench" / name).read_text())
    else:
        import workloads

        workloads.build_inputs(args.workload, args.seed)
    setup_s = time.perf_counter() - T_START
    from speed import SpeedProbe

    print(json.dumps({
        "setup_s": setup_s,
        "import_numpy_s": import_numpy_s,
        "import_leolab_s": import_leolab_s,
        "speed": SpeedProbe().factor(),
        "env": environment(),
    }))


def digest(summary: dict) -> str:
    h = hashlib.sha256()
    for key in sorted(summary):
        value = summary[key]
        h.update(key.encode())
        h.update(value.tobytes() if hasattr(value, "tobytes") else repr(value).encode())
    return h.hexdigest()


def run_pass(specs, bound, tracer, keep, probe) -> list[dict]:
    """Time each operation; an exception fails that operation only.

    keep(spec, result) runs untimed after each success, so no result
    outlives the next operation. Each operation's speed factor is the mean
    of the probes just before and just after it.
    """
    ops = []
    before = probe.factor()
    for spec, fn in zip(specs, bound):
        if tracer is not None:
            tracer.op = spec.name
        t0 = time.perf_counter()
        try:
            result, error = fn(), None
        except Exception as err:  # noqa: BLE001 - a failed op is data, not a crash
            result, error = None, f"{type(err).__name__}: {err}"
        op = {"name": spec.name, "seconds": time.perf_counter() - t0,
              "error": error, "cycles": spec.cycles}
        if error is None:
            keep(spec, result)
        del result
        after = probe.factor()
        op["speed"] = (before + after) / 2
        ops.append(op)
        before = after
    return ops


def cmd_run(args) -> None:
    _imports(cli=False)
    import checks
    import spans
    import workloads
    from speed import SpeedProbe

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inputs = workloads.build_inputs(args.workload, args.seed)
    setup_spans = []
    if tracer:
        tracer.uninstall()
        setup_spans = tracer.take()
    specs = workloads.OPS[args.workload]
    bound = [workloads.bind(spec, inputs) for spec in specs]

    first, digests, nondeterministic = {}, {}, set()

    def keep(spec, result):
        summary = workloads.summarize(spec, result)
        d = digest(summary)
        if spec.name not in first:
            first[spec.name], digests[spec.name] = summary, d
        elif d != digests[spec.name]:
            nondeterministic.add(spec.name)

    probe = SpeedProbe()
    passes = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        record = {"traced": traced}
        if traced:
            tracer.install()
        record["ops"] = run_pass(specs, bound, tracer if traced else None, keep, probe)
        if traced:
            tracer.uninstall()
            record["layers"] = spans.per_layer(setup_spans + tracer.take())
        passes.append(record)
        enough = len(passes) >= (2 if args.trace else 1) and len(passes) % (1 + args.trace) == 0
        if enough and time.perf_counter() - start >= args.seconds:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    refs = checks.References(workloads.bath_seed(args.seed), workloads.G)
    verdicts = {}
    for spec in specs:
        if spec.name in first:
            verdict = checks.check_op(spec, first[spec.name], refs)
            if spec.name in nondeterministic:
                verdict.errors.append("output differs between passes")
            verdicts[spec.name] = vars(verdict)
    Path(args.out).write_text(json.dumps({
        "passes": passes,
        "verdicts": verdicts,
        "peak_rss_kb": peak_rss_kb,
    }))


def cmd_speed(args) -> None:
    """Print one speed factor per line read from stdin, until EOF."""
    from speed import SpeedProbe

    probe = SpeedProbe()
    for _ in sys.stdin:
        print(probe.factor(), flush=True)


def cmd_check_cli(args) -> None:
    import checks

    outdir = Path(args.outdir)
    files = {p.name: p.read_bytes() for p in outdir.iterdir() if p.is_file()}
    stdout = json.loads((outdir / "stdout.json").read_text())
    verdicts = checks.check_cli(files, stdout, ROOT, args.probes)
    print(json.dumps({name: vars(v) for name, v in verdicts.items()}))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p = sub.add_parser("run")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", required=True)
    sub.add_parser("speed")
    p = sub.add_parser("check-cli")
    p.add_argument("--outdir", required=True)
    p.add_argument("--probes", type=int, required=True)
    args = parser.parse_args()
    {"setup": cmd_setup, "run": cmd_run, "speed": cmd_speed,
     "check-cli": cmd_check_cli}[args.mode](args)


if __name__ == "__main__":
    sys.exit(main())
