"""Command-line front end.

Five subcommands cover the workflow: decompose (classify operators against
a code), synth (build a pulse by a named route), verify (check a candidate
pulse), simulate (one pulsed or free run), and sweep (convergence over
cycle counts). All heavy inputs come from JSON config files; outputs are
written atomically so interrupted runs never leave torn files.

Exit codes: 0 success, 1 validation or config error (a run too large to
allocate included), 2 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from collections import Counter
from typing import Sequence

import numpy as np

from . import codes as codes_mod
from . import leo as leo_mod
from .classify import classification_to_csv, classify_pauli_strings, decompose
from .dynamics import (
    ParityKickSchedule,
    simulate,
    sweep_cycles,
)
from .models import at_least, model_from_config, parsed
from .opalg import (
    NumericalDegeneracyError,
    Operator,
    _table_text,
    json_complex,
    json_matrix,
    json_number,
    json_str,
    operator_from_json,
    operator_to_json,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2

_PROBE_SPEC = re.compile(r"^random:(\d+):seed=(\d+)$")
_PLOT_ROW = "%.17g %.17g"  # a --plot-out file: one (x, y) point per line


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; route that through the
    # validation-error path instead
    def error(self, message):
        raise ValueError(message)


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(
            f"{path}:{err.lineno}:{err.colno}: invalid JSON: {err.msg}"
        ) from err
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top-level JSON value must be an object")
    return data


def _atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn
    file. The temp file is created exclusively under a fresh random name
    with mode 0o666, which the kernel reduces by the umask, so the file gets
    the mode open(path, "w") would create it with. A path it cannot write
    (no such directory, a directory) is a ValueError."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        while True:
            tmp = os.path.join(directory, f".tmp_{os.urandom(8).hex()}")
            try:
                fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
                break
            except FileExistsError:
                continue
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as err:
        # strerror alone: the full message names the random temp file
        raise ValueError(f"cannot write {path}: {err.strerror or err}") from err


def _finite_or_null(value):
    """value with each NaN or infinite float in it, at any depth of lists,
    tuples and dicts, as None: strict JSON has no token for them."""
    if isinstance(value, dict):
        return {key: _finite_or_null(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _dump_json(path: str, data: dict) -> None:
    """data as strict JSON, each non-finite value null (_finite_or_null)."""
    _atomic_write_text(path, json.dumps(_finite_or_null(data), indent=2,
                                        allow_nan=False) + "\n")


def _cycle_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad cycle list {text!r}: {err}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="leolab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="classify operators against a code")
    p.set_defaults(run=_run_decompose)
    p.add_argument("--code", required=True, help="code label, e.g. dfs2")
    p.add_argument("--operator", help="operator JSON to decompose "
                   "(default: full Pauli-string table)")
    p.add_argument("--out", required=True, help="output CSV or JSON path")

    p = sub.add_parser("synth", help="synthesize a pulse by route")
    p.set_defaults(run=_run_synth)
    p.add_argument("--code", required=True)
    p.add_argument("--route", required=True,
                   help=f"one of: {', '.join(leo_mod.ROUTES)}")
    p.add_argument("--sigma", help="involution operator JSON (canonical route)")
    p.add_argument("--generator",
                   help="generator operator JSON, or 'half_s_squared' "
                   "(generalized route)")
    p.add_argument("--out", required=True)

    p = sub.add_parser("verify", help="verify a candidate pulse")
    p.set_defaults(run=_run_verify)
    p.add_argument("--leo", required=True, help="pulse or operator JSON")
    p.add_argument("--code", help="code label (default: from the file)")
    p.add_argument("--probes", default="random:100:seed=5",
                   help="probe spec, e.g. random:100:seed=5")
    p.add_argument("--out", help="optional report JSON path")

    p = sub.add_parser("simulate", help="run one schedule from a config")
    p.set_defaults(run=_run_simulate)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="timeseries CSV path")
    p.add_argument("--free", action="store_true",
                   help="drop the pulses, keep the time grid")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--plot-out", help="two-column (time, leakage) data file")

    p = sub.add_parser("sweep", help="convergence sweep over cycle counts")
    p.set_defaults(run=_run_sweep)
    p.add_argument("--config", required=True)
    p.add_argument("--n", required=True, type=_cycle_list,
                   help="comma-separated cycle counts, e.g. 1,2,4,8")
    p.add_argument("--out", required=True, help="sweep CSV path")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--plot-out", help="two-column log-log convergence file")
    return parser


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------


def _run_decompose(args: argparse.Namespace) -> int:
    code = codes_mod.build_code(args.code)
    if args.operator:
        op = operator_from_json(load_json(args.operator))
        dec = decompose(op, code)
        _dump_json(args.out, {
            "code_label": code.label,
            "e_norm": dec.e_norm,
            "eperp_norm": dec.eperp_norm,
            "l_norm": dec.l_norm,
            "e_part": operator_to_json(dec.e_part),
            "eperp_part": operator_to_json(dec.eperp_part),
            "l_part": operator_to_json(dec.l_part),
        })
        print(
            f"decompose: leakage norm {dec.l_norm:.17g} against "
            f"{code.label} -> {args.out}"
        )
        return EXIT_OK
    n_qubits = code.ambient_dim.bit_length() - 1
    if 2**n_qubits != code.ambient_dim:
        raise ValueError(
            f"code {code.label!r} has ambient dim {code.ambient_dim}, not a "
            f"qubit register; pass --operator for a single decomposition"
        )
    table = classify_pauli_strings(n_qubits, code)
    counts = Counter(row.klass for row in table.values())
    _atomic_write_text(args.out, classification_to_csv(table))
    summary = ", ".join(f"{k} {v}" for k, v in sorted(counts.items()))
    print(f"decompose: {len(table)} pauli strings -> {summary} -> {args.out}")
    return EXIT_OK


def _hermitian(path: str | None) -> Operator | None:
    """The Hermitian operator in the JSON file at path, a path against the
    working directory; None for no path."""
    if path is None:
        return None
    return operator_from_json(load_json(path), tags=("hermitian",))


def _generator(path: str | None) -> Operator | None:
    """A generalized route's generator: half_s_squared names S^2 / 2 on four
    qubits, and anything else is a path (_hermitian)."""
    if path == "half_s_squared":
        return leo_mod._half_s_squared()
    return _hermitian(path)


def _run_synth(args: argparse.Namespace) -> int:
    code = codes_mod.build_code(args.code)
    pulse = leo_mod.synthesize(args.route, code, _hermitian(args.sigma),
                               _generator(args.generator))
    _dump_json(args.out, leo_mod.leo_to_json(pulse))
    print(
        f"synth: {pulse.route} pulse for {pulse.code.label}, structural "
        f"residual {pulse.structural_error():.3e} -> {args.out}"
    )
    return EXIT_OK


def _parse_probes(spec: str, dim: int) -> list[Operator]:
    m = _PROBE_SPEC.match(spec)
    if not m:
        raise ValueError(
            f"bad probe spec {spec!r}; expected random:<count>:seed=<seed>"
        )
    return leo_mod.random_probes(dim, int(m.group(1)), int(m.group(2)))


def _run_verify(args: argparse.Namespace) -> int:
    data = load_json(args.leo)
    try:  # the pulse-record fields, where the file has them
        label = args.code or json_str(data.get("code_label", ""))
        stated = json_complex(data["phase"]) if "phase" in data else None
    except (TypeError, ValueError) as err:
        raise ValueError(f"malformed pulse record: {err}") from err
    if not label:
        raise ValueError("no code label: pass --code or use a pulse JSON")
    code = codes_mod.build_code(label)
    candidate = operator_from_json(data)
    leo_mod._check_candidate(candidate, code)  # before any probe is drawn
    probes = _parse_probes(args.probes, code.ambient_dim)
    report = leo_mod.verify_leo(candidate, code, probes)
    passed = report.passed
    verdict = f"verify: {report.summary()}"
    error = stated is not None and leo_mod.stated_phase_error(candidate, code, stated)
    if error:
        passed = False
        verdict = (f"verify: FAIL: {error}; measured phase "
                   f"[{report.phase.real}, {report.phase.imag}]")
    if args.out:
        _dump_json(args.out, {
            "passed": passed,
            "phase": [report.phase.real, report.phase.imag],
            "structural_residual": report.structural_residual,
            "max_residual": report.max_residual,
            "tolerance": leo_mod.STRUCTURAL_TOL,
            "probes": [{"index": i, **dataclasses.asdict(p)}
                       for i, p in enumerate(report.probe_checks)],
        })
    print(verdict)
    return EXIT_OK if passed else EXIT_NUMERICAL


def _initial_state(config: dict, code) -> np.ndarray:
    spec = config.get("initial_state", "code:0")
    if isinstance(spec, dict):
        try:
            re_part, im_part = json_matrix([spec.get("re"), spec.get("im")])
        except (TypeError, ValueError) as err:
            raise ValueError(f"bad initial_state object: {err}") from err
        return re_part + 1j * im_part
    m = re.match(r"^code:(\d+)$", spec) if isinstance(spec, str) else None
    if not m:
        raise ValueError(
            f"bad initial_state {spec!r}; expected code:<k> or an object "
            f"with re/im arrays"
        )
    k = int(m.group(1))
    if k >= code.code_dim:
        raise ValueError(
            f"initial_state index {k} out of range for code dim "
            f"{code.code_dim}"
        )
    return code.basis[:, k]


def _pulse_for_model(config: dict, model):
    pulse_cfg = config.get("leo", {})
    if not isinstance(pulse_cfg, dict):
        raise ValueError("'leo' must be an object with a 'route'")
    # sigma and generator are read from their files here, so a file that
    # cannot be read or parsed is a bad value of its key
    readers = {"route": json_str, "sigma": lambda v: _hermitian(json_str(v)),
               "generator": lambda v: _generator(json_str(v))}
    given = {key: parsed(read, pulse_cfg, key)
             for key, read in readers.items() if key in pulse_cfg}
    return leo_mod.synthesize(given.get("route", "projector"), model.code,
                              given.get("sigma"), given.get("generator"))


def _schedule_params(config: dict, min_cycles: int) -> tuple[int, float, float]:
    """n_cycles, tau and the total free time: the configured total_time
    where the schedule gives one, else 2 n_cycles tau. A tau schedule needs
    at least min_cycles cycles, a total_time schedule at least 1 (its tau
    is total_time / 2 n_cycles)."""
    sched = config.get("schedule")
    if not isinstance(sched, dict):
        raise ValueError("config needs a 'schedule' object")
    if ("tau" in sched) == ("total_time" in sched):
        raise ValueError("schedule needs exactly one of 'tau' or 'total_time'")
    key = "tau" if "tau" in sched else "total_time"
    n_cycles = parsed(at_least(min_cycles if key == "tau" else 1), sched,
                      "n_cycles")
    value = parsed(json_number, sched, key)
    # 2 n is converted to a float, which fails past its range
    two_n = math.inf if 2 * n_cycles > sys.float_info.max else 2 * n_cycles
    tau, total = ((value, two_n * value) if key == "tau"
                  else (value / two_n, value))
    if not (0 < tau < math.inf and total < math.inf):
        raise ValueError(f"schedule {key} {value:g} over n_cycles {n_cycles}: "
                         f"tau and 2 n_cycles tau must be positive and finite")
    return n_cycles, tau, total


def _model_and_config(args: argparse.Namespace):
    config = load_json(args.config)
    if args.seed is not None:
        config["seed"] = args.seed
    return model_from_config(config), config


def _run_simulate(args: argparse.Namespace) -> int:
    model, config = _model_and_config(args)
    n_cycles, tau, _ = _schedule_params(config, 0)  # simulate's T is 2 n tau
    pulses = None if args.free else _pulse_for_model(config, model)
    schedule = ParityKickSchedule(n_cycles, tau, pulses)
    state = _initial_state(config, model.code)
    report = simulate(model, schedule, state)
    _atomic_write_text(args.out, report.csv_text())
    if args.plot_out:  # (elapsed_time, leakage_population) of each sample
        _atomic_write_text(args.plot_out, _table_text(
            None, _PLOT_ROW, (row[1:3] for row in report._rows())))
    kind = "free" if pulses is None else f"pulsed ({pulses.route})"
    print(
        f"simulate: {kind}, final leakage "
        f"{report.final_leakage:.17g} after {n_cycles} cycles "
        f"(T={schedule.total_free_time:.17g}) -> {args.out}"
    )
    return EXIT_OK


def _run_sweep(args: argparse.Namespace) -> int:
    model, config = _model_and_config(args)
    _, _, total = _schedule_params(config, 1)
    pulses = _pulse_for_model(config, model)
    state = _initial_state(config, model.code)
    table = sweep_cycles(model, total, args.n, state, pulses)
    _atomic_write_text(args.out, table.csv_text())
    if args.plot_out:
        _atomic_write_text(args.plot_out, _table_text(None, _PLOT_ROW, (
            (math.log10(r.n), math.log10(max(r.distance_to_limit, 1e-300)))
            for r in table.rows)))
    last = table.rows[-1]
    print(
        f"sweep: {len(table.rows)} runs at T={total:.17g}, distance at "
        f"n={last.n}: {last.distance_to_limit:.17g} -> {args.out}"
    )
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> None:
    """Run one command (argv defaults to sys.argv[1:]) and exit with its code."""
    try:
        args = build_parser().parse_args(argv)
        # every value the CLI writes is certified (leakage range, state
        # norms, unitarity, structural residual), and each check fails on
        # NaN and inf, so overflow warnings would only be a second report
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            status = args.run(args)
    except NumericalDegeneracyError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        status = EXIT_NUMERICAL
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        status = EXIT_CONFIG
    except MemoryError as err:  # numpy's names the array it could not allocate
        print(f"error: {str(err) or 'out of memory'}", file=sys.stderr)
        status = EXIT_CONFIG
    sys.exit(status)


if __name__ == "__main__":
    main()
