"""Correctness gate: library outputs against independent references.

Tolerances. The library and the scipy reference agree to ~1e-12 on every
quantity below except the fidelity; the bounds leave two to three orders of
magnitude for reordered float sums, and a miss beyond them is a failed
operation.

- leakage: |x - r| <= 1e-9 |r| + 1e-20. Observed agreement <= 3e-11
  relative: round-off of ~eps per cycle accumulating over <= 4096 cycles.
- code fidelity: |x - r| <= 1e-8. The library takes the square root of a
  nearly rank-deficient reduced state by eigh, which keeps only about half
  the digits of its smallest eigenvalues; observed agreement <= 2e-9.
- distance to the decoupled limit: |x - r| <= 1e-9 (observed <= 5e-12).
- step times and sweep tau: |x - r| <= 1e-12 |r|, a few ulps of a product
  or a running sum.
- pulses and code projectors: 1e-10, the library's own STRUCTURAL_TOL.
- classification norms: 1e-12, the library's own CLASSIFY_TOL; the classes
  themselves must match exactly.

CLI outputs are compared row by row, value by value, with the committed
bench/golden CSVs under these tolerances, so a reordered float sum that
moves the last bits passes. Whether a CSV is still byte-identical to its
golden file is reported, not gated; byte equality is required only between
passes of one run (determinism).

Invariants checked on the library's own numbers: leakage in [0, 1],
fidelity <= 1, and the sweep distance halving per doubling of n
(d(n) / d(2n) in [1.8, 2.2] for n >= 2).
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as R

LEAK_RTOL, LEAK_ATOL = 1e-9, 1e-20
FIDELITY_ATOL = 1e-8
DISTANCE_ATOL = 1e-9
TIME_RTOL = 1e-12
STRUCTURAL_ATOL = 1e-10
NORM_ATOL = 1e-12
HALVING_RANGE = (1.8, 2.2)


@dataclass
class Verdict:
    """Outcome of checking one operation's output."""

    errors: list[str] = field(default_factory=list)
    max_abs_err: float = 0.0
    max_rel_err: float = 0.0
    # CLI CSV outputs only: byte-identical to the golden file (diagnostic)
    golden_identical: bool | None = None

    @property
    def ok(self) -> bool:
        return not self.errors

    def compare(self, what: str, got, want, atol: float, rtol: float = 0.0) -> None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            self.errors.append(f"{what}: shape {got.shape} != reference {want.shape}")
            return
        diff = np.abs(got - want)
        if diff.size:
            self.max_abs_err = max(self.max_abs_err, float(diff.max()))
            nonzero = np.abs(want) > max(atol, 1e-300)
            if nonzero.any():
                rel = float((diff[nonzero] / np.abs(want[nonzero])).max())
                self.max_rel_err = max(self.max_rel_err, rel)
        bad = diff > atol + rtol * np.abs(want)
        if bad.any():
            i = int(np.flatnonzero(bad.ravel())[0])
            self.errors.append(
                f"{what}[{i}] = {got.ravel()[i]!r}, reference {want.ravel()[i]!r}")

    def require(self, what: str, condition: bool) -> None:
        if not condition:
            self.errors.append(what)


# ---------------------------------------------------------------------------
# in-process operations
# ---------------------------------------------------------------------------


class References:
    """Reference results for one bath seed and coupling, computed on demand."""

    def __init__(self, bath_seed: int, g: float):
        self.bath_seed = bath_seed
        self.g = g
        self._models: dict = {}
        self._projectors: dict = {}

    def model(self, key):
        if key not in self._models:
            kind, bath_dim, sys_dim = key
            self._models[key] = (
                R.dfs2_model(self.bath_seed, bath_dim, self.g) if kind == "dfs2_leakage"
                else R.hopping_model(sys_dim, self.bath_seed, bath_dim, self.g))
        return self._models[key]

    def projector(self, label: str) -> np.ndarray:
        if label not in self._projectors:
            self._projectors[label] = R.code_projector(label)
        return self._projectors[label]


def check_simulation(v: Verdict, out: dict, leakage, fidelity) -> None:
    v.require("leakage outside [0, 1]",
              bool(np.all((out["leakage"] >= 0.0) & (out["leakage"] <= 1.0))))
    v.require("fidelity above 1", bool(np.all(out["fidelity"] <= 1.0)))
    v.compare("leakage", out["leakage"], leakage, LEAK_ATOL, LEAK_RTOL)
    v.compare("fidelity", out["fidelity"], fidelity, FIDELITY_ATOL)


def check_halving(v: Verdict, ns, distances) -> None:
    for i in range(len(ns) - 1):
        if ns[i] >= 2 and ns[i + 1] == 2 * ns[i]:
            ratio = distances[i] / distances[i + 1]
            v.require(f"distance ratio d({ns[i]:g})/d({ns[i + 1]:g}) = {ratio:.4f} "
                      f"outside {HALVING_RANGE}",
                      HALVING_RANGE[0] <= ratio <= HALVING_RANGE[1])


def check_op(spec, out: dict, refs: References) -> Verdict:
    v = Verdict()
    p = spec.params
    if spec.kind == "simulate":
        ref = R.run_schedule(refs.model(p["model"]), p["n"],
                             p["total_time"] / (2 * p["n"]), p["pulsed"])
        check_simulation(v, out, ref["leakage"], ref["fidelity"])
        v.compare("distance", out["distance"], [ref["distance"]], DISTANCE_ATOL)
    elif spec.kind == "sweep":
        taus = [p["total_time"] / (2 * n) for n in p["n_list"]]
        rows = [R.run_schedule(refs.model(p["model"]), n, tau, True, samples=False)
                for n, tau in zip(p["n_list"], taus)]
        v.compare("n", out["n"], p["n_list"], 0.0)
        v.compare("tau", out["tau"], taus, 0.0)
        v.compare("final_leakage", out["final_leakage"],
                  [r["final_leakage"] for r in rows], LEAK_ATOL, LEAK_RTOL)
        v.compare("distance", out["distance"], [r["distance"] for r in rows],
                  DISTANCE_ATOL)
        check_halving(v, p["n_list"], out["distance"])
    elif spec.kind == "route_verify":
        proj = refs.projector(p["code"])
        reflection = np.eye(proj.shape[0]) - 2.0 * proj
        passed, structural, worst, probes = out["verify"]
        v.compare("code projector", np.abs(out["projector"] - proj), 0 * proj.real,
                  STRUCTURAL_ATOL)
        v.compare("pulse", np.abs(out["unitary"] - out["phase"][0] * reflection),
                  0 * proj.real, STRUCTURAL_ATOL)
        v.require("verify_leo did not pass", passed == 1.0)
        v.require(f"verify_leo checked {probes:g} probes, expected 100", probes == 100)
        v.require(f"verify residual {worst:.3e} above {STRUCTURAL_ATOL}",
                  worst <= STRUCTURAL_ATOL and structural <= STRUCTURAL_ATOL)
    elif spec.kind == "classify":
        table = R.classify_table(p["n_qubits"], refs.projector(p["code"]))
        v.require("Pauli classes differ from the reference",
                  out["classes"] == [(k, c[0]) for k, c in table.items()])
        v.compare("norms", out["norms"], [c[1:] for c in table.values()], NORM_ATOL)
    elif spec.kind == "spin_sectors":
        n = p["n_qubits"]
        v.compare("sectors", out["sectors"], R.spin_sectors(n), 0.0)
        basis = out["basis"]
        spins = np.concatenate([np.full(int(m * d), s) for s, m, d in out["sectors"]])
        v.compare("basis gram", np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])),
                  np.zeros((basis.shape[1],) * 2), NORM_ATOL)
        v.compare("S^2 eigen-residual",
                  np.abs(R.s_squared(n) @ basis - basis * (spins * (spins + 1))),
                  np.zeros(basis.shape), STRUCTURAL_ATOL)
    else:
        raise ValueError(f"unknown operation kind {spec.kind!r}")
    return v


# ---------------------------------------------------------------------------
# CLI outputs
# ---------------------------------------------------------------------------

# CLI output file -> committed golden file it is compared with
GOLDEN_FILES = {
    "bench_pulsed.csv": "dfs2_benchmark_pulsed.csv",
    "bench_free.csv": "dfs2_benchmark_free.csv",
    "example_pulsed.csv": "dfs2_example_pulsed.csv",
    "sweep.csv": "dfs2_benchmark_sweep.csv",
}

# column -> (atol, rtol) for the comparison with the golden CSVs
GOLDEN_TOLERANCES = {
    "step": (0.0, 0.0),
    "elapsed_time": (0.0, TIME_RTOL),
    "leakage_population": (LEAK_ATOL, LEAK_RTOL),
    "code_fidelity": (FIDELITY_ATOL, 0.0),
    "n": (0.0, 0.0),
    "tau": (0.0, TIME_RTOL),
    "final_leakage": (LEAK_ATOL, LEAK_RTOL),
    "distance_to_limit": (DISTANCE_ATOL, 0.0),
}


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _check_against_golden(v: Verdict, text: str, golden_text: str,
                          golden_name: str) -> None:
    """Every value of every row within its column's tolerance of the golden."""
    header, golden_header = text.partition("\n")[0], golden_text.partition("\n")[0]
    if header != golden_header:
        v.errors.append(f"header {header!r} != bench/golden/{golden_name} "
                        f"{golden_header!r}")
        return
    rows, golden = _rows(text), _rows(golden_text)
    for column in golden_header.strip().split(","):
        atol, rtol = GOLDEN_TOLERANCES[column]
        v.compare(f"{column} vs bench/golden/{golden_name}",
                  [float(r[column]) for r in rows],
                  [float(r[column]) for r in golden], atol, rtol)


def _check_timeseries(v: Verdict, text: str, final_leakage: float) -> None:
    rows = _rows(text)
    leak = np.array([float(r["leakage_population"]) for r in rows])
    fid = np.array([float(r["code_fidelity"]) for r in rows])
    v.require("leakage outside [0, 1]", bool(np.all((leak >= 0) & (leak <= 1))))
    v.require("fidelity above 1", bool(np.all(fid <= 1.0)))
    v.compare("final leakage vs golden_oracle.json", leak[-1:], [final_leakage],
              LEAK_ATOL, LEAK_RTOL)


def check_cli(files: dict[str, bytes], stdout: dict[str, str], root: Path,
              probes: int) -> dict[str, Verdict]:
    """Verdict per CLI operation, keyed like the operations in run.py."""
    golden_dir = root / "bench" / "golden"
    oracle = json.loads((root / "bench" / "golden_oracle.json").read_text())
    verdicts = {}

    def text(name):
        return files.get(name, b"").decode("utf-8", "replace")

    for op, out, final in (
        ("simulate_benchmark_pulsed", "bench_pulsed.csv",
         oracle["benchmark"]["final_leakage_pulsed"]),
        ("simulate_benchmark_free", "bench_free.csv",
         oracle["benchmark"]["final_leakage_free"]),
        ("simulate_example_pulsed", "example_pulsed.csv",
         oracle["example_run"]["final_leakage_pulsed"]),
        ("sweep_benchmark", "sweep.csv", None),
    ):
        v = verdicts[op] = Verdict()
        golden = (golden_dir / GOLDEN_FILES[out]).read_bytes()
        v.golden_identical = files.get(out) == golden
        try:
            _check_against_golden(v, text(out), golden.decode(), GOLDEN_FILES[out])
            if final is not None:
                _check_timeseries(v, text(out), final)
            else:
                rows = _rows(text(out))
                conv = oracle["convergence"]
                ns = [int(r["n"]) for r in rows]
                dist = [float(r["distance_to_limit"]) for r in rows]
                v.require("sweep n list differs from golden_oracle.json",
                          ns == conv["n_list"])
                v.compare("distance vs golden_oracle.json", dist, conv["distances"],
                          DISTANCE_ATOL)
                v.compare("final leakage vs golden_oracle.json",
                          [float(r["final_leakage"]) for r in rows],
                          conv["final_leakages"], LEAK_ATOL, LEAK_RTOL)
                check_halving(v, ns, dist)
        except (KeyError, ValueError) as err:
            v.errors.append(f"unreadable {out}: {err!r}")

    proj = R.code_projector("dfs4")
    v = verdicts["synth_dfs4_s_squared"] = Verdict()
    try:
        pulse = json.loads(text("s2.json"))
        u = np.array(pulse["re"]) + 1j * np.array(pulse["im"])
        phase = complex(*pulse["phase"])
        v.require("synth wrote the wrong route or code",
                  (pulse["route"], pulse["code_label"]) == ("s_squared", "dfs4"))
        v.compare("pulse", np.abs(u - phase * (np.eye(16) - 2.0 * proj)),
                  np.zeros((16, 16)), STRUCTURAL_ATOL)
    except (KeyError, ValueError, TypeError) as err:
        v.errors.append(f"unreadable s2.json: {err!r}")

    v = verdicts["verify_dfs4_s_squared"] = Verdict()
    try:
        report = json.loads(text("verify.json"))
        v.require("verify did not report pass",
                  report["passed"] is True
                  and stdout.get("verify_dfs4_s_squared", "").startswith("verify: pass"))
        v.require(f"verify checked {len(report['probes'])} probes, expected {probes}",
                  len(report["probes"]) == probes)
        v.require("verify residual above tolerance",
                  report["max_residual"] <= STRUCTURAL_ATOL)
    except (KeyError, ValueError, TypeError) as err:
        v.errors.append(f"unreadable verify.json: {err!r}")

    v = verdicts["decompose_dfs4"] = Verdict()
    try:
        rows = _rows(text("dfs4_table.csv"))
        table = R.classify_table(4, proj)
        v.require("Pauli classes differ from the reference",
                  [(r["pauli_string"], r["class"]) for r in rows]
                  == [(k, c[0]) for k, c in table.items()])
        v.compare("norms", [[float(r[k]) for k in ("e_norm", "eperp_norm", "l_norm")]
                            for r in rows], [c[1:] for c in table.values()], NORM_ATOL)
    except (KeyError, ValueError) as err:
        v.errors.append(f"unreadable dfs4_table.csv: {err!r}")
    return verdicts
