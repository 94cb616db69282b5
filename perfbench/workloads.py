"""The three in-process workloads: their operations, inputs and outputs.

Each workload is a fixed list of operations (OpSpec). The list depends
only on the workload name, never on the seed or on tracing, so traced and
untraced passes run the same operations. The seed enters through the
inputs: bath seed 3 + seed and probe seed 5 + seed, so seed 0 reproduces
the shipped configs.

Every call into leolab goes through the module attribute (L.simulate, not
a name bound at import), so the tracer's wrappers see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import leolab as L

G = 0.05          # coupling of the shipped configs
TOTAL_TIME = 2.0  # g * T = 0.1, as in bench/dfs2_benchmark.json
SWEEP_NS = (1, 2, 4, 8, 16, 32, 64)
N_PROBES = 100


def bath_seed(seed: int) -> int:
    return 3 + seed


def probe_seed(seed: int) -> int:
    return 5 + seed


@dataclass(frozen=True)
class OpSpec:
    """One timed operation. params describe it fully, so the reference
    can be rebuilt from them without the library."""

    name: str
    kind: str  # simulate | sweep | route_verify | classify | spin_sectors
    params: dict = field(default_factory=dict)

    @property
    def cycles(self) -> int:
        if self.kind == "simulate":
            return self.params["n"]
        if self.kind == "sweep":
            return sum(self.params["n_list"])
        return 0


def _sim(name, model, n, pulsed):
    return OpSpec(name, "simulate", {"model": model, "n": n, "pulsed": pulsed,
                                     "total_time": TOTAL_TIME})


DFS2 = "dfs2_leakage"
HOPPING = "hopping"


def _dfs2(bath_dim):  # (model, bath_dim, system_dim)
    return (DFS2, bath_dim, 4)


OPS: dict[str, tuple[OpSpec, ...]] = {
    # stepping and per-sample observables dominate; one propagator build
    # is amortized over >= 1024 cycles. Two rungs fail today (the
    # cycle^n unitarity check) and stay in to keep that defect visible.
    "long_run": (
        _sim("dfs2_j16_n4096_pulsed", _dfs2(4), 4096, True),
        _sim("dfs2_j16_n4096_free", _dfs2(4), 4096, False),
        _sim("dfs2_j64_n4096_pulsed", _dfs2(16), 4096, True),
        _sim("dfs2_j64_n4096_free", _dfs2(16), 4096, False),
        _sim("dfs2_j256_n1024_pulsed", _dfs2(64), 1024, True),
        _sim("dfs2_j256_n1024_free", _dfs2(64), 1024, False),
        _sim("hopping8_j256_n1024_projector", (HOPPING, 32, 8), 1024, True),
    ),
    # per-n propagator builds (three eigh of the joint H) and the sweep's
    # thread pool dominate; n <= 64 keeps stepping small
    "sweep_ladder": (
        OpSpec("sweep_j64", "sweep", {"model": _dfs2(16), "n_list": SWEEP_NS,
                                      "total_time": TOTAL_TIME}),
        OpSpec("sweep_j256", "sweep", {"model": _dfs2(64), "n_list": SWEEP_NS,
                                       "total_time": TOTAL_TIME}),
        _sim("dfs2_j512_n64_pulsed", _dfs2(128), 64, True),
    ),
    # codes, classify and leo layers only: no dynamics at all
    "synth_verify": tuple(
        OpSpec(f"{route}_{code}", "route_verify", {"code": code, "route": route})
        for code, route in (
            ("dfs2", "projector"), ("dfs3", "projector"), ("dfs4", "projector"),
            ("dual_rail", "projector"), ("bare3", "projector"),
            ("bare5", "projector"), ("dfs2", "exchange_2dfs"),
            ("bare3", "number_op"), ("bare5", "number_op"),
            ("dual_rail", "phase_shifter"), ("dfs4", "s_squared"),
            ("dfs4", "generalized"),
        )
    ) + (
        OpSpec("classify_dfs3", "classify", {"code": "dfs3", "n_qubits": 3}),
        OpSpec("classify_dfs4", "classify", {"code": "dfs4", "n_qubits": 4}),
        OpSpec("spin_sectors_8", "spin_sectors", {"n_qubits": 8}),
    ),
}

AMBIENT_DIMS = {"dfs2": 4, "dfs3": 8, "dfs4": 16, "dual_rail": 10,
                "bare3": 3, "bare5": 5}


def build_inputs(workload: str, seed: int) -> dict:
    """Everything the operations consume, built before the first timed pass."""
    inputs: dict = {"models": {}, "pulses": {}}
    for spec in OPS[workload]:
        model_key = spec.params.get("model")
        if model_key is None or model_key in inputs["models"]:
            continue
        kind, bath_dim, sys_dim = model_key
        if kind == DFS2:
            model = L.dfs2_leakage_model(["XI"], G, bath_seed(seed), bath_dim=bath_dim)
            pulse = L.exchange_dfs2_leo()
        else:
            model = L.hopping_model(sys_dim, bath_seed(seed), G, bath_dim=bath_dim)
            pulse = L.projector_leo(model.code)
        inputs["models"][model_key] = model
        inputs["pulses"][model_key] = pulse
    if workload == "synth_verify":
        inputs["probes"] = {
            dim: L.random_probes(dim, N_PROBES, probe_seed(seed))
            for dim in sorted(set(AMBIENT_DIMS.values()))
        }
        inputs["half_s_squared"] = L.Operator(L.s_squared(4).mat / 2.0,
                                              frozenset({"hermitian"}))
    return inputs


_ROUTES: dict[str, Callable] = {
    "projector": lambda code, inputs: L.projector_leo(code),
    "exchange_2dfs": lambda code, inputs: L.exchange_dfs2_leo(),
    "number_op": lambda code, inputs: L.number_operator_leo(code.ambient_dim),
    "phase_shifter": lambda code, inputs: L.phase_shifter_leo(),
    "s_squared": lambda code, inputs: L.s_squared_leo(),
    "generalized": lambda code, inputs: L.generalized_leo(inputs["half_s_squared"], code),
}


def bind(spec: OpSpec, inputs: dict) -> Callable[[], object]:
    """The zero-argument callable a pass times for this operation."""
    p = spec.params
    if spec.kind == "simulate":
        model = inputs["models"][p["model"]]
        pulse = inputs["pulses"][p["model"]] if p["pulsed"] else None
        tau = p["total_time"] / (2 * p["n"])
        state = model.code.basis[:, 0]
        return lambda: L.simulate(model, L.ParityKickSchedule(p["n"], tau, pulse), state)
    if spec.kind == "sweep":
        model = inputs["models"][p["model"]]
        pulse = inputs["pulses"][p["model"]]
        state = model.code.basis[:, 0]
        return lambda: L.sweep_cycles(model, p["total_time"], p["n_list"], state, pulse)
    if spec.kind == "route_verify":
        probes = inputs["probes"][AMBIENT_DIMS[p["code"]]]

        def route_verify():
            code = L.build_code(p["code"])
            pulse = _ROUTES[p["route"]](code, inputs)
            return pulse, L.verify_leo(pulse.unitary, code, probes)
        return route_verify
    if spec.kind == "classify":
        return lambda: L.classify_pauli_strings(p["n_qubits"], L.build_code(p["code"]))
    if spec.kind == "spin_sectors":
        return lambda: L.spin_sector_decomposition(p["n_qubits"])
    raise ValueError(f"unknown operation kind {spec.kind!r}")


def summarize(spec: OpSpec, result) -> dict:
    """Plain numbers and arrays from an operation's result, for checking."""
    if spec.kind == "simulate":
        return {
            "leakage": np.array([s.leakage_population for s in result.samples]),
            "fidelity": np.array([s.code_fidelity for s in result.samples]),
            "distance": np.array([result.distance_to_limit]),
        }
    if spec.kind == "sweep":
        return {
            "n": np.array([r.n for r in result.rows], dtype=float),
            "tau": np.array([r.tau for r in result.rows]),
            "final_leakage": np.array([r.final_leakage for r in result.rows]),
            "distance": np.array([r.distance_to_limit for r in result.rows]),
        }
    if spec.kind == "route_verify":
        pulse, report = result
        return {
            "unitary": pulse.unitary.mat,
            "phase": np.array([pulse.phase]),
            "projector": pulse.code.projector,
            "verify": np.array([float(report.passed), report.structural_residual,
                                report.max_residual, len(report.probe_checks)]),
        }
    if spec.kind == "classify":
        return {
            "classes": [(row.label, row.klass) for row in result.values()],
            "norms": np.array([[row.e_norm, row.eperp_norm, row.l_norm]
                               for row in result.values()]),
        }
    return {  # spin_sectors
        "sectors": np.array([[s.spin, s.multiplicity, s.block_dim]
                             for s in result.sectors]),
        "basis": result.full_basis(),
    }
