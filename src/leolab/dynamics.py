"""Parity-kick evolution: pulsed decoupling sequences and their ideal limit.

One cycle is free evolution for tau, the inverse pulse, free evolution for
tau again, then the pulse; both free segments count toward elapsed time,
so n cycles cover a total free time of 2 n tau. Because the pulse flips
the sign of every leakage coupling, the cycle is a first-order splitting
step for the leakage-free generator, and the sequence converges to
exp(-i (H_c + H_perp) T) like 1/n with an O(tau^2) single-cycle defect.

Pulses are ideal (instantaneous, error-free) in this version.

Each simulate or sweep_cycles call diagonalizes H_joint and H_c + H_perp
once and builds every propagator it needs from those two spectra. The
stepping loop is sequential; the per-sample leakage and fidelity are
computed afterwards in batches of OBSERVABLE_BATCH samples, so memory does
not grow with the cycle count.
"""

from __future__ import annotations

import concurrent.futures
import os
import tempfile
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .leo import LeakageEliminationOperator
from .models import SystemBathModel
from .opalg import (
    NumericalDegeneracyError,
    Operator,
    hermitian_exponential,
    hermitian_spectrum,
    spectral_exponential,
)

STATE_CODE_TOL = 1e-12
STATE_NORM_TOL = 1e-10
FIDELITY_CLAMP_TOL = 1e-9   # fidelities below 1 + this are clamped to 1
OBSERVABLE_BATCH = 256      # samples per batched leakage/fidelity evaluation

REPORT_CSV_HEADER = "step,elapsed_time,leakage_population,code_fidelity"
SWEEP_CSV_HEADER = "n,tau,final_leakage,distance_to_limit"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write_text(path: str, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a torn file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", text=True)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@dataclass(frozen=True, eq=False)
class ParityKickSchedule:
    """Pulse timing: n_cycles cycles of two tau segments around the pulses.

    pulses=None means free evolution on the same time grid, which is the
    reference every pulsed run is compared against.
    """

    n_cycles: int
    tau: float
    pulses: LeakageEliminationOperator | None

    def __post_init__(self):
        if self.n_cycles < 0:
            raise ValueError("n_cycles must be nonnegative")
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")

    @property
    def total_free_time(self) -> float:
        return 2 * self.n_cycles * self.tau


@dataclass(frozen=True)
class SimulationSample:
    step: int
    elapsed_time: float
    leakage_population: float
    code_fidelity: float


@dataclass(frozen=True, eq=False)
class SimulationReport:
    schedule: ParityKickSchedule
    samples: tuple[SimulationSample, ...]
    distance_to_limit: float
    metadata: Mapping[str, object]

    def __post_init__(self):
        for s in self.samples:
            if not -1e-12 <= s.leakage_population <= 1.0 + 1e-12:
                raise ValueError(
                    f"leakage population {s.leakage_population} outside [0, 1]"
                )

    @property
    def final_leakage(self) -> float:
        return self.samples[-1].leakage_population

    def csv_text(self) -> str:
        lines = [REPORT_CSV_HEADER]
        for s in self.samples:
            lines.append(
                f"{s.step},{_fmt(s.elapsed_time)},"
                f"{_fmt(s.leakage_population)},{_fmt(s.code_fidelity)}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self, path: str) -> None:
        _atomic_write_text(path, self.csv_text())


@dataclass(frozen=True)
class SweepRow:
    n: int
    tau: float
    final_leakage: float
    distance_to_limit: float


@dataclass(frozen=True, eq=False)
class SweepTable:
    rows: tuple[SweepRow, ...]
    metadata: Mapping[str, object]

    def csv_text(self) -> str:
        lines = [SWEEP_CSV_HEADER]
        for r in self.rows:
            lines.append(
                f"{r.n},{_fmt(r.tau)},{_fmt(r.final_leakage)},"
                f"{_fmt(r.distance_to_limit)}"
            )
        return "\n".join(lines) + "\n"

    def to_csv(self, path: str) -> None:
        _atomic_write_text(path, self.csv_text())


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


def _joint_pulse(model: SystemBathModel,
                 pulse: LeakageEliminationOperator) -> np.ndarray:
    if pulse.code.label != model.code.label or pulse.dim != model.system_dim:
        raise ValueError(
            f"pulse targets code {pulse.code.label!r} (dim {pulse.dim}), model "
            f"uses {model.code.label!r} (dim {model.system_dim})"
        )
    return np.kron(pulse.unitary.mat, np.eye(model.bath_dim))


def _kick_cycle(segment: np.ndarray, r: np.ndarray) -> np.ndarray:
    return segment @ r.conj().T @ segment @ r


def _decoupled_generator(model: SystemBathModel) -> Operator:
    return Operator(model.h_c.mat + model.h_perp.mat, frozenset({"hermitian"}))


def parity_kick_unitary(model: SystemBathModel,
                        schedule: ParityKickSchedule) -> Operator:
    """Total propagator of the pulsed sequence; identity for zero cycles."""
    if schedule.pulses is None:
        raise ValueError("schedule has no pulses; use free evolution directly")
    if schedule.n_cycles == 0:
        return Operator(np.eye(model.joint_dim), frozenset({"unitary"}))
    segment = hermitian_exponential(model.h_joint, -schedule.tau).mat
    cycle = _kick_cycle(segment, _joint_pulse(model, schedule.pulses))
    u = np.linalg.matrix_power(cycle, schedule.n_cycles)
    return Operator(u, frozenset({"unitary"}))


def decoupled_limit_unitary(model: SystemBathModel,
                            total_free_time: float) -> Operator:
    """Evolution under the leakage-free generator H_c + H_perp."""
    return hermitian_exponential(_decoupled_generator(model), -total_free_time)


# ---------------------------------------------------------------------------
# state-level simulation
# ---------------------------------------------------------------------------


def _dagger(stack: np.ndarray) -> np.ndarray:
    return stack.conj().swapaxes(-1, -2)


def _observables(model: SystemBathModel, psis: np.ndarray,
                 targets: np.ndarray) -> tuple[list[float], list[float]]:
    """Leakage and code fidelity for a stack of joint states and targets.

    Leakage is |(Q x I) psi|^2. Fidelity is the Uhlmann fidelity
    (tr sqrt(sqrt(rho) sigma sqrt(rho)))^2 of the bath-traced state rho
    against the bath-traced target projected onto the code and renormalized
    (0 when the target has no code component). Values below
    1 + FIDELITY_CLAMP_TOL are clamped to 1; larger ones pass through.
    """
    shape = (len(psis), model.system_dim, model.bath_dim)
    a = psis.reshape(shape)
    t = targets.reshape(shape)
    leak = np.sum(np.abs(model.code.complement_projector @ a) ** 2, axis=(1, 2))

    rho = a @ _dagger(a)
    p = model.code.projector
    sigma = p @ (t @ _dagger(t)) @ p
    tr = np.trace(sigma, axis1=1, axis2=2).real
    has_code = tr > 0.0
    sigma = sigma / np.where(has_code, tr, 1.0)[:, None, None]
    w, v = np.linalg.eigh((rho + _dagger(rho)) / 2.0)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))[:, None, :]) @ _dagger(v)
    w = np.linalg.eigvalsh(sqrt_rho @ sigma @ sqrt_rho)
    f = np.sum(np.sqrt(np.clip(w, 0.0, None)), axis=1) ** 2
    f = np.where(f < 1.0 + FIDELITY_CLAMP_TOL, np.minimum(f, 1.0), f)
    return leak.tolist(), np.where(has_code, f, 0.0).tolist()


def _checked_state(model: SystemBathModel,
                   initial_code_state: np.ndarray) -> np.ndarray:
    state = np.asarray(initial_code_state, dtype=complex)
    if state.shape != (model.system_dim,):
        raise ValueError(
            f"initial state must be a length-{model.system_dim} vector"
        )
    if abs(np.linalg.norm(state) - 1.0) > STATE_NORM_TOL:
        raise ValueError("initial state must be normalized")
    out_of_code = np.linalg.norm(model.code.complement_projector @ state)
    if out_of_code > STATE_CODE_TOL:
        raise ValueError(
            f"initial state leaves the code subspace by {out_of_code:.3e}"
        )
    return state


def _spectra(model: SystemBathModel) -> tuple[tuple, tuple]:
    """Spectra of H_joint and of the decoupled generator H_c + H_perp."""
    return (hermitian_spectrum(model.h_joint),
            hermitian_spectrum(_decoupled_generator(model)))


def _simulate(model: SystemBathModel, schedule: ParityKickSchedule,
              state: np.ndarray, spectra: tuple[tuple, tuple]) -> SimulationReport:
    joint, decoupled = spectra
    pulsed = schedule.pulses is not None
    n = schedule.n_cycles
    tau = schedule.tau
    if pulsed:
        segment = spectral_exponential(joint, -tau).mat
        cycle = _kick_cycle(segment, _joint_pulse(model, schedule.pulses))
    else:
        cycle = spectral_exponential(joint, -2 * tau).mat
    target_step = spectral_exponential(decoupled, -2 * tau).mat

    psi = np.kron(state, model.initial_bath_state)
    target = psi.copy()
    psis = np.empty((OBSERVABLE_BATCH, model.joint_dim), dtype=complex)
    targets = np.empty_like(psis)
    leakage: list[float] = []
    fidelity: list[float] = []
    for k in range(n + 1):
        if k:
            psi = cycle @ psi
            target = target_step @ target
        i = k % OBSERVABLE_BATCH
        psis[i] = psi
        targets[i] = target
        if i == OBSERVABLE_BATCH - 1 or k == n:
            leak, fid = _observables(model, psis[:i + 1], targets[:i + 1])
            leakage += leak
            fidelity += fid
    samples = tuple(
        SimulationSample(k, 2 * tau * k, leak, fid)
        for k, (leak, fid) in enumerate(zip(leakage, fidelity))
    )

    try:
        u_total = Operator(np.linalg.matrix_power(cycle, n),
                           frozenset({"unitary"}))
    except ValueError as err:
        raise NumericalDegeneracyError(
            f"total propagator after {n} cycles: {err}"
        ) from err
    u_limit = spectral_exponential(decoupled, -schedule.total_free_time)
    distance = float(np.linalg.norm(u_total.mat - u_limit.mat, 2))

    metadata = {
        "model": model.label,
        "g": model.coupling_strength,
        "bath_seed": model.bath_seed,
        "bath_dim": model.bath_dim,
        "pulse_route": schedule.pulses.route if pulsed else "free",
        "n_cycles": n,
        "tau": tau,
        "total_free_time": schedule.total_free_time,
    }
    return SimulationReport(schedule, samples, distance, metadata)


def simulate(
    model: SystemBathModel,
    schedule: ParityKickSchedule,
    initial_code_state: np.ndarray,
) -> SimulationReport:
    """Propagate a code state through the schedule, tracking leakage.

    The initial state is an ambient system vector that must lie in the code;
    it is tensored with the model's initial bath state. Records one sample
    per completed cycle (plus the initial point): leakage population and the
    fidelity of the bath-traced system state against the decoupled-limit
    target. With pulses=None the same grid is used for free evolution.
    Raises NumericalDegeneracyError when the total propagator drifts past
    the unitarity tolerance.
    """
    state = _checked_state(model, initial_code_state)
    return _simulate(model, schedule, state, _spectra(model))


def sweep_cycles(
    model: SystemBathModel,
    total_free_time: float,
    n_list: Sequence[int],
    initial_code_state: np.ndarray,
    pulses: LeakageEliminationOperator,
    max_workers: int | None = None,
) -> SweepTable:
    """Convergence sweep: one pulsed run per cycle count at fixed total time.

    n_list must be ascending positive integers. Runs are independent, so
    they fan out over a thread pool; max_workers=None uses the machine's
    parallelism and 1 forces serial execution. Row order follows n_list
    either way. The generators are diagonalized once for all runs, so each
    row equals a standalone simulate call exactly.
    """
    if not (total_free_time > 0 and np.isfinite(total_free_time)):
        raise ValueError("total_free_time must be positive and finite")
    ns = [int(n) for n in n_list]
    if not ns or any(n < 1 for n in ns) or ns != sorted(set(ns)):
        raise ValueError("n_list must be strictly ascending positive integers")
    state = _checked_state(model, initial_code_state)
    spectra = _spectra(model)

    def one(n: int) -> SweepRow:
        tau = total_free_time / (2 * n)
        report = _simulate(
            model, ParityKickSchedule(n, tau, pulses), state, spectra
        )
        return SweepRow(n, tau, report.final_leakage, report.distance_to_limit)

    workers = (os.cpu_count() or 1) if max_workers is None else max_workers
    workers = max(1, min(workers, len(ns)))
    if workers == 1:
        rows = [one(n) for n in ns]
    else:
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            rows = list(pool.map(one, ns))
    metadata = {
        "model": model.label,
        "g": model.coupling_strength,
        "bath_seed": model.bath_seed,
        "total_free_time": total_free_time,
        "pulse_route": pulses.route,
    }
    return SweepTable(tuple(rows), metadata)
