"""Parity-kick evolution: pulsed decoupling sequences and their ideal limit.

One cycle is free evolution for tau, the inverse pulse, free evolution for
tau again, then the pulse; both free segments count toward elapsed time,
so n cycles cover a total free time of 2 n tau. Because the pulse flips
the sign of every leakage coupling, the cycle is a first-order splitting
step for the leakage-free generator, and the sequence converges to
exp(-i (H_c + H_perp) T) like 1/n with an O(tau^2) single-cycle defect.
Pulses are ideal (instantaneous, error-free) in this version.

H_joint and H_c + H_perp are diagonalized once per model (cached on
SystemBathModel.spectra), and every propagator here is built from those
two spectra. A pulse acts on the system only, so each kick contracts the
pulse matrix with the system index, with no joint kron(R, I) product. The
distance to the limit is sqrt(lambda_max) of a Gram matrix from eigvalsh,
relative error O(J eps) at joint dim J. Samples come in batches of
OBSERVABLE_BATCH: the decoupled-limit targets, and the states of a free
run, are read off the spectra as exp(-i H 2 tau k) psi0 for a whole batch
of k in one matrix product; only the pulsed state is stepped one cycle at
a time. Leakage and the code fidelity (through purifications, in code
coordinates) are computed per batch, so memory does not grow with the
cycle count.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .leo import LeakageEliminationOperator
from .models import SystemBathModel
from .opalg import (
    NumericalDegeneracyError,
    Operator,
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


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


def _cycle(model: SystemBathModel, schedule: ParityKickSchedule) -> np.ndarray:
    """One kick cycle S (R^dag x I) S (R x I), S the tau segment; R acts on
    the system index of the joint (system x bath) index only, so each kick
    is a contraction over it, not a product with kron(R, I)."""
    pulse = schedule.pulses
    if not pulse.code.same_subspace(model.code):
        raise ValueError(
            f"pulse targets code {pulse.code.label!r} (dim {pulse.dim}), model "
            f"uses a different code {model.code.label!r} (dim {model.system_dim})"
        )
    segment = spectral_exponential(model.spectra[0], -schedule.tau).mat
    r, j, s = pulse.unitary.mat, model.joint_dim, model.system_dim
    t = (r.T @ segment.reshape(j, s, -1)).reshape(j, j)  # S (R x I)
    t = (r.conj().T @ t.reshape(s, -1)).reshape(j, j)    # (R^dag x I) S (R x I)
    return segment @ t


def _power(cycle: np.ndarray, n: int) -> Operator:
    """cycle^n, tagged unitary; drift past the tag is a numerical failure."""
    try:
        return Operator(np.linalg.matrix_power(cycle, n), frozenset({"unitary"}))
    except ValueError as err:
        raise NumericalDegeneracyError(
            f"total propagator after {n} cycles: {err}"
        ) from err


def parity_kick_unitary(model: SystemBathModel,
                        schedule: ParityKickSchedule) -> Operator:
    """Total propagator of the pulsed sequence; identity for zero cycles.

    Raises NumericalDegeneracyError when it drifts past the unitarity
    tolerance.
    """
    if schedule.pulses is None:
        raise ValueError("schedule has no pulses; use free evolution directly")
    return _power(_cycle(model, schedule), schedule.n_cycles)


def decoupled_limit_unitary(model: SystemBathModel,
                            total_free_time: float) -> Operator:
    """Evolution under the leakage-free generator H_c + H_perp."""
    return spectral_exponential(model.spectra[1], -total_free_time)


def _spectral_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_2 = sqrt(lambda_max(D^dag D)), D = a - b, from eigvalsh at
    about half the cost of an SVD. lambda_max carries relative error
    O(J eps) at joint dim J, and so does the distance; equal inputs give 0."""
    d = a - b
    gram = d.conj().T @ d
    del d  # D is not needed while eigvalsh runs
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[-1], 0.0)))


# ---------------------------------------------------------------------------
# state-level simulation
# ---------------------------------------------------------------------------


def _observables(model: SystemBathModel, psis: np.ndarray,
                 targets: np.ndarray) -> tuple[list[float], list[float]]:
    """Leakage and code fidelity for a stack of joint states and targets.

    Leakage is |(Q x I) psi|^2. Fidelity is the Uhlmann fidelity of the
    bath-traced state against the bath-traced target projected onto the
    code and renormalized (0 when the target has no code component). Both
    joint vectors are purifications, so with A = V^dag psi and
    C = V^dag target in code coordinates (V the code basis, reshaped to
    code x bath) the fidelity is ||A^dag C||_1^2 / ||C||^2 (Uhlmann 1976;
    Jozsa 1994). When the bath is larger than the code, A^dag is replaced
    by the R factor of its QR decomposition, which keeps the nuclear norm
    and every SVD at most code x bath. Values below 1 + FIDELITY_CLAMP_TOL
    are clamped to 1; larger ones pass through.
    """
    shape = (len(psis), model.system_dim, model.bath_dim)
    a = psis.reshape(shape)
    leak = np.sum(np.abs(model.code.complement_projector @ a) ** 2, axis=(1, 2))

    v_dag = model.code.basis.conj().T
    a_dag = (v_dag @ a).conj().swapaxes(1, 2)
    c = v_dag @ targets.reshape(shape)
    if model.bath_dim > model.code.code_dim:
        a_dag = np.linalg.qr(a_dag, mode="r")
    norm = np.sum(np.abs(c) ** 2, axis=(1, 2))
    has_code = norm > 0.0
    nuclear = np.linalg.svd(a_dag @ c, compute_uv=False).sum(axis=1)
    f = nuclear ** 2 / np.where(has_code, norm, 1.0)
    f = np.where(f < 1.0 + FIDELITY_CLAMP_TOL, np.minimum(f, 1.0), f)
    return leak.tolist(), np.where(has_code, f, 0.0).tolist()


def _spectral_samples(spectrum: tuple[np.ndarray, np.ndarray],
                      psi0: np.ndarray, scale: float,
                      ks: np.ndarray) -> np.ndarray:
    """Rows exp(1j * scale * k * h) psi0 for each k in ks, from h's spectrum."""
    w, v = spectrum
    rows = (np.exp(1j * scale * np.outer(ks, w)) * (v.conj().T @ psi0)) @ v.T
    rows[ks == 0] = psi0  # the initial sample is psi0 itself, free of round-off
    return rows


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
    joint, decoupled = model.spectra
    pulsed = schedule.pulses is not None
    n = schedule.n_cycles
    tau = schedule.tau
    psi0 = np.kron(state, model.initial_bath_state)
    # u_limit and the segment in cycle (or u_total) certify both spectra as
    # unitary propagators before any state is sampled from them
    u_limit = decoupled_limit_unitary(model, schedule.total_free_time)
    if pulsed:
        cycle = _cycle(model, schedule)
    else:
        u_total = spectral_exponential(joint, -schedule.total_free_time)

    psi = psi0
    leakage: list[float] = []
    fidelity: list[float] = []
    for start in range(0, n + 1, OBSERVABLE_BATCH):
        ks = np.arange(start, min(start + OBSERVABLE_BATCH, n + 1))
        targets = _spectral_samples(decoupled, psi0, -2 * tau, ks)
        if pulsed:
            psis = np.empty_like(targets)
            for i, k in enumerate(ks):
                if k:
                    psi = cycle @ psi
                psis[i] = psi
        else:
            psis = _spectral_samples(joint, psi0, -2 * tau, ks)
        leak, fid = _observables(model, psis, targets)
        leakage += leak
        fidelity += fid
    samples = tuple(
        SimulationSample(k, 2 * tau * k, leak, fid)
        for k, (leak, fid) in enumerate(zip(leakage, fidelity))
    )

    if pulsed:
        u_total = _power(cycle, n)
        del cycle  # room for the Gram matrix of the distance
    distance = _spectral_distance(u_total.mat, u_limit.mat)

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


def sweep_cycles(
    model: SystemBathModel,
    total_free_time: float,
    n_list: Sequence[int],
    initial_code_state: np.ndarray,
    pulses: LeakageEliminationOperator,
) -> SweepTable:
    """Convergence sweep: one pulsed run per cycle count at fixed total time.

    n_list must be ascending positive integers. Each row is a simulate call;
    the runs are independent, so they fan out over one thread per CPU (at
    most one per row), and row order follows n_list.
    """
    if not (total_free_time > 0 and np.isfinite(total_free_time)):
        raise ValueError("total_free_time must be positive and finite")
    ns = [int(n) for n in n_list]
    if not ns or any(n < 1 for n in ns) or ns != sorted(set(ns)):
        raise ValueError("n_list must be strictly ascending positive integers")
    model.spectra  # diagonalize here, not in the pool's threads

    def one(n: int) -> SweepRow:
        tau = total_free_time / (2 * n)
        report = simulate(model, ParityKickSchedule(n, tau, pulses),
                          initial_code_state)
        return SweepRow(n, tau, report.final_leakage, report.distance_to_limit)

    workers = min(os.cpu_count() or 1, len(ns))
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
