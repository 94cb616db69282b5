"""Parity-kick evolution: pulsed decoupling sequences and their ideal limit.

One cycle is free evolution for tau, the inverse pulse, free evolution for
tau again, then the pulse; both free segments count toward elapsed time,
so n cycles cover a total free time of 2 n tau. Because the pulse flips
the sign of every leakage coupling, the cycle is a first-order splitting
step for the leakage-free generator, and the sequence converges to
exp(-i (H_c + H_perp) T) like 1/n with an O(tau^2) single-cycle defect.
Pulses are ideal (instantaneous, error-free) in this version.

Every propagator comes from the model's two cached spectra (H_joint and
H_c + H_perp), a kick contracts the pulse with the system index only, and
all are certified unitary before any sample is taken. Samples come in
batches of OBSERVABLE_BATCH from a few matrix products each: free states
and targets scale a phase table, pulsed states come from the squares that
build cycle^n, and the code fidelity takes code x code SVDs. The distance
to the limit is sqrt(lambda_max) of a Gram matrix, relative error O(J eps).
"""

from __future__ import annotations

import concurrent.futures
import operator
import os
from dataclasses import dataclass
from typing import Sequence

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
assert OBSERVABLE_BATCH & (OBSERVABLE_BATCH - 1) == 0, "a power of two"

REPORT_CSV_HEADER = "step,elapsed_time,leakage_population,code_fidelity"
SWEEP_CSV_HEADER = "n,tau,final_leakage,distance_to_limit"


def _cycle_count(n) -> int:
    """n as an int (numpy integers included); anything else is a ValueError."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"cycle counts must be integers, got {n!r}") from None


def _csv_text(header: str, rows) -> str:
    """header, then one line per row with the fields it names at %.17g."""
    names = header.split(",")
    lines = [",".join(f"{getattr(r, k):.17g}" for k in names) for r in rows]
    return "\n".join([header, *lines]) + "\n"


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
        object.__setattr__(self, "n_cycles", _cycle_count(self.n_cycles))
        if self.n_cycles < 0:
            raise ValueError("n_cycles must be nonnegative")
        if not (self.tau > 0.0 and np.isfinite(self.tau)):
            raise ValueError("tau must be positive and finite")

    @property
    def total_free_time(self) -> float:
        return 2 * self.n_cycles * self.tau


@dataclass(frozen=True, slots=True)
class SimulationSample:
    step: int
    elapsed_time: float
    leakage_population: float
    code_fidelity: float


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Samples of one run and the distance of its total propagator to the
    decoupled limit; the inputs (model, schedule) are not echoed."""

    samples: tuple[SimulationSample, ...]
    distance_to_limit: float

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
        return _csv_text(REPORT_CSV_HEADER, self.samples)


@dataclass(frozen=True)
class SweepRow:
    n: int
    tau: float
    final_leakage: float
    distance_to_limit: float


@dataclass(frozen=True, eq=False)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def csv_text(self) -> str:
        return _csv_text(SWEEP_CSV_HEADER, self.rows)


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


def _cycle_powers(cycle: np.ndarray, n: int, psi0: np.ndarray | None = None
                  ) -> tuple[Operator, np.ndarray | None, np.ndarray | None]:
    """cycle^n, tagged unitary (drift is a numerical failure), from the
    squares C^(2^i) in matrix_power's binary order. Given psi0, the squares
    also fill the first batch, rows C^k psi0 for k < min(n + 1,
    OBSERVABLE_BATCH), by doubling (psi_(k+2^i) = C^(2^i) psi_k), and
    C^OBSERVABLE_BATCH comes back to advance later batches when n reaches
    it; as OBSERVABLE_BATCH is a power of two, cycle^n needs every square.
    """
    rows = min(n + 1, OBSERVABLE_BATCH)
    states = None if psi0 is None else np.tile(psi0, (rows, 1))  # row 0 stays psi0
    total = np.eye(len(cycle), dtype=complex) if n == 0 else None
    advance = None
    square, span, left = cycle, 1, n
    while left:
        if span > 1:
            square = square @ square
        if states is not None and span < rows:
            top = min(2 * span, rows)
            states[span:top] = states[:top - span] @ square.T
        if span == OBSERVABLE_BATCH:
            advance = square
        left, bit = divmod(left, 2)
        if bit:
            total = square if total is None else total @ square
        span *= 2
    try:
        return Operator(total, frozenset({"unitary"})), states, advance
    except ValueError as err:
        msg = f"total propagator after {n} cycles: {err}"
        raise NumericalDegeneracyError(msg) from err


def parity_kick_unitary(model: SystemBathModel,
                        schedule: ParityKickSchedule) -> Operator:
    """Total propagator of the pulsed sequence (identity for zero cycles);
    drift past the unitarity tolerance is a NumericalDegeneracyError."""
    if schedule.pulses is None:
        raise ValueError("schedule has no pulses; use free evolution directly")
    return _cycle_powers(_cycle(model, schedule), schedule.n_cycles)[0]


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
                 c: np.ndarray) -> tuple[list[float], list[float]]:
    """Leakage and code fidelity for a stack of joint states and targets.

    Leakage is |(Q x I) psi|^2. Fidelity is the Uhlmann fidelity of the
    bath-traced state against the bath-traced target projected onto the
    code and renormalized (0 when the target has no code component). Both
    joint vectors are purifications, so with A = V^dag psi and
    C = V^dag target, code x bath (V the code basis; c holds C's rows
    flattened), it is ||A^dag C||_1^2 / ||C||^2 (Uhlmann 1976; Jozsa 1994).
    With more bath than code, A^dag = Q_A R_A and C^dag = Q_C R_C give
    ||A^dag C||_1 = ||R_A R_C^dag||_1: code x code SVDs. Values below
    1 + FIDELITY_CLAMP_TOL are clamped to 1; larger ones pass through.
    """
    k, b = model.code.code_dim, model.bath_dim
    a = psis.reshape(len(psis), model.system_dim, b)
    leak = np.sum(np.abs(model.code.complement_projector @ a) ** 2, axis=(1, 2))

    a_dag = (model.code.basis.conj().T @ a).conj().swapaxes(1, 2)
    c = c.reshape(len(c), k, b)
    norm = np.sum(np.abs(c) ** 2, axis=(1, 2))
    if b > k:
        a_dag = np.linalg.qr(a_dag, mode="r")
        c = np.linalg.qr(c.conj().swapaxes(1, 2), mode="r").conj().swapaxes(1, 2)
    has_code = norm > 0.0
    nuclear = np.linalg.svd(a_dag @ c, compute_uv=False).sum(axis=1)
    f = nuclear ** 2 / np.where(has_code, norm, 1.0)
    f = np.where(f < 1.0 + FIDELITY_CLAMP_TOL, np.minimum(f, 1.0), f)
    return leak.tolist(), np.where(has_code, f, 0.0).tolist()


def _spectral_batches(spectrum: tuple[np.ndarray, np.ndarray], psi0: np.ndarray,
                      rows: np.ndarray, first: np.ndarray, scale: float, n: int):
    """Yield rows (exp(1j * scale * k * h) psi0) for k = 0..n in batches
    of OBSERVABLE_BATCH, from h's spectrum (w, v); rows is v itself, or
    the rows of it that are wanted. The table exp(1j * scale * j * w),
    j < OBSERVABLE_BATCH, is built once, and the batch from k0 scales it
    by exp(1j * scale * k0 * w) (v^dag psi0). Sample 0 is first exactly.
    """
    w, v = spectrum
    coeff = v.conj().T @ psi0
    table = np.exp(1j * scale * np.outer(np.arange(min(n + 1, OBSERVABLE_BATCH)), w))
    for k0 in range(0, n + 1, OBSERVABLE_BATCH):
        batch = (table[:n + 1 - k0] * (np.exp(1j * scale * k0 * w) * coeff)) @ rows.T
        if k0 == 0:
            batch[0] = first
        yield batch


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
    Raises NumericalDegeneracyError when any propagator drifts past the
    unitarity tolerance, before the first sample is evaluated.
    """
    state = np.asarray(initial_code_state, dtype=complex)
    if state.shape != (model.system_dim,):
        raise ValueError(f"initial state must be a length-{model.system_dim} vector")
    # both checks fail closed: a NaN or infinite entry makes the norm NaN or inf
    if not abs(np.linalg.norm(state) - 1.0) <= STATE_NORM_TOL:
        raise ValueError("initial state must be finite and normalized")
    out_of_code = np.linalg.norm(model.code.complement_projector @ state)
    if not out_of_code <= STATE_CODE_TOL:
        raise ValueError(f"initial state leaves the code subspace by {out_of_code:.3e}")
    joint, decoupled = model.spectra
    pulsed = schedule.pulses is not None
    n, tau = schedule.n_cycles, schedule.tau
    psi0 = np.kron(state, model.initial_bath_state)
    # every propagator, cycle^n included, is certified before any sample
    u_limit = decoupled_limit_unitary(model, schedule.total_free_time)
    if pulsed:
        u_total, psis, advance = _cycle_powers(_cycle(model, schedule), n, psi0)
    else:
        u_total = spectral_exponential(joint, -schedule.total_free_time)
        states = _spectral_batches(joint, psi0, joint[1], psi0, -2 * tau, n)

    # targets only in code rows: (V^dag x I) v_d, code*bath x joint
    v_dag = model.code.basis.conj().T

    def code_rows(x: np.ndarray) -> np.ndarray:
        return (v_dag @ x.reshape(model.system_dim, -1)).reshape(-1, *x.shape[1:])

    targets = _spectral_batches(decoupled, psi0, code_rows(decoupled[1]),
                                code_rows(psi0), -2 * tau, n)
    leakage, fidelity = [], []
    for start, c in zip(range(0, n + 1, OBSERVABLE_BATCH), targets):
        if not pulsed:
            psis = next(states)
        elif start:
            psis = psis[:len(c)] @ advance.T
        leak, fid = _observables(model, psis, c)
        leakage += leak
        fidelity += fid
    times = [2 * tau * k for k in range(n + 1)]
    samples = tuple(map(SimulationSample, range(n + 1), times, leakage, fidelity))

    if pulsed:
        del advance, psis  # room for the Gram matrix of the distance
    return SimulationReport(samples, _spectral_distance(u_total.mat, u_limit.mat))


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
    ns = [_cycle_count(n) for n in n_list]
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
        return SweepTable(tuple(pool.map(one, ns)))
