"""Parity-kick evolution: pulsed decoupling sequences and their ideal limit.

One cycle is free evolution for tau, the inverse pulse, free evolution for
tau again, then the pulse; both free segments count toward elapsed time,
so n cycles cover a total free time of 2 n tau. Because the pulse flips
the sign of every leakage coupling, the cycle is a first-order splitting
step for the leakage-free generator, and the sequence converges to
exp(-i (H_c + H_perp) T) like 1/n with an O(tau^2) single-cycle defect.
Pulses are ideal (instantaneous, error-free) in this version.

Everything runs in the code frame F x I (F = [code basis | complement
basis]) and sector by sector: SystemBathModel.spectra splits H' = (F^dag
x I) H_joint (F x I) into the exact blocks of its nonzero pattern, and
every propagator is block diagonal over them. Sectors that are exact
copies are one Sector with a row set per copy, so every block below is
formed, certified and compared once per distinct block. A pulse phi (Q -
P) is phi Z in the frame, Z = -1 on the code rows and +1 on the rest, and
phi cancels in the cycle, so a sector's cycle is (S' Z)^2 with S' its tau
segment: the pulse is read only for its code. The segment is I + E, E =
V' expm1(-i w tau) V'^dag on eigenvectors the model certified once
(opalg.check_eigenvectors), so it has no check of its own and its drift
is second order in w tau. The cycle is formed from E alone, as I + 2
bd(E) + (E Z)^2 with bd(E) E's code and complement diagonal blocks
(_cycle), so no term of the coupling's first-order size is added and
then cancelled. cycle^n (_pulsed), the free total (_free_total), the
limit (_limit) and a pulsed run's stride and cycle (_kicked) are each
formed and certified unitary in one function, as one
matrix whose drift is sqrt(sum of the sectors' squared drifts), a
distinct block's counted once per copy (_certified); everything else
combines them. Inputs are checked once per call, before any
eigendecomposition. The distance to the limit is the largest of the
sectors' distances, each sqrt(lambda_max) of a Gram matrix, relative
error O(J eps). The public parity_kick_unitary and
decoupled_limit_unitary place each block on every copy's rows and rotate
them back to product coordinates.

A sector that pairs (models._pair_phase: as many code as complement
rows, equal code and complement sub-blocks A, and zeta G Hermitian for
its coupling G, all exact) is exactly diag(A + zeta G, A - zeta G) on
the rows (code +- conj(zeta) complement) / sqrt(2), where Z is exactly
-swap of the two halves. Every propagator of a pair then has the frame
form [[S, conj(zeta) D], [zeta D, S]]: its free total is its halves'
exponentials rotated to the frame (_frame_block), its cycle is S+ S-
and S- S+ on the halves, formed from the segment's small parts E+ and
E- by the two half-size products E+ E- and E- E+ (_cycle), and its
limit is exp(-i A T) on both, one exponential. A product of two such
blocks is fixed by its first half of rows, one GEMM of half the flops
(_product), which also keeps the code-complement coupling D accurate to
its own size. Certificates and distances are read on the halves S +- D
(_diagonal_blocks), at a quarter of the flops, taken once per
propagator for both (_halves); the rotation is unitary, so they are the
same. States are stepped in the frame: pulsed ones by the pair-form
squares, free ones against the halves' eigenvectors rotated to the frame
(_free_batches).
On the halves, the leakage would be the difference of two stacks near 1,
good only to rounding of their size.

Samples are read per sector in the frame, where a sector's first n_code
rows are code rows and the rest complement rows, and only on the live
copies (_live), those where the start phi0 has an exactly nonzero entry:
a copy that starts at zero stays exactly zero, so it is neither stepped
nor read, and a sector with no live copy gets no propagator until the
distance is read, which covers every sector, pulsed or free. A code
basis state occupies one copy of dfs2 XI's sector. Each live sector
yields its states in stacks (samples, copies, J_s) of OBSERVABLE_BATCH
samples, its live copies stepped together by one GEMM of shape (samples
x copies, J_s) per product: free states are one GEMM of a phase table
with its eigenvectors scaled by the start's coefficients (_free), and
pulsed states come from the squares of the cycle up to a stride C^s, then
one GEMM by C^s per block of s states (_kicked); cycle^n is never formed
for them. s is one per run, the largest power of two up to min(n,
OBSERVABLE_BATCH) whose squarings cost no more flops than stepping the n
states (_stride). Their norms, the leakage plus the code population, are
checked once per run against a bound linear in k, derived from the
residuals of the cycle and the stride (_norm_bound). Leakage is the sum
over live sectors and copies of the squared norms of their complement
rows (_leakage); only the code rows are gathered, in frame code order by
one index per run (_code_columns), as the fidelity's A, each code row by
its own take into
a contiguous (samples, b) array (_code_rows); a code row that only a
dead copy holds reads a zero column, appended only when there is one.
When the code block of H' is exactly I_k x h
(SystemBathModel.decoherence_free), the decoupled-limit target is x
(e^(-i h t) y)^T on the code rows, x the initial code state and y the
bath state: of rank one, so the fidelity is the overlap with the initial
code state, ||x^dag A||^2 / ||x||^2 (_overlap), for any code dim, with
no target, and a code row whose x_i is zero is not gathered. Otherwise
targets (which never leave the code rows) are stepped by a phase table
against each sector's code sub-block's eigenvectors, and the fidelity is
||A^dag C||_1^2 / ||C||^2: for a qubit code in Jozsa's closed form
(tr(rho sigma) + 2 sqrt(det rho det sigma), determinants from
Gram-Schmidt R factors), within 1e-15 ||A||_F ||C||_F of the QR + SVD
form that the other code dims take.
simulate certifies a run's leakage column once: a value outside [0, 1]
(within 1e-12), or NaN, is a NumericalDegeneracyError. It returns that
column and the fidelity's; records and CSV derive from them. It forms no
limit, no total (cycle^n or the free total) and no distance: the
report's distance_to_limit forms them on its first read
(_deferred_distance) and keeps the value, so a drift in the limit or the
run's total raises there. A sweep row is
cycle^n, its final leakage (read per sector on the same live copies) and
its distance to the sweep's one limit; it takes no samples
(sweep_cycles).
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .leo import LeakageEliminationOperator
from .models import Sector, SystemBathModel
from .opalg import (
    NumericalDegeneracyError,
    Operator,
    _index,
    _spectral_matrix,
    _table_text,
    certified_residual,
    computed_unitary,
)

STATE_CODE_TOL = 1e-12
STATE_NORM_TOL = 1e-10
FIDELITY_CLAMP_TOL = 1e-9   # fidelities below 1 + this are clamped to 1
OBSERVABLE_BATCH = 256      # samples per batched leakage/fidelity evaluation
assert OBSERVABLE_BATCH & (OBSERVABLE_BATCH - 1) == 0, "a power of two"


def _csv_text(fields: tuple[str, ...], rows) -> str:
    """The field names as a header, then one line per row, a tuple of
    numbers each at %.17g."""
    return _table_text(",".join(fields), ",".join(["%.17g"] * len(fields)), rows)


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
        object.__setattr__(self, "n_cycles",
                           _index(self.n_cycles, "cycle counts must be integers"))
        if self.n_cycles < 0:
            raise ValueError("n_cycles must be nonnegative")
        # one comparison: NaN, inf and an int past the float range all fail
        if not 0.0 < self.tau <= sys.float_info.max:
            raise ValueError("tau must be positive and finite")
        # forming 2 n tau converts 2 n to a float, which fails past its range
        if (2 * self.n_cycles > sys.float_info.max
                or not np.isfinite(self.total_free_time)):
            raise ValueError(f"total free time 2 n tau must be finite, "
                             f"n_cycles {self.n_cycles}")

    @property
    def total_free_time(self) -> float:
        # a Python float overflows to inf with no warning; numpy scalars warn
        return 2 * self.n_cycles * float(self.tau)


class SimulationSample(NamedTuple):
    """One sample of a run; a named tuple, so it equals the plain tuple of
    its four fields."""

    step: int
    elapsed_time: float
    leakage_population: float
    code_fidelity: float


@dataclass(frozen=True, eq=False)
class SimulationReport:
    """Leakage and code fidelity at steps 0..n, read-only from simulate;
    samples and the CSV derive from them and tau (step k at 2 k tau). The
    distance to the decoupled limit is formed on its first read, by a call
    to _distance_to_limit, and kept: from simulate, that call forms and
    certifies the limit and the run's total (cycle^n, or the free total),
    so their drift raises NumericalDegeneracyError there, not in
    simulate. Until then the report keeps the model; after, only the
    value. A pickle or copy of the report reads the distance and carries
    its value.
    simulate certifies what it returns; direct construction checks
    nothing."""

    tau: float
    leakage_population: np.ndarray
    code_fidelity: np.ndarray
    _distance_to_limit: Callable[[], float] = field(repr=False)

    @cached_property
    def distance_to_limit(self) -> float:
        return self._distance_to_limit()

    def __getstate__(self):
        distance = self.distance_to_limit
        return {**vars(self), "_distance_to_limit": partial(float, distance)}

    def _rows(self):
        n = len(self.leakage_population)
        return zip(range(n), (2 * self.tau * np.arange(n)).tolist(),
                   self.leakage_population.tolist(), self.code_fidelity.tolist())

    @property
    def samples(self) -> tuple[SimulationSample, ...]:
        return tuple(map(SimulationSample._make, self._rows()))

    @property
    def final_leakage(self) -> float:
        return float(self.leakage_population[-1])

    def csv_text(self) -> str:
        return _csv_text(SimulationSample._fields, self._rows())


class SweepRow(NamedTuple):
    n: int
    tau: float
    final_leakage: float
    distance_to_limit: float


@dataclass(frozen=True, eq=False)
class SweepTable:
    rows: tuple[SweepRow, ...]

    def csv_text(self) -> str:
        return _csv_text(SweepRow._fields, self.rows)


# ---------------------------------------------------------------------------
# propagators
# ---------------------------------------------------------------------------


def _segment(sector: Sector, tau: float) -> list[np.ndarray]:
    """The small part E of a sector's tau segment exp(-i H' tau) = I + E,
    on each of its blocks in the basis where it is block diagonal
    (_diagonal_blocks): E = V D V^dag with D = expm1(-i w tau) from the
    block's spectrum (w, v), the whole block's, or E+ and E- on a pair's
    halves; no check here. With e = ||V^dag V - I||_F, U^dag U - I = V
    D^dag (V^dag V - I) D V^dag exactly (|1 + D| = 1), so ||U^dag U -
    I||_F <= (1 + e)^2 max|D|^2 e, plus the O(J^(3/2) eps max|D|) rounding
    of V D V^dag and the half-ulp rounding of the entries near 1. A short
    segment thus drifts far less than the 2e of V e^(-i w tau) V^dag, and
    cycle^n adds up the drift of its 2n segments. One-shot exponentials
    (the limit, the free total) keep V e^(-i phi) V^dag: with |D| up to 2
    this form's bound is 4e, that one's 2e + e^2. E's own rounding scales
    with ||A|| tau (A the code block), not with the coupling's ||G|| tau,
    so the code-complement coupling it carries is good to about eps ||A||
    / g relative, g the coupling strength; the cycle (_cycle) adds no
    cancellation to that. Pulsed leakage against a 40-digit cycle stepped
    in np.clongdouble (dfs2 XI, bath 4, tau = 0.9e-3, 1000 cycles) is off
    by at most 3.8e-13, 1.2e-11 and 1.1e-10 relative at g = 5e-4, 5e-5 and
    5e-6, where that loss dominates."""
    return [(v * np.expm1(-1j * tau * w)) @ v.conj().T for w, v in sector.blocks]


def _frame_block(sector: Sector, blocks: list[np.ndarray]) -> np.ndarray:
    """A sector's frame block, code rows first, from its blocks in the basis
    where it is block diagonal (_diagonal_blocks' inverse): the one block
    itself, or for a pair, from plus and minus on its halves' rows (code +-
    conj(zeta) complement) / sqrt(2), (plus + minus)/2 on the code and on
    the complement rows, conj(zeta) (plus - minus)/2 from the complement to
    the code rows and zeta (plus - minus)/2 back."""
    if sector.zeta is None:
        return blocks[0]
    plus, minus = blocks
    h = len(plus)
    out = np.empty((2 * h, 2 * h), dtype=complex)
    out[:h, :h] = out[h:, h:] = (plus + minus) / 2
    gap = (plus - minus) / 2
    np.multiply(gap, np.conj(sector.zeta), out=out[:h, h:])
    np.multiply(gap, sector.zeta, out=out[h:, :h])
    return out


def _diagonal_blocks(sector: Sector, m: np.ndarray) -> np.ndarray:
    """The blocks of a sector's frame block m in the basis where it is block
    diagonal, as one stack: m itself (a view), or for a pair, m = [[S,
    conj(zeta) D], [zeta D, S]], its halves S + D and S - D (_frame_block's
    inverse, for every sector)."""
    if sector.zeta is None:
        return m[None]
    h = sector.n_code
    mean, gap = m[:h, :h], sector.zeta * m[:h, h:]
    out = np.empty((2, h, h), dtype=complex)
    np.add(mean, gap, out=out[0])
    np.subtract(mean, gap, out=out[1])
    return out


def _product(sector: Sector):
    """a @ b for two of a sector's frame blocks whose product has the
    sector's form: np.matmul, or for a pair, whose propagators are all [[S,
    conj(zeta) D], [zeta D, S]], the first n_code rows a[:h] @ b, one GEMM
    of half the flops, with the rest filled from them (_fill). D stays a
    sum of products that each hold one factor of D, so it keeps its
    accuracy relative to its own size, which products of the halves S +- D
    would not."""
    if sector.zeta is None:
        return np.matmul
    h = sector.n_code

    def product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = np.empty_like(b)
        np.matmul(a[:h], b, out=out[:h])
        return _fill(sector, out)

    return product


def _fill(sector: Sector, out: np.ndarray) -> np.ndarray:
    """A pair's frame block out = [[S, conj(zeta) D], [zeta D, S]] with its
    last n_code rows filled from its first: zeta^2 times their right half,
    then their left half."""
    h = sector.n_code
    np.multiply(out[:h, h:], sector.zeta ** 2, out=out[h:, :h])
    out[h:, h:] = out[:h, :h]
    return out


def _check_pulse(model: SystemBathModel, pulse: LeakageEliminationOperator) -> None:
    """A pulse is read only for its code, which must span the model's."""
    if not pulse.code.same_subspace(model.code):
        raise ValueError(
            f"pulse targets code {pulse.code.label!r} (dim {pulse.dim}), model "
            f"uses a different code {model.code.label!r} (dim {model.system_dim})"
        )


def _step(states: np.ndarray, u: np.ndarray, out: np.ndarray | None = None
          ) -> np.ndarray:
    """u applied to each state of a stack (samples, copies, J): one GEMM
    of shape (samples x copies, J), written into out, a C-contiguous stack
    of the same shape, or a new one."""
    m, c, j = states.shape
    out = np.empty((m, c, j), dtype=complex) if out is None else out
    np.matmul(states.reshape(m * c, j), u.T, out=out.reshape(m * c, j))
    return out


def _cycle(sector: Sector, tau: float) -> np.ndarray:
    """A sector's cycle (S' Z)^2 in the frame F x I, S' = I + E its tau
    segment (_segment) and Z the ideal kick, -1 on its code rows and +1 on
    the rest: a pulse phi (Q - P) is phi Z in the frame and phi cancels.
    Z E Z + E is twice bd(E), E's code and complement diagonal blocks, so

        C = I + 2 bd(E) + (E Z)^2,

    which holds no term of the size of E's coupling that later cancels.
    (E Z)^2 is one GEMM for a block. On a pair's halves E is diag(E+, E-)
    and Z is -swap, so (E Z)^2 is p = E+ E- and m = E- E+ there, two GEMMs
    of half the size: the cycle's diagonal blocks are I + E+ + E- + (p +
    m)/2, its code-to-complement block conj(zeta) (p - m)/2, and its last
    rows the pair's fill (_fill). E has no check of its own: the model
    certified its eigenvectors, and _segment bounds its drift by that
    certificate. A live view (_live) has its sector's cycle."""
    c = sector.n_code
    if sector.zeta is None:
        (ez,) = _segment(sector, tau)
        ez[:, :c] *= -1.0  # E Z: its code block is -E's, its complement block E's
        cycle = ez @ ez
        cycle[:c, :c] -= 2 * ez[:c, :c]
        cycle[c:, c:] += 2 * ez[c:, c:]
    else:
        plus, minus = _segment(sector, tau)
        p, m = plus @ minus, minus @ plus
        cycle = np.empty((2 * c, 2 * c), dtype=complex)
        cycle[:c, :c] = plus + minus + (p + m) / 2
        np.multiply(p - m, np.conj(sector.zeta) / 2, out=cycle[:c, c:])
        _fill(sector, cycle)
    cycle[np.diag_indices_from(cycle)] += 1.0
    return cycle


def _power(cycle: np.ndarray, n: int, product) -> np.ndarray:
    """cycle^n, not yet certified, from the squares C^(2^i) in matrix_power's
    binary order, each matrix product taken by product (_product)."""
    total = None
    while n:
        n, bit = divmod(n, 2)
        if bit:
            total = cycle if total is None else product(total, cycle)
        if n:
            cycle = product(cycle, cycle)
    return np.eye(len(cycle), dtype=complex) if total is None else total


def _live(model: SystemBathModel, phi0: np.ndarray) -> list[Sector | None]:
    """Each sector of model.spectra with only its live copies, those where
    phi0 = (F^dag x I) psi0 has an exactly nonzero entry (no tolerance), or
    None where no copy is live. A copy that starts at exactly zero stays
    exactly zero under the block-diagonal, certified-finite propagators,
    so it is neither stepped nor read. A view differs from its sector only
    in rows, so it steps its states with the sector's spectra."""
    live = []
    for sector in model.spectra:
        held = np.any(phi0[sector.rows] != 0, axis=1)
        live.append(sector._replace(rows=sector.rows[held]) if held.any() else None)
    return live


def _pulsed(model: SystemBathModel, n: int, tau: float) -> tuple[list, list]:
    """cycle^n per sector in the frame F x I (_cycle, _power), and its
    diagonal blocks, a stack per sector (_halves), certified unitary as one
    matrix (_certified)."""
    totals = [_power(_cycle(sector, tau), n, _product(sector))
              for sector in model.spectra]
    halves = _halves(model.spectra, totals)
    _certified(model.spectra, halves, f"total propagator after {n} cycles")
    return totals, halves


def _free(views: Sequence[Sector], n: int, tau: float, phi0: np.ndarray):
    """The live views' (_live) states exp(-i H' 2 k tau) phi0 for k = 0..n,
    in batches of one stack per view (_free_batches), and None: their drift
    is bounded by the model's eigenvector certificate, so they have no norm
    bound to check (_kicked's); no total is formed (_free_total)."""
    return zip(*[_free_batches(view, phi0, -2 * tau, n) for view in views]), None


def _stride(views: Sequence[Sector], n: int) -> int:
    """The stride s = 2^l of a pulsed run of n cycles on the live views
    (_live), the power C^s that steps its states (_kicked): no more flops
    go to the l squarings than to stepping the n states, so

        l = min(floor(n sum_v c_v J_v^2 / sum_v p_v J_v^3),
                floor(log2 min(n, OBSERVABLE_BATCH))),

    with c_v the view's live copies, J_v its dim and p_v = 1/2 for a pair,
    whose squares take half the flops (_product), else 1; l = 0 for n = 0.
    A state costs c_v J_v^2 per view and a square p_v J_v^3, in the same
    unit. The sums are taken in integers, as twice each side."""
    states = 2 * n * sum(len(v.rows) * v.rows.shape[1] ** 2 for v in views)
    squares = sum((1 if v.zeta is not None else 2) * v.rows.shape[1] ** 3
                  for v in views)
    return 1 << max(min(states // squares,
                        min(n, OBSERVABLE_BATCH).bit_length() - 1), 0)


def _kicked(views: Sequence[Sector], n: int, tau: float, phi0: np.ndarray):
    """The live views' (_live) states C^k phi0 for k = 0..n, as batches of
    one stack (samples, copies, J_s) per view, OBSERVABLE_BATCH samples
    each, and the bound on their norms' drift (_norm_bound); cycle^n is
    never formed. The run's stride s (_stride) is one per run: each view's
    squares C^(2^i) of its cycle (_cycle) fill its first s states by
    doubling (psi_(k+2^i) = C^(2^i) psi_k), up to C^s, and each later block
    of s states is one GEMM by C^s of the block before, written into its
    batch; s divides OBSERVABLE_BATCH, so blocks never straddle batches.
    s = 1 steps by the cycle alone. A batch is written over the batch
    before last, so its arrays hold until two more are drawn. The strides,
    then the cycles (the same matrices when s = 1), are certified unitary,
    each as one matrix over the live views (_certified), before the first
    batch."""
    s = _stride(views, n)
    rows = min(n + 1, OBSERVABLE_BATCH)
    states, cycles, strides = [], [], []
    for view in views:
        product, power = _product(view), _cycle(view, tau)
        cycles.append(power)
        x = np.empty((rows, *view.rows.shape), dtype=complex)
        x[0] = phi0[view.rows]
        span = 1
        while span < s:
            _step(x[:span], power, x[span:2 * span])
            power = product(power, power)
            span *= 2
        states.append(x)
        strides.append(power)
    log_s = s.bit_length() - 1
    stride = _certified(views, _halves(views, strides),
                        f"cycle^{s}, the stride of {n} cycles")
    cycle = _certified(views, _halves(views, cycles),
                       f"cycle^1 of a run of {n} cycles") if log_s else stride

    def batches(states):
        spare = None
        for k0 in range(0, n + 1, OBSERVABLE_BATCH):
            if k0:  # over the batch before last: two buffers per view
                spare = spare or [np.empty_like(x) for x in states]
                states, spare = [x[:n + 1 - k0] for x in spare], states
            for j in range(0 if k0 else s, len(states[0]), s):
                # from the block before, at j = 0 the last of the batch before
                i, m = (j - s) % OBSERVABLE_BATCH, min(s, len(states[0]) - j)
                for x, b, c in zip(states, states if j else spare, strides):
                    _step(b[i:i + m], c, x[j:j + m])
            yield states

    return batches(states), _norm_bound(views, n, log_s, cycle, stride)


def _norm_bound(views: Sequence[Sector], n: int, log_s: int, cycle: float,
                stride: float) -> np.ndarray:
    """The bound on the norm drift |nu_k - nu_0| / nu_0 of the pulsed
    states psi_k = C^k psi_0 (_kicked), k = 0..n, nu_k = ||psi_k||^2 over
    the live copies, from the certified residuals ||P^dag P - I||_F of the
    cycle C and of the stride C^s, s = 2^log_s (_stride), each as one
    matrix over the live views.

    psi_k is reached from psi_0 by one product with the square P_i =
    C^(2^i) per set bit i of k % s (the doubling), and one with the stride
    per block advance, k // s of them. Let J be
    the largest view dim, L the number of live frame rows (copies x J_s,
    summed), eps the machine epsilon, and g = sqrt(2) (J + 2) J eps, which
    bounds the rounding of a product of two J x J matrices of Frobenius
    norm sqrt(J) in the Frobenius norm (sqrt(2) gamma_(J+2) || |A| |B|
    ||_F; Higham, Accuracy and Stability of Numerical Algorithms, Lemma
    3.5). A product by a stored power P moves nu by psi^dag (P^dag P - I)
    psi, at most r_P nu for any r_P at least the Frobenius norm of every
    diagonal block of P^dag P - I. For the cycle and the stride, r_P is the
    computed residual, which is at least every block's, plus g, the
    rounding of a block's Gram matrix (a pair's halves, on which it is
    read, add less). A square is computed as fl(P_i P_i) = P_i^2 + Delta,
    ||Delta||_F <= g per block, and (P_i^2)^dag P_i^2 - I = E + P_i^dag E
    P_i for E = P_i^dag P_i - I, so r_(i+1) = 2 r_i + 2 g bounds the
    squares between the cycle and the stride, to first order; no power's
    drift is inferred from a larger one's. The computed P psi is off by d,
    ||d|| <= sqrt(2) gamma_(J+2)
    || |P| |psi| || <= (J + 2) sqrt(J) eps ||psi|| / sqrt(2) (|| |P| ||_2
    <= sqrt(J) ||P||_2), which moves nu by at most 2 ||d|| ||psi||. So a
    product by P moves nu by at most rho_P nu, rho_P = r_P + sqrt(2) (J +
    2) sqrt(J) eps. nu_k and nu_0, sums of 2L squares, err by at most L eps
    nu each. So, to first order (the factors 1 +- rho_P compound, which
    adds terms of second order in the sum of rho_P),

        |nu_k - nu_0| <= (sum of rho_P over the products that reach psi_k
                          + 2 L eps) nu_0,

    linear in k. simulate checks every nu_k against it (_certified_norms)."""
    dim = max(view.rows.shape[1] for view in views)
    eps = sys.float_info.epsilon
    g = 2 ** 0.5 * (dim + 2) * dim * eps
    product = 2 ** 0.5 * (dim + 2) * dim ** 0.5 * eps
    rho = [(cycle + 3 * g) * 2 ** i - 2 * g + product for i in range(log_s)]
    # bit i of j < s: the squares C^(2^i) that reach C^j from the block start
    set_bits = (np.arange(1 << log_s)[:, None] >> np.arange(log_s)) & 1
    first = set_bits @ rho
    first += 2 * eps * sum(view.rows.size for view in views)
    advances = np.arange((n >> log_s) + 1)[:, None] * (stride + g + product)
    return (advances + first).ravel()[:n + 1]


def _free_total(model: SystemBathModel, n: int, tau: float) -> tuple[list, list]:
    """The free total exp(-i H' 2 n tau) per sector in the frame F x I, and
    its diagonal blocks (_halves), certified unitary. A pair's total is its
    halves' exponentials, rotated to the frame (_frame_block)."""
    totals = [_frame_block(sector, [_spectral_matrix(block, -2 * n * tau)
                                    for block in sector.blocks])
              for sector in model.spectra]
    halves = _halves(model.spectra, totals)
    _certified(model.spectra, halves, "spectral exponential")
    return totals, halves


def _limit(model: SystemBathModel, total_free_time: float) -> tuple[list, list]:
    """exp(-i (H_c + H_perp) T) per sector, in the frame F x I, and its
    diagonal blocks (_halves), certified unitary: the exponentials of the
    sector's code and complement sub-blocks on its diagonal; a pair's are
    both exp(-i A T), one exponential."""
    blocks = []
    for sector in model.spectra:
        c = sector.n_code
        code = _spectral_matrix(sector.code, -total_free_time)
        u = np.zeros((sector.rows.shape[1],) * 2, dtype=complex)
        u[:c, :c] = code
        u[c:, c:] = (code if sector.zeta is not None
                     else _spectral_matrix(sector.complement, -total_free_time))
        blocks.append(u)
    halves = _halves(model.spectra, blocks)
    _certified(model.spectra, halves, "decoupled limit")
    return blocks, halves


def _halves(sectors: Sequence[Sector], blocks: Sequence[np.ndarray]
            ) -> list[np.ndarray]:
    """Each sector's diagonal blocks of its frame block in blocks, as one
    stack (_diagonal_blocks), taken once for its certificate (_certified)
    and its distance (_distance): a pair's halves, another sector's block
    itself."""
    return [_diagonal_blocks(s, b) for s, b in zip(sectors, blocks)]


def _certified(sectors: Sequence[Sector], halves: Sequence[np.ndarray],
               what: str) -> float:
    """The residual ||U^dag U - I||_F of the joint matrix U whose frame
    blocks, one per sector, have the diagonal blocks halves (_halves), once
    it passes the unitary tag's test (opalg.certified_residual), each
    diagonal block counted once per copy of its sector (for a live view,
    per live copy): a pair's residual is read off its halves, at a quarter
    of the flops; the rotation to them is unitary, so the sum is the
    same."""
    return certified_residual([d for h in halves for d in h],
                              [len(s.rows) for s, h in zip(sectors, halves)
                               for _ in h], what)


def _product_coordinates(model: SystemBathModel, blocks, what: str) -> Operator:
    """The joint matrix with each sector's block on every copy's frame rows,
    rotated back to product coordinates, (F x I) U (F^dag x I), and tagged
    unitary (computed_unitary(u, what))."""
    f, j, s = model.code.frame, model.joint_dim, model.system_dim
    u = np.zeros((j, j), dtype=complex)
    for sector, block in zip(model.spectra, blocks):
        for rows in sector.rows:
            u[np.ix_(rows, rows)] = block
    u = (f @ u.reshape(s, -1)).reshape(j, j)            # (F x I) U
    u = (f.conj() @ u.reshape(j, s, -1)).reshape(j, j)  # (F x I) U (F^dag x I)
    return computed_unitary(u, what)


def parity_kick_unitary(model: SystemBathModel,
                        schedule: ParityKickSchedule) -> Operator:
    """Total propagator of the pulsed sequence (identity for zero cycles), in
    product coordinates; drift past the unitarity tolerance is a
    NumericalDegeneracyError."""
    if schedule.pulses is None:
        raise ValueError("schedule has no pulses; use free evolution directly")
    _check_pulse(model, schedule.pulses)
    totals, _ = _pulsed(model, schedule.n_cycles, schedule.tau)
    return _product_coordinates(model, totals,
                                f"total propagator after {schedule.n_cycles} cycles")


def decoupled_limit_unitary(model: SystemBathModel,
                            total_free_time: float) -> Operator:
    """Evolution under the leakage-free generator H_c + H_perp in product
    coordinates: the exponentials of the code and complement sub-blocks of
    every sector, rotated back from the frame F x I; drift past the
    unitarity tolerance is a NumericalDegeneracyError."""
    if not abs(total_free_time) <= sys.float_info.max:  # NaN, inf, a huge int
        raise ValueError("total_free_time must be finite")
    blocks, _ = _limit(model, total_free_time)
    return _product_coordinates(model, blocks, "decoupled limit")


def _distance(totals: Sequence[np.ndarray], limit: Sequence[np.ndarray]
              ) -> float:
    """||U_total - U_limit||_2 from the diagonal blocks of each, a stack per
    sector (_halves): the largest of the sectors' distances, a pair's
    halves' taken together (_spectral_distance)."""
    return max(_spectral_distance(t, u) for t, u in zip(totals, limit))


def _spectral_distance(a: np.ndarray, b: np.ndarray) -> float:
    """||a - b||_2 = sqrt(lambda_max(D^dag D)), D = a - b, from eigvalsh at
    about half the cost of an SVD; for stacks of matrices, the largest over
    the stack, all Grams through one eigvalsh. lambda_max carries relative
    error O(J eps) at joint dim J, and so does the distance; equal inputs
    give 0. Block-diagonal matrices are as far apart as their farthest
    blocks."""
    d = a - b
    gram = d.conj().swapaxes(-1, -2) @ d
    del d  # D is not needed while eigvalsh runs
    return float(np.sqrt(max(np.linalg.eigvalsh(gram)[..., -1].max(), 0.0)))


def _deferred_distance(model: SystemBathModel, n: int, tau: float,
                       total_free_time: float, pulsed: bool
                       ) -> Callable[[], float]:
    """A zero-argument callable for a run's distance to the limit: it forms
    and certifies the limit (_limit), then the run's total, cycle^n
    (_pulsed) or the free total (_free_total), and measures the distance
    (_distance). The report calls it once: a call that returns lets go of
    the model."""

    def distance() -> float:
        nonlocal model
        _, limit = _limit(model, total_free_time)
        _, totals = (_pulsed if pulsed else _free_total)(model, n, tau)
        value = _distance(totals, limit)
        model = None
        return value

    return distance


# ---------------------------------------------------------------------------
# state-level simulation
# ---------------------------------------------------------------------------


def _frame_state(model: SystemBathModel, initial_code_state
                 ) -> tuple[np.ndarray, np.ndarray]:
    """x, the initial state's k code coordinates V^dag psi0 (V the code
    basis), and (F^dag x I) psi0 for psi0 = the initial state x the initial
    bath state, once the state is checked: an ambient system vector, finite,
    normalized and in the model's code (F^dag psi has no complement
    coordinates); anything else is a ValueError. The complement
    coordinates, within STATE_CODE_TOL of zero but on a dense frame not
    exactly zero (the rounding of F^dag), are then set to zero: a code
    state starts with no leakage and no amplitude on the complement."""
    state = np.asarray(initial_code_state, dtype=complex)
    if state.shape != (model.system_dim,):
        raise ValueError(f"initial state must be a length-{model.system_dim} vector")
    # both checks fail closed: a NaN or infinite entry makes the norm NaN or inf
    if not abs(np.linalg.norm(state) - 1.0) <= STATE_NORM_TOL:
        raise ValueError("initial state must be finite and normalized")
    coords = model.code.frame.conj().T @ state
    out_of_code = np.linalg.norm(coords[model.code.code_dim:])
    if not out_of_code <= STATE_CODE_TOL:
        raise ValueError(f"initial state leaves the code subspace by {out_of_code:.3e}")
    coords[model.code.code_dim:] = 0.0
    return coords[:model.code.code_dim], np.kron(coords, model.initial_bath_state)


def _leakage(sectors: Sequence[Sector], parts: Sequence[np.ndarray],
             code: bool = False) -> np.ndarray:
    """|(Q x I) psi|^2 for a stack of joint states given as one part per
    sector in the frame F x I, each (samples, copies, J_s) (a copy's
    columns are its rows, code rows first): per sample, the sum over
    sectors and their copies of the squared norms of the complement
    columns, as re^2 + im^2 summed over a real view by one einsum each.
    With code, |(P x I) psi|^2, the same sum over the code columns."""
    total = None
    for sector, part in zip(sectors, parts):
        x = (part[:, :, :sector.n_code] if code else part[:, :, sector.n_code:]
             ).view(float)
        x = np.einsum("ijk,ijk->i", x, x)
        total = x if total is None else total + x
    return total


def _certified_leakage(leakage: np.ndarray) -> np.ndarray:
    """leakage, a stack of populations, once each is in [0, 1] within
    1e-12; a value outside, or NaN, is a NumericalDegeneracyError."""
    outside = ~((leakage >= -1e-12) & (leakage <= 1.0 + 1e-12))
    if outside.any():
        raise NumericalDegeneracyError(
            f"leakage population {leakage[outside.argmax()]} outside [0, 1]")
    return leakage


def _certified_norms(norms: np.ndarray, bound: np.ndarray) -> None:
    """A pulsed run's state norms nu_k, each within bound[k] nu_0 of nu_0
    (_norm_bound); one past it, or NaN, is a NumericalDegeneracyError that
    names the first."""
    drift = np.abs(norms - norms[0])
    within = drift <= bound * norms[0]
    if not within.all():
        k = within.argmin()
        raise NumericalDegeneracyError(
            f"state norm after {k} cycles drifted by {drift[k]:.3e}, past its "
            f"bound {bound[k] * norms[0]:.3e}")


def _nuclear_norm(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """||A^dag C||_1 for stacks of k x b matrices A and C, one k x k SVD
    each: with more bath than code, A^dag = Q_A R_A and C^dag = Q_C R_C
    give ||A^dag C||_1 = ||R_A R_C^dag||_1."""
    k, b = a.shape[1:]
    a_dag = a.conj().swapaxes(1, 2)
    if b > k:
        a_dag = np.linalg.qr(a_dag, mode="r")
        c = np.linalg.qr(c.conj().swapaxes(1, 2), mode="r").conj().swapaxes(1, 2)
    return np.linalg.svd(a_dag @ c, compute_uv=False).sum(axis=1)


def _row_norms2(x: np.ndarray) -> np.ndarray:
    """||x_i||^2 for each row of a complex (samples, b) array whose rows are
    contiguous, as re^2 + im^2 summed over a real view by one einsum."""
    x = x.view(float)
    return np.einsum("ij,ij->i", x, x)


def _gram_schmidt_r(u: np.ndarray, v: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """R factor of X^dag for a stack of 2 x b matrices X given as its rows
    u and v, each (samples, b), by two-pass Gram-Schmidt: R = [[r00,
    conj(s)], [0, r11]] with r00 = ||u||, s = <u/r00, v> and r11 the norm
    of v's residual; r00 and r11 are real and nonnegative. A zero row u
    gives r00 = s = 0. Strided rows work but run several times slower than
    C-contiguous ones. Below about 1e-154 the squares of u are subnormal
    and their sum loses bits, so u / r00 is normalized once more, with
    entries near 1; a row below about 1e-162 squares to 0 and counts as
    zero."""
    r00 = np.sqrt(_row_norms2(u))
    e0 = np.divide(u, r00[:, None], out=np.zeros_like(u), where=r00[:, None] > 0.0)
    unit = np.sqrt(_row_norms2(e0))
    np.divide(e0, unit[:, None], out=e0, where=unit[:, None] > 0.0)
    r00 *= unit
    s = np.einsum("ij,ij->i", e0.conj(), v)
    w = v - e0 * s[:, None]
    s2 = np.einsum("ij,ij->i", e0.conj(), w)  # second pass: w orthogonal to e0
    w -= e0 * s2[:, None]
    return r00, s + s2, np.sqrt(_row_norms2(w))


def _qubit_nuclear_norm(fa: tuple[np.ndarray, ...], fc: tuple[np.ndarray, ...]
                        ) -> np.ndarray:
    """||A^dag C||_1 for stacks of 2 x b matrices A and C, any b >= 1, from
    the R factors fa of A^dag and fc of C^dag (_gram_schmidt_r), one per
    sample of each. simulate needs it only for a stepped target: a
    decoherence-free run's fidelity is the overlap with the initial code
    state (_overlap).

    With A^dag = Q_A R_A and C^dag = Q_C R_C, it is ||M||_1 for the 2 x 2
    M = R_A R_C^dag, and ||M||_1^2 = ||M||_F^2 + 2 |det M| with |det M| =
    r_A00 r_A11 r_C00 r_C11: Jozsa's F = tr(rho sigma) + 2 sqrt(det rho
    det sigma) for a qubit, with the determinants read off the R factors
    rather than cancelled out of Gram matrices. The entries of M are
    squared, so they must stay within about 1e+-150.
    """
    (ra, sa, da), (rc, sc, dc) = fa, fc
    # M = [[ra rc + conj(sa) sc, conj(sa) dc], [da sc, da dc]]
    m00 = ra * rc + sa.conj() * sc
    frob2 = (np.abs(m00) ** 2 + (np.abs(sa) * dc) ** 2 + (da * np.abs(sc)) ** 2
             + (da * dc) ** 2)
    return np.sqrt(frob2 + 2.0 * ra * rc * da * dc)


def _side_by_side(stacks: Sequence[np.ndarray]) -> np.ndarray:
    """Stacks (samples, copies, k), one per sector, as one row of copies x
    k columns per sample, sector after sector and copy after copy; a lone
    C-contiguous stack is only reshaped."""
    flat = [x.reshape(len(x), x.shape[1] * x.shape[2]) for x in stacks]
    return flat[0] if len(flat) == 1 else np.concatenate(flat, axis=1)


def _code_columns(model: SystemBathModel, sectors: Sequence[Sector]
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Where each frame code row, in frame code order (code x bath), sits
    among the columns of the sectors' states side by side (_side_by_side),
    which hold every row of each copy, and of their targets, which hold
    only the code rows, as k x b arrays, a row per code basis state.
    sectors are live views (_live): a frame code row that none of their
    copies holds is exactly zero in every sample, and its position is the
    number of columns, a zero column that _code_rows appends."""
    k, b, j = model.code.code_dim, model.bath_dim, model.joint_dim

    def columns(held: np.ndarray) -> np.ndarray:
        where = np.full(j, len(held))
        where[held] = np.arange(len(held))
        return where[:k * b].reshape(k, b)

    return (columns(np.concatenate([s.rows.ravel() for s in sectors])),
            columns(np.concatenate([s.rows[:, :s.n_code].ravel() for s in sectors])))


def _code_rows(stacks: Sequence[np.ndarray], columns: np.ndarray) -> list[np.ndarray]:
    """The code rows of stacks given one per sector (side by side), one
    C-contiguous (samples, b) array per row of columns (_code_columns):
    take, not [:, columns], keeps each gathered row contiguous. A position
    past the last column reads a zero column, appended only then."""
    x = _side_by_side(stacks)
    if columns.max() == x.shape[1]:
        x = np.concatenate([x, np.zeros((len(x), 1), dtype=x.dtype)], axis=1)
    return [x.take(row, axis=1) for row in columns]


def _overlap(a: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """||x^dag A||^2 / ||x||^2 for a stack of k x b matrices A given as its
    k rows, each (samples, b) (_code_rows), and x the k initial code
    coordinates: one weighted sum of the rows, then one einsum over a real
    view. This is ||A^dag C||_1^2 / ||C||^2 for any target C = x w^T of
    rank one, since then ||A^dag C||_1 = ||A^dag x|| ||w|| and ||C||^2 =
    ||x||^2 ||w||^2: Uhlmann's fidelity against a pure state is the
    overlap <x|rho|x> / <x|x> (Jozsa 1994)."""
    weighted = sum(xi * ai for xi, ai in zip(x.conj(), a))
    return _row_norms2(weighted) / np.vdot(x, x).real


def _observables(sectors: Sequence[Sector], parts: Sequence[np.ndarray],
                 columns: np.ndarray, x: np.ndarray,
                 c: list[np.ndarray] | None) -> tuple[np.ndarray, np.ndarray]:
    """Leakage and code fidelity for a stack of joint states, given as one
    part per live sector view (_live) in the frame F x I, (samples,
    copies, J_s), each copy's rows with code rows first. columns
    (_code_columns' first) picks the states' code rows, in frame code
    order, code x bath, each as its own contiguous (samples, b) array
    (_code_rows); rows no live copy holds read as zeros. c is None for a
    decoherence-free run, whose fidelity is the overlap with x, the initial
    code coordinates with those that are exactly zero dropped (and columns'
    rows with them); else c is the code rows of the stepped targets, one
    per state, as _code_rows gathers them by _code_columns' second.

    Leakage is |(Q x I) psi|^2, read per sector (_leakage).
    Fidelity is the Uhlmann fidelity of the bath-traced state against the
    bath-traced target projected onto the code and renormalized. Both
    joint vectors are purifications, so with A = V^dag psi and C = V^dag
    target, code x bath (V the code basis: A is the states' code rows, C
    the targets'), it is ||A^dag C||_1^2 / ||C||^2 (Uhlmann 1976; Jozsa
    1994). A decoherence-free run's target is x times a bath state, of
    rank one, so its fidelity is the overlap with the initial code state,
    ||x^dag A||^2 / ||x||^2 (_overlap), for any code dim. Against a
    stepped target, a qubit code's ||A^dag C||_1 has a closed form
    (_qubit_nuclear_norm) with no LAPACK call per sample; it agrees with
    the QR + SVD form of the other code dims (_nuclear_norm) to within
    1e-15 ||A||_F ||C||_F, and simulate's fidelities moved by at most
    2.7e-15 between the two. Values below 1 + FIDELITY_CLAMP_TOL are
    clamped to 1; larger ones pass through. simulate range-checks leakage.
    """
    a = _code_rows(parts, columns)
    if c is None:
        f = _overlap(a, x)
    elif len(a) == 2:
        f = (_qubit_nuclear_norm(_gram_schmidt_r(*a), _gram_schmidt_r(*c)) ** 2
             / sum(map(_row_norms2, c)))
    else:
        c = np.stack(c, axis=1)
        f = (_nuclear_norm(np.stack(a, axis=1), c) ** 2
             / np.sum(np.abs(c) ** 2, axis=(1, 2)))
    return (_leakage(sectors, parts),
            np.where(f < 1.0 + FIDELITY_CLAMP_TOL, np.minimum(f, 1.0), f))


def _spectral_batches(spectrum: tuple[np.ndarray, np.ndarray], psi0: np.ndarray,
                      scale: float, n: int):
    """Yield exp(1j * scale * k * h) psi0 for k = 0..n, psi0 one state per
    copy (copies, J), in stacks (samples, copies, J) of OBSERVABLE_BATCH
    samples, from h's spectrum (w, v). The table exp(1j * scale * j * w),
    j < OBSERVABLE_BATCH, is built once, and the batch from k0 is one GEMM
    of the table with the (J, copies x J) right factor diag(exp(1j * scale
    * k0 * w) (v^dag psi0)_c) v^T, side by side over the copies c. Sample 0
    is psi0 exactly.
    """
    w, v = spectrum
    coeff = psi0 @ v.conj()  # v^dag psi0, a row per copy
    copies, j = coeff.shape
    table = np.exp(1j * scale * np.outer(np.arange(min(n + 1, OBSERVABLE_BATCH)), w))
    for k0 in range(0, n + 1, OBSERVABLE_BATCH):
        scaled = (np.exp(1j * scale * k0 * w) * coeff).T
        right = (scaled[:, :, None] * v.T[:, None, :]).reshape(j, copies * j)
        rows = min(n + 1 - k0, len(table))
        batch = (table[:rows] @ right).reshape(rows, copies, j)
        if k0 == 0:
            batch[0] = psi0
        yield batch


def _free_batches(sector: Sector, phi0: np.ndarray, scale: float, n: int):
    """exp(1j * scale * k * H') phi0 on a sector's frame rows for k = 0..n,
    in stacks (samples, copies, J_s) (_spectral_batches), from its block's
    spectrum, or a pair's from its halves': eigenvalues w+ then w-, and
    eigenvectors [[V+, V-], [zeta V+, -zeta V-]] / sqrt(2), the halves'
    rotated to the frame. A batch is then one GEMM in the frame, with no
    pass over the states to put halves back in frame rows."""
    spectrum = sector.blocks[0]
    if sector.zeta is not None:
        (w_plus, v_plus), (w_minus, v_minus) = sector.blocks
        v = np.block([[v_plus, v_minus],
                      [sector.zeta * v_plus, -sector.zeta * v_minus]])
        spectrum = np.concatenate([w_plus, w_minus]), v * np.sqrt(0.5)
    return _spectral_batches(spectrum, phi0[sector.rows], scale, n)


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
    States, stepped targets and observables cover only the sector copies
    where the start is exactly nonzero (_live). A pulsed run steps them by
    the squares of the cycle up to a stride C^s, s chosen per run so that
    its squarings cost no more flops than its states (_stride), then by
    C^s, and never forms cycle^n (_kicked). The distance to the limit covers every sector
    and is formed, with the run's total, when first read
    (_deferred_distance).
    The target is stepped only when the model's code block acts on the
    code; for a decoherence-free model (model.decoherence_free) it is the
    initial code state times a bath state, and the fidelity is the overlap
    with the initial code state, read once (_overlap). A cycle count whose
    n_cycles + 1 samples no float64 column can hold (more than
    sys.maxsize // 8, at 8 bytes each) is a ValueError, raised with the
    state and pulse checks before any eigendecomposition.
    Raises NumericalDegeneracyError, before the first sample is evaluated,
    when the model's eigenvector certificate fails or a pulsed run's stride
    or cycle drifts past the unitarity tolerance; and, before it returns,
    when the leakage column leaves [0, 1], or else when a pulsed run's
    state norms drift past their bound (_norm_bound). A drift in the limit
    or the run's total (cycle^n, or the free total) raises the same error,
    with the same message, at the first read of the report's
    distance_to_limit.
    """
    x, phi0 = _frame_state(model, initial_code_state)
    n, tau = schedule.n_cycles, schedule.tau
    if n + 1 > sys.maxsize // 8:
        raise ValueError(f"n_cycles = {n} is too large: no array holds its "
                         "n_cycles + 1 samples")
    # the eigenvectors (in spectra) and a pulsed run's stride and cycle are
    # certified before any sample; the limit and the run's total wait for
    # the distance
    if schedule.pulses is not None:
        _check_pulse(model, schedule.pulses)
    sectors = [view for view in _live(model, phi0) if view is not None]
    batches, bound = (_free if schedule.pulses is None else _kicked)(sectors, n,
                                                                     tau, phi0)

    in_states, in_targets = _code_columns(model, sectors)
    # the code block is I_k x h: the target's code rows are x (e^(-i h t)
    # y)^T, of rank one, and the fidelity is the overlap with x, in which a
    # zero x_i drops its row; otherwise each sector's code sub-block steps
    # the targets, which never leave the code rows
    if model.decoherence_free:
        kept = np.flatnonzero(x)
        x, in_states, targets = x[kept], in_states[kept], None
    else:
        targets = zip(*[
            _spectral_batches(sector.code, phi0[sector.rows[:, :sector.n_code]],
                              -2 * tau, n) for sector in sectors])
    leakage, fidelity = np.empty(n + 1), np.empty(n + 1)
    norms = None if bound is None else np.empty(n + 1)
    for start, parts in zip(range(0, n + 1, OBSERVABLE_BATCH), batches):
        batch = slice(start, start + len(parts[0]))
        c = None if targets is None else _code_rows(next(targets), in_targets)
        leakage[batch], fidelity[batch] = _observables(sectors, parts, in_states,
                                                       x, c)
        if norms is not None:  # the code population; the leakage is added below
            norms[batch] = _leakage(sectors, parts, code=True)
    _certified_leakage(leakage)  # one range check per run
    if norms is not None:
        _certified_norms(np.add(norms, leakage, out=norms), bound)
    fidelity[0] = 1.0  # sample 0 compares the initial state with itself
    leakage.flags.writeable = fidelity.flags.writeable = False
    return SimulationReport(tau, leakage, fidelity, _deferred_distance(
        model, n, tau, schedule.total_free_time, schedule.pulses is not None))


def sweep_cycles(
    model: SystemBathModel,
    total_free_time: float,
    n_list: Sequence[int],
    initial_code_state: np.ndarray,
    pulses: LeakageEliminationOperator,
) -> SweepTable:
    """Convergence sweep: one pulsed run per cycle count at fixed total time.

    n_list must be ascending positive integers, each 2n a float. The state
    and the pulse's code are checked and the decoupled limit at
    total_free_time formed and certified once per sweep. A row then
    computes only what it reports: cycle^n (certified unitary), the final
    state cycle^n psi0 in the frame F x I on the copies the start occupies,
    as simulate reads them (_live), its leakage (range-checked as
    simulate's column) and its distance to the limit; no samples, targets
    or fidelities. Where 2 n tau == total_free_time the row equals a
    standalone simulate; otherwise the limit differs from simulate's by the
    rounding of that product. Rows run in order of n_list on the calling
    thread; BLAS is the only parallelism.
    """
    if pulses is None:
        raise ValueError("schedule has no pulses; a sweep compares pulsed runs")
    if not 0 < total_free_time <= sys.float_info.max:  # NaN, inf, a huge int
        raise ValueError("total_free_time must be positive and finite")
    ns = [_index(n, "cycle counts must be integers") for n in n_list]
    if not ns or any(n < 1 for n in ns) or ns != sorted(set(ns)):
        raise ValueError("n_list must be strictly ascending positive integers")
    if 2 * ns[-1] > sys.float_info.max:  # T / 2n converts 2n to a float
        raise ValueError(f"cycle count {ns[-1]} is past the float range")
    _, phi0 = _frame_state(model, initial_code_state)
    _check_pulse(model, pulses)
    taus = [total_free_time / (2 * n) for n in ns]
    if not taus[-1] > 0.0:  # T / 2n can underflow at the largest n
        raise ValueError("tau must be positive and finite")
    # T is the same for every row: one limit, formed before the first row
    _, limit = _limit(model, total_free_time)
    live = _live(model, phi0)
    sectors = [view for view in live if view is not None]

    def one(n: int, tau: float) -> SweepRow:
        totals, halves = _pulsed(model, n, tau)
        # the final state cycle^n psi0 on the live copies, in the frame
        final = [_step(phi0[view.rows][None], total)
                 for view, total in zip(live, totals) if view is not None]
        leakage = _certified_leakage(_leakage(sectors, final))
        return SweepRow(n, tau, float(leakage[0]), _distance(halves, limit))

    return SweepTable(tuple(map(one, ns, taus)))
