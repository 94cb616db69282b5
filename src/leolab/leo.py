"""Leakage-elimination pulses: synthesis routes and verification.

A leakage-elimination operator for a code subspace is a unitary equal, up
to one global phase, to minus the identity on the code and plus the
identity on its complement. Equivalently it commutes with every operator
confined to either side of the split and anticommutes with every leakage
operator, which is what makes it usable as a decoupling pulse.

Several constructions yield such a unitary: the projector reflection
I - 2P, the exponential of pi times a Hermitian involution supported on
the code, the exponential of -i pi times any block-diagonal generator with
integer spectra of opposite parity on the two sides, mode-counting phase
shifts for particle-number codes, and the total-spin-squared exponential
for the four-qubit singlet code. All of them are funneled through one
structural check at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import codes
from .classify import block_split, chunk_slices, decompose
from .codes import CodeSubspace
from .models import logical_ops_dfs2
from .opalg import (
    DimensionMismatchError,
    Operator,
    _stack_times,
    derived_seeds,
    frobenius,
    hermitian_exponential,
    json_complex,
    json_str,
    operator_from_json,
    operator_to_json,
    random_hermitians,
)

STRUCTURAL_TOL = 1e-10
SUPPORT_TOL = 1e-12
INVOLUTION_TOL = 1e-10
INTEGER_SPECTRUM_TOL = 1e-8

# route -> builder(code, sigma, generator). The lambdas look each builder up
# by its module-level name when called, so wrapping a builder in this
# module's namespace also wraps it here.
_BUILDERS = {
    "projector": lambda code, sigma, generator: projector_leo(code),
    "canonical": lambda code, sigma, generator: canonical_leo(sigma, code),
    "generalized": lambda code, sigma, generator: generalized_leo(generator, code),
    "number_op": lambda code, sigma, generator: number_operator_leo(code.ambient_dim),
    "phase_shifter": lambda code, sigma, generator: phase_shifter_leo(),
    "exchange_2dfs": lambda code, sigma, generator: exchange_dfs2_leo(),
    "s_squared": lambda code, sigma, generator: s_squared_leo(),
}
ROUTES = tuple(_BUILDERS)


class NotLogicalInvolutionError(ValueError):
    """The proposed generator is not a projective logical involution."""


class NotGeneralizedGeneratorError(ValueError):
    """The proposed generator fails the block/parity conditions."""


def reference_reflection(code: CodeSubspace) -> np.ndarray:
    """The phase-free target Q - P: -1 on the code, +1 on the complement."""
    return code.complement_projector - code.projector


def extract_phase(u: Operator, code: CodeSubspace) -> complex:
    """Least-squares global phase of u relative to the Q - P reflection.

    The unit-modulus phi minimizing ||u - phi (Q - P)||_F is
    <Q - P, u> / |<Q - P, u>|; it is 1 when that overlap vanishes.
    """
    z = np.vdot(reference_reflection(code), u.mat)
    return complex(z / abs(z)) if z else complex(1.0)


def structural_residual(u: Operator, code: CodeSubspace, phase: complex) -> float:
    """Frobenius distance between u and phase * (Q - P)."""
    return float(np.linalg.norm(u.mat - phase * reference_reflection(code)))


def stated_phase_error(u: Operator, code: CodeSubspace, stated: complex) -> str | None:
    """Why a pulse record's stated phase does not fit its unitary, or None.

    The stated phase is normalized to unit modulus and must leave a
    structural residual within STRUCTURAL_TOL; a zero or non-finite phase
    never fits.
    """
    res = (structural_residual(u, code, stated / abs(stated))
           if stated and np.isfinite(stated) else float("inf"))
    if res <= STRUCTURAL_TOL:
        return None
    return (f"stated phase [{stated.real}, {stated.imag}] is off the pulse by "
            f"structural residual {res:.3e} (tolerance {STRUCTURAL_TOL:.0e})")


@dataclass(frozen=True, eq=False)
class LeakageEliminationOperator:
    """A verified decoupling pulse for one code subspace.

    Construction reads phase off the unitary (extract_phase) and checks the
    defining property: the unitary is within STRUCTURAL_TOL of
    phase * (Q - P).
    """

    unitary: Operator
    code: CodeSubspace
    route: str
    phase: complex = field(init=False)

    def __post_init__(self):
        if self.route not in ROUTES:
            raise ValueError(
                f"unknown synthesis route {self.route!r}; valid: {', '.join(ROUTES)}"
            )
        if self.unitary.dim != self.code.ambient_dim:
            raise ValueError("pulse dimension does not match code ambient space")
        object.__setattr__(self, "phase", extract_phase(self.unitary, self.code))
        res = self.structural_error()
        if res > STRUCTURAL_TOL:
            raise ValueError(
                f"not a leakage-elimination operator: structural residual "
                f"{res:.3e} exceeds {STRUCTURAL_TOL:.0e}"
            )

    @property
    def dim(self) -> int:
        return self.unitary.dim

    def structural_error(self) -> float:
        return structural_residual(self.unitary, self.code, self.phase)

    def __repr__(self) -> str:
        return (
            f"LeakageEliminationOperator(route={self.route!r}, "
            f"code={self.code.label!r}, dim={self.dim})"
        )


# ---------------------------------------------------------------------------
# synthesis routes
# ---------------------------------------------------------------------------


def projector_leo(code: CodeSubspace) -> LeakageEliminationOperator:
    """Reflection I - 2P about the complement of the code."""
    u = Operator(np.eye(code.ambient_dim) - 2.0 * code.projector,
                 frozenset({"unitary"}))
    return LeakageEliminationOperator(u, code, "projector")


def canonical_leo(
    involution: Operator, code: CodeSubspace, route: str = "canonical"
) -> LeakageEliminationOperator:
    """exp(i pi s) for a Hermitian s acting as an involution on the code.

    s must vanish outside the code and square to the code projector there;
    any logical Pauli works. The exponential is then -1 on the code and
    +1 elsewhere regardless of which involution was chosen.
    """
    if involution.dim != code.ambient_dim:
        raise NotLogicalInvolutionError(
            "involution dimension does not match the code's ambient space"
        )
    if not involution.is_hermitian():
        raise NotLogicalInvolutionError(
            "not a projective logical involution: generator is not Hermitian"
        )
    dec = decompose(involution, code)
    if dec.l_norm > SUPPORT_TOL or dec.eperp_norm > SUPPORT_TOL:
        raise NotLogicalInvolutionError(
            "not a projective logical involution: generator acts outside the code"
        )
    sq_dev = np.linalg.norm(involution.mat @ involution.mat - code.projector)
    if sq_dev > INVOLUTION_TOL:
        raise NotLogicalInvolutionError(
            f"not a projective logical involution: square deviates from the "
            f"code projector by {sq_dev:.3e}"
        )
    return LeakageEliminationOperator(hermitian_exponential(involution, np.pi),
                                      code, route)


def exchange_dfs2_leo() -> LeakageEliminationOperator:
    """Exchange-interaction pulse for the dephasing-free pair.

    The logical bit flip (X1 X2 + Y1 Y2)/2 is an isotropic XY exchange term,
    so this pulse is generated by hardware-native coupling; its exponential
    equals the collective phase Z1 Z2.
    """
    return canonical_leo(logical_ops_dfs2().x, codes.dfs2_dephasing(),
                         route="exchange_2dfs")


def _integer_parity(eigs: np.ndarray, side: str) -> int | None:
    """Common parity of a spectrum that must be near-integer; None if empty."""
    if eigs.size == 0:
        return None
    rounded = np.round(eigs)
    dev = np.max(np.abs(eigs - rounded))
    if dev > INTEGER_SPECTRUM_TOL:
        raise NotGeneralizedGeneratorError(
            f"not a generalized-LEO generator: {side} spectrum is not integer "
            f"(max deviation {dev:.3e})"
        )
    parities = {int(r) % 2 for r in rounded}
    if len(parities) != 1:
        raise NotGeneralizedGeneratorError(
            f"not a generalized-LEO generator: {side} spectrum mixes parities"
        )
    return parities.pop()


def generalized_leo(
    h: Operator, code: CodeSubspace
) -> LeakageEliminationOperator:
    """exp(-i pi h) for a block-diagonal h with opposite-parity integer spectra.

    The code block must have an all-even or all-odd integer spectrum and the
    complement block the opposite parity; the exponential is then a uniform
    sign on each side, i.e. a reflection up to global phase.
    """
    if h.dim != code.ambient_dim:
        raise NotGeneralizedGeneratorError(
            "generator dimension does not match the code's ambient space"
        )
    if not h.is_hermitian():
        raise NotGeneralizedGeneratorError(
            "not a generalized-LEO generator: not Hermitian"
        )
    dec = decompose(h, code)
    if dec.l_norm > SUPPORT_TOL:
        raise NotGeneralizedGeneratorError(
            f"not a generalized-LEO generator: leakage block has norm "
            f"{dec.l_norm:.3e}"
        )
    f, k = code.frame, code.code_dim
    # F = [code basis | complement basis]: the code and complement blocks
    # are the diagonal blocks of F^dag h F
    blocks = f.conj().T @ h.mat @ f
    code_parity = _integer_parity(np.linalg.eigvalsh(blocks[:k, :k]), "code")
    # a code with no complement has an empty complement spectrum: None,
    # which equals no parity
    perp_parity = _integer_parity(np.linalg.eigvalsh(blocks[k:, k:]),
                                  "complement")
    if perp_parity == code_parity:
        raise NotGeneralizedGeneratorError(
            "not a generalized-LEO generator: code and complement spectra "
            "share the same parity"
        )
    return LeakageEliminationOperator(hermitian_exponential(h, -np.pi), code,
                                      "generalized")


def number_operator_leo(n_levels: int) -> LeakageEliminationOperator:
    """Phase kick exp(-i pi (n0 + n1)) on an n-level mode with a bare qubit.

    Counting population in the two code levels gives -1 there and +1 on all
    higher levels; the diagonal is written down exactly.
    """
    code = codes.bare_qubit_code(n_levels)
    diag = np.ones(n_levels)
    diag[:2] = -1.0
    u = Operator(np.diag(diag.astype(complex)), frozenset({"hermitian", "unitary"}))
    return LeakageEliminationOperator(u, code, "number_op")


def phase_shifter_leo() -> LeakageEliminationOperator:
    """Mode-counting pulse exp(-i pi (n1 + n2)) on the two-photon sector.

    Every dual-rail code state holds exactly one photon in modes {1, 2}
    (sign -1); every complement occupation holds zero or two (sign +1), so
    the pulse is an exact reflection on the truncated space.
    """
    code = codes.dual_rail_code()
    occs = codes.two_photon_occupations()
    counts = np.array([occ[0] + occ[1] for occ in occs], dtype=float)
    u = Operator(np.diag(((-1.0) ** counts).astype(complex)),
                 frozenset({"hermitian", "unitary"}))
    return LeakageEliminationOperator(u, code, "phase_shifter")


def _half_s_squared() -> Operator:
    """S^2 / 2 on four qubits, tagged hermitian: the s_squared route's
    generator, and the CLI's generator half_s_squared."""
    return Operator(codes.s_squared(4).mat / 2.0, frozenset({"hermitian"}))


def s_squared_leo() -> LeakageEliminationOperator:
    """Total-spin pulse exp(-i pi S^2 / 2) on four qubits.

    Half the total-spin-squared eigenvalue is 0 on the two singlets, 1 on
    the nine triplet states and 3 on the five quintuplet states, so the
    exponential is +1 exactly on the singlet code and -1 everywhere else.
    """
    return LeakageEliminationOperator(
        hermitian_exponential(_half_s_squared(), -np.pi),
        codes.dfs4_collective(), "s_squared")


def synthesize(
    route: str,
    code: CodeSubspace,
    sigma: Operator | None = None,
    generator: Operator | None = None,
) -> LeakageEliminationOperator:
    """Build the pulse for code by a named route (one of ROUTES).

    canonical needs the logical involution sigma and generalized the
    generator; the other routes take neither. A route applies to a code
    when the pulse it builds is for that same subspace; otherwise this
    raises ValueError naming the code the route needs.
    """
    if route not in _BUILDERS:
        raise ValueError(
            f"unknown route {route!r}; valid routes: {', '.join(ROUTES)}"
        )
    if route == "canonical" and sigma is None:
        raise ValueError("route canonical needs --sigma <operator.json>")
    if route == "generalized" and generator is None:
        raise ValueError(
            "route generalized needs --generator <operator.json|half_s_squared>"
        )
    pulse = _BUILDERS[route](code, sigma, generator)
    if not pulse.code.same_subspace(code):
        raise ValueError(f"route {route} needs the {pulse.code.label} code")
    return pulse


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeCheck:
    """Residuals of one probe operator against the pulse.

    A true pulse anticommutes with the probe's leakage part and commutes
    with both same-side parts; all three numbers should vanish.
    """

    anticommutator_leakage: float
    commutator_code: float
    commutator_outside: float

    @property
    def max_residual(self) -> float:
        return max(self.anticommutator_leakage, self.commutator_code,
                   self.commutator_outside)


@dataclass(frozen=True, eq=False)
class LeoVerification:
    """Residuals of one candidate pulse; probe_checks follow the probes'
    order. max_residual and passed derive from them, at STRUCTURAL_TOL."""

    phase: complex
    structural_residual: float
    probe_checks: tuple[ProbeCheck, ...]

    @property
    def max_residual(self) -> float:
        return max([self.structural_residual]
                   + [p.max_residual for p in self.probe_checks])

    @property
    def passed(self) -> bool:
        return self.max_residual <= STRUCTURAL_TOL

    def summary(self) -> str:
        verdict = "pass" if self.passed else "FAIL"
        return (
            f"{verdict}: structural residual {self.structural_residual:.3e}, "
            f"max probe residual "
            f"{max((p.max_residual for p in self.probe_checks), default=0.0):.3e} "
            f"over {len(self.probe_checks)} probes (tolerance {STRUCTURAL_TOL:.0e})"
        )


def _probe_residuals(r: np.ndarray, chunk: Sequence[Operator],
                     code: CodeSubspace) -> list[list[float]]:
    """||{R, L}||, ||[R, E]|| and ||[R, E_perp]|| for each probe of a
    chunk, formed one at a time in one buffer; the chunk's parts are freed
    on return, before the next chunk is split. R X broadcasts over the
    chunk, and X R is one (N d, d) GEMM on it (opalg._stack_times)."""
    e, eperp, l = block_split(np.stack([p.mat for p in chunk]), code,
                              ["hermitian" in p.tags for p in chunk])
    residuals = np.empty((len(chunk), 3))
    t = r @ l
    t += _stack_times(l, r)
    residuals[:, 0] = frobenius(t)
    np.matmul(r, e, out=t)
    t -= _stack_times(e, r)
    residuals[:, 1] = frobenius(t)
    np.matmul(r, eperp, out=t)
    t -= _stack_times(eperp, r)
    residuals[:, 2] = frobenius(t)
    return residuals.tolist()


def _check_candidate(candidate: Operator, code: CodeSubspace) -> None:
    """A candidate pulse acts on the code's ambient space, or it is a
    ValueError that names the code; verify_leo's first check."""
    if candidate.dim != code.ambient_dim:
        raise ValueError(f"operator dim {candidate.dim} does not match code "
                         f"{code.label} (ambient {code.ambient_dim})")


def verify_leo(
    candidate: Operator,
    code: CodeSubspace,
    probes: Sequence[Operator] = (),
) -> LeoVerification:
    """Check a candidate pulse against the structural and algebraic contracts.

    Failures land in the report rather than raising, so an unsuitable
    candidate (wrong form, wrong code) can be inspected. The probes are
    split as stacks, one chunk of classify.chunk_slices at a time, so
    memory does not grow with their number; block_split checks every
    probe's parts as decompose would, and each probe gets its own three
    residual norms.
    """
    _check_candidate(candidate, code)
    dim = code.ambient_dim
    for probe in probes:
        if probe.dim != dim:
            raise DimensionMismatchError(
                f"operator dim {probe.dim} does not match code ambient dim {dim}"
            )
    phase = extract_phase(candidate, code)
    s_res = structural_residual(candidate, code, phase)
    checks = tuple(
        ProbeCheck(*row)
        for sl in chunk_slices(len(probes), dim)
        for row in _probe_residuals(candidate.mat, probes[sl], code))
    return LeoVerification(phase, s_res, checks)


def random_probes(dim: int, count: int, seed: int) -> list[Operator]:
    """Seeded family of unit-norm Hermitian probes for verification: probe
    i is random_hermitian(dim, derived_seeds(seed, count)[i]), drawn as
    stacks of classify.chunk_slices so memory does not grow with count."""
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    seeds = derived_seeds(seed, count)
    herm = frozenset({"hermitian"})
    return [Operator(h, herm) for sl in chunk_slices(count, dim)
            for h in random_hermitians(dim, seeds[sl])]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def leo_to_json(pulse: LeakageEliminationOperator) -> dict:
    data = operator_to_json(pulse.unitary)
    data["route"] = pulse.route
    data["code_label"] = pulse.code.label
    data["phase"] = [pulse.phase.real, pulse.phase.imag]
    return data


def leo_from_json(data: dict) -> LeakageEliminationOperator:
    try:
        route = json_str(data["route"])
        code_label = json_str(data["code_label"])
        phase = json_complex(data["phase"])
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"malformed pulse record: {err}") from err
    code = codes.build_code(code_label)
    pulse = LeakageEliminationOperator(
        operator_from_json(data, tags=("unitary",)), code, route)
    err = stated_phase_error(pulse.unitary, code, phase)
    if err:
        raise ValueError(f"pulse record: {err}")
    return pulse
