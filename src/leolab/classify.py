"""Splitting operators into logical, outside, and leakage blocks.

With P the code projector and Q its complement, any ambient operator M
falls apart as PMP + QMQ + (PMQ + QMP). The first piece acts inside the
code, the second entirely outside it, and the cross terms are the leakage
channel: they are what moves population across the boundary, and they are
the part a decoupling pulse must anticommute with.

block_split makes the split for a stack of matrices in six products:
the two left ones (PM, QM) broadcast over the stack, and each of the four
right ones (PMP, PMQ, QMQ, QMP) is one GEMM on the stack laid end to end.
decompose is its one-matrix case. Callers with many matrices
(Pauli tables, verification probes) feed it the chunks of chunk_slices,
so memory stays flat in the number of matrices.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .codes import CodeSubspace
from .opalg import (
    DimensionMismatchError,
    Operator,
    _stack_times,
    check_tags,
    frobenius,
    pauli_stack,
)

CLASSIFY_TOL = 1e-12

# complex entries per stacked chunk: each temporary stays at 64 KiB, below
# glibc's mmap threshold, whatever the number of matrices
_CHUNK_ENTRIES = 2**12

CLASS_LOGICAL = "E"
CLASS_OUTSIDE = "E_perp"
CLASS_LEAKAGE = "L"
CLASS_MIXED = "mixed"


@dataclass(frozen=True, eq=False)
class BlockDecomposition:
    """The three-way split of one operator relative to one code.

    e_part, eperp_part and l_part are full ambient-dimension operators that
    sum back to the input.
    """

    e_part: Operator
    eperp_part: Operator
    l_part: Operator

    @property
    def e_norm(self) -> float:
        return float(np.linalg.norm(self.e_part.mat))

    @property
    def eperp_norm(self) -> float:
        return float(np.linalg.norm(self.eperp_part.mat))

    @property
    def l_norm(self) -> float:
        return float(np.linalg.norm(self.l_part.mat))


def chunk_slices(count: int, dim: int) -> Iterator[slice]:
    """Consecutive slices of range(count), max(1, 2**12 // dim**2) long."""
    step = max(1, _CHUNK_ENTRIES // dim**2)
    return (slice(i, min(i + step, count)) for i in range(0, count, step))


def block_split(
    mats: np.ndarray, code: CodeSubspace, hermitian: Sequence[bool]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stacks PMP, QMQ and PMQ + QMP of a stack mats (N, d, d).

    Every part is checked finite, and PMP and QMQ are checked hermitian for
    the matrices whose hermitian[i] is set, each to Operator's tolerance.
    PM and QM are broadcast products; the right products by P and Q each
    take the whole stack as one (N d, d) GEMM (opalg._stack_times), with
    the same entries as the broadcast ones.
    """
    if mats.shape[-1] != code.ambient_dim:
        raise DimensionMismatchError(
            f"operator dim {mats.shape[-1]} does not match code ambient dim "
            f"{code.ambient_dim}"
        )
    p = code.projector
    q = code.complement_projector
    # each of PM and QM is freed once its parts exist; l is PMQ + QMP
    pm = p @ mats
    e, l = _stack_times(pm, p), _stack_times(pm, q)
    del pm
    qm = q @ mats
    eperp = _stack_times(qm, q)
    l += _stack_times(qm, p)
    del qm
    herm = np.asarray(hermitian, dtype=bool)
    for part in (e, eperp, l):
        check_tags(part, frozenset())
    for part in (e, eperp):
        check_tags(part[herm], frozenset({"hermitian"}))
    return e, eperp, l


def decompose(m: Operator, code: CodeSubspace) -> BlockDecomposition:
    """Split m into code, complement, and leakage parts."""
    hermitian = "hermitian" in m.tags
    e, eperp, l = block_split(m.mat[None], code, [hermitian])
    tags = frozenset({"hermitian"}) if hermitian else frozenset()
    return BlockDecomposition(Operator(e[0], tags), Operator(eperp[0], tags),
                              Operator(l[0]))


@dataclass(frozen=True)
class PauliClassification:
    label: str
    klass: str
    e_norm: float
    eperp_norm: float
    l_norm: float


def _classify_norms(e: float, eperp: float, l: float) -> str:
    live = [e > CLASSIFY_TOL, eperp > CLASSIFY_TOL, l > CLASSIFY_TOL]
    if sum(live) != 1:
        return CLASS_MIXED
    if live[0]:
        return CLASS_LOGICAL
    if live[1]:
        return CLASS_OUTSIDE
    return CLASS_LEAKAGE


def classify_pauli_strings(
    n_qubits: int, code: CodeSubspace
) -> dict[str, PauliClassification]:
    """Classify every n-qubit Pauli string against the code.

    A string is logical (E) when only its code block survives, outside
    (E_perp) when only the complement block does, leakage (L) when only the
    cross blocks do, and mixed otherwise. The identity is mixed: it acts on
    both sides of the split.

    The strings are built and split as stacks, one chunk of chunk_slices at
    a time, in itertools.product label order; pauli_stack and block_split
    check every string and every part as pauli_string and decompose would.
    """
    if 2**n_qubits != code.ambient_dim:
        raise ValueError(
            f"code ambient dim {code.ambient_dim} is not a {n_qubits}-qubit register"
        )
    labels = ["".join(chars) for chars in itertools.product("IXYZ", repeat=n_qubits)]
    norms = np.empty((len(labels), 3))
    for sl in chunk_slices(len(labels), code.ambient_dim):
        parts = block_split(pauli_stack(labels[sl]), code, [True] * len(labels[sl]))
        for j, part in enumerate(parts):
            norms[sl, j] = frobenius(part)
    return {
        label: PauliClassification(
            label, _classify_norms(e, eperp, l), e, eperp, l)
        for label, (e, eperp, l) in zip(labels, norms.tolist())
    }


def classification_to_csv(table: Mapping[str, PauliClassification]) -> str:
    """Render a classification table as CSV text."""
    lines = ["pauli_string,class,e_norm,eperp_norm,l_norm"]
    for row in table.values():
        lines.append(
            f"{row.label},{row.klass},{row.e_norm:.17g},"
            f"{row.eperp_norm:.17g},{row.l_norm:.17g}"
        )
    return "\n".join(lines) + "\n"
