"""Splitting operators into logical, outside, and leakage blocks.

With P the code projector and Q its complement, any ambient operator M
falls apart as PMP + QMQ + (PMQ + QMP). The first piece acts inside the
code, the second entirely outside it, and the cross terms are the leakage
channel: they are what moves population across the boundary, and they are
the part a decoupling pulse must anticommute with.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .codes import CodeSubspace
from .opalg import DimensionMismatchError, Operator, pauli_string

CLASSIFY_TOL = 1e-12

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

    code: CodeSubspace
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


def decompose(m: Operator, code: CodeSubspace) -> BlockDecomposition:
    """Split m into code, complement, and leakage parts."""
    if m.dim != code.ambient_dim:
        raise DimensionMismatchError(
            f"operator dim {m.dim} does not match code ambient dim "
            f"{code.ambient_dim}"
        )
    p = code.projector
    q = code.complement_projector
    tags = frozenset({"hermitian"}) if "hermitian" in m.tags else frozenset()
    e_part = Operator(p @ m.mat @ p, tags)
    eperp_part = Operator(q @ m.mat @ q, tags)
    l_part = Operator(p @ m.mat @ q + q @ m.mat @ p)
    return BlockDecomposition(code, e_part, eperp_part, l_part)


@dataclass(frozen=True)
class PauliClassification:
    label: str
    klass: str
    e_norm: float
    eperp_norm: float
    l_norm: float


def _classify_norms(e: float, eperp: float, l: float, tol: float) -> str:
    live = [e > tol, eperp > tol, l > tol]
    if sum(live) != 1:
        return CLASS_MIXED
    if live[0]:
        return CLASS_LOGICAL
    if live[1]:
        return CLASS_OUTSIDE
    return CLASS_LEAKAGE


def classify_pauli_strings(
    n_qubits: int, code: CodeSubspace, tol: float = CLASSIFY_TOL
) -> dict[str, PauliClassification]:
    """Classify every n-qubit Pauli string against the code.

    A string is logical (E) when only its code block survives, outside
    (E_perp) when only the complement block does, leakage (L) when only the
    cross blocks do, and mixed otherwise. The identity is mixed: it acts on
    both sides of the split.
    """
    if 2**n_qubits != code.ambient_dim:
        raise ValueError(
            f"code ambient dim {code.ambient_dim} is not a {n_qubits}-qubit register"
        )
    table = {}
    for chars in itertools.product("IXYZ", repeat=n_qubits):
        label = "".join(chars)
        dec = decompose(pauli_string(label), code)
        e, eperp, l = dec.e_norm, dec.eperp_norm, dec.l_norm
        table[label] = PauliClassification(
            label, _classify_norms(e, eperp, l, tol), e, eperp, l
        )
    return table


def classification_to_csv(table: Mapping[str, PauliClassification]) -> str:
    """Render a classification table as CSV text."""
    lines = ["pauli_string,class,e_norm,eperp_norm,l_norm"]
    for row in table.values():
        lines.append(
            f"{row.label},{row.klass},{row.e_norm:.17g},"
            f"{row.eperp_norm:.17g},{row.l_norm:.17g}"
        )
    return "\n".join(lines) + "\n"
