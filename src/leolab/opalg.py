"""Dense complex operator algebra with certified structural tags.

Everything downstream (code subspaces, block classification, pulse
synthesis, joint-system evolution) works with small dense matrices, so the
representation is a single immutable complex128 array per operator. An
Operator may carry structural tags ("hermitian", "unitary", "diagonal");
each tag is verified at construction time, which turns silent numerical
drift into loud errors at the point where a guarantee is first claimed.

Scope: dense matrices up to a few thousand dimensions, Hermitian generators
only. Sparse storage and non-Hermitian exponentials are out of scope.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

HERMITIAN_TOL = 1e-12   # entrywise |M - M^dag|
UNITARY_TOL = 1e-10     # Frobenius norm of M^dag M - I
DIAGONAL_TOL = 1e-12    # entrywise off-diagonal magnitude

VALID_TAGS = frozenset({"hermitian", "unitary", "diagonal"})


class DimensionMismatchError(ValueError):
    """Binary operation on operators of different dimension."""


class NumericalDegeneracyError(RuntimeError):
    """An eigensolver failed to converge, or a computed result drifted past
    a certified tolerance (a numerical failure, not bad input)."""


def _unitary_residual(m: np.ndarray) -> float:
    """Frobenius norm of M^dag M - I, subtracting I in place."""
    gram = m.conj().T @ m
    gram.flat[::m.shape[0] + 1] -= 1.0
    return float(np.linalg.norm(gram))


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable square complex matrix, optionally tagged with structure.

    tags is a subset of {"hermitian", "unitary", "diagonal"}. Constructing
    with a tag the matrix does not satisfy raises ValueError, so a tagged
    Operator is a checked certificate, not a hint.
    """

    mat: np.ndarray
    tags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("operator dimension must be at least 1")
        if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
            raise ValueError("operator entries must be finite")
        tags = frozenset(self.tags)
        unknown = tags - VALID_TAGS
        if unknown:
            raise ValueError(f"unknown operator tags: {sorted(unknown)}")
        if "hermitian" in tags:
            dev = np.max(np.abs(m - m.conj().T))
            if dev > HERMITIAN_TOL:
                raise ValueError(f"hermitian tag violated: max deviation {dev:.3e}")
        if "unitary" in tags:
            dev = _unitary_residual(m)
            if dev > UNITARY_TOL:
                raise ValueError(f"unitary tag violated: residual {dev:.3e}")
        if "diagonal" in tags:
            off = m - np.diag(np.diag(m))
            dev = np.max(np.abs(off)) if off.size else 0.0
            if dev > DIAGONAL_TOL:
                raise ValueError(f"diagonal tag violated: max off-diagonal {dev:.3e}")
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "tags", tags)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        return bool(np.max(np.abs(self.mat - self.mat.conj().T)) <= tol)

    def __repr__(self) -> str:
        tag_s = ",".join(sorted(self.tags)) or "-"
        return f"Operator(dim={self.dim}, tags={tag_s})"


_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def pauli_string(label: str) -> Operator:
    """Tensor product of single-qubit Paulis; first character acts on qubit 1."""
    if not label or any(c not in _PAULI_MATS for c in label):
        raise ValueError(f"invalid pauli string {label!r}")
    m = _PAULI_MATS[label[0]]
    for c in label[1:]:
        m = np.kron(m, _PAULI_MATS[c])
    tags = {"hermitian", "unitary"}
    if set(label) <= {"I", "Z"}:
        tags.add("diagonal")
    return Operator(m, frozenset(tags))


def hermitian_spectrum(h: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and eigenvector columns v of a Hermitian operator."""
    if "hermitian" not in h.tags and not h.is_hermitian():
        raise ValueError("expected a Hermitian operator")
    try:
        return np.linalg.eigh(h.mat)
    except np.linalg.LinAlgError as err:
        raise NumericalDegeneracyError(f"eigendecomposition failed: {err}") from err


def spectral_exponential(spectrum: tuple[np.ndarray, np.ndarray],
                         scale: float) -> Operator:
    """exp(1j * scale * h) from h's spectrum (w, v), tagged unitary; drift
    past the tag is a NumericalDegeneracyError."""
    if not np.isfinite(scale):
        raise ValueError("scale must be finite")
    w, v = spectrum
    u = (v * np.exp(1j * scale * w)) @ v.conj().T
    try:
        return Operator(u, frozenset({"unitary"}))
    except ValueError as err:  # drift of a propagator, not bad input
        raise NumericalDegeneracyError(f"spectral exponential: {err}") from err


def hermitian_exponential(h: Operator, scale: float) -> Operator:
    """exp(1j * scale * h) for Hermitian h, via eigendecomposition.

    Diagonalizing first keeps the result unitary to machine precision for
    any real scale, unlike a truncated series. The returned Operator is
    tagged unitary, so the guarantee is rechecked on the way out. Callers
    that need several exponentials of one generator take its
    hermitian_spectrum once and call spectral_exponential per scale.
    """
    return spectral_exponential(hermitian_spectrum(h), scale)


def random_hermitian(dim: int, seed: int) -> Operator:
    """Seeded Hermitian with unit spectral norm.

    Draws a complex Gaussian matrix G, symmetrizes to (G + G^dag)/2, and
    rescales so the largest eigenvalue magnitude is exactly 1. Identical
    (dim, seed) pairs give bit-identical results.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    rng = np.random.default_rng(int(seed))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    nrm = np.linalg.norm(h, 2)
    if nrm == 0.0:
        raise NumericalDegeneracyError("degenerate zero draw in random_hermitian")
    return Operator(h / nrm, frozenset({"hermitian"}))


def derived_seeds(base: int, count: int) -> list[int]:
    """Reproducible child seeds for families of independent random operators."""
    return [int(s) for s in np.random.SeedSequence(int(base)).generate_state(count)]


def json_int(value) -> int:
    """A JSON integer: 3.7 and true are refused, not truncated to 3 and 1."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_number(value) -> float:
    """A JSON number: true and "0.05" are refused, not read as 1.0 and 0.05."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as err:
        raise ValueError(f"{value} is too large for a float") from err


def json_bool(value) -> bool:
    """A JSON true or false: "false" is refused, not read as truthy."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def json_complex(value) -> complex:
    """A JSON [re, im] pair of numbers."""
    if not (isinstance(value, list) and len(value) == 2):
        raise TypeError(f"expected a [re, im] pair, got {value!r}")
    return complex(json_number(value[0]), json_number(value[1]))


def json_matrix(value) -> np.ndarray:
    """A JSON list of rows of numbers, as a float array (ragged rows refused)."""
    if not (isinstance(value, list) and all(isinstance(r, list) for r in value)):
        raise TypeError("expected a list of rows of numbers")
    return np.array([[json_number(x) for x in row] for row in value], dtype=float)


def operator_to_json(a: Operator) -> dict:
    return {
        "dim": a.dim,
        "re": a.mat.real.tolist(),
        "im": a.mat.imag.tolist(),
    }


def operator_from_json(data: dict, tags: Iterable[str] = ()) -> Operator:
    try:
        dim = json_int(data["dim"])
        re = json_matrix(data["re"])
        im = json_matrix(data["im"])
    except (KeyError, TypeError, ValueError) as err:
        raise ValueError(f"malformed operator record: {err}") from err
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ValueError(
            f"operator record claims dim {dim} but entries have shape "
            f"{re.shape} / {im.shape}"
        )
    return Operator(re + 1j * im, frozenset(tags))
