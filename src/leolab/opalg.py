"""Dense complex operator algebra with certified structural tags.

Everything downstream (code subspaces, block classification, pulse
synthesis, joint-system evolution) works with small dense matrices, so the
representation is a single immutable complex128 array per operator. An
Operator may carry two structural tags, "hermitian" and "unitary"; each
is verified at construction time, which turns silent numerical drift into
loud errors where a guarantee is first claimed (for a computed unitary, a
NumericalDegeneracyError raised by computed_unitary).

Scope: dense matrices up to a few thousand dimensions, Hermitian generators
only. Sparse storage and non-Hermitian exponentials are out of scope.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

HERMITIAN_TOL = 1e-12   # entrywise |M - M^dag|
UNITARY_TOL = 1e-10     # Frobenius norm of M^dag M - I

VALID_TAGS = frozenset({"hermitian", "unitary"})


class DimensionMismatchError(ValueError):
    """Binary operation on operators of different dimension."""


class NumericalDegeneracyError(RuntimeError):
    """An eigensolver failed to converge, or a computed result drifted past
    a certified tolerance (a numerical failure, not bad input)."""


def frobenius(a: np.ndarray):
    """Frobenius norm over the last two axes: a float for one matrix, an
    array for a stack. Each norm is a BLAS dot of the real parts plus one of
    the imaginary parts, as np.linalg.norm takes it, so a stack's norms are
    bit-identical to one-matrix calls."""
    if a.ndim == 2:
        return np.linalg.norm(a)
    flat = a.reshape(*a.shape[:-2], 1, -1)
    re, im = flat.real, flat.imag
    return np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0]


def _stack_times(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """a @ m for a stack a (N, d, d) and one matrix m (d, d), as one GEMM on
    a reshaped to (N d, d) rather than N BLAS calls. Each entry is the same
    row-by-column dot product as in a @ m, so the result is bit-identical."""
    return (a.reshape(-1, a.shape[-1]) @ m).reshape(a.shape)


def _unitary_residual(m: np.ndarray):
    """Frobenius norm of M^dag M - I over the last two axes, subtracting I
    in place."""
    gram = m.conj().swapaxes(-1, -2) @ m
    np.einsum("...ii->...i", gram)[...] -= 1.0
    return frobenius(gram)


def check_tags(m: np.ndarray, tags: frozenset) -> None:
    """Raise ValueError unless m is finite and carries every tag in tags.

    m is one complex matrix or a stack of them; each check runs over the
    last two axes, so every matrix of a stack is held to the tolerance and
    the message reports the worst one. An empty stack passes.
    """
    if m.size == 0:
        return
    if not np.isfinite(m).all():  # both parts of every entry
        raise ValueError("operator entries must be finite")
    unknown = tags - VALID_TAGS
    if unknown:
        raise ValueError(f"unknown operator tags: {sorted(unknown)}")
    if "hermitian" in tags:
        dev = np.max(np.abs(m - m.conj().swapaxes(-1, -2)))
        if dev > HERMITIAN_TOL:
            raise ValueError(f"hermitian tag violated: max deviation {dev:.3e}")
    if "unitary" in tags:
        _check_residual(np.max(_unitary_residual(m)))


def _check_residual(dev: float) -> None:
    """The unitary tag's test of a residual ||M^dag M - I||_F: past
    UNITARY_TOL, or NaN, is ValueError("unitary tag violated: residual
    <dev>")."""
    if not dev <= UNITARY_TOL:
        raise ValueError(f"unitary tag violated: residual {dev:.3e}")


@dataclass(frozen=True, eq=False)
class Operator:
    """Immutable square complex matrix, optionally tagged with structure.

    tags is a subset of {"hermitian", "unitary"}. Constructing with a tag
    the matrix does not satisfy raises ValueError, so a tagged Operator is
    a checked certificate, not a hint.
    """

    mat: np.ndarray
    tags: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        m = np.array(self.mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got shape {m.shape}")
        if m.shape[0] < 1:
            raise ValueError("operator dimension must be at least 1")
        tags = frozenset(self.tags)
        check_tags(m, tags)
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)
        object.__setattr__(self, "tags", tags)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def is_hermitian(self) -> bool:
        """The hermitian tag, or the same HERMITIAN_TOL check without it."""
        return "hermitian" in self.tags or bool(
            np.max(np.abs(self.mat - self.mat.conj().T)) <= HERMITIAN_TOL)

    def __repr__(self) -> str:
        tag_s = ",".join(sorted(self.tags)) or "-"
        return f"Operator(dim={self.dim}, tags={tag_s})"


def computed_unitary(m: np.ndarray, what: str) -> Operator:
    """m, a computed matrix such as a propagator, tagged unitary; a failed
    tag is drift, not bad input: NumericalDegeneracyError("<what>: <err>")."""
    try:
        return Operator(m, frozenset({"unitary"}))
    except ValueError as err:
        raise NumericalDegeneracyError(f"{what}: {err}") from err


def certified_residual(blocks: Sequence[np.ndarray], copies: Sequence[int],
                       what: str) -> float:
    """||M^dag M - I||_F of a block-diagonal computed unitary M, blocks[i]
    standing copies[i] times on its diagonal, once it passes the unitary
    tag's residual test: sqrt(sum of the diagonal blocks' squared
    residuals), each block's computed once and counted once per copy.
    Drift past UNITARY_TOL, or a non-finite entry, is computed_unitary's
    NumericalDegeneracyError("<what>: unitary tag violated: residual <r>")."""
    residual = float(np.sqrt(sum(k * _unitary_residual(b) ** 2
                                 for b, k in zip(blocks, copies))))
    try:
        _check_residual(residual)
    except ValueError as err:
        raise NumericalDegeneracyError(f"{what}: {err}") from err
    return residual


_PAULI_MATS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}
_PAULI_STACK = np.stack(list(_PAULI_MATS.values()))
_PAULI_INDEX = {c: i for i, c in enumerate(_PAULI_MATS)}
_PAULI_TAGS = frozenset({"hermitian", "unitary"})


def pauli_stack(labels: Sequence[str]) -> np.ndarray:
    """One or more Pauli strings of one length, stacked (N, 2^n, 2^n); the
    first character acts on qubit 1.

    Each qubit is a batched kron: a broadcast product, bit-identical to
    np.kron. Every string is checked hermitian and unitary, as
    pauli_string tags them.
    """
    n = len(labels[0])
    for label in labels:
        if not label or len(label) != n or any(c not in _PAULI_INDEX for c in label):
            raise ValueError(f"invalid pauli string {label!r}")
    digits = np.array([[_PAULI_INDEX[c] for c in label] for label in labels])
    m = _PAULI_STACK[digits[:, 0]]
    for q in range(1, n):
        a = m.shape[1]
        b = _PAULI_STACK[digits[:, q]]
        kron = m[:, :, None, :, None] * b[:, None, :, None, :]
        m = kron.reshape(-1, 2 * a, 2 * a)
    check_tags(m, _PAULI_TAGS)
    return m


def pauli_string(label: str) -> Operator:
    """Tensor product of single-qubit Paulis; first character acts on qubit 1."""
    return Operator(pauli_stack([label])[0], _PAULI_TAGS)


def hermitian_spectrum(h: Operator) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and eigenvector columns v of a Hermitian operator."""
    if not h.is_hermitian():
        raise ValueError("expected a Hermitian operator")
    try:
        return np.linalg.eigh(h.mat)
    except np.linalg.LinAlgError as err:
        raise NumericalDegeneracyError(f"eigendecomposition failed: {err}") from err


def check_eigenvectors(v: np.ndarray, what: str) -> None:
    """Certify an eigenvector matrix V once, for every exponential built on
    it: ||V^dag V - I||_F = e must be at most UNITARY_TOL / 4, else
    NumericalDegeneracyError("eigenvectors of <what>: ..."). An empty V
    passes.

    For real phases phi, U = V e^(i phi) V^dag has U^dag U - I =
    (V V^dag - I) + V e^(-i phi) (V^dag V - I) e^(i phi) V^dag, and
    ||V V^dag - I||_F = e (V V^dag and V^dag V share their eigenvalues), so
    ||U^dag U - I||_F <= 2e + e^2 plus the O(J^(3/2) eps) rounding of
    forming U at dim J: below UNITARY_TOL for any phases.
    """
    drift = _unitary_residual(v) if v.size else 0.0
    if not drift <= UNITARY_TOL / 4:  # NaN fails too
        raise NumericalDegeneracyError(
            f"eigenvectors of {what}: residual {drift:.3e} exceeds "
            f"UNITARY_TOL / 4 = {UNITARY_TOL / 4:.3e}")


def _spectral_matrix(spectrum: tuple[np.ndarray, np.ndarray],
                     scale: float) -> np.ndarray:
    """exp(1j * scale * h) from h's spectrum (w, v), as a bare matrix: no
    check here, the caller certifies v (check_eigenvectors) or the result."""
    w, v = spectrum
    return (v * np.exp(1j * scale * w)) @ v.conj().T


def hermitian_exponential(h: Operator, scale: float) -> Operator:
    """exp(1j * scale * h) for Hermitian h, via eigendecomposition.

    Diagonalizing first keeps the result unitary to machine precision for
    any real scale, unlike a truncated series. The returned Operator is
    tagged unitary, so the guarantee is rechecked on the way out: drift is
    NumericalDegeneracyError("spectral exponential: ...").
    """
    spectrum = hermitian_spectrum(h)
    if not np.isfinite(scale):
        raise ValueError("scale must be finite")
    return computed_unitary(_spectral_matrix(spectrum, scale),
                            "spectral exponential")


def random_hermitians(dim: int, seeds: Sequence[int]) -> np.ndarray:
    """A stack of seeded Hermitians with unit spectral norm, one per seed.

    Each seed draws a complex Gaussian matrix G (real part, then imaginary
    part, from one standard_normal call), symmetrized to (G + G^dag)/2 and
    rescaled so its largest eigenvalue magnitude is exactly 1; the norms
    come from one batched SVD, which runs the same LAPACK call per matrix,
    so a matrix does not depend on the seeds stacked with it. Identical
    (dim, seed) pairs give bit-identical results.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    draws = np.empty((len(seeds), 2, dim, dim))
    for seed, out in zip(seeds, draws):
        np.random.default_rng(int(seed)).standard_normal(out=out)
    g = draws[:, 0] + 1j * draws[:, 1]
    h = (g + g.conj().swapaxes(1, 2)) / 2.0
    nrm = np.linalg.svd(h, compute_uv=False).max(axis=1)
    if (nrm == 0.0).any():
        raise NumericalDegeneracyError("degenerate zero draw in random_hermitian")
    return h / nrm[:, None, None]


def random_hermitian(dim: int, seed: int) -> Operator:
    """Seeded Hermitian with unit spectral norm: random_hermitians for one
    seed, as an Operator tagged hermitian."""
    return Operator(random_hermitians(dim, [seed])[0], frozenset({"hermitian"}))


def derived_seeds(base: int, count: int) -> list[int]:
    """Reproducible child seeds for families of independent random operators."""
    return [int(s) for s in np.random.SeedSequence(int(base)).generate_state(count)]


def _index(value, message: str) -> int:
    """value as an int (numpy integers included); anything else is
    ValueError("<message>, got <value!r>")."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{message}, got {value!r}") from None


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


def json_str(value) -> str:
    """A JSON string: null and 3 are refused, not read as "None" and "3"."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
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
