"""Code subspaces and the structure needed to build them.

A code subspace is an isometry from logical coordinates into an ambient
Hilbert space. The builders here cover the registers used throughout:
the lowest two levels of a multilevel mode, the two-qubit dephasing-free
pair span{|01>, |10>}, collective-spin subspaces of three and four qubits
obtained from the total-spin sector decomposition, and the dual-rail
two-photon code on four bosonic modes.

All constructions are deterministic: at a fixed BLAS thread count,
repeated calls return bit-identical bases, and every degeneracy is
resolved by Gram-Schmidt against the canonical basis in a fixed order.
Between thread counts, the blocked products of threaded BLAS may round
differently: spin_sector_decomposition(8) differs by up to 1.7e-16
between one and two threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import comb, sqrt

import numpy as np

from .opalg import Operator, _index

ISOMETRY_TOL = 1e-12
SUBSPACE_TOL = 1e-10  # Frobenius distance between projectors of one subspace

# threshold below which a Gram-Schmidt residual is treated as linearly
# dependent rather than as a new basis direction
_GS_RANK_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class CodeSubspace:
    """Isometry V from code coordinates into the ambient space.

    The columns of basis are the code vectors; V^dag V = I is checked at
    construction. The projectors are derived lazily and cached.
    """

    label: str
    basis: np.ndarray

    def __post_init__(self):
        v = np.array(self.basis, dtype=np.complex128)
        if v.ndim != 2 or v.shape[0] < v.shape[1] or v.shape[1] < 1:
            raise ValueError(f"code basis has invalid shape {v.shape}")
        gram = v.conj().T @ v
        dev = np.max(np.abs(gram - np.eye(v.shape[1])))
        if dev > ISOMETRY_TOL:
            raise ValueError(
                f"code basis is not an isometry: gram deviation {dev:.3e}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "basis", v)

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def code_dim(self) -> int:
        return self.basis.shape[1]

    @cached_property
    def projector(self) -> np.ndarray:
        p = self.basis @ self.basis.conj().T
        p.setflags(write=False)
        return p

    @cached_property
    def complement_projector(self) -> np.ndarray:
        q = np.eye(self.ambient_dim) - self.projector
        q.setflags(write=False)
        return q

    @cached_property
    def frame(self) -> np.ndarray:
        """Unitary F = [basis | complement basis]: code coordinates first,
        then a basis of the complement, Gram-Schmidt over the complement
        projector's columns in index order. For a code spanned by
        computational basis states (dfs2, bare, dual rail) F is a
        permutation matrix."""
        perp = _range_basis(self.complement_projector,
                            self.ambient_dim - self.code_dim)
        f = np.hstack([self.basis, perp])
        f.setflags(write=False)
        return f

    def same_subspace(self, other: CodeSubspace) -> bool:
        """Whether other spans this subspace of the same ambient space.

        Compares projectors, so labels and basis choices do not matter.
        """
        return (other.ambient_dim == self.ambient_dim
                and bool(np.linalg.norm(other.projector - self.projector)
                         <= SUBSPACE_TOL))

    def __repr__(self) -> str:
        return (
            f"CodeSubspace({self.label!r}, ambient={self.ambient_dim}, "
            f"code={self.code_dim})"
        )


def _range_basis(proj: np.ndarray, rank: int) -> np.ndarray:
    """Orthonormal basis of the range of an orthogonal projector.

    Gram-Schmidt over the projector's columns in index order, keeping each
    nonvanishing residual; each column is orthogonalized against the kept
    ones with two matrix-vector products. A second pass re-projects onto
    the range and re-orthogonalizes, removing the O(eps) residue the first
    one leaves.
    """
    basis = np.zeros((proj.shape[0], rank), dtype=proj.dtype)
    kept = 0
    for j in range(proj.shape[1]):
        if kept == rank:
            break
        q = basis[:, :kept]
        w = proj[:, j] - q @ (q.conj().T @ proj[:, j])
        nrm = np.linalg.norm(w)
        if nrm > _GS_RANK_TOL:
            w = proj @ (w / nrm)
            w -= q @ (q.conj().T @ w)
            basis[:, kept] = w / np.linalg.norm(w)
            kept += 1
    if kept != rank:
        raise ValueError(f"projector range is not {rank}-dimensional")
    return basis


# ---------------------------------------------------------------------------
# elementary codes
# ---------------------------------------------------------------------------


def bare_qubit_code(n_levels: int) -> CodeSubspace:
    """Lowest two levels of an n-level mode as the qubit."""
    if n_levels < 2:
        raise ValueError("bare qubit needs at least two levels")
    v = np.zeros((n_levels, 2), dtype=complex)
    v[0, 0] = 1.0
    v[1, 1] = 1.0
    return CodeSubspace(f"bare{n_levels}", v)


def dfs2_dephasing() -> CodeSubspace:
    """Two-qubit code span{|01>, |10>}, immune to collective dephasing."""
    v = np.zeros((4, 2), dtype=complex)
    v[1, 0] = 1.0  # |01> -> logical 0
    v[2, 1] = 1.0  # |10> -> logical 1
    return CodeSubspace("dfs2", v)


# ---------------------------------------------------------------------------
# collective spin
# ---------------------------------------------------------------------------


_WHOLE_QUBITS = "supported register sizes are whole numbers of qubits"


def _lowering(n_qubits: int) -> np.ndarray:
    """The real collective lowering operator S- = Sx - i Sy, written from
    its exact 0/1 entries: site i flips bit 1 << (n-1-i) of the basis index
    from 0 (Sz = +1/2) to 1, so S- is bit-identical to the sum of kron
    chains, with no dense chain built."""
    dim = 2**n_qubits
    idx = np.arange(dim)
    s_minus = np.zeros((dim, dim))
    for i in range(n_qubits):
        bit = 1 << (n_qubits - 1 - i)
        up = idx[(idx & bit) == 0]  # site i in |0>, the Sz = +1/2 state
        s_minus[up ^ bit, up] = 1.0
    return s_minus


def s_squared(n_qubits: int) -> Operator:
    """Total-spin-squared operator S^2 = S+ S- + Sz^2 - Sz on n qubits, with
    S- from its exact 0/1 entries (_lowering), S+ its transpose and Sz = n/2
    minus the number of 1 bits of the basis index. Every entry is an exact
    multiple of 1/4, so S^2 is bit-identical to Sx^2 + Sy^2 + Sz^2 formed
    from kron chains. n_qubits is an int of at least 1 (numpy integers
    included); anything else is a ValueError."""
    n_qubits = _index(n_qubits, _WHOLE_QUBITS)
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    s_minus = _lowering(n_qubits)
    sz = n_qubits / 2 - np.array([bin(i).count("1") for i in range(2**n_qubits)])
    m = s_minus.T @ s_minus + np.diag(sz * sz - sz)
    return Operator(m.astype(complex), frozenset({"hermitian"}))


@dataclass(frozen=True, eq=False)
class SpinSector:
    """One total-spin value: multiplicity copies of a (2S+1)-dim ladder.

    Columns of basis are ordered by ascending Sz eigenvalue, then by copy
    index; copies are resolved by Gram-Schmidt against the computational
    basis on the highest-weight space, in index order. Only spin and basis
    are stored; block_dim and multiplicity are read off them.
    """

    spin: float
    basis: np.ndarray

    def __post_init__(self):
        b = np.array(self.basis, dtype=np.complex128)
        if b.shape[1] % self.block_dim:
            raise ValueError("sector basis has wrong number of columns")
        b.setflags(write=False)
        object.__setattr__(self, "basis", b)

    @property
    def block_dim(self) -> int:
        return round(2 * self.spin) + 1

    @property
    def multiplicity(self) -> int:
        return self.basis.shape[1] // self.block_dim


@dataclass(frozen=True, eq=False)
class SpinSectorDecomposition:
    n_qubits: int
    sectors: tuple[SpinSector, ...]

    def __post_init__(self):
        total = sum(s.multiplicity * s.block_dim for s in self.sectors)
        if total != 2**self.n_qubits:
            raise ValueError(
                f"sector dimensions sum to {total}, expected {2**self.n_qubits}"
            )

    def sector(self, spin: float) -> SpinSector:
        for s in self.sectors:
            if abs(s.spin - spin) < 1e-9:
                return s
        raise KeyError(f"no sector with spin {spin}")

    def full_basis(self) -> np.ndarray:
        return np.hstack([s.basis for s in self.sectors])


def spin_multiplicity(n_qubits: int, spin: float) -> int:
    """Number of independent spin-S ladders in n spin-1/2 sites."""
    k = round(n_qubits / 2 - spin)
    if k < 0 or abs(n_qubits / 2 - spin - k) > 1e-9:
        return 0
    low = comb(n_qubits, k - 1) if k >= 1 else 0
    return comb(n_qubits, k) - low


def spin_sector_decomposition(n_qubits: int) -> SpinSectorDecomposition:
    """Simultaneous (S^2, Sz) eigenbasis of n qubits, organized by sector.

    Strategy: for each spin S, the states annihilated by the raising
    operator inside the Sz = S magnetization block are exactly the
    highest-weight vectors. A deterministic orthonormal basis of that
    space seeds the multiplicity copies, and repeated application of the
    lowering operator fills in each ladder with the standard
    sqrt((S+m)(S-m+1)) normalization.

    S- is written from its exact 0/1 entries (_lowering, cast to complex),
    and S+ is its transpose. Each rung is lowered
    only onto the rows of the next magnetization block, the only rows S-
    reaches, with the whole register as the summed index, so every entry
    adds the same terms in the same order as the full product S- @ rung.

    n_qubits is an int from 2 to 8 (numpy integers included); anything
    else is a ValueError.
    """
    n_qubits = _index(n_qubits, _WHOLE_QUBITS)
    if not 2 <= n_qubits <= 8:
        raise ValueError("supported register sizes are 2..8 qubits")
    dim = 2**n_qubits
    s_minus = _lowering(n_qubits).astype(complex)

    # magnetization blocks: index i has popcount(i) down spins
    blocks: dict[int, list[int]] = {}
    for i in range(dim):
        blocks.setdefault(bin(i).count("1"), []).append(i)

    sectors = []
    # k down spins in the highest weight, S = n/2 - k, in ascending S
    for k in range(n_qubits // 2, -1, -1):
        spin = n_qubits / 2 - k
        mult = spin_multiplicity(n_qubits, spin)
        rung = np.zeros((dim, mult), dtype=complex)
        if k == 0:
            rung[blocks[k][0], 0] = 1.0
        else:
            # raising operator restricted to the Sz = spin block
            restricted = s_minus[np.ix_(blocks[k], blocks[k - 1])].T
            rung[blocks[k], :] = _null_space_deterministic(restricted, mult)
        # rungs[i] holds the m = S - i states of all mult ladders, one
        # column each, nonzero only on magnetization block k + i; each of
        # the n - 2k lowerings takes m to m - 1
        rungs = [rung]
        for i in range(n_qubits - 2 * k):
            m, rows = spin - i, blocks[k + i + 1]
            rung = np.zeros((dim, mult), dtype=complex)
            rung[rows] = s_minus[rows] @ rungs[-1] / sqrt((spin + m) * (spin - m + 1))
            rungs.append(rung)
        # order columns by ascending Sz, ladders in order within each m
        sectors.append(SpinSector(spin, np.hstack(rungs[::-1])))
    return SpinSectorDecomposition(n_qubits, tuple(sectors))


def _null_space_deterministic(a: np.ndarray, expected: int) -> np.ndarray:
    """Orthonormal null-space basis with a canonical-basis-seeded order."""
    _, sing, vh = np.linalg.svd(a)
    tol = max(a.shape) * (sing[0] if sing.size else 0.0) * 1e-12
    rank = int(np.sum(sing > tol))
    null = vh[rank:].conj().T
    if null.shape[1] != expected:
        raise ValueError(
            f"null space dimension {null.shape[1]}, expected {expected}"
        )
    return _range_basis(null @ null.conj().T, expected)


def dfs3_collective() -> CodeSubspace:
    """Spin-1/2 sector of three qubits: a four-dimensional noiseless subsystem.

    Both doublets are kept, so collective errors act only on the ladder
    index and the doublet label is preserved.
    """
    dec = spin_sector_decomposition(3)
    return CodeSubspace("dfs3", dec.sector(0.5).basis)


def dfs4_collective() -> CodeSubspace:
    """The two total singlets of four qubits."""
    dec = spin_sector_decomposition(4)
    return CodeSubspace("dfs4", dec.sector(0.0).basis)


# ---------------------------------------------------------------------------
# bosonic two-photon sector and the dual-rail code
# ---------------------------------------------------------------------------

N_MODES = 4
N_PHOTONS = 2


def two_photon_occupations() -> list[tuple[int, ...]]:
    """Occupation vectors of two photons in four modes, lexicographic order."""
    occs = [
        occ
        for occ in itertools.product(range(N_PHOTONS + 1), repeat=N_MODES)
        if sum(occ) == N_PHOTONS
    ]
    return sorted(occs)


def lift_quadratic(coeff: np.ndarray) -> Operator:
    """Lift sum_kl coeff[k,l] b_k^dag b_l to the two-photon sector.

    coeff is a 4x4 mode-space matrix; the result acts on the 10-dimensional
    occupation basis from two_photon_occupations(). Hermitian input yields
    a Hermitian-tagged output.
    """
    a = np.asarray(coeff, dtype=complex)
    if a.shape != (N_MODES, N_MODES):
        raise ValueError(f"coefficient matrix must be 4x4, got {a.shape}")
    occs = two_photon_occupations()
    index = {occ: i for i, occ in enumerate(occs)}
    dim = len(occs)
    h = np.zeros((dim, dim), dtype=complex)
    for occ in occs:
        col = index[occ]
        for l in range(N_MODES):
            if occ[l] == 0:
                continue
            for k in range(N_MODES):
                if a[k, l] == 0:
                    continue
                amp = sqrt(occ[l])
                step = list(occ)
                step[l] -= 1
                amp *= sqrt(step[k] + 1)
                step[k] += 1
                h[index[tuple(step)], col] += a[k, l] * amp
    hermitian_input = np.max(np.abs(a - a.conj().T)) <= 1e-14
    if hermitian_input:
        h = (h + h.conj().T) / 2.0
        return Operator(h, frozenset({"hermitian"}))
    return Operator(h)


def dual_rail_code() -> CodeSubspace:
    """Two dual-rail qubits: one photon in modes {1,2}, one in modes {3,4}.

    Logical basis order: |00> = b1 b3, |01> = b1 b4, |10> = b2 b3,
    |11> = b2 b4 (creation operators acting on vacuum).
    """
    occs = two_photon_occupations()
    index = {occ: i for i, occ in enumerate(occs)}
    logical = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
    v = np.zeros((len(occs), 4), dtype=complex)
    for j, occ in enumerate(logical):
        v[index[occ], j] = 1.0
    return CodeSubspace("dual_rail", v)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_FIXED_CODES = {
    "dfs2": dfs2_dephasing,
    "dfs3": dfs3_collective,
    "dfs4": dfs4_collective,
    "dual_rail": dual_rail_code,
}


def code_labels() -> list[str]:
    return sorted(_FIXED_CODES) + ["bare<n>"]


def build_code(label: str) -> CodeSubspace:
    """Construct a registered code from its label ("dfs2", "bare4", ...)."""
    if label in _FIXED_CODES:
        return _FIXED_CODES[label]()
    if label.startswith("bare"):
        try:
            n = int(label[4:])
        except ValueError:
            n = 0
        if n >= 2:
            return bare_qubit_code(n)
    raise ValueError(
        f"unknown code label {label!r}; valid labels: {', '.join(code_labels())}"
    )

