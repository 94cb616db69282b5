"""Hamiltonian models: logical operators and seeded system-bath couplings
with a known leakage structure.

A model stores only its code and its joint Hamiltonian H_joint; the bath
dimension and the leakage-free part H_c + H_perp that parity kicks
converge to are derived from them. Builder inputs (seed, g) are not kept.

In the code's frame F x I, F = [code basis | complement basis], H_joint
becomes H' = (F^dag x I) H_joint (F x I), whose first code x bath rows are
the code rows; for dfs2, bare-qubit and dual-rail codes F is a
permutation. The leakage-free part is H' without the blocks that couple
code rows to complement rows. SystemBathModel.spectra splits H' into its
sectors, the connected components of its exact nonzero pattern, stores
sectors that are exact copies (same code row count, equal blocks) once,
and diagonalizes each distinct block once. A sector block [[A, G], [G^dag,
B]] (code rows first) pairs when it has as many code as complement rows,
A == B, and zeta G == (zeta G)^dag for zeta = 1 or 1j, all compared
exactly (np.array_equal; multiplying by 1j is exact). In the basis (code
+- conj(zeta) complement) / sqrt(2) it is then exactly diag(A + zeta G,
A - zeta G), and the kick Z (-1 on the code rows) is exactly -swap of the
two halves, so a paired sector keeps the spectra of its two half blocks
and of A, which is both its code and its complement sub-block: three eigh
of half the sector's size. Any other sector keeps the spectra of its
block and of its code and complement sub-blocks: three eigh, of its size
and of its sub-blocks'. Every allowed dfs2 leakage label flips one qubit
and keeps the other's Z, so a dfs2 model with one label (or labels that
keep the same Z) has two sectors of half the joint dim; a model with no
such structure has one. A label that acts only on one qubit with X (XI,
IX) makes the two sectors copies: one block, two row sets. Without the
collective term a dfs2 sector's code and complement sub-blocks are both
the free bath block, so every single-label model pairs (zeta = 1 for an
X flip, whose G is Hermitian, 1j for a Y flip), and so do labels on one
qubit that are all X or all Y flips (XI with XZ); the collective term
(Z1 + Z2 is 0 on the code and +-2 off it), mixed flips such as XI with
YI, hopping and linear optics do not pair. Where H' is formed, its code
block is also compared exactly with I_k x h
(SystemBathModel.decoherence_free): every dfs2 model passes, as no
allowed label and not Z1 + Z2 acts within the code.

Units: hbar = 1 throughout, so couplings are angular frequencies and
exp(-i H t) propagates for time t. Every random ingredient is drawn from
an explicitly seeded generator and normalized to unit spectral norm, so a
single scalar g sets the physical coupling scale and rebuilding a model
from (seed, g) is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isfinite
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import codes as codes_mod
from .classify import decompose
from .codes import CodeSubspace
from .opalg import (
    DimensionMismatchError,
    Operator,
    check_eigenvectors,
    derived_seeds,
    hermitian_spectrum,
    json_bool,
    json_int,
    json_number,
    json_str,
    pauli_string,
    random_hermitian,
)

# system couplings that move population out of span{|01>, |10>}:
# single-qubit flips, optionally dressed with Z on the spectator qubit
DFS2_LEAK_LABELS = ("IX", "IY", "XI", "XZ", "YI", "YZ", "ZX", "ZY")


@dataclass(frozen=True, eq=False)
class LogicalOps:
    """Logical Pauli triple on the dephasing-free pair.

    Each operator vanishes on span{|00>, |11>} and obeys the su(2) algebra
    on the code, and each commutes with the collective dephasing generator
    Z1 + Z2, so logical rotations never couple to that noise channel.
    """

    x: Operator
    y: Operator
    z: Operator


def logical_ops_dfs2() -> LogicalOps:
    # y sign: (Y1 X2 - X1 Y2)/2 is the choice whose code block is the
    # standard sigma_y when |01> is logical zero; the flipped sign breaks
    # the x/z recoupling identity
    x = (pauli_string("XX").mat + pauli_string("YY").mat) / 2.0
    y = (pauli_string("YX").mat - pauli_string("XY").mat) / 2.0
    z = (pauli_string("ZI").mat - pauli_string("IZ").mat) / 2.0
    herm = frozenset({"hermitian"})
    return LogicalOps(Operator(x, herm), Operator(y, herm), Operator(z, herm))


# ---------------------------------------------------------------------------
# system-bath models
# ---------------------------------------------------------------------------


Spectrum = tuple[np.ndarray, np.ndarray]  # (w, v) of a Hermitian block


class Sector(NamedTuple):
    """One exact block of H' = (F^dag x I) H_joint (F x I), with every
    sector that is an exact copy of it.

    rows has one row set per copy (copies x block dim): each row set is
    ascending frame rows, so its code rows (frame rows below code x bath)
    come first, n_code of them, and H'[r, r] is the same block for every
    row set r. phi[rows] thus stacks the copies' parts of a frame vector
    phi. zeta is None, or 1 or 1j for a paired block [[A, G], [G^dag, A]]
    with zeta G Hermitian (_pair_phase). blocks are the spectra (w, v) of
    the diagonal blocks the dynamics steps: the whole block, or a pair's
    halves A + zeta G and A - zeta G, on the rows (code +- conj(zeta)
    complement) / sqrt(2). code and complement are the spectra of the code
    and complement sub-blocks, either of which may be empty; a pair's are
    one spectrum, A's.
    """

    rows: np.ndarray
    n_code: int
    zeta: complex | None
    blocks: tuple[Spectrum, ...]
    code: Spectrum
    complement: Spectrum


def _pair_phase(blk: np.ndarray, c: int) -> complex | None:
    """zeta in (1, 1j) when a sector block [[A, G], [G^dag, B]], its first c
    rows code rows, pairs: as many code as complement rows, A == B and
    zeta G == (zeta G)^dag, compared exactly (np.array_equal, no tolerance;
    multiplying by 1j is exact). Then the block is exactly diag(A + zeta
    G, A - zeta G) on the rows (code +- conj(zeta) complement) / sqrt(2).
    Otherwise None."""
    if 2 * c != len(blk) or not np.array_equal(blk[:c, :c], blk[c:, c:]):
        return None
    for zeta in (1, 1j):
        k = zeta * blk[:c, c:]
        if np.array_equal(k, k.conj().T):
            return zeta
    return None


def _sector_rows(h: np.ndarray) -> list[np.ndarray]:
    """The connected components of h's exact nonzero pattern, each as its
    ascending indices, in the order of their first index. No tolerance:
    h is exactly zero between two components, so its blocks on them are
    exactly h. An entry links its row and column both ways, as rounding
    can leave h[i, j] zero where h[j, i] is not."""
    linked = h != 0
    linked |= linked.T
    unseen = np.ones(len(h), dtype=bool)
    out = []
    while unseen.any():
        reached = frontier = np.arange(len(h)) == unseen.argmax()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~reached
            reached = reached | frontier
        unseen &= ~reached
        out.append(np.flatnonzero(reached))
    return out


@dataclass(frozen=True, eq=False)
class SystemBathModel:
    """Joint (system x bath) Hamiltonian H_joint against a code.

    Only the code and H_joint are stored; bath_dim is H_joint's dim over
    the code's ambient dim. The leakage-free part H_c + H_perp =
    (P x I) H (P x I) + (Q x I) H (Q x I), P the code projector and Q = 1 - P,
    is derived in spectra, as the code and complement sub-blocks of each
    sector of H_joint in the code frame; the rest is the leakage coupling
    the kicks cancel.
    """

    code: CodeSubspace
    h_joint: Operator

    def __post_init__(self):
        if self.h_joint.dim % self.system_dim:
            raise ValueError(f"joint Hamiltonian dim {self.h_joint.dim} is not "
                             f"a multiple of the code's ambient dim {self.system_dim}")

    @property
    def system_dim(self) -> int:
        return self.code.ambient_dim

    @property
    def bath_dim(self) -> int:
        return self.h_joint.dim // self.system_dim

    @property
    def joint_dim(self) -> int:
        return self.h_joint.dim

    @property
    def initial_bath_state(self) -> np.ndarray:
        """The first bath basis state, a new array on each call."""
        return np.eye(1, self.bath_dim, dtype=complex)[0]

    @property
    def spectra(self) -> tuple[Sector, ...]:
        """The sectors of H' = (F^dag x I) H_joint (F x I), F the code's
        frame, with the spectra of each sector's blocks and of its code and
        complement sub-blocks; computed on first use and kept. H' is two
        system-index contractions. Its sectors are the connected components
        of its exact nonzero pattern (_sector_rows), so every propagator is
        exactly block diagonal over them, and within a sector the code and
        complement sub-blocks are H_c + H_perp, the part the kicks keep.
        Sectors with as many code rows and equal blocks (np.array_equal, no
        tolerance) are copies, kept as one Sector with one row set each,
        in the order of their first index; only the first is diagonalized.
        A sector that pairs (_pair_phase) is diagonalized as its two
        halves and A: three eigh of half its size. Each eigenvector matrix
        is certified once, here (check_eigenvectors), so an exponential
        built on it needs no check of its own."""
        return self._frame_blocks[0]

    @property
    def decoherence_free(self) -> bool:
        """Whether the code block of H' is exactly I_k x h, h its first b x
        b block (np.array_equal, no tolerance): the code rows see only a
        bath Hamiltonian, so under H_c + H_perp the code's reduced state
        never changes (a decoherence-free subspace). Read off H' where
        spectra forms it."""
        return self._frame_blocks[1]

    @cached_property
    def _frame_blocks(self) -> tuple[tuple[Sector, ...], bool]:
        """spectra and decoherence_free, from one H' that is not kept."""
        h, s, j = self.h_joint.mat, self.system_dim, self.joint_dim
        f, k, b = self.code.frame, self.code.code_dim, self.bath_dim
        kb = k * b
        t = (f.conj().T @ h.reshape(s, -1)).reshape(j, s, -1)
        hf = (f.T @ t).reshape(j, j)  # H'
        bath_only = np.array_equal(hf[:kb, :kb], np.kron(np.eye(k), hf[:b, :b]))

        def spectrum(blk: np.ndarray, what: str) -> Spectrum:
            if not len(blk):  # a sector with no code or no complement rows
                return np.zeros(0), np.zeros((0, 0), dtype=complex)
            w, v = hermitian_spectrum(Operator(blk, frozenset({"hermitian"})))
            check_eigenvectors(v, what)
            w.setflags(write=False)
            v.setflags(write=False)
            return w, v

        groups: list[tuple[np.ndarray, int, list[np.ndarray]]] = []
        for rows in _sector_rows(hf):
            blk, c = hf[np.ix_(rows, rows)], int(np.searchsorted(rows, kb))
            for first, c0, copies in groups:  # a copy: compared exactly
                if c0 == c and np.array_equal(first, blk):
                    copies.append(rows)
                    break
            else:
                groups.append((blk, c, [rows]))
        out = []
        for blk, c, copies in groups:
            rows = np.stack(copies)
            rows.setflags(write=False)
            zeta = _pair_phase(blk, c)
            if zeta is None:
                out.append(Sector(rows, c, None, (spectrum(blk, "H_joint"),),
                                  spectrum(blk[:c, :c], "the code block"),
                                  spectrum(blk[c:, c:], "the complement block")))
                continue
            a, k = blk[:c, :c], zeta * blk[:c, c:]
            halves = (spectrum(a + k, "the half A + zeta G"),
                      spectrum(a - k, "the half A - zeta G"))
            code = spectrum(a, "the code block")
            out.append(Sector(rows, c, zeta, halves, code, code))
        return tuple(out), bath_only

    @classmethod
    def from_terms(
        cls,
        code: CodeSubspace,
        terms: Sequence[tuple[float, Operator, Operator]],
        *,
        free_bath: Operator | None = None,
    ) -> "SystemBathModel":
        """Assemble H_joint = sum of w kron(S, B) over (weight w, system
        factor S, bath factor B) terms, plus kron(I, free_bath). The bath
        dim is the first term's bath factor's, else free_bath's: a call
        with neither, or a bath factor of another dim, is a ValueError."""
        if not terms and free_bath is None:
            raise ValueError("from_terms needs a term or a free bath")
        b = terms[0][2].dim if terms else free_bath.dim
        s = code.ambient_dim
        h = np.zeros((s * b, s * b), dtype=complex)
        for weight, sys_op, bath_op in terms:
            if sys_op.dim != s:
                raise DimensionMismatchError(
                    f"system factor dim {sys_op.dim}, code ambient dim {s}")
            if bath_op.dim != b:
                raise ValueError("bath factor dimension mismatch")
            h += weight * np.kron(sys_op.mat, bath_op.mat)
        if free_bath is not None:
            if free_bath.dim != b:
                raise ValueError("free bath Hamiltonian dimension mismatch")
            h += np.kron(np.eye(s), free_bath.mat)
        return cls(code, Operator(h, frozenset({"hermitian"})))


def _split_bath_model(code: CodeSubspace, h_sys: Operator,
                      g: float, seed: int, bath_dim: int,
                      shared_bath: bool) -> SystemBathModel:
    """Couple each classified piece of h_sys to its own seeded bath operator.

    Child seed order: bath operators for the E, E_perp and L pieces (all
    three use the first when shared_bath is set), then the free bath term.
    """
    dec = decompose(h_sys, code)
    seeds = derived_seeds(seed, 4)
    if shared_bath:
        b_c = b_perp = b_l = random_hermitian(bath_dim, seeds[0])
    else:
        b_c = random_hermitian(bath_dim, seeds[0])
        b_perp = random_hermitian(bath_dim, seeds[1])
        b_l = random_hermitian(bath_dim, seeds[2])
    h_bath = random_hermitian(bath_dim, seeds[3])
    terms = [(g, dec.e_part, b_c), (g, dec.eperp_part, b_perp), (g, dec.l_part, b_l)]
    return SystemBathModel.from_terms(code, terms, free_bath=h_bath)


def hopping_model(
    n_levels: int,
    seed: int,
    g: float,
    bath_dim: int = 4,
    shared_bath: bool = False,
) -> SystemBathModel:
    """Random single-particle hopping on an n-level mode, bare-qubit code.

    The system Hamiltonian is a seeded unit-norm Hermitian scaled by g; each
    classified piece couples to its own seeded bath operator (or to one
    shared operator when shared_bath is set), plus a free bath term.
    """
    if n_levels < 3:
        raise ValueError(
            f"hopping model needs n_levels >= 3 to leak, got {n_levels}")
    code = codes_mod.bare_qubit_code(n_levels)
    return _split_bath_model(code, random_hermitian(n_levels, seed),
                             g, seed, bath_dim, shared_bath)


def linear_optics_model(
    seed: int,
    g: float,
    bath_dim: int = 1,
    shared_bath: bool = False,
) -> SystemBathModel:
    """Random photon-conserving quadratic Hamiltonian on the dual-rail code.

    A seeded 4x4 mode matrix is lifted to the two-photon sector. With the
    default trivial bath the leakage is coherent: mode mixing between the
    {1,2} and {3,4} rails moves photons without any environment.
    """
    code = codes_mod.dual_rail_code()
    lifted = codes_mod.lift_quadratic(random_hermitian(4, seed).mat)
    if bath_dim == 1:
        one = Operator(np.ones((1, 1), dtype=complex), frozenset({"hermitian"}))
        return SystemBathModel.from_terms(code, [(g, lifted, one)])
    return _split_bath_model(code, lifted, g, seed, bath_dim, shared_bath)


def dfs2_leakage_model(
    leak_set: Sequence[str],
    g: float,
    bath_seed: int,
    bath_dim: int = 4,
    shared_bath: bool = False,
    collective_strength: float = 0.0,
) -> SystemBathModel:
    """Dephasing-free pair with chosen leakage couplings to a qubit bath.

    leak_set names the system factors, e.g. "XI" for X on qubit 1 or "ZY"
    for Z1 Y2; each allowed label is purely off-diagonal with respect to
    the code. Child seed order: one bath operator per sorted label, one
    reserved for the optional collective dephasing term (Z1 + Z2), and the
    free bath Hamiltonian last, so toggling the collective term does not
    reshuffle the other draws.
    """
    labels = sorted(set(leak_set))
    if not labels:
        raise ValueError("leak_set must name at least one coupling")
    bad = [lab for lab in labels if lab not in DFS2_LEAK_LABELS]
    if bad:
        raise ValueError(
            f"unsupported leakage labels {bad}; allowed: {', '.join(DFS2_LEAK_LABELS)}"
        )
    code = codes_mod.dfs2_dephasing()
    seeds = derived_seeds(bath_seed, len(labels) + 2)
    terms: list[tuple[float, Operator, Operator]] = []
    for i, lab in enumerate(labels):
        bath_op = random_hermitian(bath_dim, seeds[0] if shared_bath else seeds[i])
        terms.append((g, pauli_string(lab), bath_op))
    if collective_strength != 0.0:
        collective = Operator(pauli_string("ZI").mat + pauli_string("IZ").mat,
                              frozenset({"hermitian"}))
        terms.append(
            (collective_strength, collective,
             random_hermitian(bath_dim, seeds[-2]))
        )
    h_bath = random_hermitian(bath_dim, seeds[-1])
    return SystemBathModel.from_terms(code, terms, free_bath=h_bath)


# ---------------------------------------------------------------------------
# config-driven construction
# ---------------------------------------------------------------------------


def parsed(cast, mapping: Mapping, key: str):
    """cast(mapping[key]); a missing or rejected value is a ValueError that
    names key."""
    if key not in mapping:
        raise ValueError(f"config needs {key!r}")
    try:
        return cast(mapping[key])
    except (TypeError, ValueError) as err:
        raise ValueError(f"config {key!r} has a bad value: {err}") from err


def _finite(value) -> float:
    """A finite JSON number: NaN and infinities are refused."""
    if not isfinite(x := json_number(value)):
        raise ValueError(f"expected a finite number, got {x}")
    return x


def at_least(low: int):
    """A reader of JSON integers of at least low: a seed's 0, a dim's 1."""
    def read(value) -> int:
        if (n := json_int(value)) < low:
            raise ValueError(f"expected at least {low}, got {n}")
        return n
    return read


def _labels(value) -> list[str]:
    """A sequence of JSON strings; a bare string is refused, not read as
    its letters."""
    if isinstance(value, str) or not isinstance(value, Sequence):
        raise TypeError(f"expected a list of strings, got {value!r}")
    return [json_str(label) for label in value]


_PARAMS = {
    "hopping": {"n_levels": json_int, "shared_bath": json_bool},
    "linear_optics": {"shared_bath": json_bool},
    "dfs2_leakage": {"leak_set": _labels, "shared_bath": json_bool,
                     "collective_strength": _finite},
}
MODEL_NAMES = tuple(_PARAMS)


def model_from_config(config: Mapping) -> SystemBathModel:
    """Build a model from the JSON config layout.

    Expected keys: "model" (one of MODEL_NAMES), "g", "seed" (at least 0),
    optional "bath_dim" (at least 1), and a "params" object with the
    model-specific fields (_PARAMS); dfs2_leakage needs "leak_set". Only the optional keys a
    config gives reach the builder, so its signature holds their defaults;
    hopping_model has none for n_levels, which is 4 here.
    """
    if not isinstance(config, Mapping):
        raise ValueError("model config must be an object")
    name = config.get("model")
    if name not in MODEL_NAMES:
        raise ValueError(
            f"unknown model {name!r}; valid models: {', '.join(MODEL_NAMES)}"
        )
    params = config.get("params", {})
    if not isinstance(params, Mapping):
        raise ValueError("model params must be an object")
    readers = _PARAMS[name]
    unknown = sorted(set(params) - set(readers))
    if unknown:
        raise ValueError(
            f"unknown params for model {name!r}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(readers))}"
        )
    g = parsed(_finite, config, "g")
    seed = parsed(at_least(0), config, "seed")
    given = {key: parsed(readers[key], params, key) for key in params}
    if "bath_dim" in config:
        given["bath_dim"] = parsed(at_least(1), config, "bath_dim")
    if name == "hopping":
        return hopping_model(given.pop("n_levels", 4), seed, g, **given)
    if name == "linear_optics":
        return linear_optics_model(seed, g, **given)
    if "leak_set" not in given:
        raise ValueError("config needs 'leak_set'")
    return dfs2_leakage_model(g=g, bath_seed=seed, **given)
