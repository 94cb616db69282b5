"""Hamiltonian models: logical operators and seeded system-bath couplings
with a known leakage structure.

A model stores only its code and its joint Hamiltonian H_joint; the bath
dimension and the leakage-free part H_c + H_perp that parity kicks
converge to are derived from them. Builder inputs (seed, g) are not kept.

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
from typing import Mapping, Sequence

import numpy as np

from . import codes as codes_mod
from .classify import decompose
from .codes import CodeSubspace
from .opalg import (
    DimensionMismatchError,
    Operator,
    derived_seeds,
    hermitian_spectrum,
    json_bool,
    json_int,
    json_number,
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


@dataclass(frozen=True, eq=False)
class SystemBathModel:
    """Joint (system x bath) Hamiltonian H_joint against a code.

    Only the code and H_joint are stored; bath_dim is H_joint's dim over
    the code's ambient dim. The leakage-free part H_c + H_perp =
    (P x I) H (P x I) + (Q x I) H (Q x I), P the code projector and Q = 1 - P,
    is derived in spectra; the rest is the leakage coupling the kicks cancel.
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

    @cached_property
    def spectra(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Spectra (w, v) of h_joint and of the leakage-free H_c + H_perp,
        computed on first use and kept: one diagonalization per generator.
        Each (p x I) H (p x I) is two system-index contractions, as a kick."""
        h, j, s = self.h_joint.mat, self.joint_dim, self.system_dim
        h_c, h_perp = (
            (x.T @ (x @ h.reshape(s, -1)).reshape(j, s, -1)).reshape(j, j)
            for x in (self.code.projector, self.code.complement_projector))
        decoupled = Operator(h_c + h_perp, frozenset({"hermitian"}))
        out = (hermitian_spectrum(self.h_joint), hermitian_spectrum(decoupled))
        for w, v in out:
            w.setflags(write=False)
            v.setflags(write=False)
        return out

    @classmethod
    def from_terms(
        cls,
        code: CodeSubspace,
        terms: Sequence[tuple[float, Operator, Operator]],
        *,
        bath_dim: int,
        free_bath: Operator | None = None,
    ) -> "SystemBathModel":
        """Assemble H_joint = sum of w kron(S, B) over (weight w, system
        factor S, bath factor B) terms, plus kron(I, free_bath)."""
        s = code.ambient_dim
        h = np.zeros((s * bath_dim, s * bath_dim), dtype=complex)
        for weight, sys_op, bath_op in terms:
            if sys_op.dim != s:
                raise DimensionMismatchError(
                    f"system factor dim {sys_op.dim}, code ambient dim {s}")
            if bath_op.dim != bath_dim:
                raise ValueError("bath factor dimension mismatch")
            h += weight * np.kron(sys_op.mat, bath_op.mat)
        if free_bath is not None:
            if free_bath.dim != bath_dim:
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
    return SystemBathModel.from_terms(code, terms, bath_dim=bath_dim, free_bath=h_bath)


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
        raise ValueError("hopping model needs at least three levels to leak")
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
        one = Operator(np.ones((1, 1), dtype=complex),
                       frozenset({"hermitian", "diagonal"}))
        return SystemBathModel.from_terms(code, [(g, lifted, one)], bath_dim=1)
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
        collective = Operator(
            pauli_string("ZI").mat + pauli_string("IZ").mat,
            frozenset({"hermitian", "diagonal"}),
        )
        terms.append(
            (collective_strength, collective,
             random_hermitian(bath_dim, seeds[-2]))
        )
    h_bath = random_hermitian(bath_dim, seeds[-1])
    return SystemBathModel.from_terms(code, terms, bath_dim=bath_dim,
                                      free_bath=h_bath)


# ---------------------------------------------------------------------------
# config-driven construction
# ---------------------------------------------------------------------------

MODEL_NAMES = ("hopping", "linear_optics", "dfs2_leakage")


def parsed(cast, mapping: Mapping, key: str, default=None):
    """cast(mapping[key]), or default when key is absent (None: required);
    a missing or rejected value is a ValueError that names key."""
    if key not in mapping:
        if default is None:
            raise ValueError(f"config needs {key!r}")
        return default
    try:
        return cast(mapping[key])
    except (TypeError, ValueError) as err:
        raise ValueError(f"config {key!r} has a bad value: {err}") from err


def _finite(value) -> float:
    """A finite JSON number: NaN and infinities are refused."""
    if not isfinite(x := json_number(value)):
        raise ValueError(f"expected a finite number, got {x}")
    return x


def model_from_config(config: Mapping) -> SystemBathModel:
    """Build a model from the JSON config layout.

    Expected keys: "model" (one of hopping / linear_optics / dfs2_leakage),
    "g", "seed", optional "bath_dim", and a "params" object with the
    model-specific fields.
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
    allowed = {
        "hopping": {"n_levels", "shared_bath"},
        "linear_optics": {"shared_bath"},
        "dfs2_leakage": {"leak_set", "shared_bath", "collective_strength"},
    }[name]
    unknown = sorted(set(params) - allowed)
    if unknown:
        raise ValueError(
            f"unknown params for model {name!r}: {', '.join(unknown)}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )
    g = parsed(_finite, config, "g")
    seed = parsed(json_int, config, "seed")
    shared_bath = parsed(json_bool, params, "shared_bath", False)
    bath_dim = parsed(json_int, config, "bath_dim",
                      1 if name == "linear_optics" else 4)
    if name == "hopping":
        return hopping_model(
            parsed(json_int, params, "n_levels", 4), seed, g,
            bath_dim=bath_dim, shared_bath=shared_bath,
        )
    if name == "linear_optics":
        return linear_optics_model(
            seed, g, bath_dim=bath_dim, shared_bath=shared_bath,
        )
    leak_set = params.get("leak_set")
    if not isinstance(leak_set, Sequence) or isinstance(leak_set, str):
        raise ValueError("dfs2_leakage params need a 'leak_set' list")
    return dfs2_leakage_model(
        [str(s) for s in leak_set],
        g,
        seed,
        bath_dim=bath_dim,
        shared_bath=shared_bath,
        collective_strength=parsed(_finite, params, "collective_strength", 0.0),
    )
