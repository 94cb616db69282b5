"""Independent reference results for the benchmark's correctness gate.

Nothing here imports leolab. Models are rebuilt from the shared recipe
(seeded Gaussian Hermitians, SeedSequence child seeds, assembly order) the
way bench/oracle.py does, propagators come from scipy.linalg.expm products,
and code fidelity is computed through purifications: for joint states psi
and target, with A and B their system x bath reshapes and C = P B,
F = ||A^dag C||_1^2 / tr(C C^dag) (Uhlmann's theorem). The library takes a
different route for each of these (eigendecomposition propagators, an
eigh-based matrix square root for the fidelity), so agreement is a real
cross-check.
"""

from __future__ import annotations

import itertools

import numpy as np

I2 = np.eye(2, dtype=complex)
PAULI = {
    "I": I2,
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def _expm(m: np.ndarray) -> np.ndarray:
    from scipy.linalg import expm

    return expm(m)


def random_hermitian(dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(int(seed))
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = (g + g.conj().T) / 2.0
    return h / np.linalg.norm(h, 2)


def derived_seeds(base: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(int(base)).generate_state(count)]


def pauli(label: str) -> np.ndarray:
    m = np.eye(1, dtype=complex)
    for c in label:
        m = np.kron(m, PAULI[c])
    return m


# ---------------------------------------------------------------------------
# codes, as projectors on the ambient space
# ---------------------------------------------------------------------------


def s_squared(n_qubits: int) -> np.ndarray:
    comps = []
    for name in "XYZ":
        s = sum(
            pauli("".join(name if i == k else "I" for i in range(n_qubits)))
            for k in range(n_qubits)
        ) / 2.0
        comps.append(s)
    return sum(s @ s for s in comps)


def spin_eigenspace(n_qubits: int, spin: float) -> np.ndarray:
    """Orthonormal basis of the S^2 = spin (spin + 1) eigenspace."""
    w, v = np.linalg.eigh(s_squared(n_qubits))
    return v[:, np.abs(w - spin * (spin + 1)) < 1e-6]


def two_photon_occupations() -> list[tuple[int, ...]]:
    return sorted(o for o in itertools.product(range(3), repeat=4) if sum(o) == 2)


def code_projector(label: str) -> np.ndarray:
    if label.startswith("bare"):
        return np.diag([1.0, 1.0] + [0.0] * (int(label[4:]) - 2)).astype(complex)
    if label == "dfs2":
        return np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
    if label in ("dfs3", "dfs4"):
        v = spin_eigenspace(int(label[3]), 0.5 if label == "dfs3" else 0.0)
        return v @ v.conj().T
    if label == "dual_rail":
        occs = two_photon_occupations()
        return np.diag([
            1.0 if o[0] + o[1] == 1 and o[2] + o[3] == 1 else 0.0 for o in occs
        ]).astype(complex)
    raise ValueError(f"no reference for code {label!r}")


def classify_table(n_qubits: int, p: np.ndarray, tol: float = 1e-12) -> dict:
    """Per Pauli string: (class, e_norm, eperp_norm, l_norm)."""
    q = np.eye(p.shape[0]) - p
    table = {}
    for chars in itertools.product("IXYZ", repeat=n_qubits):
        label = "".join(chars)
        m = pauli(label)
        e = float(np.linalg.norm(p @ m @ p))
        ep = float(np.linalg.norm(q @ m @ q))
        lk = float(np.linalg.norm(p @ m @ q + q @ m @ p))
        live = [e > tol, ep > tol, lk > tol]
        klass = "mixed" if sum(live) != 1 else ("E", "E_perp", "L")[live.index(True)]
        table[label] = (klass, e, ep, lk)
    return table


def spin_sectors(n_qubits: int) -> list[tuple[float, int, int]]:
    """(spin, multiplicity, block_dim) per sector, ascending spin."""
    w = np.linalg.eigvalsh(s_squared(n_qubits))
    out = []
    for twice in range(n_qubits % 2, n_qubits + 1, 2):
        spin = twice / 2.0
        count = int(np.sum(np.abs(w - spin * (spin + 1)) < 1e-6))
        if count:
            out.append((spin, count // (twice + 1), twice + 1))
    return out


# ---------------------------------------------------------------------------
# system-bath models and schedules
# ---------------------------------------------------------------------------


def dfs2_model(bath_seed: int, bath_dim: int, g: float) -> dict:
    """dfs2 code with the single leakage coupling X1 (leak set ["XI"])."""
    seeds = derived_seeds(bath_seed, 3)
    b = random_hermitian(bath_dim, seeds[0])
    h_bath = random_hermitian(bath_dim, seeds[-1])
    h_l = g * np.kron(pauli("XI"), b)
    h_dec = np.kron(np.eye(4), h_bath)  # P + Q carries the free bath term
    sys0 = np.zeros(4, dtype=complex)
    sys0[1] = 1.0  # |01>, the first code vector
    return {
        "h": h_dec + h_l, "h_dec": h_dec, "p": code_projector("dfs2"),
        "bath_dim": bath_dim, "sys0": sys0,
        "pulse": np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex),  # Z1 Z2
    }


def hopping_model(n_levels: int, seed: int, bath_dim: int, g: float) -> dict:
    """Bare-qubit code on an n-level mode, projector pulse I - 2P."""
    p = code_projector(f"bare{n_levels}")
    q = np.eye(n_levels) - p
    h_sys = random_hermitian(n_levels, seed)
    seeds = derived_seeds(seed, 4)
    b_c, b_perp, b_l, h_bath = (random_hermitian(bath_dim, s) for s in seeds)
    h_dec = (g * np.kron(p @ h_sys @ p, b_c) + g * np.kron(q @ h_sys @ q, b_perp)
             + np.kron(np.eye(n_levels), h_bath))
    h_l = g * np.kron(p @ h_sys @ q + q @ h_sys @ p, b_l)
    sys0 = np.zeros(n_levels, dtype=complex)
    sys0[0] = 1.0
    return {
        "h": h_dec + h_l, "h_dec": h_dec, "p": p, "bath_dim": bath_dim,
        "sys0": sys0, "pulse": np.eye(n_levels) - 2.0 * p,
    }


def _leakages(states: np.ndarray, q_sys: np.ndarray, bath_dim: int) -> np.ndarray:
    k = states.shape[0]
    outside = q_sys @ states.reshape(k, q_sys.shape[0], bath_dim)
    return np.sum(np.abs(outside) ** 2, axis=(1, 2))


def _fidelities(states: np.ndarray, targets: np.ndarray, p: np.ndarray,
                bath_dim: int) -> np.ndarray:
    k, sys_dim = states.shape[0], p.shape[0]
    a = states.reshape(k, sys_dim, bath_dim)
    c = p @ targets.reshape(k, sys_dim, bath_dim)
    norm = np.sum(np.abs(c) ** 2, axis=(1, 2))
    nuclear = np.linalg.svd(a.conj().transpose(0, 2, 1) @ c,
                            compute_uv=False).sum(axis=1)
    return np.where(norm > 0.0, nuclear**2 / np.where(norm > 0, norm, 1.0), 0.0)


def run_schedule(model: dict, n: int, tau: float, pulsed: bool,
                 samples: bool = True) -> dict:
    """Leakage and fidelity per cycle, and the distance to the decoupled limit."""
    h, h_dec, bath_dim = model["h"], model["h_dec"], model["bath_dim"]
    dim = h.shape[0]
    if pulsed:
        seg = _expm(-1j * h * tau)
        r = np.kron(model["pulse"], np.eye(bath_dim))
        cycle = seg @ r.conj().T @ seg @ r
    else:
        cycle = _expm(-1j * h * 2 * tau)
    u_total = np.linalg.matrix_power(cycle, n) if n else np.eye(dim)
    u_limit = _expm(-1j * h_dec * 2 * n * tau)
    q_sys = np.eye(model["p"].shape[0]) - model["p"]
    psi0 = np.kron(model["sys0"], np.eye(bath_dim)[0])
    out = {"distance": float(np.linalg.norm(u_total - u_limit, 2))}
    if not samples:
        psi = u_total @ psi0
        out["final_leakage"] = _leakages(psi[None], q_sys, bath_dim)[0]
        return out
    step = _expm(-1j * h_dec * 2 * tau)
    states = np.empty((n + 1, dim), dtype=complex)
    targets = np.empty_like(states)
    states[0] = targets[0] = psi0
    for k in range(1, n + 1):
        states[k] = cycle @ states[k - 1]
        targets[k] = step @ targets[k - 1]
    out["leakage"] = _leakages(states, q_sys, bath_dim)
    out["fidelity"] = _fidelities(states, targets, model["p"], bath_dim)
    out["final_leakage"] = float(out["leakage"][-1])
    return out
