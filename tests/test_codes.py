from math import sqrt

import numpy as np
import pytest

from leolab import codes
from leolab.codes import (
    CodeSubspace,
    SpinSector,
    bare_qubit_code,
    build_code,
    code_labels,
    dfs2_dephasing,
    dfs3_collective,
    dfs4_collective,
    dual_rail_code,
    lift_quadratic,
    s_squared,
    spin_multiplicity,
    spin_sector_decomposition,
    two_photon_occupations,
)
from leolab.opalg import pauli_string

ALL_CODES = ["dfs2", "dfs3", "dfs4", "dual_rail", "bare2", "bare3", "bare4"]


def basis_vec(dim, k):
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def kron_chain_spin(n):
    """Total spin components (Sx, Sy, Sz) of n qubits, each one half the sum
    over sites of the site's Pauli matrix as a dense kron chain."""
    paulis = (np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex))
    components = []
    for pauli in paulis:
        total = np.zeros((2**n, 2**n), dtype=complex)
        for site in range(n):
            chain = np.eye(1, dtype=complex)
            for i in range(n):
                chain = np.kron(chain, pauli if i == site else np.eye(2))
            total += chain / 2.0
        components.append(total)
    return tuple(components)


def dense_ladder_reference(n):
    """Spin sector bases from the dense collective-spin ladder: S+ and S- as
    Sx +- i Sy from kron chains, and each rung lowered by the full product
    S- @ rung."""
    dim = 2**n
    sx, sy, _ = kron_chain_spin(n)
    s_plus, s_minus = sx + 1j * sy, sx - 1j * sy
    blocks = {}
    for i in range(dim):
        blocks.setdefault(bin(i).count("1"), []).append(i)
    bases = {}
    for j in range(n // 2 + 1):
        spin = n / 2.0 - j
        mult = spin_multiplicity(n, spin)
        if mult == 0:
            continue
        hw = np.zeros((dim, mult), dtype=complex)
        if j == 0:
            hw[blocks[0][0], 0] = 1.0
        else:
            hw[blocks[j], :] = codes._null_space_deterministic(
                s_plus[np.ix_(blocks[j - 1], blocks[j])], mult)
        rungs = [hw]
        m = spin
        while m > -spin + 1e-9:
            rungs.append(s_minus @ rungs[-1] / sqrt((spin + m) * (spin - m + 1)))
            m -= 1.0
        bases[spin] = np.hstack(rungs[::-1])
    return bases


class TestCodeSubspace:
    def test_rejects_non_isometry(self):
        bad = np.ones((4, 2), dtype=complex)
        with pytest.raises(ValueError):
            CodeSubspace("bad", bad)

    def test_rejects_wide_basis(self):
        with pytest.raises(ValueError):
            CodeSubspace("bad", np.eye(2, 3, dtype=complex))

    @pytest.mark.parametrize("label", ALL_CODES)
    def test_isometry_and_projector_invariants(self, label):
        c = build_code(label)
        v = c.basis
        assert np.linalg.norm(v.conj().T @ v - np.eye(c.code_dim)) <= 1e-12
        p = c.projector
        assert np.linalg.norm(p @ p - p) <= 1e-12
        assert np.linalg.norm(p + c.complement_projector - np.eye(c.ambient_dim)) <= 1e-12

    @pytest.mark.parametrize("label", ALL_CODES)
    def test_frame_is_unitary_with_the_basis_first(self, label):
        c = build_code(label)
        f, k = c.frame, c.code_dim
        assert f.shape == (c.ambient_dim, c.ambient_dim)
        assert not f.flags.writeable
        # two Gram-Schmidt passes: orthonormal to a few eps (1.0e-15 seen)
        assert np.linalg.norm(f.conj().T @ f - np.eye(c.ambient_dim)) <= 1e-14
        np.testing.assert_array_equal(f[:, :k], c.basis)
        w = f[:, k:]
        assert np.linalg.norm(w @ w.conj().T - c.complement_projector) <= 1e-14

    @pytest.mark.parametrize("label", ALL_CODES)
    def test_frame_is_a_permutation_for_computational_codes(self, label):
        f = build_code(label).frame
        is_permutation = (bool(np.all((f == 0) | (f == 1)))
                          and np.array_equal(f.sum(axis=0), np.ones(len(f)))
                          and np.array_equal(f.sum(axis=1), np.ones(len(f))))
        assert is_permutation == (label not in ("dfs3", "dfs4"))

    @pytest.mark.parametrize("label", ALL_CODES)
    def test_rebuild_bit_identical(self, label):
        a = build_code(label)
        b = build_code(label)
        np.testing.assert_array_equal(a.basis, b.basis)


class TestBareQubitCode:
    def test_two_levels_is_full_space(self):
        c = bare_qubit_code(2)
        np.testing.assert_allclose(c.projector, np.eye(2), atol=1e-15)

    def test_four_levels_projector(self):
        c = bare_qubit_code(4)
        np.testing.assert_allclose(
            c.projector, np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-15
        )

    def test_complement_keeps_high_level(self):
        c = bare_qubit_code(4)
        v = basis_vec(4, 3)
        np.testing.assert_allclose(c.complement_projector @ v, v, atol=1e-15)

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            bare_qubit_code(1)


class TestDfs2:
    def test_code_states(self):
        c = dfs2_dephasing()
        np.testing.assert_allclose(c.projector @ basis_vec(4, 1), basis_vec(4, 1),
                                   atol=1e-15)
        np.testing.assert_allclose(c.projector @ basis_vec(4, 0), 0.0, atol=1e-15)

    def test_basis_order(self):
        c = dfs2_dephasing()
        np.testing.assert_array_equal(c.basis[:, 0], basis_vec(4, 1))
        np.testing.assert_array_equal(c.basis[:, 1], basis_vec(4, 2))

    def test_collective_dephasing_annihilates_code(self):
        c = dfs2_dephasing()
        zsum = pauli_string("ZI").mat + pauli_string("IZ").mat
        assert np.linalg.norm(zsum @ c.basis) <= 1e-12
        assert np.linalg.norm(zsum @ c.projector) <= 1e-12


class TestSSquared:
    def test_single_spin(self):
        s2 = s_squared(1)
        np.testing.assert_allclose(s2.mat, 0.75 * np.eye(2), atol=1e-14)

    def test_trace_four_qubits(self):
        assert np.trace(s_squared(4).mat).real == pytest.approx(48.0, abs=1e-10)

    def test_half_s_squared_eigenvalues_four_qubits(self):
        vals = np.linalg.eigvalsh(s_squared(4).mat / 2.0)
        assert np.allclose(np.unique(np.round(vals, 8)), [0.0, 1.0, 3.0], atol=1e-10)

    def test_permutation_symmetry(self):
        s2 = s_squared(3).mat
        # swap qubits 1 and 2 (most significant bits)
        swap = np.zeros((8, 8))
        for k in range(8):
            b = [(k >> 2) & 1, (k >> 1) & 1, k & 1]
            j = (b[1] << 2) | (b[0] << 1) | b[2]
            swap[j, k] = 1.0
        assert np.linalg.norm(swap @ s2 @ swap.T - s2) <= 1e-12

    def test_hermitian_tag(self):
        assert s_squared(2).is_hermitian()

    @pytest.mark.parametrize("n", [3.0, "3", None, 0, -1])
    def test_bad_register_size_is_value_error(self, n):
        with pytest.raises(ValueError):
            s_squared(n)

    def test_numpy_integer_register_size(self):
        assert np.array_equal(s_squared(np.int64(3)).mat, s_squared(3).mat)
        assert np.array_equal(s_squared(np.uint8(2)).mat, s_squared(2).mat)


class TestSpinSectors:
    def test_two_qubits(self):
        dec = spin_sector_decomposition(2)
        got = [(s.spin, s.multiplicity, s.block_dim) for s in dec.sectors]
        assert got == [(0.0, 1, 1), (1.0, 1, 3)]

    def test_three_qubits(self):
        dec = spin_sector_decomposition(3)
        got = [(s.spin, s.multiplicity, s.block_dim) for s in dec.sectors]
        assert got == [(0.5, 2, 2), (1.5, 1, 4)]

    def test_four_qubits(self):
        dec = spin_sector_decomposition(4)
        got = [(s.spin, s.multiplicity, s.block_dim) for s in dec.sectors]
        assert got == [(0.0, 2, 1), (1.0, 3, 3), (2.0, 1, 5)]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_dimension_count(self, n):
        dec = spin_sector_decomposition(n)
        total = sum(s.multiplicity * s.block_dim for s in dec.sectors)
        assert total == 2**n
        for s in dec.sectors:
            assert s.block_dim == int(round(2 * s.spin + 1))
            assert s.multiplicity == spin_multiplicity(n, s.spin)

    def test_absent_spin_is_a_key_error(self):
        dec = spin_sector_decomposition(4)
        for spin in (0.5, 3.0):
            with pytest.raises(KeyError, match=f"no sector with spin {spin}"):
                dec.sector(spin)

    def test_column_count_must_fill_whole_ladders(self):
        sector = spin_sector_decomposition(3).sector(0.5)
        with pytest.raises(ValueError, match="wrong number of columns"):
            SpinSector(0.5, sector.basis[:, :3])
        kept = SpinSector(0.5, sector.basis[:, :2])
        assert (kept.multiplicity, kept.block_dim) == (1, 2)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_sector_bases_diagonalize_s_squared(self, n):
        s2 = s_squared(n).mat
        dec = spin_sector_decomposition(n)
        for sector in dec.sectors:
            w = sector.basis
            ev = sector.spin * (sector.spin + 1)
            assert np.linalg.norm(s2 @ w - ev * w) <= 1e-10

    @pytest.mark.parametrize("n", range(2, 9))
    def test_full_basis_unitary(self, n):
        u = spin_sector_decomposition(n).full_basis()
        assert np.linalg.norm(u.conj().T @ u - np.eye(2**n)) <= 1e-12

    def test_sectors_mutually_orthogonal(self):
        dec = spin_sector_decomposition(4)
        for i, a in enumerate(dec.sectors):
            for b in dec.sectors[i + 1:]:
                assert np.linalg.norm(a.basis.conj().T @ b.basis) <= 1e-12

    def test_deterministic(self):
        a = spin_sector_decomposition(4).full_basis()
        b = spin_sector_decomposition(4).full_basis()
        np.testing.assert_array_equal(a, b)

    def test_sz_diagonal_within_sectors(self):
        sz = 0.5 * (pauli_string("ZII").mat + pauli_string("IZI").mat
                    + pauli_string("IIZ").mat)
        dec = spin_sector_decomposition(3)
        for sector in dec.sectors:
            w = sector.basis
            m = w.conj().T @ sz @ w
            assert np.linalg.norm(m - np.diag(np.diag(m))) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_equals_dense_ladder(self, n):
        # S- from its 0/1 entries, lowered onto the next block's rows only,
        # gives the bases of the dense Sx - i Sy ladder entry for entry
        dec = spin_sector_decomposition(n)
        want = dense_ladder_reference(n)
        assert [s.spin for s in dec.sectors] == sorted(want)
        for sector in dec.sectors:
            assert np.array_equal(sector.basis, want[sector.spin]), sector.spin

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            spin_sector_decomposition(1)
        with pytest.raises(ValueError):
            spin_sector_decomposition(9)

    @pytest.mark.parametrize("n", [3.0, 3.5, "3", None])
    def test_non_integer_size_is_value_error(self, n):
        with pytest.raises(ValueError, match="supported register sizes"):
            spin_sector_decomposition(n)

    def test_numpy_integer_size(self):
        got = spin_sector_decomposition(np.int64(3))
        want = spin_sector_decomposition(3)
        assert type(got.n_qubits) is int
        assert [type(s.spin) for s in got.sectors] == [float, float]
        assert [s.spin for s in got.sectors] == [s.spin for s in want.sectors]
        for a, b in zip(got.sectors, want.sectors):
            assert np.array_equal(a.basis, b.basis)


class TestSpinMultiplicity:
    def test_known_values(self):
        assert spin_multiplicity(3, 0.5) == 2
        assert spin_multiplicity(3, 1.5) == 1
        assert spin_multiplicity(4, 0.0) == 2
        assert spin_multiplicity(4, 1.0) == 3
        assert spin_multiplicity(4, 2.0) == 1

    def test_absent_spins_have_zero_multiplicity(self):
        assert spin_multiplicity(3, 1.0) == 0
        assert spin_multiplicity(4, 2.5) == 0
        assert spin_multiplicity(2, 7.0) == 0


class TestDfsCodes:
    def test_dfs3_dims(self):
        c = dfs3_collective()
        assert (c.ambient_dim, c.code_dim) == (8, 4)

    def test_dfs4_dims(self):
        c = dfs4_collective()
        assert (c.ambient_dim, c.code_dim) == (16, 2)
        assert c.ambient_dim - c.code_dim == 14

    def test_dfs4_singlets_annihilated(self):
        c = dfs4_collective()
        assert np.linalg.norm(s_squared(4).mat @ c.basis) <= 1e-12

    def test_dfs3_spans_half_spin_sector(self):
        c = dfs3_collective()
        s2 = s_squared(3).mat
        assert np.linalg.norm(s2 @ c.basis - 0.75 * c.basis) <= 1e-10


class TestCollectiveSpin:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bit_identical_to_kron_chains(self, n):
        # S+ S- + Sz^2 - Sz from the exact 0/1 lowering operator equals the
        # kron-chain Sx^2 + Sy^2 + Sz^2, symmetrized, byte for byte
        sx, sy, sz = kron_chain_spin(n)
        want = sx @ sx + sy @ sy + sz @ sz
        want = (want + want.conj().T) / 2.0
        assert s_squared(n).mat.tobytes() == want.tobytes()
        assert np.array_equal(codes._lowering(n), sx - 1j * sy)


class TestDualRail:
    def test_ambient_dim(self):
        assert dual_rail_code().ambient_dim == 10
        assert len(two_photon_occupations()) == 10

    def test_code_dim(self):
        assert dual_rail_code().code_dim == 4

    def test_occupations_lexicographic(self):
        occs = two_photon_occupations()
        assert occs == sorted(occs)
        assert all(sum(o) == 2 and len(o) == 4 for o in occs)

    def test_code_columns_are_rail_states(self):
        c = dual_rail_code()
        expected = [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]
        for col, occ in enumerate(expected):
            k = two_photon_occupations().index(occ)
            assert abs(c.basis[k, col] - 1.0) <= 1e-15
            assert np.count_nonzero(c.basis[:, col]) == 1

    def test_leakage_state_in_complement(self):
        c = dual_rail_code()
        v = basis_vec(10, two_photon_occupations().index((1, 1, 0, 0)))
        np.testing.assert_allclose(c.complement_projector @ v, v, atol=1e-15)


class TestLiftQuadratic:
    def test_diagonal_coeffs_lift_to_occupations(self):
        lifted = lift_quadratic(np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex))
        occs = two_photon_occupations()
        expect = np.diag([float(sum((i + 1) * n for i, n in enumerate(o)))
                          for o in occs])
        np.testing.assert_allclose(lifted.mat, expect, atol=1e-12)

    def test_hermitian_input_gives_hermitian_output(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        coeff = np.zeros((4, 4), dtype=complex)
        coeff[:2, :2] = a
        lifted = lift_quadratic(coeff)
        assert lifted.is_hermitian()

    def test_non_hermitian_input_gives_untagged_output(self):
        coeff = np.zeros((4, 4), dtype=complex)
        coeff[0, 2] = 1.0  # b1^dag b3 alone
        lifted = lift_quadratic(coeff)
        assert lifted.tags == frozenset()
        assert not lifted.is_hermitian()

    def test_beam_splitter_couples_rails(self):
        coeff = np.zeros((4, 4), dtype=complex)
        coeff[0, 2] = 1.0
        coeff[2, 0] = 1.0
        lifted = lift_quadratic(coeff)
        # moves a photon between modes 1 and 3: (1,0,1,0) connects to (2,0,0,0)
        i = two_photon_occupations().index((1, 0, 1, 0))
        j = two_photon_occupations().index((2, 0, 0, 0))
        assert abs(lifted.mat[j, i]) > 0.5

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            lift_quadratic(np.eye(3, dtype=complex))


class TestRegistry:
    def test_labels_listed(self):
        labels = code_labels()
        assert "dfs2" in labels and "dual_rail" in labels

    def test_build_all(self):
        for label in ALL_CODES:
            assert build_code(label).label == label

    def test_unknown_label_lists_valid(self):
        with pytest.raises(ValueError, match="dfs2"):
            build_code("nope")

    def test_bare_without_number_rejected(self):
        with pytest.raises(ValueError):
            build_code("bare")
        with pytest.raises(ValueError):
            build_code("bare1")

