import numpy as np
import pytest

from leolab.codes import (
    CodeSubspace,
    SpinSector,
    bare_qubit_code,
    build_code,
    code_labels,
    collective_spin,
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

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_dimension_count(self, n):
        dec = spin_sector_decomposition(n)
        total = sum(s.multiplicity * s.block_dim for s in dec.sectors)
        assert total == 2**n
        for s in dec.sectors:
            assert s.block_dim == int(round(2 * s.spin + 1))
            assert s.multiplicity == spin_multiplicity(n, s.spin)

    def test_column_count_must_fill_whole_ladders(self):
        sector = spin_sector_decomposition(3).sector(0.5)
        with pytest.raises(ValueError, match="wrong number of columns"):
            SpinSector(0.5, sector.basis[:, :3])
        kept = SpinSector(0.5, sector.basis[:, :2])
        assert (kept.multiplicity, kept.block_dim) == (1, 2)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_sector_bases_diagonalize_s_squared(self, n):
        s2 = s_squared(n).mat
        dec = spin_sector_decomposition(n)
        for sector in dec.sectors:
            w = sector.basis
            ev = sector.spin * (sector.spin + 1)
            assert np.linalg.norm(s2 @ w - ev * w) <= 1e-10

    @pytest.mark.parametrize("n", [2, 3, 4])
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

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            spin_sector_decomposition(1)
        with pytest.raises(ValueError):
            spin_sector_decomposition(9)


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
    def test_matches_pauli_sums(self):
        sx, sy, sz = collective_spin(2)
        for got, name in ((sx, "X"), (sy, "Y"), (sz, "Z")):
            expect = 0.5 * (pauli_string(f"{name}I").mat
                            + pauli_string(f"I{name}").mat)
            assert np.linalg.norm(got - expect) <= 1e-14

    def test_su2_algebra(self):
        sx, sy, sz = collective_spin(3)
        comm = sx @ sy - sy @ sx
        assert np.linalg.norm(comm - 1j * sz) <= 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_bit_identical_to_kron_chains(self, n):
        paulis = (np.array([[0, 1], [1, 0]], dtype=complex),
                  np.array([[0, -1j], [1j, 0]], dtype=complex),
                  np.array([[1, 0], [0, -1]], dtype=complex))
        for got, pauli in zip(collective_spin(n), paulis):
            want = np.zeros((2**n, 2**n), dtype=complex)
            for site in range(n):
                chain = np.eye(1, dtype=complex)
                for i in range(n):
                    chain = np.kron(chain, pauli if i == site else np.eye(2))
                want += chain / 2.0
            assert np.array_equal(got, want)


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

