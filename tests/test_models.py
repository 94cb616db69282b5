import dataclasses

import numpy as np
import pytest
from model_split import explicit_split
from pair_models import MODELS as PAIR_MODELS

from leolab.classify import decompose
from leolab.codes import (
    bare_qubit_code,
    dfs2_dephasing,
    dfs3_collective,
    dual_rail_code,
    lift_quadratic,
)
from leolab import models as models_mod
from leolab.dynamics import decoupled_limit_unitary
from leolab.models import (
    DFS2_LEAK_LABELS,
    SystemBathModel,
    dfs2_leakage_model,
    hopping_model,
    linear_optics_model,
    logical_ops_dfs2,
    model_from_config,
)
from leolab.opalg import (
    DimensionMismatchError,
    Operator,
    hermitian_exponential,
    pauli_string,
    random_hermitian,
)


class TestLogicalOps:
    def test_x_swaps_code_states(self):
        x = logical_ops_dfs2().x
        v01 = np.zeros(4, dtype=complex)
        v01[1] = 1.0
        v10 = np.zeros(4, dtype=complex)
        v10[2] = 1.0
        np.testing.assert_allclose(x.mat @ v01, v10, atol=1e-15)

    def test_z_signs(self):
        z = logical_ops_dfs2().z
        v01 = np.zeros(4, dtype=complex)
        v01[1] = 1.0
        v10 = np.zeros(4, dtype=complex)
        v10[2] = 1.0
        np.testing.assert_allclose(z.mat @ v01, v01, atol=1e-15)
        np.testing.assert_allclose(z.mat @ v10, -v10, atol=1e-15)

    def test_pure_code_action(self):
        code = dfs2_dephasing()
        ops = logical_ops_dfs2()
        for op in (ops.x, ops.y, ops.z):
            dec = decompose(op, code)
            assert dec.l_norm <= 1e-15
            assert dec.eperp_norm <= 1e-15

    def test_su2_on_code(self):
        code = dfs2_dephasing()
        ops = logical_ops_dfs2()
        v = code.basis
        comm = ops.x.mat @ ops.y.mat - ops.y.mat @ ops.x.mat
        assert np.linalg.norm(v.conj().T @ (comm - 2j * ops.z.mat) @ v) <= 1e-12

    def test_commute_with_collective_dephasing(self):
        zsum = pauli_string("ZI").mat + pauli_string("IZ").mat
        ops = logical_ops_dfs2()
        for op in (ops.x, ops.y, ops.z):
            assert np.linalg.norm(op.mat @ zsum - zsum @ op.mat) <= 1e-12


def _recoupled_y_rotation(theta):
    """exp(i pi/4 x) exp(-i theta z) exp(-i pi/4 x): y built from x and z."""
    ops = logical_ops_dfs2()
    return (hermitian_exponential(ops.x, np.pi / 4).mat
            @ hermitian_exponential(ops.z, -theta).mat
            @ hermitian_exponential(ops.x, -np.pi / 4).mat)


class TestRecoupledYRotation:
    def test_zero_angle_identity_on_code(self):
        code = dfs2_dephasing()
        u = _recoupled_y_rotation(0.0)
        assert np.linalg.norm(u @ code.basis - code.basis) <= 1e-12

    @pytest.mark.parametrize("theta", [np.pi / 2, 1.234, -0.7, 5.9])
    def test_matches_direct_y_rotation(self, theta):
        u = _recoupled_y_rotation(theta)
        direct = hermitian_exponential(logical_ops_dfs2().y, -theta)
        assert np.linalg.norm(u - direct.mat) <= 1e-12

    def test_hundred_point_grid(self):
        y = logical_ops_dfs2().y
        worst = 0.0
        for theta in np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False):
            u = _recoupled_y_rotation(float(theta))
            direct = hermitian_exponential(y, -float(theta))
            worst = max(worst, float(np.linalg.norm(u - direct.mat)))
        assert worst <= 1e-12


class TestSystemBathModel:
    def test_stores_only_the_joint_hamiltonian(self):
        names = [f.name for f in dataclasses.fields(SystemBathModel)]
        assert names == ["code", "h_joint"]

    BUILDERS = {
        "dfs2": lambda b: dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=b),
        "hopping": lambda b: hopping_model(5, seed=7, g=0.1, bath_dim=b),
        "linear_optics": lambda b: linear_optics_model(5, 0.2, bath_dim=b),
    }

    @pytest.mark.parametrize("name", sorted(BUILDERS))
    @pytest.mark.parametrize("bath_dim", [1, 3, 7])
    def test_bath_dim_read_off_h_joint(self, name, bath_dim):
        m = self.BUILDERS[name](bath_dim)
        assert m.bath_dim == bath_dim
        assert m.joint_dim == m.system_dim * bath_dim == m.h_joint.dim

    def test_h_joint_not_a_multiple_of_the_code_rejected(self):
        h = Operator(np.eye(6, dtype=complex), frozenset({"hermitian"}))
        with pytest.raises(ValueError, match="not a multiple"):
            SystemBathModel(dfs2_dephasing(), h)

    def test_dims(self):
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3)
        assert m.system_dim == 4
        assert m.joint_dim == 16
        assert m.h_joint.dim == 16

    def test_default_bath_state(self):
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3)
        expect = np.zeros(4, dtype=complex)
        expect[0] = 1.0
        np.testing.assert_array_equal(m.initial_bath_state, expect)

    def test_from_terms_classifies_parts(self):
        code = dfs2_dephasing()
        b = Operator(np.eye(2, dtype=complex), frozenset({"hermitian"}))
        m = SystemBathModel.from_terms(code, [(0.5, pauli_string("XI"), b)])
        h_c, h_perp, h_l = explicit_split(m)
        assert np.linalg.norm(h_c) <= 1e-15
        assert np.linalg.norm(h_perp) <= 1e-15
        assert np.linalg.norm(h_l) > 0.1

    def test_bath_dim_read_off_the_factors(self):
        b = random_hermitian(3, 1)
        m = SystemBathModel.from_terms(dfs2_dephasing(),
                                       [(1.0, pauli_string("XI"), b)])
        assert m.bath_dim == 3
        m = SystemBathModel.from_terms(dfs2_dephasing(), [], free_bath=b)
        assert m.bath_dim == 3
        np.testing.assert_array_equal(m.h_joint.mat, np.kron(np.eye(4), b.mat))

    def test_second_bath_factor_mismatch_rejected(self):
        terms = [(1.0, pauli_string("XI"), random_hermitian(2, 1)),
                 (1.0, pauli_string("IX"), random_hermitian(3, 2))]
        with pytest.raises(ValueError, match="bath factor dimension mismatch"):
            SystemBathModel.from_terms(dfs2_dephasing(), terms)

    def test_free_bath_mismatch_rejected(self):
        with pytest.raises(ValueError, match="free bath Hamiltonian dimension"):
            SystemBathModel.from_terms(
                dfs2_dephasing(), [(1.0, pauli_string("XI"), random_hermitian(2, 1))],
                free_bath=random_hermitian(3, 2))

    def test_no_term_and_no_free_bath_rejected(self):
        with pytest.raises(ValueError, match="a term or a free bath"):
            SystemBathModel.from_terms(dfs2_dephasing(), [])

    def test_system_dim_mismatch_rejected(self):
        b = Operator(np.eye(2, dtype=complex), frozenset({"hermitian"}))
        with pytest.raises(DimensionMismatchError, match="ambient dim 4"):
            SystemBathModel.from_terms(
                dfs2_dephasing(), [(1.0, pauli_string("XIX"), b)])

    def test_dfs3_limit_matches_explicit_split(self):
        # a dense code projector, so the derived generator is not a masked
        # copy of h_joint: the limit must agree with the kron(P, I) formula
        code = dfs3_collective()
        terms = [(0.3, random_hermitian(8, 10 + i), random_hermitian(3, 20 + i))
                 for i in range(3)]
        m = SystemBathModel.from_terms(
            code, terms, free_bath=random_hermitian(3, 30),
        )
        h_c, h_perp, h_l = explicit_split(m)
        assert np.linalg.norm(h_l) > 0.1
        explicit = hermitian_exponential(
            Operator(h_c + h_perp, frozenset({"hermitian"})), -1.7).mat
        assert np.linalg.norm(
            decoupled_limit_unitary(m, 1.7).mat - explicit) <= 1e-12


class TestHoppingModel:
    def test_zero_coupling_is_free_bath(self):
        m = hopping_model(4, seed=7, g=0.0)
        h_bath_part = m.h_joint.mat
        # block structure: identity on the system tensor the free bath
        bath = h_bath_part[:4, :4]
        expect = np.kron(np.eye(4), bath)
        np.testing.assert_allclose(h_bath_part, expect, atol=1e-14)
        assert np.linalg.norm(explicit_split(m)[2]) <= 1e-15

    def test_seed7_leaks(self):
        m = hopping_model(4, seed=7, g=0.1)
        assert np.linalg.norm(explicit_split(m)[2]) > 0.01

    def test_deterministic_rebuild(self):
        a = hopping_model(4, seed=7, g=0.1)
        b = hopping_model(4, seed=7, g=0.1)
        np.testing.assert_array_equal(a.h_joint.mat, b.h_joint.mat)

    def test_code_is_bare(self):
        assert hopping_model(4, seed=7, g=0.1).code.label == "bare4"

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            hopping_model(2, seed=0, g=0.1)

    def test_shared_bath_variant(self):
        a = hopping_model(4, seed=7, g=0.1, shared_bath=True)
        b = hopping_model(4, seed=7, g=0.1, shared_bath=False)
        assert np.max(np.abs(a.h_joint.mat - b.h_joint.mat)) > 1e-6


class TestLinearOpticsModel:
    def test_diagonal_coefficients_do_not_leak(self):
        lifted = lift_quadratic(np.diag([0.3, 1.0, -0.2, 0.8]).astype(complex))
        assert decompose(lifted, dual_rail_code()).l_norm <= 1e-14

    def test_beam_splitter_leaks(self):
        coeff = np.zeros((4, 4), dtype=complex)
        coeff[0, 2] = coeff[2, 0] = 1.0
        lifted = lift_quadratic(coeff)
        assert decompose(lifted, dual_rail_code()).l_norm > 0.5

    def test_generic_model_leaks(self):
        m = linear_optics_model(seed=5, g=0.2)
        assert m.system_dim == 10
        assert m.joint_dim == 10
        assert np.linalg.norm(explicit_split(m)[2]) > 1e-3

    def test_nontrivial_bath(self):
        m = linear_optics_model(seed=5, g=0.2, bath_dim=2)
        assert m.joint_dim == 20
        assert np.linalg.norm(explicit_split(m)[2]) > 1e-3


class TestDfs2LeakageModel:
    def test_single_x_term_is_pure_leakage(self):
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3)
        # all coupling weight sits in h_l; code and outside parts carry
        # only the free bath, so their sum is identity tensor bath
        h_c, h_perp, h_l = explicit_split(m)
        assert np.linalg.norm(h_l) > 0.01
        block_diag = h_c + h_perp
        bath = block_diag[:4, :4]
        np.testing.assert_allclose(block_diag, np.kron(np.eye(4), bath),
                                   atol=1e-14)
        assert decompose(pauli_string("XI"), m.code).l_norm == pytest.approx(
            2.0, abs=1e-12
        )

    def test_collective_term_adds_no_leakage(self):
        base = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3)
        with_coll = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3,
                                       collective_strength=0.3)
        np.testing.assert_allclose(explicit_split(with_coll)[2],
                                   explicit_split(base)[2], atol=1e-14)
        assert np.max(np.abs(with_coll.h_joint.mat - base.h_joint.mat)) > 1e-6

    def test_collective_operator_classifies_clean(self):
        zsum = Operator(
            pauli_string("ZI").mat + pauli_string("IZ").mat,
            frozenset({"hermitian"}),
        )
        dec = decompose(zsum, dfs2_dephasing())
        assert dec.l_norm <= 1e-15
        assert dec.e_norm <= 1e-15

    def test_zero_coupling_keeps_free_bath_only(self):
        m = dfs2_leakage_model(("XI",), g=0.0, bath_seed=3)
        bath = m.h_joint.mat[:4, :4]
        np.testing.assert_allclose(m.h_joint.mat, np.kron(np.eye(4), bath),
                                   atol=1e-14)

    def test_empty_leak_set_rejected(self):
        with pytest.raises(ValueError):
            dfs2_leakage_model((), g=0.1, bath_seed=0)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError, match="XX"):
            dfs2_leakage_model(("XX",), g=0.1, bath_seed=0)

    def test_label_order_does_not_matter(self):
        a = dfs2_leakage_model(("XI", "IY"), g=0.1, bath_seed=3)
        b = dfs2_leakage_model(("IY", "XI"), g=0.1, bath_seed=3)
        np.testing.assert_array_equal(a.h_joint.mat, b.h_joint.mat)

    def test_benchmark_fingerprint(self, golden):
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=4)
        fp = golden["model_fingerprint"]
        h = m.h_joint.mat
        assert np.linalg.norm(h) == pytest.approx(fp["h_joint_fro"], abs=1e-12)
        h_c, h_perp, h_l = explicit_split(m)
        assert np.linalg.norm(h_c) == pytest.approx(fp["h_c_fro"], abs=1e-12)
        assert np.linalg.norm(h_perp) == pytest.approx(fp["h_perp_fro"],
                                                       abs=1e-12)
        assert np.linalg.norm(h_l) == pytest.approx(fp["h_l_fro"], abs=1e-12)
        assert h[0, 0].real == pytest.approx(fp["h_joint_0_0_re"], abs=1e-15)
        assert h[0, 8].real == pytest.approx(fp["h_joint_0_8_re"], abs=1e-15)
        assert h[0, 9].real == pytest.approx(fp["h_joint_0_9_re"], abs=1e-15)
        assert h[0, 9].imag == pytest.approx(fp["h_joint_0_9_im"], abs=1e-15)
        assert h[4, 5].real == pytest.approx(fp["h_joint_4_5_re"], abs=1e-15)
        assert h[4, 5].imag == pytest.approx(fp["h_joint_4_5_im"], abs=1e-15)


def frame_hamiltonian(m):
    """H' = (F^dag x I) H_joint (F x I), F the code's frame, by kron."""
    f = np.kron(m.code.frame, np.eye(m.bath_dim))
    return f.conj().T @ m.h_joint.mat @ f


class TestSectors:
    """SystemBathModel.spectra splits H' into the connected components of
    its exact nonzero pattern. Every allowed dfs2 label flips one qubit and
    keeps the other's Z, so one label gives two sectors of J/2, each with
    half of the code rows."""

    @staticmethod
    def sizes(m):
        """(rows, code rows) of every sector, a copy's as its own, in the
        order of their first rows."""
        sizes = [(rows[0], rows.size, s.n_code) for s in m.spectra for rows in s.rows]
        return [size[1:] for size in sorted(sizes)]

    @pytest.mark.parametrize("bath_dim", range(1, 9))
    @pytest.mark.parametrize("label", DFS2_LEAK_LABELS)
    def test_single_label_gives_two_halves(self, label, bath_dim):
        for collective in (0.0, 0.3):
            m = dfs2_leakage_model([label], g=0.05, bath_seed=3, bath_dim=bath_dim,
                                   collective_strength=collective)
            assert self.sizes(m) == [(2 * bath_dim, bath_dim)] * 2

    @pytest.mark.parametrize("bath_dim", range(2, 9))
    def test_labels_keeping_the_same_z_give_two_halves(self, bath_dim):
        for collective in (0.0, 0.3):
            m = dfs2_leakage_model(["XI", "XZ"], g=0.05, bath_seed=3,
                                   bath_dim=bath_dim, collective_strength=collective)
            assert self.sizes(m) == [(2 * bath_dim, bath_dim)] * 2

    def test_an_exact_cancellation_splits_further(self):
        # at bath dim 1 the two bath factors are -1 and +1, so the coupling
        # is -g X (I - Z) = -2g X x |1><1|: the q2 = 0 half falls apart
        # into its code state |10> and its leaked state |00>, exactly
        m = dfs2_leakage_model(["XI", "XZ"], g=0.05, bath_seed=3, bath_dim=1)
        assert self.sizes(m) == [(2, 1), (1, 1), (1, 0)]

    @pytest.mark.parametrize("build", [
        lambda: dfs2_leakage_model(["XI", "IX"], g=0.05, bath_seed=3, bath_dim=3),
        lambda: hopping_model(5, seed=7, g=0.2, bath_dim=3),
        lambda: linear_optics_model(seed=5, g=0.2),
        lambda: linear_optics_model(seed=5, g=0.2, bath_dim=3),
    ], ids=["dfs2_xi_ix", "hopping5", "linear_optics", "linear_optics_bath3"])
    def test_no_conserved_z_gives_one_sector(self, build):
        m = build()
        assert self.sizes(m) == [(m.joint_dim, m.code.code_dim * m.bath_dim)]

    @pytest.mark.parametrize("build", [
        lambda: dfs2_leakage_model(["XI"], g=0.05, bath_seed=3, bath_dim=4),
        lambda: dfs2_leakage_model(["ZY"], g=0.05, bath_seed=3, bath_dim=5,
                                   collective_strength=0.3),
        lambda: dfs2_leakage_model(["XI", "XZ"], g=0.05, bath_seed=3, bath_dim=1),
        lambda: hopping_model(5, seed=7, g=0.2, bath_dim=3),
    ], ids=["dfs2_xi", "dfs2_zy_collective", "dfs2_xi_xz_bath1", "hopping5"])
    def test_frame_hamiltonian_is_exactly_zero_between_sectors(self, build):
        m = build()
        h = frame_hamiltonian(m)
        kb = m.code.code_dim * m.bath_dim
        copies = [(s, r) for s in m.spectra for r in s.rows]  # a row set each
        rows = [r for _, r in copies]
        np.testing.assert_array_equal(np.sort(np.concatenate(rows)),
                                      np.arange(m.joint_dim))
        for a, (sector, r) in enumerate(copies):
            c = sector.n_code
            assert np.all(np.diff(r) > 0)
            assert c == np.sum(r < kb)
            for b, other in enumerate(rows):
                if a != b:
                    assert not np.any(h[np.ix_(r, other)])
            # each spectrum rebuilds every copy's block of H', or for a pair
            # its halves A +- zeta G
            blk = h[np.ix_(r, r)]
            if sector.zeta is None:
                (joint,) = sector.blocks
                parts = [(joint, blk)]
            else:
                k = sector.zeta * blk[:c, c:]
                parts = list(zip(sector.blocks, (blk[:c, :c] + k, blk[:c, :c] - k)))
            parts += [(sector.code, blk[:c, :c]), (sector.complement, blk[c:, c:])]
            for (w, v), part in parts:
                np.testing.assert_allclose((v * w) @ v.conj().T, part, atol=1e-14)

    def test_finder_splits_exact_zero_patterns_only(self):
        h = np.zeros((5, 5))
        h[0, 3] = h[3, 0] = 1e-300
        h[1, 4] = h[4, 1] = 2.0
        h[2, 2] = 1.0
        got = models_mod._sector_rows(h)
        assert [r.tolist() for r in got] == [[0, 3], [1, 4], [2]]
        assert [r.tolist() for r in models_mod._sector_rows(np.ones((3, 3)))] == [[0, 1, 2]]

    def test_finder_links_one_sided_entries(self):
        # rounding can leave one of h[i, j] and h[j, i] exactly zero: the
        # other still links i and j, and the sectors partition the rows
        h = np.zeros((5, 5))
        h[3, 0] = 1e-300
        h[1, 2] = 1.0
        got = [r.tolist() for r in models_mod._sector_rows(h)]
        assert got == [[0, 3], [1, 2], [4]]
        assert [r.tolist() for r in models_mod._sector_rows(h.T)] == got


class TestCopies:
    """Sectors with as many code rows and exactly equal blocks of H' are
    one Sector with a row set per copy, diagonalized once. X on one qubit
    acts alike on both halves; a Z on the other qubit, a Y's phase or the
    collective term's sign on the leaked state tells them apart, and such
    blocks are kept apart rather than merged up to a sign or phase."""

    @pytest.mark.parametrize("bath_dim", [1, 4, 16])
    @pytest.mark.parametrize("label", ["XI", "IX"])
    def test_one_qubit_x_gives_copies(self, label, bath_dim):
        m = dfs2_leakage_model([label], g=0.05, bath_seed=3, bath_dim=bath_dim)
        (sector,) = m.spectra
        assert sector.rows.shape == (2, 2 * bath_dim)
        assert sector.n_code == bath_dim
        h = frame_hamiltonian(m)
        first, second = (h[np.ix_(r, r)] for r in sector.rows)
        np.testing.assert_array_equal(first, second)

    @pytest.mark.parametrize("build", [
        lambda: dfs2_leakage_model(["XZ"], g=0.05, bath_seed=3, bath_dim=4),
        lambda: dfs2_leakage_model(["YI"], g=0.05, bath_seed=3, bath_dim=4),
        lambda: dfs2_leakage_model(["ZX"], g=0.05, bath_seed=3, bath_dim=4),
        lambda: dfs2_leakage_model(["XI"], g=0.05, bath_seed=3, bath_dim=4,
                                   collective_strength=0.3),
    ], ids=["XZ", "YI", "ZX", "XI_collective"])
    def test_blocks_apart_by_a_sign_or_phase_are_not_copies(self, build):
        m = build()
        assert [s.rows.shape for s in m.spectra] == [(1, 8), (1, 8)]

    def test_one_differing_entry_is_not_a_copy(self):
        code = dfs2_dephasing()
        bath = random_hermitian(4, 3)
        terms = [(0.05, pauli_string("XI"), bath)]
        merged = SystemBathModel.from_terms(code, terms)
        assert [s.rows.shape for s in merged.spectra] == [(2, 8)]
        # one diagonal entry of H' moves, on |01> x the first bath state
        one = np.zeros((4, 4), dtype=complex)
        one[1, 1] = 1.0
        first = np.zeros((4, 4), dtype=complex)
        first[0, 0] = 1.0
        herm = frozenset({"hermitian"})
        m = SystemBathModel.from_terms(
            code, [*terms, (2.0 ** -40, Operator(one, herm), Operator(first, herm))])
        h = frame_hamiltonian(m)
        assert [s.rows.tolist() for s in m.spectra] == [
            r[None].tolist() for r in merged.spectra[0].rows]
        a, b = (h[np.ix_(s.rows[0], s.rows[0])] for s in m.spectra)
        assert np.count_nonzero(a != b) == 1


class TestPairs:
    """A sector [[A, G], [G^dag, B]] pairs when it has as many code as
    complement rows, A == B and zeta G is Hermitian for zeta = 1 or 1j, all
    exact: it keeps the spectra of A + zeta G, A - zeta G and A, which is
    both its code and its complement spectrum."""

    @pytest.mark.parametrize("case", sorted(PAIR_MODELS))
    def test_which_sectors_pair(self, case):
        build, zetas = PAIR_MODELS[case]
        m = build()
        assert [s.zeta for s in m.spectra] == zetas
        h = frame_hamiltonian(m)
        for sector, zeta in zip(m.spectra, zetas):
            c = sector.n_code
            blk = h[np.ix_(sector.rows[0], sector.rows[0])]
            if zeta is None:
                assert len(sector.blocks) == 1
                continue
            k = zeta * blk[:c, c:]
            assert 2 * c == len(blk) and np.array_equal(blk[:c, :c], blk[c:, c:])
            assert np.array_equal(k, k.conj().T)
            assert sector.code is sector.complement
            # the halves' spectra together are the block's
            (wp, vp), (wm, vm) = sector.blocks
            np.testing.assert_allclose((vp * wp) @ vp.conj().T, blk[:c, :c] + k,
                                       atol=1e-14)
            np.testing.assert_allclose((vm * wm) @ vm.conj().T, blk[:c, :c] - k,
                                       atol=1e-14)
            np.testing.assert_allclose(np.sort(np.concatenate([wp, wm])),
                                       np.linalg.eigvalsh(blk), atol=1e-14)

    def test_unequal_row_counts_do_not_pair(self):
        # a lone leaked state and a block with no complement rows
        m = dfs2_leakage_model(["XI", "XZ"], g=0.05, bath_seed=3, bath_dim=1)
        assert [(s.rows.shape[1], s.n_code, s.zeta) for s in m.spectra] == [
            (2, 1, 1), (1, 1, None), (1, 0, None)]

    def test_every_collective_free_single_label_pairs(self):
        for label in DFS2_LEAK_LABELS:
            m = dfs2_leakage_model([label], g=0.05, bath_seed=3, bath_dim=4)
            zeta = 1j if "Y" in label else 1
            assert [s.zeta for s in m.spectra] == [zeta] * len(m.spectra), label


class TestDecoherenceFree:
    """SystemBathModel.decoherence_free holds when the code block of H' is
    exactly I_k x h: every allowed dfs2 label maps the code out of itself,
    and Z1 + Z2 vanishes on it, so only the free bath acts there."""

    @pytest.mark.parametrize("collective", [0.0, 0.3])
    @pytest.mark.parametrize("bath_dim", [1, 4, 16])
    @pytest.mark.parametrize("labels", [[lab] for lab in DFS2_LEAK_LABELS]
                             + [["XI", "IX"], ["XI", "XZ"]], ids=str)
    def test_every_dfs2_model(self, labels, bath_dim, collective):
        m = dfs2_leakage_model(labels, g=0.05, bath_seed=3, bath_dim=bath_dim,
                               collective_strength=collective)
        assert m.decoherence_free

    @pytest.mark.parametrize("build", [
        lambda: hopping_model(5, seed=7, g=0.2, bath_dim=3),
        lambda: hopping_model(8, seed=7, g=0.2, bath_dim=1),
        lambda: linear_optics_model(seed=5, g=0.2),
        lambda: linear_optics_model(seed=5, g=0.2, bath_dim=3),
    ], ids=["hopping5", "hopping8_bath1", "linear_optics", "linear_optics_bath3"])
    def test_hopping_and_linear_optics_are_not(self, build):
        assert not build().decoherence_free

    def test_one_ulp_in_the_code_block_is_not(self):
        # the test is exact: H_joint's entry on |01> x the first bath state
        # moves by one ulp, and so does H'[0, 0] (the dfs2 frame is a
        # permutation), away from its copy H'[b, b]
        code, herm = dfs2_dephasing(), frozenset({"hermitian"})
        m = SystemBathModel.from_terms(
            code, [(0.05, pauli_string("XI"), random_hermitian(4, 3))],
            free_bath=random_hermitian(4, 4))
        assert m.decoherence_free
        h = m.h_joint.mat.copy()
        h[4, 4] = np.nextafter(h[4, 4].real, np.inf)
        moved = SystemBathModel(code, Operator(h, herm))
        assert np.count_nonzero(frame_hamiltonian(moved) != frame_hamiltonian(m)) == 1
        assert not moved.decoherence_free

    def test_a_logical_term_is_not(self):
        m = SystemBathModel.from_terms(
            dfs2_dephasing(), [(0.05, logical_ops_dfs2().x, random_hermitian(4, 3))],
            free_bath=random_hermitian(4, 4))
        assert not m.decoherence_free


class TestCodeAndComplementSubBlocks:
    """Without the collective term, every dfs2 sector's code sub-block of
    H' is exactly its complement sub-block: the dfs2 frame is a
    permutation, and both are the free bath block. Z1 + Z2 is +-2 on the
    complement and 0 on the code, so with it they differ."""

    LABELS = [[lab] for lab in DFS2_LEAK_LABELS] + [["XI", "IX"], ["XI", "XZ"]]

    @staticmethod
    def sub_blocks(m):
        """(code, complement) sub-blocks of H' on each copy's rows, for
        every sector with both code and complement rows."""
        h = frame_hamiltonian(m)
        out = []
        for sector in m.spectra:
            c = sector.n_code
            for rows in sector.rows:
                if 0 < c < len(rows):
                    blk = h[np.ix_(rows, rows)]
                    out.append((blk[:c, :c], blk[c:, c:]))
        return out

    @pytest.mark.parametrize("bath_dim", [1, 4, 16])
    @pytest.mark.parametrize("labels", LABELS, ids=str)
    def test_equal_without_the_collective_term(self, labels, bath_dim):
        m = dfs2_leakage_model(labels, g=0.05, bath_seed=3, bath_dim=bath_dim)
        blocks = self.sub_blocks(m)
        assert blocks
        for code, complement in blocks:
            assert np.array_equal(code, complement)

    @pytest.mark.parametrize("bath_dim", [1, 4, 16])
    @pytest.mark.parametrize("labels", LABELS, ids=str)
    def test_differ_with_the_collective_term(self, labels, bath_dim):
        m = dfs2_leakage_model(labels, g=0.05, bath_seed=3, bath_dim=bath_dim,
                               collective_strength=0.3)
        blocks = self.sub_blocks(m)
        assert blocks
        for code, complement in blocks:
            assert not np.array_equal(code, complement)


class TestModelFromConfig:
    def test_dfs2_config(self):
        cfg = {
            "model": "dfs2_leakage",
            "params": {"leak_set": ["XI"]},
            "g": 0.05,
            "seed": 3,
            "bath_dim": 4,
        }
        m = model_from_config(cfg)
        direct = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=4)
        np.testing.assert_array_equal(m.h_joint.mat, direct.h_joint.mat)

    def test_hopping_config(self):
        cfg = {"model": "hopping", "params": {"n_levels": 4}, "g": 0.1,
               "seed": 7, "bath_dim": 4}
        m = model_from_config(cfg)
        assert m.code.label == "bare4"

    def test_linear_optics_config(self):
        cfg = {"model": "linear_optics", "params": {}, "g": 0.2, "seed": 5,
               "bath_dim": 1}
        assert model_from_config(cfg).system_dim == 10

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="hopping"):
            model_from_config({"model": "bogus", "params": {}, "g": 1.0,
                               "seed": 0, "bath_dim": 2})

    def test_missing_field(self):
        with pytest.raises(ValueError):
            model_from_config({"model": "hopping", "params": {}})

    def test_config_must_be_a_mapping(self):
        with pytest.raises(ValueError, match="must be an object"):
            model_from_config(["hopping"])

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            model_from_config({"model": "dfs2_leakage",
                               "params": {"leak_set": ["XI"], "junk": 1},
                               "g": 0.1, "seed": 0, "bath_dim": 2})

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_collective_strength_names_the_key(self, value):
        with pytest.raises(ValueError, match="'collective_strength'"):
            model_from_config({"model": "dfs2_leakage",
                               "params": {"leak_set": ["XI"],
                                          "collective_strength": value},
                               "g": 0.1, "seed": 0, "bath_dim": 2})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_g_names_the_key(self, value):
        with pytest.raises(ValueError, match="'g'"):
            model_from_config({"model": "hopping", "params": {}, "g": value,
                               "seed": 0})

    # each model's config with no optional key, and the builder call it
    # must equal when every optional argument is left to its default
    BARE = {
        "hopping": ({"model": "hopping", "g": 0.2, "seed": 7},
                    lambda **kw: hopping_model(4, 7, 0.2, **kw)),
        "linear_optics": ({"model": "linear_optics", "g": 0.2, "seed": 5},
                          lambda **kw: linear_optics_model(5, 0.2, **kw)),
        "dfs2_leakage": ({"model": "dfs2_leakage", "g": 0.05, "seed": 3,
                          "params": {"leak_set": ["XI", "XZ"]}},
                         lambda **kw: dfs2_leakage_model(["XI", "XZ"], 0.05, 3, **kw)),
    }
    # (model, config key, its params block or None for the top level,
    # value, the builder call it must equal; None: the call with no
    # optional argument, as the value is the builder's default)
    GIVEN = [
        ("hopping", "n_levels", "params", 5, lambda: hopping_model(5, 7, 0.2)),
        ("hopping", "n_levels", "params", 4, None),
        ("hopping", "shared_bath", "params", True,
         lambda: hopping_model(4, 7, 0.2, shared_bath=True)),
        ("hopping", "shared_bath", "params", False, None),
        ("hopping", "bath_dim", None, 3, lambda: hopping_model(4, 7, 0.2, bath_dim=3)),
        ("hopping", "bath_dim", None, 4, None),
        ("linear_optics", "shared_bath", "params", True, None),  # bath dim 1
        ("linear_optics", "shared_bath", "params", False, None),
        ("linear_optics", "bath_dim", None, 2,
         lambda: linear_optics_model(5, 0.2, bath_dim=2)),
        ("linear_optics", "bath_dim", None, 1, None),
        ("dfs2_leakage", "shared_bath", "params", True,
         lambda: dfs2_leakage_model(["XI", "XZ"], 0.05, 3, shared_bath=True)),
        ("dfs2_leakage", "shared_bath", "params", False, None),
        ("dfs2_leakage", "collective_strength", "params", 0.3,
         lambda: dfs2_leakage_model(["XI", "XZ"], 0.05, 3, collective_strength=0.3)),
        ("dfs2_leakage", "collective_strength", "params", 0, None),
        ("dfs2_leakage", "bath_dim", None, 2,
         lambda: dfs2_leakage_model(["XI", "XZ"], 0.05, 3, bath_dim=2)),
        ("dfs2_leakage", "bath_dim", None, 4, None),
    ]

    @pytest.mark.parametrize("name", sorted(BARE))
    def test_left_out_keys_take_the_builders_defaults(self, name):
        config, build = self.BARE[name]
        assert (model_from_config(config).h_joint.mat.tobytes()
                == build().h_joint.mat.tobytes())

    @pytest.mark.parametrize("name,key,block,value,want", GIVEN,
                             ids=[f"{n}.{k}={v!r}" for n, k, _, v, _ in GIVEN])
    def test_given_key_reaches_the_builder(self, name, key, block, value, want):
        config, build = self.BARE[name]
        config = {**config, "params": dict(config.get("params", {}))}
        (config[block] if block else config)[key] = value
        assert (model_from_config(config).h_joint.mat.tobytes()
                == (want or build)().h_joint.mat.tobytes())

    def test_every_key_given_at_once(self):
        config = {"model": "linear_optics", "params": {"shared_bath": True},
                  "g": 0.2, "seed": 5, "bath_dim": 3}
        got = model_from_config(config).h_joint.mat.tobytes()
        want = linear_optics_model(5, 0.2, bath_dim=3, shared_bath=True)
        assert got == want.h_joint.mat.tobytes()
        assert got != linear_optics_model(5, 0.2, bath_dim=3).h_joint.mat.tobytes()
        config = {"model": "dfs2_leakage", "g": 0.05, "seed": 3, "bath_dim": 2,
                  "params": {"leak_set": ["XZ", "XI"], "shared_bath": True,
                             "collective_strength": 0.3}}
        want = dfs2_leakage_model(["XI", "XZ"], 0.05, 3, bath_dim=2,
                                  shared_bath=True, collective_strength=0.3)
        assert model_from_config(config).h_joint.mat.tobytes() == \
            want.h_joint.mat.tobytes()

    @pytest.mark.parametrize("name,allowed", [
        ("hopping", "n_levels, shared_bath"),
        ("linear_optics", "shared_bath"),
        ("dfs2_leakage", "collective_strength, leak_set, shared_bath"),
    ])
    def test_unknown_param_message_lists_the_tables_keys(self, name, allowed):
        assert allowed == ", ".join(sorted(models_mod._PARAMS[name]))
        config = {"model": name, "params": {"junk": 1}, "g": 0.1, "seed": 0}
        with pytest.raises(ValueError) as err:
            model_from_config(config)
        assert str(err.value) == (f"unknown params for model {name!r}: junk; "
                                  f"allowed: {allowed}")

    def test_model_names_are_the_tables_keys(self):
        assert models_mod.MODEL_NAMES == ("hopping", "linear_optics",
                                          "dfs2_leakage")
        assert models_mod.MODEL_NAMES == tuple(models_mod._PARAMS)

    @pytest.mark.parametrize("leak_set", [["XI", 3], [None], ["XI", ["XZ"]],
                                          "XI", {"XI": 1}, 3],
                             ids=["int_entry", "null_entry", "list_entry",
                                  "string", "object", "number"])
    def test_leak_set_not_a_list_of_strings_names_the_key(self, leak_set):
        with pytest.raises(ValueError, match="'leak_set'"):
            model_from_config({"model": "dfs2_leakage",
                               "params": {"leak_set": leak_set},
                               "g": 0.1, "seed": 0})

    def test_missing_leak_set_names_the_key(self):
        with pytest.raises(ValueError, match="'leak_set'"):
            model_from_config({"model": "dfs2_leakage", "params": {},
                               "g": 0.1, "seed": 0})
