import dataclasses

import numpy as np
import pytest
from model_split import explicit_split

from leolab.classify import decompose
from leolab.codes import (
    bare_qubit_code,
    dfs2_dephasing,
    dfs3_collective,
    dual_rail_code,
    lift_quadratic,
)
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
        m = SystemBathModel.from_terms(
            code, [(0.5, pauli_string("XI"), b)], bath_dim=2,
        )
        h_c, h_perp, h_l = explicit_split(m)
        assert np.linalg.norm(h_c) <= 1e-15
        assert np.linalg.norm(h_perp) <= 1e-15
        assert np.linalg.norm(h_l) > 0.1

    def test_bath_dim_mismatch_rejected(self):
        code = dfs2_dephasing()
        b = Operator(np.eye(3, dtype=complex), frozenset({"hermitian"}))
        with pytest.raises(ValueError):
            SystemBathModel.from_terms(
                code, [(1.0, pauli_string("XI"), b)], bath_dim=2,
            )

    def test_system_dim_mismatch_rejected(self):
        b = Operator(np.eye(2, dtype=complex), frozenset({"hermitian"}))
        with pytest.raises(DimensionMismatchError, match="ambient dim 4"):
            SystemBathModel.from_terms(
                dfs2_dephasing(), [(1.0, pauli_string("XIX"), b)], bath_dim=2,
            )

    def test_dfs3_limit_matches_explicit_split(self):
        # a dense code projector, so the derived generator is not a masked
        # copy of h_joint: the limit must agree with the kron(P, I) formula
        code = dfs3_collective()
        terms = [(0.3, random_hermitian(8, 10 + i), random_hermitian(3, 20 + i))
                 for i in range(3)]
        m = SystemBathModel.from_terms(
            code, terms, bath_dim=3, free_bath=random_hermitian(3, 30),
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
            frozenset({"hermitian", "diagonal"}),
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
