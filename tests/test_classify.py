import numpy as np
import pytest

from leolab import classify
from leolab.classify import (
    CLASS_LEAKAGE,
    CLASS_MIXED,
    block_split,
    classification_to_csv,
    classify_pauli_strings,
    decompose,
)
from leolab.codes import build_code, dfs2_dephasing
from leolab import opalg
from leolab.opalg import (
    DimensionMismatchError,
    Operator,
    hermitian_exponential,
    pauli_string,
    random_hermitian,
)

ALL_CODES = ["dfs2", "dfs3", "dfs4", "dual_rail", "bare4"]


class TestDecompose:
    def test_zz_block_diagonal(self):
        c = dfs2_dephasing()
        dec = decompose(pauli_string("ZZ"), c)
        assert dec.l_norm <= 1e-15
        np.testing.assert_allclose(dec.e_part.mat, -c.projector, atol=1e-15)
        np.testing.assert_allclose(dec.eperp_part.mat, c.complement_projector,
                                   atol=1e-15)

    def test_single_x_is_pure_leakage(self):
        dec = decompose(pauli_string("XI"), dfs2_dephasing())
        assert dec.e_norm <= 1e-15
        assert dec.eperp_norm <= 1e-15
        np.testing.assert_allclose(dec.l_part.mat, pauli_string("XI").mat,
                                   atol=1e-15)

    def test_xx_has_logical_action(self):
        c = dfs2_dephasing()
        dec = decompose(pauli_string("XX"), c)
        assert dec.l_norm <= 1e-15
        # code block acts as logical X: |01><10| + |10><01|
        xbar = np.zeros((4, 4), dtype=complex)
        xbar[1, 2] = xbar[2, 1] = 1.0
        np.testing.assert_allclose(dec.e_part.mat, xbar, atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            decompose(pauli_string("X"), dfs2_dephasing())

    @pytest.mark.parametrize("label", ALL_CODES)
    @pytest.mark.parametrize("seed", range(20))
    def test_reconstruction_over_seeded_probes(self, label, seed):
        code = build_code(label)
        m = random_hermitian(code.ambient_dim, seed)
        dec = decompose(m, code)
        back = dec.e_part.mat + dec.eperp_part.mat + dec.l_part.mat
        assert np.linalg.norm(back - m.mat) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_idempotence(self, seed):
        code = dfs2_dephasing()
        m = random_hermitian(4, seed)
        dec = decompose(m, code)
        again = decompose(dec.e_part, code)
        np.testing.assert_allclose(again.e_part.mat, dec.e_part.mat, atol=1e-14)
        assert again.l_norm <= 1e-14 and again.eperp_norm <= 1e-14
        leak_again = decompose(dec.l_part, code)
        assert leak_again.e_norm <= 1e-14
        assert leak_again.eperp_norm <= 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_hermiticity_inheritance(self, seed):
        code = build_code("dfs3")
        m = random_hermitian(8, seed)
        dec = decompose(m, code)
        for part in (dec.e_part, dec.eperp_part, dec.l_part):
            assert np.max(np.abs(part.mat - part.mat.conj().T)) <= 1e-12
        assert dec.e_part.is_hermitian()
        assert dec.eperp_part.is_hermitian()

    @pytest.mark.parametrize("label", ALL_CODES)
    @pytest.mark.parametrize("seed", range(5))
    def test_outside_part_never_moves_code_states(self, label, seed):
        code = build_code(label)
        m = random_hermitian(code.ambient_dim, seed)
        dec = decompose(m, code)
        for dt in (0.3, 2.0, -1.1):
            u = hermitian_exponential(dec.eperp_part, -dt)
            assert np.linalg.norm(u.mat @ code.basis - code.basis) <= 1e-12


class TestLeakageNorm:
    def test_projector_has_none(self):
        c = dfs2_dephasing()
        p = Operator(c.projector, frozenset({"hermitian"}))
        assert decompose(p, c).l_norm <= 1e-15

    def test_single_x(self):
        dec = decompose(pauli_string("XI"), dfs2_dephasing())
        assert dec.l_norm == pytest.approx(2.0, abs=1e-12)

    def test_heisenberg_pair_preserves_split(self):
        h = Operator(
            pauli_string("XX").mat + pauli_string("YY").mat + pauli_string("ZZ").mat,
            frozenset({"hermitian"}),
        )
        assert decompose(h, dfs2_dephasing()).l_norm <= 1e-15

    def test_pinned_hopping_value(self, golden):
        dec = decompose(random_hermitian(4, 7), build_code("bare4"))
        assert dec.l_norm == pytest.approx(
            golden["hopping_seed7"]["l_part_fro"], abs=1e-12
        )
        assert dec.l_norm > 0.1


class TestClassifyPauliStrings:
    def test_dfs2_table(self):
        table = classify_pauli_strings(2, dfs2_dephasing())
        assert len(table) == 16
        assert table["II"].klass == CLASS_MIXED
        assert table["XI"].klass == CLASS_LEAKAGE
        zz = table["ZZ"]
        assert zz.klass == CLASS_MIXED
        assert zz.l_norm <= 1e-15

    def test_dfs2_leakage_set_matches_example3(self):
        table = classify_pauli_strings(2, dfs2_dephasing())
        leaks = sorted(k for k, v in table.items() if v.klass == CLASS_LEAKAGE)
        assert leaks == ["IX", "IY", "XI", "XZ", "YI", "YZ", "ZX", "ZY"]

    def test_ambient_must_be_qubit_register(self):
        with pytest.raises(ValueError):
            classify_pauli_strings(3, dfs2_dephasing())

    def test_csv_export(self):
        table = classify_pauli_strings(2, dfs2_dephasing())
        text = classification_to_csv(table)
        lines = text.strip().split("\n")
        assert lines[0] == "pauli_string,class,e_norm,eperp_norm,l_norm"
        assert len(lines) == 17
        xi = next(ln for ln in lines if ln.startswith("XI,"))
        assert xi.split(",")[1] == "L"
        assert float(xi.split(",")[4]) == pytest.approx(2.0, abs=1e-12)


class TestStackedClassification:
    """classify_pauli_strings splits chunks of strings in one call each; it
    must agree with decomposing one pauli_string at a time."""

    @pytest.mark.parametrize("label,n_qubits", [
        ("dfs2", 2), ("dfs3", 3), ("dfs4", 4), ("bare4", 2), ("bare8", 3),
    ])
    def test_matches_per_string_decompose(self, label, n_qubits):
        code = build_code(label)
        table = classify_pauli_strings(n_qubits, code)
        for string, row in table.items():
            dec = decompose(pauli_string(string), code)
            norms = (dec.e_norm, dec.eperp_norm, dec.l_norm)
            for got, want in zip((row.e_norm, row.eperp_norm, row.l_norm), norms):
                assert abs(got - want) <= 1e-15, string
            live = [n > 1e-12 for n in norms]
            want_class = (CLASS_MIXED if sum(live) != 1
                          else ("E", "E_perp", "L")[live.index(True)])
            assert row.klass == want_class, string

    @pytest.mark.parametrize("label", ALL_CODES)
    @pytest.mark.parametrize("count", [1, 3, 40])
    def test_right_products_equal_broadcast(self, label, count, monkeypatch):
        # PMP, PMQ, QMQ and QMP are each one GEMM on the stack laid end to
        # end; the parts must equal those of per-matrix broadcast products
        code = build_code(label)
        mats = np.stack([random_hermitian(code.ambient_dim, seed).mat
                         for seed in range(count)])
        got = block_split(mats, code, [True] * count)
        monkeypatch.setattr(classify, "_stack_times", np.matmul)
        want = block_split(mats, code, [True] * count)
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()

    def test_hermitian_check_runs_on_the_stack(self, monkeypatch):
        code = build_code("dfs3")
        monkeypatch.setattr(opalg, "HERMITIAN_TOL", -1.0)
        with pytest.raises(ValueError, match="hermitian tag violated"):
            classify_pauli_strings(3, code)
