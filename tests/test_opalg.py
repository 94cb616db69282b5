import numpy as np
import pytest

import itertools
import re

from leolab import opalg
from leolab.opalg import (
    NumericalDegeneracyError,
    Operator,
    _stack_times,
    _unitary_residual,
    check_tags,
    computed_unitary,
    derived_seeds,
    hermitian_exponential,
    operator_from_json,
    operator_to_json,
    pauli_stack,
    pauli_string,
    random_hermitian,
)

XBAR = Operator(
    (pauli_string("XX").mat + pauli_string("YY").mat) / 2.0,
    frozenset({"hermitian"}),
)


class TestOperator:
    def test_identity_tags(self):
        i4 = Operator(np.eye(4), frozenset({"hermitian", "unitary"}))
        assert i4.dim == 4
        assert i4.tags == {"hermitian", "unitary"}
        assert i4.is_hermitian()
        np.testing.assert_array_equal(i4.mat, np.eye(4))

    def test_is_hermitian_reads_the_tag(self, monkeypatch):
        # the tag was checked at HERMITIAN_TOL when the operator was built
        near = np.diag([1.0, -1.0]).astype(complex)
        near[0, 1] = 5e-13
        tagged, untagged = Operator(near, frozenset({"hermitian"})), Operator(near)
        assert tagged.is_hermitian() and untagged.is_hermitian()
        monkeypatch.setattr(opalg, "HERMITIAN_TOL", 0.0)
        assert tagged.is_hermitian()
        assert not untagged.is_hermitian()

    def test_hermitian_tag_rejected_for_nonhermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(ValueError):
            Operator(m, frozenset({"hermitian"}))

    def test_unitary_tag_rejected_for_nonunitary(self):
        with pytest.raises(ValueError):
            Operator(2.0 * np.eye(2, dtype=complex), frozenset({"unitary"}))

    def test_diagonal_tag_rejected_for_offdiagonal(self):
        # the tag is gone: a diagonal matrix carries no such tag either
        for m in (pauli_string("X").mat, pauli_string("Z").mat):
            with pytest.raises(ValueError,
                               match=re.escape("unknown operator tags: ['diagonal']")):
                Operator(m, frozenset({"diagonal"}))

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            Operator(np.zeros((2, 3), dtype=complex))

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least 1"):
            Operator(np.zeros((0, 0), dtype=complex))

    def test_entries_immutable(self):
        op = Operator(np.eye(2))
        with pytest.raises(ValueError):
            op.mat[0, 0] = 5.0

    @pytest.mark.parametrize("dim,scale", [(1, 1.0), (4, 1.0), (16, 3.0),
                                           (64, 0.5), (256, 1.0)])
    def test_unitary_residual_bit_identical_to_eye_form(self, dim, scale):
        # near-unitary, far from unitary, and non-unitary matrices alike
        m = hermitian_exponential(random_hermitian(dim, dim), scale).mat
        rng = np.random.default_rng(dim)
        for a in (m, m + 1e-9 * rng.standard_normal((dim, dim)),
                  scale * rng.standard_normal((dim, dim)) + 1j * m):
            want = np.linalg.norm(a.conj().T @ a - np.eye(dim))
            assert _unitary_residual(a) == want


class TestComputedUnitary:
    def test_tagged_unitary(self):
        u = computed_unitary(pauli_string("XY").mat, "probe")
        assert u.tags == {"unitary"}

    def test_drift_is_numerical(self):
        # a computed matrix that fails the tag is drift, not bad input
        with pytest.raises(NumericalDegeneracyError,
                           match=r"^probe: unitary tag violated: residual"):
            computed_unitary((1.0 + 1e-9) * np.eye(4), "probe")
        nan = np.eye(2, dtype=complex)
        nan[0, 1] = np.nan
        with pytest.raises(NumericalDegeneracyError,
                           match="^probe: operator entries must be finite"):
            computed_unitary(nan, "probe")


class TestPauliStrings:
    def test_single_site(self):
        np.testing.assert_array_equal(
            pauli_string("X").mat, np.array([[0, 1], [1, 0]], dtype=complex)
        )
        np.testing.assert_array_equal(
            pauli_string("Z").mat, np.diag([1.0, -1.0]).astype(complex)
        )

    def test_first_char_is_qubit_one(self):
        # XI flips the most significant bit: |01> -> |11>
        v = np.zeros(4, dtype=complex)
        v[1] = 1.0
        out = pauli_string("XI").mat @ v
        expect = np.zeros(4, dtype=complex)
        expect[3] = 1.0
        np.testing.assert_allclose(out, expect, atol=0)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            pauli_string("XQ")
        with pytest.raises(ValueError):
            pauli_string("")
        with pytest.raises(ValueError):
            pauli_stack(["XI", "X"])

    def test_stack_bit_identical_to_kron_chains(self):
        labels = ["".join(c) for c in itertools.product("IXYZ", repeat=3)]
        singles = {c: pauli_string(c).mat for c in "IXYZ"}
        for got, label in zip(pauli_stack(labels), labels):
            want = singles[label[0]]
            for c in label[1:]:
                want = np.kron(want, singles[c])
            assert got.tobytes() == want.tobytes(), label  # signed zeros too


class TestCheckTags:
    def test_every_matrix_of_a_stack_is_checked(self):
        stack = np.stack([np.eye(2, dtype=complex), pauli_string("X").mat,
                          np.array([[0, 1], [0, 0]], dtype=complex)])
        check_tags(stack[:2], frozenset({"hermitian", "unitary"}))
        with pytest.raises(ValueError, match="hermitian tag violated"):
            check_tags(stack, frozenset({"hermitian"}))
        with pytest.raises(ValueError, match="unitary tag violated"):
            check_tags(stack, frozenset({"unitary"}))
        # hermitian throughout, but the last matrix is not unitary
        with pytest.raises(ValueError, match="unitary tag violated"):
            check_tags(np.stack([stack[1], 2.0 * stack[0]]),
                       frozenset({"hermitian", "unitary"}))

    def test_nonfinite_entry_refused(self):
        stack = np.zeros((3, 2, 2), dtype=complex)
        stack[2, 0, 1] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            check_tags(stack, frozenset())


class TestStackedProducts:
    @pytest.mark.parametrize("dim", [1, 3, 16])
    @pytest.mark.parametrize("count", [0, 1, 7])
    def test_one_gemm_equals_broadcast(self, dim, count):
        rng = np.random.default_rng(dim * 10 + count)
        stack = (rng.standard_normal((count, dim, dim))
                 + 1j * rng.standard_normal((count, dim, dim)))
        m = random_hermitian(dim, 1).mat
        got = _stack_times(stack, m)
        assert got.shape == stack.shape
        assert got.tobytes() == (stack @ m).tobytes()


class TestHermitianExponential:
    def test_zero_matrix(self):
        z = Operator(np.zeros((3, 3), dtype=complex), frozenset({"hermitian"}))
        out = hermitian_exponential(z, 1.7)
        np.testing.assert_allclose(out.mat, np.eye(3), atol=1e-15)

    def test_diagonal_phase(self):
        out = hermitian_exponential(pauli_string("Z"), np.pi)
        np.testing.assert_allclose(out.mat, -np.eye(2), atol=1e-12)

    def test_exchange_logical_x_gives_zz(self):
        out = hermitian_exponential(XBAR, np.pi)
        zz = pauli_string("ZZ").mat
        assert np.linalg.norm(out.mat - zz) <= 1e-12

    def test_requires_hermitian_tag(self):
        with pytest.raises(ValueError):
            hermitian_exponential(Operator(1j * np.eye(2, dtype=complex)), 1.0)

    @pytest.mark.parametrize("scale", [np.inf, -np.inf, np.nan])
    def test_requires_finite_scale(self, scale):
        with pytest.raises(ValueError, match="scale must be finite"):
            hermitian_exponential(pauli_string("Z"), scale)

    @pytest.mark.parametrize("seed", range(6))
    def test_unitary_for_large_norm_inputs(self, seed):
        h = random_hermitian(8, seed)
        big = Operator(h.mat * 100.0, frozenset({"hermitian"}))
        u = hermitian_exponential(big, 1.0)
        dev = np.linalg.norm(u.mat.conj().T @ u.mat - np.eye(8))
        assert dev <= 1e-10
        assert "unitary" in u.tags

    @pytest.mark.parametrize("seed", range(4))
    def test_group_property(self, seed):
        h = random_hermitian(5, seed)
        a, b = 0.37, -1.21
        lhs = hermitian_exponential(h, a).mat @ hermitian_exponential(h, b).mat
        rhs = hermitian_exponential(h, a + b).mat
        assert np.linalg.norm(lhs - rhs) <= 1e-10


class TestRandomHermitian:
    def test_one_by_one_is_sign(self):
        for seed in range(8):
            m = random_hermitian(1, seed)
            assert abs(abs(m.mat[0, 0]) - 1.0) <= 1e-12
            assert abs(m.mat[0, 0].imag) <= 1e-15

    def test_deterministic(self):
        a = random_hermitian(4, 7)
        b = random_hermitian(4, 7)
        np.testing.assert_array_equal(a.mat, b.mat)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 11])
    def test_unit_spectral_norm(self, seed):
        m = random_hermitian(8, seed)
        top = float(np.linalg.svd(m.mat, compute_uv=False)[0])
        assert top == pytest.approx(1.0, abs=1e-12)

    def test_hermitian_tag(self):
        assert random_hermitian(5, 3).is_hermitian()

    def test_bad_dim(self):
        with pytest.raises(ValueError):
            random_hermitian(0, 1)

    @pytest.mark.parametrize("dim", range(1, 17))
    def test_stack_is_the_one_matrix_draw(self, dim):
        # each matrix of a stack is, bit for bit, the one-matrix draw: two
        # (dim, dim) Gaussian blocks and numpy's spectral norm
        seeds = derived_seeds(dim, 12)
        stack = opalg.random_hermitians(dim, seeds)
        for got, seed in zip(stack, seeds):
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = (g + g.conj().T) / 2.0
            want = h / np.linalg.norm(h, 2)
            assert got.tobytes() == want.tobytes()
            assert random_hermitian(dim, seed).mat.tobytes() == want.tobytes()


class TestDerivedSeeds:
    def test_deterministic_and_pinned(self, golden):
        assert derived_seeds(3, 3) == golden["recipe"]["derived_seeds"]

    def test_distinct(self):
        seeds = derived_seeds(0, 6)
        assert len(set(seeds)) == 6

    def test_prefix_stability(self):
        assert derived_seeds(5, 2) == derived_seeds(5, 4)[:2]


class TestSerialization:
    @pytest.mark.parametrize("seed", range(4))
    def test_round_trip(self, seed):
        op = random_hermitian(5, seed)
        back = operator_from_json(operator_to_json(op))
        assert np.max(np.abs(back.mat - op.mat)) <= 1e-15

    def test_tags_reapplied(self):
        data = operator_to_json(pauli_string("ZZ"))
        back = operator_from_json(data, tags=("hermitian", "unitary"))
        assert back.tags == {"hermitian", "unitary"}
        with pytest.raises(ValueError, match="unitary tag violated"):
            operator_from_json(operator_to_json(XBAR), tags=("unitary",))

    def test_malformed(self):
        with pytest.raises(ValueError):
            operator_from_json({"dim": 2, "re": [[1, 0]], "im": [[0, 0]]})
        with pytest.raises(ValueError):
            operator_from_json({"re": [[1]], "im": [[0]]})
