import tracemalloc

import numpy as np
import pytest

from leolab.codes import (
    CodeSubspace,
    bare_qubit_code,
    build_code,
    dfs2_dephasing,
    dfs3_collective,
    dfs4_collective,
    dual_rail_code,
    s_squared,
    spin_sector_decomposition,
    two_photon_occupations,
)
from leolab.leo import (
    ROUTES,
    LeakageEliminationOperator,
    NotGeneralizedGeneratorError,
    NotLogicalInvolutionError,
    canonical_leo,
    exchange_dfs2_leo,
    extract_phase,
    generalized_leo,
    leo_from_json,
    leo_to_json,
    number_operator_leo,
    phase_shifter_leo,
    projector_leo,
    random_probes,
    reference_reflection,
    s_squared_leo,
    structural_residual,
    synthesize,
    verify_leo,
)
from leolab import classify, leo, opalg
from leolab.classify import decompose
from leolab.models import logical_ops_dfs2
from leolab.opalg import (
    DimensionMismatchError,
    Operator,
    hermitian_exponential,
    pauli_string,
    random_hermitian,
)


def same_up_to_phase(a, b, code):
    """a = exp(i theta) b, with both phases read off the reflection form."""
    ratio = extract_phase(a, code) / extract_phase(b, code)
    return np.linalg.norm(a.mat - ratio * b.mat) <= 1e-10


def make_pulses():
    return [
        projector_leo(dfs2_dephasing()),
        projector_leo(dfs3_collective()),
        projector_leo(dfs4_collective()),
        projector_leo(dual_rail_code()),
        projector_leo(bare_qubit_code(4)),
        canonical_leo(logical_ops_dfs2().x, dfs2_dephasing()),
        exchange_dfs2_leo(),
        number_operator_leo(4),
        phase_shifter_leo(),
        s_squared_leo(),
        generalized_leo(
            Operator(s_squared(4).mat / 2.0, frozenset({"hermitian"})),
            dfs4_collective(),
        ),
    ]


class TestReferenceReflection:
    def test_dfs2(self):
        r = reference_reflection(dfs2_dephasing())
        np.testing.assert_allclose(r, np.diag([1.0, -1.0, -1.0, 1.0]), atol=1e-15)

    def test_full_space_code(self):
        r = reference_reflection(bare_qubit_code(2))
        np.testing.assert_allclose(r, -np.eye(2), atol=1e-15)


class TestProjectorLeo:
    def test_full_space_code_gives_minus_identity(self):
        pulse = projector_leo(bare_qubit_code(2))
        np.testing.assert_allclose(pulse.unitary.mat, -np.eye(2), atol=1e-15)

    def test_dfs2_gives_zz(self):
        pulse = projector_leo(dfs2_dephasing())
        np.testing.assert_array_equal(pulse.unitary.mat, pauli_string("ZZ").mat)
        assert pulse.phase == 1.0 + 0.0j

    def test_bare4(self):
        pulse = projector_leo(bare_qubit_code(4))
        np.testing.assert_allclose(
            pulse.unitary.mat, np.diag([-1.0, -1.0, 1.0, 1.0]), atol=1e-15
        )

    def test_route_recorded(self):
        assert projector_leo(dfs2_dephasing()).route == "projector"


class TestCanonicalLeo:
    def test_logical_x_gives_zz(self):
        pulse = canonical_leo(logical_ops_dfs2().x, dfs2_dephasing())
        assert np.linalg.norm(pulse.unitary.mat - pauli_string("ZZ").mat) <= 1e-12

    def test_logical_z_matches_projector_route(self):
        pulse = canonical_leo(logical_ops_dfs2().z, dfs2_dephasing())
        reference = projector_leo(dfs2_dephasing())
        assert same_up_to_phase(pulse.unitary, reference.unitary, pulse.code)

    def test_scaled_involution_rejected(self):
        xbar = logical_ops_dfs2().x
        bad = Operator(xbar.mat / 2.0, frozenset({"hermitian"}))
        with pytest.raises(NotLogicalInvolutionError):
            canonical_leo(bad, dfs2_dephasing())

    def test_complement_support_rejected(self):
        c = dfs2_dephasing()
        bad = Operator(np.eye(4, dtype=complex), frozenset({"hermitian"}))
        with pytest.raises(NotLogicalInvolutionError):
            canonical_leo(bad, c)

    def test_leaking_generator_rejected(self):
        with pytest.raises(NotLogicalInvolutionError):
            canonical_leo(pauli_string("XI"), dfs2_dephasing())

    @pytest.mark.parametrize("sigma,reason", [
        (pauli_string("ZZZ"), "dimension does not match"),
        (Operator(logical_ops_dfs2().x.mat * 1j), "not Hermitian"),
    ], ids=["wrong_dim", "non_hermitian"])
    def test_generator_shape_rejected(self, sigma, reason):
        with pytest.raises(NotLogicalInvolutionError, match=reason):
            canonical_leo(sigma, dfs2_dephasing())


class TestExchangeLeo:
    def test_unitary_is_zz(self):
        pulse = exchange_dfs2_leo()
        assert np.linalg.norm(pulse.unitary.mat - pauli_string("ZZ").mat) <= 1e-12

    def test_route(self):
        assert exchange_dfs2_leo().route == "exchange_2dfs"

    def test_generator_is_xy_exchange(self):
        # the pulse is exp(i pi xbar) with the logical bit flip as generator
        xy = (pauli_string("XX").mat + pauli_string("YY").mat) / 2.0
        np.testing.assert_array_equal(logical_ops_dfs2().x.mat, xy)


class TestGeneralizedLeo:
    def test_half_s_squared_on_dfs4(self):
        gen = Operator(s_squared(4).mat / 2.0, frozenset({"hermitian"}))
        pulse = generalized_leo(gen, dfs4_collective())
        assert pulse.structural_error() <= 1e-10
        assert pulse.route == "generalized"

    def test_projector_generator_accepted(self):
        c = dfs2_dephasing()
        gen = Operator(c.projector, frozenset({"hermitian"}))
        pulse = generalized_leo(gen, c)
        reference = projector_leo(c)
        assert same_up_to_phase(pulse.unitary, reference.unitary, c)

    def test_doubled_projector_rejected_same_parity(self):
        c = dfs2_dephasing()
        gen = Operator(2.0 * c.projector, frozenset({"hermitian"}))
        with pytest.raises(NotGeneralizedGeneratorError):
            generalized_leo(gen, c)

    def test_half_s_squared_rejected_on_embedded_dfs2(self):
        # embed the dfs2 code into the 4-qubit space as pair states of
        # qubits 1,2 with qubits 3,4 pinned to |00>: half S^2 spectra on
        # that code and its complement are not opposite-parity integers
        basis = np.zeros((16, 2), dtype=complex)
        basis[0b0100, 0] = 1.0
        basis[0b1000, 1] = 1.0
        from leolab.codes import CodeSubspace

        embedded = CodeSubspace("dfs2_embedded", basis)
        gen = Operator(s_squared(4).mat / 2.0, frozenset({"hermitian"}))
        with pytest.raises(NotGeneralizedGeneratorError):
            generalized_leo(gen, embedded)

    @pytest.mark.parametrize("diag", [[1.0, 3.0], [0.0, 2.0]],
                             ids=["odd", "even"])
    def test_code_without_complement(self, diag):
        # an empty complement spectrum has no parity to clash with the
        # code's, so exp(-i pi h) is a global phase
        code = CodeSubspace("whole", np.eye(2, dtype=complex))
        gen = Operator(np.diag(diag).astype(complex), frozenset({"hermitian"}))
        pulse = generalized_leo(gen, code)
        sign = 1.0 if diag[0] % 2 == 0 else -1.0
        np.testing.assert_allclose(pulse.unitary.mat, sign * np.eye(2),
                                   atol=1e-15)

    def test_non_integer_spectrum_rejected(self):
        c = dfs2_dephasing()
        gen = Operator(0.5 * c.projector, frozenset({"hermitian"}))
        with pytest.raises(NotGeneralizedGeneratorError):
            generalized_leo(gen, c)

    def test_leaking_generator_rejected(self):
        with pytest.raises(NotGeneralizedGeneratorError):
            generalized_leo(pauli_string("XI"), dfs2_dephasing())

    @pytest.mark.parametrize("h,reason", [
        (pauli_string("ZZZ"), "dimension does not match"),
        (Operator(1j * dfs2_dephasing().projector), "not Hermitian"),
    ], ids=["wrong_dim", "non_hermitian"])
    def test_generator_shape_rejected(self, h, reason):
        with pytest.raises(NotGeneralizedGeneratorError, match=reason):
            generalized_leo(h, dfs2_dephasing())

    @pytest.mark.parametrize("label,diag,reason", [
        ("dfs2", [0.5, 1.0, 1.0, 0.5], "is not integer"),
        ("bare4", [1.0, 1.0, 0.0, 1.0], "mixes parities"),
    ], ids=["non_integer", "mixed_parity"])
    def test_complement_spectrum_rejected(self, label, diag, reason):
        # dfs2 gets P + 0.5 Q: an odd code block over a half-integer complement
        gen = Operator(np.diag(diag).astype(complex), frozenset({"hermitian"}))
        with pytest.raises(NotGeneralizedGeneratorError,
                           match=f"complement spectrum {reason}"):
            generalized_leo(gen, build_code(label))


class TestNumberOperatorLeo:
    def test_two_levels(self):
        pulse = number_operator_leo(2)
        np.testing.assert_allclose(pulse.unitary.mat, -np.eye(2), atol=1e-15)

    def test_four_levels(self):
        pulse = number_operator_leo(4)
        np.testing.assert_allclose(
            pulse.unitary.mat, np.diag([-1.0, -1.0, 1.0, 1.0]), atol=1e-15
        )

    def test_matches_projector_route_up_to_phase(self):
        assert same_up_to_phase(
            number_operator_leo(4).unitary,
            projector_leo(bare_qubit_code(4)).unitary,
            bare_qubit_code(4),
        )

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            number_operator_leo(1)


class TestPhaseShifterLeo:
    def test_eigenvalue_on_code_state(self):
        pulse = phase_shifter_leo()
        k = two_photon_occupations().index((1, 0, 1, 0))
        assert pulse.unitary.mat[k, k] == pytest.approx(-1.0)

    def test_eigenvalue_on_two_photon_leak_state(self):
        pulse = phase_shifter_leo()
        k = two_photon_occupations().index((1, 1, 0, 0))
        assert pulse.unitary.mat[k, k] == pytest.approx(1.0)

    def test_diagonal_matches_occupation_parity(self):
        pulse = phase_shifter_leo()
        for k, occ in enumerate(two_photon_occupations()):
            expect = (-1.0) ** (occ[0] + occ[1])
            assert pulse.unitary.mat[k, k] == pytest.approx(expect)

    def test_globally_reflection_form(self):
        # every complement occupation has even photon count on modes 1+2,
        # so the pulse is exactly -1 on the code and +1 outside it
        pulse = phase_shifter_leo()
        assert pulse.structural_error() <= 1e-15
        assert pulse.phase == pytest.approx(1.0)


class TestSSquaredLeo:
    def test_plus_one_on_singlets(self):
        pulse = s_squared_leo()
        singlets = dfs4_collective().basis
        assert np.linalg.norm(pulse.unitary.mat @ singlets - singlets) <= 1e-10

    def test_minus_one_on_triplets_and_quintuplet(self):
        pulse = s_squared_leo()
        for sector in spin_sector_decomposition(4).sectors:
            if sector.spin == 0.0:
                continue
            w = sector.basis
            assert np.linalg.norm(pulse.unitary.mat @ w + w) <= 1e-10

    def test_spectrum_counts(self):
        vals = np.linalg.eigvalsh((s_squared_leo().unitary.mat
                                   + s_squared_leo().unitary.mat.conj().T) / 2.0)
        assert int(np.sum(vals > 0.5)) == 2
        assert int(np.sum(vals < -0.5)) == 14

    def test_phase_is_minus_one(self):
        # exp(-i pi (1/2) S^2) acts as +1 on the code, so the extracted
        # global phase points opposite the reference reflection
        assert s_squared_leo().phase == pytest.approx(-1.0)


class TestStructuralMachinery:
    def test_extract_phase_dfs2(self):
        u = Operator(1j * np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex))
        assert extract_phase(u, dfs2_dephasing()) == pytest.approx(1j)

    def test_extract_phase_full_space(self):
        u = Operator(-np.eye(2, dtype=complex))
        assert extract_phase(u, bare_qubit_code(2)) == pytest.approx(1.0)

    def test_construction_rejects_non_reflection(self):
        with pytest.raises(ValueError):
            LeakageEliminationOperator(pauli_string("XI"), dfs2_dephasing(),
                                       "projector")

    @pytest.mark.parametrize("unitary,route,reason", [
        (pauli_string("ZZ"), "teleport", "unknown synthesis route 'teleport'"),
        (pauli_string("Z"), "projector", "pulse dimension does not match"),
    ], ids=["unknown_route", "wrong_dim"])
    def test_construction_rejects_route_and_dim(self, unitary, route, reason):
        with pytest.raises(ValueError, match=reason):
            LeakageEliminationOperator(unitary, dfs2_dephasing(), route)

    @pytest.mark.parametrize("idx", range(11))
    def test_extract_phase_follows_a_global_phase(self, idx):
        pulse = make_pulses()[idx]
        rng = np.random.default_rng(idx)
        for phi in np.exp(2j * np.pi * rng.random(3)):
            got = extract_phase(Operator(phi * pulse.unitary.mat), pulse.code)
            assert abs(got - phi * pulse.phase) <= 1e-15

    @pytest.mark.parametrize("idx", range(11))
    def test_phase_minimizes_structural_residual(self, idx):
        pulse = make_pulses()[idx]
        best = pulse.structural_error()
        for delta in (1e-12, -1e-12, 1e-6, -1e-6):
            turned = pulse.phase * np.exp(1j * delta)
            assert best <= structural_residual(pulse.unitary, pulse.code, turned)

    @pytest.mark.parametrize("idx", range(11))
    def test_involution(self, idx):
        pulse = make_pulses()[idx]
        r = pulse.unitary.mat
        target = pulse.phase**2 * np.eye(pulse.dim)
        assert np.linalg.norm(r @ r - target) <= 1e-10

    @pytest.mark.parametrize("idx", range(11))
    def test_structural_form(self, idx):
        pulse = make_pulses()[idx]
        assert pulse.structural_error() <= 1e-10


class TestVerifyLeo:
    def test_zz_passes_with_mixed_probes(self):
        probes = [pauli_string("XI"), pauli_string("XX"), random_hermitian(4, 2)]
        report = verify_leo(pauli_string("ZZ"), dfs2_dephasing(), probes)
        assert report.passed
        assert report.max_residual <= 1e-12
        assert report.phase == pytest.approx(1.0)
        assert len(report.probe_checks) == 3

    def test_leakage_operator_fails_structurally(self):
        report = verify_leo(pauli_string("XI"), dfs2_dephasing(), [])
        assert not report.passed
        assert report.structural_residual > 1.0

    def test_probe_of_another_dimension_raises(self):
        probes = [pauli_string("XI"), pauli_string("XXX")]
        with pytest.raises(DimensionMismatchError, match="operator dim 8"):
            verify_leo(pauli_string("ZZ"), dfs2_dephasing(), probes)

    def test_s_squared_leo_passes_random_probes(self):
        pulse = s_squared_leo()
        probes = random_probes(16, 20, 123)
        report = verify_leo(pulse.unitary, pulse.code, probes)
        assert report.passed

    def test_probe_residuals_reported(self):
        probes = random_probes(4, 3, 9)
        report = verify_leo(pauli_string("ZZ"), dfs2_dephasing(), probes)
        for check in report.probe_checks:
            assert check.anticommutator_leakage <= 1e-10
            assert check.commutator_code <= 1e-10
            assert check.commutator_outside <= 1e-10
        assert "pass" in report.summary()

    def test_summary_line_mentions_failure(self):
        report = verify_leo(pauli_string("XI"), dfs2_dephasing(), [])
        assert "FAIL" in report.summary()

    @pytest.mark.parametrize("idx", range(11))
    def test_every_route_against_twenty_probes(self, idx):
        pulse = make_pulses()[idx]
        probes = random_probes(pulse.code.ambient_dim, 20, 1000 + idx)
        report = verify_leo(pulse.unitary, pulse.code, probes)
        assert report.passed, report.summary()


def mixed_probes(dim, count, seed):
    """Hermitian-tagged probes at even indices, untagged non-Hermitian ones
    at odd indices."""
    rng = np.random.default_rng(seed)
    probes = []
    for i, p in enumerate(random_probes(dim, count, seed)):
        if i % 2:
            p = Operator(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))
        probes.append(p)
    return probes


class TestStackedVerify:
    """verify_leo splits its probes in chunks of stacks; every probe must get
    the residuals a one-probe decompose gives it."""

    @pytest.mark.parametrize("label", ["dfs2", "dfs4", "dual_rail"])
    @pytest.mark.parametrize("count", [1, 17, 100])
    def test_matches_per_probe_decompose(self, label, count):
        code = build_code(label)
        dim = code.ambient_dim
        probes = mixed_probes(dim, count, count)
        off_form = hermitian_exponential(random_hermitian(dim, 1), 1.0)
        for candidate in (projector_leo(code).unitary, off_form):
            r = candidate.mat
            report = verify_leo(candidate, code, probes)
            assert len(report.probe_checks) == count
            for i, (check, probe) in enumerate(zip(report.probe_checks, probes)):
                dec = decompose(probe, code)
                e, ep, l = dec.e_part.mat, dec.eperp_part.mat, dec.l_part.mat
                want = (np.linalg.norm(r @ l + l @ r), np.linalg.norm(r @ e - e @ r),
                        np.linalg.norm(r @ ep - ep @ r))
                got = (check.anticommutator_leakage, check.commutator_code,
                       check.commutator_outside)
                for g, w in zip(got, want):
                    assert abs(g - w) <= 1e-15 * w, (i, g, w)

    @pytest.mark.parametrize("label", ["dfs2", "dfs3", "dfs4", "dual_rail", "bare5"])
    def test_right_products_equal_broadcast(self, label, monkeypatch):
        # the right products X R and those of block_split are one GEMM per
        # chunk; every residual must equal the broadcast products' exactly
        code = build_code(label)
        probes = mixed_probes(code.ambient_dim, 100, 3)
        off_form = hermitian_exponential(random_hermitian(code.ambient_dim, 2), 1.0)
        got = [verify_leo(u, code, probes).probe_checks
               for u in (projector_leo(code).unitary, off_form)]
        monkeypatch.setattr(leo, "_stack_times", np.matmul)
        monkeypatch.setattr(classify, "_stack_times", np.matmul)
        want = [verify_leo(u, code, probes).probe_checks
                for u in (projector_leo(code).unitary, off_form)]
        assert got == want

    def test_hermitian_check_per_tagged_probe(self, monkeypatch):
        code = dfs4_collective()
        pulse = s_squared_leo()
        tagged = random_probes(16, 20, 4)
        untagged = [Operator(p.mat) for p in tagged]
        monkeypatch.setattr(opalg, "HERMITIAN_TOL", -1.0)
        assert verify_leo(pulse.unitary, code, untagged).passed
        with pytest.raises(ValueError, match="hermitian tag violated"):
            verify_leo(pulse.unitary, code, untagged[:19] + tagged[19:])

    def test_memory_flat_in_probe_count(self):
        pulse = s_squared_leo()
        peaks = []
        for count in (100, 1000):
            probes = random_probes(16, count, 8)
            tracemalloc.start()
            try:
                verify_leo(pulse.unitary, pulse.code, probes)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] < 0.5e6, peaks

    def test_peak_memory_of_one_call(self):
        # PM and QM are freed once their parts exist, and a chunk's parts
        # and residual buffer before the next chunk is split: at most about
        # eight 64 KiB chunk-sized arrays live at once (0.54 MB measured;
        # 0.87 MB while every temporary outlived its use)
        pulse = s_squared_leo()
        probes = random_probes(16, 100, 5)
        verify_leo(pulse.unitary, pulse.code, probes)  # caches the projectors
        tracemalloc.start()
        try:
            verify_leo(pulse.unitary, pulse.code, probes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6e6, peak


SYNTH_CODES = ("dfs2", "dfs3", "dfs4", "dual_rail", "bare3", "bare5")
# the README routes table over SYNTH_CODES
ACCEPTED = {(route, label) for route in ("projector", "canonical", "generalized")
            for label in SYNTH_CODES} | {
    ("exchange_2dfs", "dfs2"),
    ("number_op", "bare3"),
    ("number_op", "bare5"),
    ("phase_shifter", "dual_rail"),
    ("s_squared", "dfs4"),
}
# the code each fixed-code route names when it is refused
NEEDS = {"exchange_2dfs": "dfs2", "number_op": "bare", "phase_shifter": "dual_rail",
         "s_squared": "dfs4"}


class TestSynthesize:
    @staticmethod
    def inputs(code):
        # sigma = V J V^dag with J the reversal permutation; generator = P
        v = code.basis
        j = np.eye(code.code_dim)[::-1]
        sigma = Operator(v @ j @ v.conj().T, frozenset({"hermitian"}))
        generator = Operator(code.projector.copy(), frozenset({"hermitian"}))
        return sigma, generator

    @pytest.mark.parametrize("label", SYNTH_CODES)
    @pytest.mark.parametrize("route", ROUTES)
    def test_route_on_code(self, route, label):
        code = build_code(label)
        sigma, generator = self.inputs(code)
        if (route, label) in ACCEPTED:
            pulse = synthesize(route, code, sigma, generator)
            assert pulse.route == route
            probes = random_probes(code.ambient_dim, 20, 77)
            report = verify_leo(pulse.unitary, code, probes)
            assert report.passed, report.summary()
        else:
            with pytest.raises(ValueError,
                               match=f"route {route} needs the {NEEDS[route]}"):
                synthesize(route, code, sigma, generator)

    def test_unknown_route_lists_valid_ones(self):
        with pytest.raises(ValueError, match="projector"):
            synthesize("teleport", dfs2_dephasing())

    @pytest.mark.parametrize("route,flag", [("canonical", "--sigma"),
                                            ("generalized", "--generator")])
    def test_parametrized_route_needs_its_operator(self, route, flag):
        with pytest.raises(ValueError, match=flag):
            synthesize(route, dfs2_dephasing())

    def test_same_label_other_subspace_rejected(self):
        code = CodeSubspace("dfs2", np.eye(4)[:, :2])
        with pytest.raises(ValueError, match="needs the dfs2 code"):
            synthesize("exchange_2dfs", code)


class TestRandomProbes:
    def test_count_and_dim(self):
        probes = random_probes(6, 7, 0)
        assert len(probes) == 7
        assert all(p.dim == 6 and p.is_hermitian() for p in probes)

    def test_deterministic(self):
        a = random_probes(4, 3, 5)
        b = random_probes(4, 3, 5)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.mat, y.mat)

    def test_distinct(self):
        a, b = random_probes(4, 2, 5)
        assert np.max(np.abs(a.mat - b.mat)) > 1e-3

    @pytest.mark.parametrize("dim", [1, 3, 16])
    def test_bit_identical_to_random_hermitian(self, dim):
        # 40 probes span three chunks at dim 16
        probes = random_probes(dim, 40, 5)
        for probe, child in zip(probes, opalg.derived_seeds(5, 40)):
            assert probe.mat.tobytes() == random_hermitian(dim, child).mat.tobytes()
            assert probe.tags == frozenset({"hermitian"})

    def test_no_probes(self):
        assert random_probes(5, 0, 1) == []

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension must be at least 1"):
            random_probes(0, 3, 1)


class TestSerialization:
    @pytest.mark.parametrize("idx", range(11))
    def test_round_trip(self, idx):
        pulse = make_pulses()[idx]
        if pulse.code.label == "dfs2_embedded":
            pytest.skip("not a registered code")
        back = leo_from_json(leo_to_json(pulse))
        assert back.route == pulse.route
        assert back.code.label == pulse.code.label
        assert abs(back.phase - pulse.phase) <= 1e-15
        assert np.max(np.abs(back.unitary.mat - pulse.unitary.mat)) <= 1e-15

    def test_malformed(self):
        with pytest.raises(ValueError):
            leo_from_json({"route": "projector"})

    @pytest.mark.parametrize("phase", [[-1.0, 0.0], [0.0, 0.0]],
                             ids=["negated", "zero"])
    def test_stated_phase_must_fit(self, phase):
        data = leo_to_json(projector_leo(dfs2_dephasing()))
        assert data["phase"] == [1.0, 0.0]
        data["phase"] = phase
        with pytest.raises(ValueError, match="stated phase"):
            leo_from_json(data)

    @pytest.mark.parametrize("phase", [1.0, [1.0], [1.0, 0.0, 0.0]],
                             ids=["number", "one", "three"])
    def test_phase_must_be_a_pair(self, phase):
        data = leo_to_json(projector_leo(dfs2_dephasing()))
        data["phase"] = phase
        with pytest.raises(ValueError, match=r"expected a \[re, im\] pair"):
            leo_from_json(data)

    @pytest.mark.parametrize("field", ["route", "code_label"])
    @pytest.mark.parametrize("value", [None, 3])
    def test_string_fields_must_be_strings(self, field, value):
        data = leo_to_json(projector_leo(dfs2_dephasing()))
        data[field] = value
        with pytest.raises(ValueError, match="malformed pulse record"):
            leo_from_json(data)
