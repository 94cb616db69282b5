import numpy as np
import pytest
from model_split import explicit_split

from leolab import dynamics, opalg
from leolab.codes import CodeSubspace, dfs2_dephasing
from leolab.dynamics import (
    ParityKickSchedule,
    _spectral_distance,
    decoupled_limit_unitary,
    parity_kick_unitary,
    simulate,
    sweep_cycles,
)
from leolab.leo import exchange_dfs2_leo, projector_leo, verify_leo
from leolab.models import (
    SystemBathModel,
    dfs2_leakage_model,
    hopping_model,
    linear_optics_model,
)
from leolab.opalg import (
    NumericalDegeneracyError,
    Operator,
    hermitian_exponential,
    pauli_string,
    random_hermitian,
)


def benchmark_model():
    return dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=4)


def code_state(model, k=0):
    return model.code.basis[:, k]


def pure_leakage_model():
    b = random_hermitian(2, 17)
    return SystemBathModel.from_terms(
        dfs2_dephasing(), [(0.4, pauli_string("XI"), b)], bath_dim=2)


class TestParityKickSchedule:
    def test_total_free_time(self):
        s = ParityKickSchedule(8, 0.25, exchange_dfs2_leo())
        assert s.total_free_time == 2 * 8 * 0.25

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ParityKickSchedule(-1, 0.1, None)
        with pytest.raises(ValueError):
            ParityKickSchedule(4, 0.0, None)
        with pytest.raises(ValueError):
            ParityKickSchedule(4, float("nan"), None)

    def test_free_schedule_allowed(self):
        s = ParityKickSchedule(4, 0.1, None)
        assert s.pulses is None

    @pytest.mark.parametrize("n", [2.5, 2.0, "3", None])
    def test_rejects_non_integer_cycles(self, n):
        with pytest.raises(ValueError, match="integers"):
            ParityKickSchedule(n, 0.1, exchange_dfs2_leo())

    def test_numpy_integer_cycles_accepted(self):
        s = ParityKickSchedule(np.int64(3), 0.1, None)
        assert s.n_cycles == 3 and type(s.n_cycles) is int


class TestParityKickUnitary:
    def test_zero_cycles_is_identity(self):
        m = benchmark_model()
        u = parity_kick_unitary(m, ParityKickSchedule(0, 0.1, exchange_dfs2_leo()))
        np.testing.assert_allclose(u.mat, np.eye(m.joint_dim), atol=1e-15)

    def test_requires_pulses(self):
        m = benchmark_model()
        with pytest.raises(ValueError):
            parity_kick_unitary(m, ParityKickSchedule(2, 0.1, None))

    def test_no_leakage_means_pulses_are_transparent(self):
        m = dfs2_leakage_model(("XI",), g=0.0, bath_seed=3)
        sched = ParityKickSchedule(3, 0.2, exchange_dfs2_leo())
        pulsed = parity_kick_unitary(m, sched)
        free = hermitian_exponential(m.h_joint, -sched.total_free_time)
        assert np.linalg.norm(pulsed.mat - free.mat, 2) <= 1e-10

    def test_unitarity(self):
        m = benchmark_model()
        u = parity_kick_unitary(m, ParityKickSchedule(5, 0.07, exchange_dfs2_leo()))
        dev = np.linalg.norm(u.mat.conj().T @ u.mat - np.eye(m.joint_dim))
        assert dev <= 1e-10

    def test_code_mismatch_rejected(self):
        m = hopping_model(4, seed=7, g=0.1)
        with pytest.raises(ValueError):
            parity_kick_unitary(m, ParityKickSchedule(2, 0.1, exchange_dfs2_leo()))

    def test_long_run_drift_is_a_numerical_failure(self):
        # dfs2 at joint dim 64 with 4096 cycles: cycle^n can drift past the
        # unitarity tolerance; that is a NumericalDegeneracyError, as in
        # simulate, never the ValueError of bad input
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=16)
        sched = ParityKickSchedule(4096, 2.0 / 8192, exchange_dfs2_leo())
        try:
            u = parity_kick_unitary(m, sched)
        except NumericalDegeneracyError as err:
            assert "residual" in str(err)
        else:
            assert "unitary" in u.tags


class TestCyclePowers:
    """cycle^n from its squares agrees with matrix_power of the cycle."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 5, 64, 300])
    def test_matches_matrix_power(self, n):
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=16)
        pulse = exchange_dfs2_leo()
        cycle = parity_kick_unitary(m, ParityKickSchedule(1, 0.01, pulse)).mat
        u = parity_kick_unitary(m, ParityKickSchedule(n, 0.01, pulse)).mat
        assert np.max(np.abs(u - np.linalg.matrix_power(cycle, n))) <= 1e-13


class TestPropagatorChecks:
    """Every propagator is certified before the first sample is evaluated."""

    @pytest.fixture
    def observable_calls(self, monkeypatch):
        calls = []
        observables = dynamics._observables

        def counting(*args):
            calls.append(len(args[1]))
            return observables(*args)

        monkeypatch.setattr(dynamics, "_observables", counting)
        return calls

    @pytest.mark.parametrize("pulsed", [True, False])
    def test_failed_check_is_numerical(self, monkeypatch, observable_calls,
                                       pulsed):
        m = benchmark_model()
        pulse = exchange_dfs2_leo() if pulsed else None
        monkeypatch.setattr(opalg, "UNITARY_TOL", 0.0)
        with pytest.raises(NumericalDegeneracyError):
            simulate(m, ParityKickSchedule(8, 0.05, pulse), code_state(m))
        assert observable_calls == []

    def test_drifting_run_fails_before_sampling(self, observable_calls):
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=16)
        sched = ParityKickSchedule(4096, 2.0 / 8192, exchange_dfs2_leo())
        try:
            simulate(m, sched, code_state(m))
        except NumericalDegeneracyError as err:
            assert "after 4096 cycles" in str(err)
            assert observable_calls == []
        else:
            assert sum(observable_calls) == 4097


class TestDecoupledLimit:
    def test_no_leakage_equals_free_evolution(self):
        m = dfs2_leakage_model(("XI",), g=0.0, bath_seed=3)
        lim = decoupled_limit_unitary(m, 1.3)
        free = hermitian_exponential(m.h_joint, -1.3)
        assert np.linalg.norm(lim.mat - free.mat, 2) <= 1e-12

    def test_pure_leakage_limit_is_identity(self):
        m = pure_leakage_model()
        lim = decoupled_limit_unitary(m, 2.7)
        np.testing.assert_allclose(lim.mat, np.eye(m.joint_dim), atol=1e-12)

    def test_kick_cycles_approach_limit(self):
        m = benchmark_model()
        lim = decoupled_limit_unitary(m, 0.8)
        dists = []
        for n in (1, 2, 4, 8):
            sched = ParityKickSchedule(n, 0.4 / n, exchange_dfs2_leo())
            u = parity_kick_unitary(m, sched)
            dists.append(np.linalg.norm(u.mat - lim.mat, 2))
        assert dists == sorted(dists, reverse=True)
        assert dists[-1] < dists[0] / 4


class TestSimulate:
    def test_zero_coupling_never_leaks(self):
        m = dfs2_leakage_model(("XI",), g=0.0, bath_seed=3)
        rep = simulate(m, ParityKickSchedule(6, 0.1, exchange_dfs2_leo()),
                       code_state(m))
        assert all(s.leakage_population <= 1e-12 for s in rep.samples)

    def test_leakage_starts_at_zero(self):
        m = benchmark_model()
        rep = simulate(m, ParityKickSchedule(4, 0.1, exchange_dfs2_leo()),
                       code_state(m))
        assert rep.samples[0].leakage_population <= 1e-15
        assert rep.samples[0].elapsed_time == 0.0

    def test_sample_count_and_time_grid(self):
        m = benchmark_model()
        rep = simulate(m, ParityKickSchedule(4, 0.1, exchange_dfs2_leo()),
                       code_state(m))
        assert len(rep.samples) == 5
        times = [s.elapsed_time for s in rep.samples]
        np.testing.assert_allclose(times, [0.0, 0.2, 0.4, 0.6, 0.8], atol=1e-15)

    def test_rejects_state_outside_code(self):
        m = benchmark_model()
        bad = np.zeros(4, dtype=complex)
        bad[0] = 1.0
        with pytest.raises(ValueError):
            simulate(m, ParityKickSchedule(2, 0.1, exchange_dfs2_leo()), bad)

    def test_rejects_unnormalized_state(self):
        m = benchmark_model()
        with pytest.raises(ValueError):
            simulate(m, ParityKickSchedule(2, 0.1, exchange_dfs2_leo()),
                     0.5 * code_state(m))

    @pytest.mark.parametrize("entry", [np.nan, complex(0.0, np.nan), np.inf],
                             ids=["nan", "nan_imag", "inf"])
    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    def test_rejects_non_finite_state(self, entry, pulsed):
        m = benchmark_model()
        state = np.array([0.0, entry, 0.0, 0.0])
        pulse = exchange_dfs2_leo() if pulsed else None
        with pytest.raises(ValueError, match="initial state must be finite"):
            simulate(m, ParityKickSchedule(2, 0.1, pulse), state)

    def test_free_run_uses_same_grid(self):
        m = benchmark_model()
        rep = simulate(m, ParityKickSchedule(4, 0.1, None), code_state(m))
        assert len(rep.samples) == 5
        assert rep.final_leakage > 1e-7

    def test_pulsed_beats_free_on_benchmark(self):
        m = benchmark_model()
        pulsed = simulate(m, ParityKickSchedule(16, 0.0625, exchange_dfs2_leo()),
                          code_state(m))
        free = simulate(m, ParityKickSchedule(16, 0.0625, None), code_state(m))
        assert pulsed.final_leakage < free.final_leakage / 50

    def test_fidelity_stays_high_when_pulsed(self):
        m = benchmark_model()
        rep = simulate(m, ParityKickSchedule(8, 0.05, exchange_dfs2_leo()),
                       code_state(m))
        assert all(s.code_fidelity > 0.99 for s in rep.samples)
        assert all(0.0 <= s.leakage_population <= 1.0 for s in rep.samples)

    def test_superposition_initial_state(self):
        m = benchmark_model()
        psi = (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)
        rep = simulate(m, ParityKickSchedule(4, 0.05, exchange_dfs2_leo()), psi)
        assert rep.final_leakage < 1e-4

    def test_golden_example_run(self, golden):
        m = benchmark_model()
        rep = simulate(m, ParityKickSchedule(64, 0.01, exchange_dfs2_leo()),
                       code_state(m))
        expect = golden["example_run"]
        assert rep.final_leakage <= 1e-4
        assert rep.final_leakage == pytest.approx(expect["final_leakage_pulsed"],
                                                  rel=1e-6)

    def test_csv_format(self):
        m = benchmark_model()
        rep = simulate(m, ParityKickSchedule(2, 0.1, exchange_dfs2_leo()),
                       code_state(m))
        lines = rep.csv_text().strip().split("\n")
        assert lines[0] == "step,elapsed_time,leakage_population,code_fidelity"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[2]) == 0.0


def per_sample_reference(model, schedule, state):
    """Leakage and fidelity per sample, one state at a time.

    States and targets are stepped one cycle at a time with the propagators
    of hermitian_exponential. Leakage is <psi|Q_joint|psi>; fidelity is the
    purification form of Uhlmann's fidelity on the full system space,
    ||A^dag C||_1^2 / ||C||^2 with A = psi and C = (P x I) target reshaped
    to system x bath, one nuclear norm per sample.
    """
    def fidelity(psi, target):
        shape = (model.system_dim, model.bath_dim)
        a = psi.reshape(shape)
        c = model.code.projector @ target.reshape(shape)
        norm = np.linalg.norm(c) ** 2
        if norm <= 0.0:
            return 0.0
        f = float(np.linalg.norm(a.conj().T @ c, "nuc") ** 2 / norm)
        return min(f, 1.0) if f < 1.0 + 1e-9 else f

    def leakage(psi):
        q = np.kron(model.code.complement_projector, np.eye(model.bath_dim))
        return float(np.vdot(psi, q @ psi).real)

    tau = schedule.tau
    if schedule.pulses is None:
        cycle = hermitian_exponential(model.h_joint, -2 * tau).mat
    else:
        segment = hermitian_exponential(model.h_joint, -tau).mat
        r = np.kron(schedule.pulses.unitary.mat, np.eye(model.bath_dim))
        cycle = segment @ r.conj().T @ segment @ r
    h_c, h_perp, _ = explicit_split(model)
    h_dec = Operator(h_c + h_perp, frozenset({"hermitian"}))
    target_step = hermitian_exponential(h_dec, -2 * tau).mat
    psi = np.kron(state, model.initial_bath_state)
    target = psi.copy()
    leaks, fids = [leakage(psi)], [fidelity(psi, target)]
    for _ in range(schedule.n_cycles):
        psi = cycle @ psi
        target = target_step @ target
        leaks.append(leakage(psi))
        fids.append(fidelity(psi, target))
    return leaks, fids


class TestBatchedObservables:
    CASES = {
        "dfs2_j16": lambda: (benchmark_model(), exchange_dfs2_leo()),
        "hopping8": lambda: (hopping_model(8, seed=7, g=0.2), None),
        "linear_optics_bath1": lambda: (linear_optics_model(seed=5, g=0.2), None),
    }

    # 600 and 1000 take several C^256 advances and end on a partial batch
    @pytest.mark.parametrize("n", [0, 255, 256, 257, 600, 1000])
    @pytest.mark.parametrize("pulsed", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_sample_reference(self, case, pulsed, n):
        m, pulse = self.CASES[case]()
        if pulsed and pulse is None:
            pulse = projector_leo(m.code)
        sched = ParityKickSchedule(n, 0.9 / max(n, 1), pulse if pulsed else None)
        state = code_state(m)
        rep = simulate(m, sched, state)
        leaks, fids = per_sample_reference(m, sched, state)
        assert [s.step for s in rep.samples] == list(range(n + 1))
        np.testing.assert_allclose([s.leakage_population for s in rep.samples],
                                   leaks, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose([s.code_fidelity for s in rep.samples],
                                   fids, rtol=1e-12, atol=1e-12)


class TestSweep:
    def test_single_point_matches_simulate(self):
        # the sweep diagonalizes once for every n; each row must still be
        # bit-identical to a standalone simulate call
        m = benchmark_model()
        pulse = exchange_dfs2_leo()
        table = sweep_cycles(m, 0.8, (1, 2, 4, 8), code_state(m), pulse)
        assert [r.n for r in table.rows] == [1, 2, 4, 8]
        for row in table.rows:
            assert row.tau == pytest.approx(0.4 / row.n)
            direct = simulate(m, ParityKickSchedule(row.n, row.tau, pulse),
                              code_state(m))
            assert row.final_leakage == direct.final_leakage
            assert row.distance_to_limit == direct.distance_to_limit

    def test_rows_ordered_and_deterministic(self):
        m = benchmark_model()
        pulse = exchange_dfs2_leo()
        a = sweep_cycles(m, 0.8, (1, 2, 4, 8), code_state(m), pulse)
        b = sweep_cycles(benchmark_model(), 0.8, (1, 2, 4, 8), code_state(m),
                         pulse)
        assert [r.n for r in a.rows] == [1, 2, 4, 8]
        assert a.rows == b.rows

    def test_rejects_non_finite_state(self):
        m = benchmark_model()
        state = np.array([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError, match="initial state must be finite"):
            sweep_cycles(m, 0.8, (1, 2, 4), state, exchange_dfs2_leo())

    def test_rejects_bad_n_list(self):
        m = benchmark_model()
        pulse = exchange_dfs2_leo()
        with pytest.raises(ValueError):
            sweep_cycles(m, 0.8, (), code_state(m), pulse)
        with pytest.raises(ValueError):
            sweep_cycles(m, 0.8, (4, 2), code_state(m), pulse)
        with pytest.raises(ValueError):
            sweep_cycles(m, 0.8, (0, 2), code_state(m), pulse)

    def test_rejects_non_integer_n_list(self):
        # int() would silently run n = 1 and 4 and label the rows so
        m = benchmark_model()
        with pytest.raises(ValueError, match="integers"):
            sweep_cycles(m, 0.8, [1.9, 4.2], code_state(m), exchange_dfs2_leo())

    def test_numpy_integer_n_list_accepted(self):
        m = benchmark_model()
        pulse = exchange_dfs2_leo()
        a = sweep_cycles(m, 0.8, np.array([1, 2]), code_state(m), pulse)
        b = sweep_cycles(m, 0.8, (1, 2), code_state(m), pulse)
        assert a.rows == b.rows

    def test_csv_header(self):
        m = benchmark_model()
        table = sweep_cycles(m, 0.4, (1, 2), code_state(m), exchange_dfs2_leo())
        lines = table.csv_text().strip().split("\n")
        assert lines[0] == "n,tau,final_leakage,distance_to_limit"
        assert len(lines) == 3

    def test_golden_convergence(self, golden):
        m = benchmark_model()
        table = sweep_cycles(m, 2.0, tuple(golden["convergence"]["n_list"]),
                             code_state(m), exchange_dfs2_leo())
        expect_d = golden["convergence"]["distances"]
        expect_l = golden["convergence"]["final_leakages"]
        for row, d, leak in zip(table.rows, expect_d, expect_l):
            assert row.distance_to_limit == pytest.approx(d, rel=1e-6)
            assert row.final_leakage == pytest.approx(leak, rel=1e-6)
        dists = [r.distance_to_limit for r in table.rows]
        assert dists == sorted(dists, reverse=True)

    def test_single_cycle_trotter_slope(self, golden):
        m = benchmark_model()
        taus = golden["single_cycle"]["taus"]
        defects = []
        pulse = exchange_dfs2_leo()
        for tau in taus:
            u = parity_kick_unitary(m, ParityKickSchedule(1, tau, pulse))
            lim = decoupled_limit_unitary(m, 2 * tau)
            defects.append(float(np.linalg.norm(u.mat - lim.mat, 2)))
        slope = float(np.polyfit(np.log(taus), np.log(defects), 1)[0])
        assert slope == pytest.approx(2.0, abs=0.1)
        assert slope == pytest.approx(golden["single_cycle"]["loglog_slope"],
                                      abs=1e-3)


class TestProjectorPulseAgreesWithExchange:
    def test_same_trajectory(self):
        # both routes produce the identical reflection on dfs2, so the
        # simulated dynamics must match to machine precision
        m = benchmark_model()
        a = simulate(m, ParityKickSchedule(8, 0.05, exchange_dfs2_leo()),
                     code_state(m))
        b = simulate(m, ParityKickSchedule(8, 0.05,
                                           projector_leo(dfs2_dephasing())),
                     code_state(m))
        assert a.final_leakage == pytest.approx(b.final_leakage, rel=1e-9)


class TestPulseMustMatchModelCode:
    """A pulse is accepted for a model only if its code is the model's
    subspace; a shared label is not enough."""

    @staticmethod
    def mislabelled_model():
        # labelled "dfs2" but spanning {|00>, |01>}, which XX leaks out of
        code = CodeSubspace("dfs2", np.eye(4)[:, :2])
        return SystemBathModel.from_terms(
            code, [(0.05, pauli_string("XX"), random_hermitian(4, 3))],
            bath_dim=4, free_bath=random_hermitian(4, 4),
        )

    def test_same_label_other_subspace_rejected(self):
        m = self.mislabelled_model()
        pulse = exchange_dfs2_leo()
        assert not verify_leo(pulse.unitary, m.code).passed
        sched = ParityKickSchedule(64, 2.0 / 128, pulse)
        with pytest.raises(ValueError, match="different code"):
            simulate(m, sched, code_state(m))
        with pytest.raises(ValueError, match="different code"):
            parity_kick_unitary(m, sched)
        with pytest.raises(ValueError, match="different code"):
            sweep_cycles(m, 2.0, [1, 2], code_state(m), pulse)

    def test_pulse_for_the_subspace_accepted(self):
        m = self.mislabelled_model()
        pulsed = simulate(m, ParityKickSchedule(64, 2.0 / 128,
                                                projector_leo(m.code)),
                          code_state(m))
        free = simulate(m, ParityKickSchedule(64, 2.0 / 128, None),
                        code_state(m))
        assert pulsed.final_leakage < 1e-3 * free.final_leakage


class TestSpectralCache:
    """Each model diagonalizes its two generators once, for every caller."""

    def test_two_eigh_for_every_propagator(self, monkeypatch):
        m = benchmark_model()
        pulse = exchange_dfs2_leo()
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        simulate(m, ParityKickSchedule(8, 0.05, pulse), code_state(m))
        simulate(m, ParityKickSchedule(8, 0.05, None), code_state(m))
        sweep_cycles(m, 0.8, (1, 2, 4), code_state(m), pulse)
        parity_kick_unitary(m, ParityKickSchedule(4, 0.1, pulse))
        decoupled_limit_unitary(m, 0.8)
        assert calls == [(m.joint_dim, m.joint_dim)] * 2

    def test_cached_arrays_are_read_only(self):
        m = benchmark_model()
        for w, v in m.spectra:
            assert not w.flags.writeable
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0, 0] = 0.0

    def test_limit_and_kick_come_from_the_cache(self):
        m = benchmark_model()
        pulse = exchange_dfs2_leo()
        h_c, h_perp, _ = explicit_split(m)
        np.testing.assert_array_equal(
            decoupled_limit_unitary(m, 0.8).mat,
            hermitian_exponential(
                Operator(h_c + h_perp, frozenset({"hermitian"})), -0.8).mat)
        u = parity_kick_unitary(m, ParityKickSchedule(1, 0.1, pulse))
        segment = hermitian_exponential(m.h_joint, -0.1).mat
        np.testing.assert_array_equal(
            u.mat, kick_contraction(segment, pulse.unitary.mat))


def kick_contraction(segment, r):
    """S (R^dag x I) S (R x I) with R applied on the system index only."""
    j, s = segment.shape[0], r.shape[0]
    t = (r.T @ segment.reshape(j, s, -1)).reshape(j, j)
    t = (r.conj().T @ t.reshape(s, -1)).reshape(j, j)
    return segment @ t


class TestKickContraction:
    """The system-index kick equals the product with kron(R, I)."""

    CASES = {
        "dfs2_bath1": lambda: dfs2_leakage_model(("XI",), g=0.05, bath_seed=3,
                                                 bath_dim=1),
        "dfs2_bath4": benchmark_model,
        "dfs2_bath16": lambda: dfs2_leakage_model(("XI",), g=0.05, bath_seed=3,
                                                  bath_dim=16),
        "hopping8": lambda: hopping_model(8, seed=7, g=0.2),
        "linear_optics_bath1": lambda: linear_optics_model(seed=5, g=0.2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_kron_product(self, case):
        m = self.CASES[case]()
        pulse = (exchange_dfs2_leo() if case.startswith("dfs2")
                 else projector_leo(m.code))
        u = parity_kick_unitary(m, ParityKickSchedule(1, 0.1, pulse)).mat
        segment = hermitian_exponential(m.h_joint, -0.1).mat
        r = np.kron(pulse.unitary.mat, np.eye(m.bath_dim))
        assert np.max(np.abs(u - segment @ r.conj().T @ segment @ r)) <= 1e-14


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestSpectralDistance:
    """The Gram-matrix distance is the spectral norm of the difference."""

    @pytest.mark.parametrize("eps", [1e-10, 1e-6, 1e-2, 1.0, None])
    @pytest.mark.parametrize("dim", [16, 64, 256])
    def test_matches_svd_norm(self, dim, eps):
        rng = np.random.default_rng(dim)
        a = random_unitary(dim, rng)
        if eps is None:
            b = random_unitary(dim, rng)    # generic pair, distance near 2
        else:
            h = random_hermitian(dim, dim + 1)
            b = a @ hermitian_exponential(h, eps).mat
        want = np.linalg.norm(a - b, 2)
        assert 1e-11 < want <= 2.0
        assert abs(_spectral_distance(a, b) - want) <= 1e-13 * want

    def test_opposite_unitaries_are_two_apart(self):
        a = random_unitary(64, np.random.default_rng(1))
        assert _spectral_distance(a, -a) == pytest.approx(2.0, rel=1e-13)

    @pytest.mark.parametrize("dim", [1, 16, 256])
    def test_equal_inputs_give_zero(self, dim):
        a = random_unitary(dim, np.random.default_rng(dim))
        assert _spectral_distance(a, a.copy()) == 0.0

    def test_sweep_distance_halves_per_doubling(self):
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=16)
        table = sweep_cycles(m, 2.0, (8, 16, 32, 64), code_state(m),
                             exchange_dfs2_leo())
        d = [r.distance_to_limit for r in table.rows]
        for coarse, fine in zip(d, d[1:]):
            assert coarse / fine == pytest.approx(2.0, abs=0.01)
