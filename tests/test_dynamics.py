import copy
import gc
import json
import math
import pickle
import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from model_split import explicit_split
from pair_models import MODELS as PAIR_MODELS

from leolab import dynamics, models, opalg
from leolab.codes import (
    CodeSubspace,
    bare_qubit_code,
    build_code,
    dfs2_dephasing,
    dual_rail_code,
)
from leolab.dynamics import (
    ParityKickSchedule,
    _spectral_distance,
    decoupled_limit_unitary,
    parity_kick_unitary,
    simulate,
    sweep_cycles,
)
from leolab.leo import (
    LeakageEliminationOperator,
    canonical_leo,
    exchange_dfs2_leo,
    number_operator_leo,
    phase_shifter_leo,
    projector_leo,
    verify_leo,
)
from leolab.models import (
    SystemBathModel,
    dfs2_leakage_model,
    hopping_model,
    linear_optics_model,
    logical_ops_dfs2,
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


def code_acting_model():
    """dfs2 with a logical X x B term next to its leakage: the code block
    of H' acts on the code, so the model is not decoherence-free."""
    return SystemBathModel.from_terms(
        dfs2_dephasing(), [(0.2, logical_ops_dfs2().x, random_hermitian(4, 11)),
                           (0.2, pauli_string("XI"), random_hermitian(4, 12))],
        free_bath=random_hermitian(4, 13))


def pure_leakage_model():
    b = random_hermitian(2, 17)
    return SystemBathModel.from_terms(
        dfs2_dephasing(), [(0.4, pauli_string("XI"), b)])


def live_views(m, state):
    _, phi0 = dynamics._frame_state(m, state)
    return [v for v in dynamics._live(m, phi0) if v is not None]


def rule_stride(views, n):
    """The stride a pulsed run of n cycles steps by: log2 s = min(floor(n
    sum_v c_v J_v^2 / sum_v p_v J_v^3), floor(log2 min(n, 256))), over the
    live views v with c_v live copies of dim J_v, p_v = 1/2 for a pair and
    1 otherwise; s = 1 for n = 0."""
    if n == 0:
        return 1
    states = n * sum(len(v.rows) * v.rows.shape[1] ** 2 for v in views)
    squares = sum(Fraction(1, 2 if v.zeta is not None else 1) * v.rows.shape[1] ** 3
                  for v in views)
    return 2 ** min(math.floor(states / squares),
                    math.floor(math.log2(min(n, dynamics.OBSERVABLE_BATCH))))


def shipped_config(bench_dir):
    """The model of the shipped config and its cycle count."""
    with open(bench_dir / "dfs2_benchmark.json") as fh:
        config = json.load(fh)
    return models.model_from_config(config), config["schedule"]["n_cycles"]


def extended_leakage(m, state, n, tau):
    """The leakage at k = 0..n of stepping each live view's double cycle C
    (dynamics._cycle) one cycle at a time in np.clongdouble: the oracle of
    the pulsed states' error model (TestStateNormCheck's
    test_long_run_against_extended_precision)."""
    _, phi0 = dynamics._frame_state(m, state)
    leakage = np.zeros(n + 1, dtype=np.longdouble)
    for view in live_views(m, state):
        c = dynamics._cycle(view, tau).astype(np.clongdouble)
        psi = phi0[view.rows].astype(np.clongdouble)  # a row per live copy
        for k in range(n + 1):
            leakage[k] += np.sum(np.abs(psi[:, view.n_code:]) ** 2)
            psi = psi @ c.T
    return leakage


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
        # a Python int no float holds: bad input naming tau, not a TypeError
        with pytest.raises(ValueError, match="^tau must be positive and finite$"):
            ParityKickSchedule(4, 10**400, None)

    def test_rejects_a_total_time_that_overflows(self):
        # 2 n tau = inf is bad input, not a numerical failure of the limit
        for tau in (1e308, np.float64(1e308)):  # no overflow warning either
            with pytest.raises(ValueError, match="total free time"):
                ParityKickSchedule(4, tau, None)
        assert ParityKickSchedule(0, 1e308, None).total_free_time == 0.0

    def test_rejects_a_cycle_count_past_the_float_range(self):
        # 2 n tau cannot even be formed: still bad input, naming n_cycles
        with pytest.raises(ValueError, match=f"n_cycles {10**400}$"):
            ParityKickSchedule(10**400, 0.1, None)

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


class TestCycleCountTooLarge:
    """A cycle count whose n + 1 float64 samples no array can hold (n + 1
    over sys.maxsize // 8) is rejected by simulate with the other input
    checks, before any eigendecomposition, pulsed or free."""

    @pytest.mark.parametrize("n", [2**60 - 1, 2**62, sys.maxsize, 2**70],
                             ids=["2^60-1", "2^62", "maxsize", "2^70"])
    @pytest.mark.parametrize("pulsed", [True, False])
    def test_value_error_before_spectra(self, n, pulsed):
        m = benchmark_model()
        sched = ParityKickSchedule(n, 2.0 / (2 * n),
                                   exchange_dfs2_leo() if pulsed else None)
        with pytest.raises(ValueError, match="n_cycles"):
            simulate(m, sched, code_state(m))
        assert "_frame_blocks" not in vars(m)  # spectra never formed

    def test_largest_holdable_count_passes_the_check(self, monkeypatch):
        # 2^60 - 2 is not rejected here: the run goes on to step, patched so
        # that nothing is allocated
        class Stepped(Exception):
            pass

        def free(*args):
            raise Stepped

        monkeypatch.setattr(dynamics, "_free", free)
        m = benchmark_model()
        sched = ParityKickSchedule(2**60 - 2, 1e-20, None)
        with pytest.raises(Stepped):
            simulate(m, sched, code_state(m))


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
        # unitarity tolerance; that is a NumericalDegeneracyError, as in a
        # sweep row or a report's distance, never the ValueError of bad input
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
            calls.append(len(args[1][0]))  # samples in the first sector's part
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

    def test_long_run_samples_every_cycle(self, observable_calls):
        # simulate certifies the stride C^256 it steps with, not cycle^n,
        # whose drift only the distance reads
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=16)
        sched = ParityKickSchedule(4096, 2.0 / 8192, exchange_dfs2_leo())
        simulate(m, sched, code_state(m))
        assert sum(observable_calls) == 4097

    def test_drift_message_names_the_propagator(self, monkeypatch):
        m = benchmark_model()
        sched = ParityKickSchedule(8, 0.05, exchange_dfs2_leo())
        spectra = m.spectra  # certified while the tolerance still holds
        monkeypatch.setattr(opalg, "UNITARY_TOL", 0.0)
        drift = "unitary tag violated: residual"
        with pytest.raises(NumericalDegeneracyError,
                           match=f"^spectral exponential: {drift}"):
            hermitian_exponential(m.h_joint, -0.05)
        # the free total, formed from the sectors' spectra, keeps that name
        with pytest.raises(NumericalDegeneracyError,
                           match=f"^spectral exponential: {drift}"):
            dynamics._free_total(m, 8, 0.05)
        # the segment has no check of its own: cycle^n is the first
        with pytest.raises(NumericalDegeneracyError,
                           match=f"^total propagator after 8 cycles: {drift}"):
            parity_kick_unitary(m, sched)
        with pytest.raises(NumericalDegeneracyError,
                           match=f"^decoupled limit: {drift}"):
            decoupled_limit_unitary(m, 0.8)
        # simulate certifies the stride a pulsed run steps with, then the
        # cycle; the limit waits for the first read of the distance, which
        # certifies it before the run's total, pulsed or free
        s = rule_stride(live_views(m, code_state(m)), 8)
        assert s == 4
        with pytest.raises(NumericalDegeneracyError,
                           match=f"^cycle\\^{s}, the stride of 8 cycles: {drift}"):
            simulate(m, sched, code_state(m))
        for pulse in (sched.pulses, None):
            monkeypatch.setattr(opalg, "UNITARY_TOL", 1e-10)
            report = simulate(m, ParityKickSchedule(8, 0.05, pulse), code_state(m))
            monkeypatch.setattr(opalg, "UNITARY_TOL", 0.0)
            with pytest.raises(NumericalDegeneracyError,
                               match=f"^decoupled limit: {drift}"):
                report.distance_to_limit
        # a model diagonalized under the zero tolerance fails at its
        # eigenvector certificate, before any propagator is formed: the
        # first a pair certifies is its half A + zeta G
        fresh = benchmark_model()
        for run in (lambda: parity_kick_unitary(fresh, sched),
                    lambda: simulate(fresh, sched, code_state(fresh))):
            with pytest.raises(NumericalDegeneracyError, match=r"^eigenvectors of "
                               r"the half A \+ zeta G: residual"):
                run()


class TestStateNormCheck:
    """A pulsed run checks its states' norms against the bound derived in
    _norm_bound, linear in k: |nu_k - nu_0| <= (sum of rho_P over the
    products that reach psi_k + 2 L eps) nu_0, one product with C^(2^i)
    per set bit i of k % s and one with the stride C^s per advance, s the
    run's stride (rule_stride), rho_P
    = r_P + sqrt(2) (J + 2) sqrt(J) eps. r_P is the certified residual plus
    g = sqrt(2) (J + 2) J eps for the cycle and the stride, and r_(i+1) = 2
    r_i + 2 g for the squares between them."""

    MODELS = {
        "dfs2_xi_j16": lambda: (dfs2_leakage_model(("XI",), g=0.05, bath_seed=3,
                                                   bath_dim=4), exchange_dfs2_leo()),
        "dfs2_xz_j64": lambda: (dfs2_leakage_model(("XZ",), g=0.05, bath_seed=3,
                                                   bath_dim=16), exchange_dfs2_leo()),
        "hopping5": lambda: (hopping_model(5, seed=7, g=0.2, bath_dim=3),
                             number_operator_leo(5)),
        "linear_optics": lambda: (linear_optics_model(seed=5, g=0.2),
                                  phase_shifter_leo()),
        "dfs3": lambda: (dense_frame_model(build_code("dfs3")),
                         projector_leo(build_code("dfs3"))),
        "dfs4": lambda: (dense_frame_model(build_code("dfs4")),
                         projector_leo(build_code("dfs4"))),
    }

    @staticmethod
    def run(monkeypatch, m, sched, state):
        """simulate's report, its states' norms, the residuals it
        certified (the stride's, then the cycle's if it is not the stride)
        and the bound it checked the norms against."""
        norms, residuals, bounds = [], [], []
        observables, certified = dynamics._observables, dynamics._certified
        check = dynamics._certified_norms

        def observed(sectors, parts, *args):
            norms.append(sum(np.sum(np.abs(p) ** 2, axis=(1, 2)) for p in parts))
            return observables(sectors, parts, *args)

        def recorded(sectors, blocks, what):
            residuals.append(certified(sectors, blocks, what))
            return residuals[-1]

        def checked(nu, bound):
            bounds.append(bound)
            return check(nu, bound)

        monkeypatch.setattr(dynamics, "_observables", observed)
        monkeypatch.setattr(dynamics, "_certified", recorded)
        monkeypatch.setattr(dynamics, "_certified_norms", checked)
        report = simulate(m, sched, state)
        return report, np.concatenate(norms), residuals, bounds

    @pytest.mark.parametrize("case", sorted(MODELS))
    @pytest.mark.parametrize("total_time", [2.0, 50.0])
    @pytest.mark.parametrize("n", [1, 3, 255, 256, 300, 4096])
    def test_drift_within_the_bound(self, monkeypatch, case, total_time, n):
        m, pulse = self.MODELS[case]()
        state = (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)
        sched = ParityKickSchedule(n, total_time / (2 * n), pulse)
        _, nu, r, (checked,) = self.run(monkeypatch, m, sched, state)
        views = live_views(m, state)
        j = max(v.rows.shape[1] for v in views)
        live_rows = sum(v.rows.size for v in views)
        s = rule_stride(views, n)
        log_s = s.bit_length() - 1
        assert len(r) == 1 + (log_s > 0)
        eps = np.finfo(float).eps
        g = np.sqrt(2.0) * (j + 2) * j * eps
        squares = [r[-1] + g]  # C, then C^2, ..., C^(s/2), then the stride
        while len(squares) < log_s:
            squares.append(2 * squares[-1] + 2 * g)
        squares[log_s:] = [r[0] + g]
        rho = np.array(squares) + np.sqrt(2.0) * (j + 2) * np.sqrt(j) * eps
        bound = np.array([
            k // s * rho[-1] + sum(p for i, p in enumerate(rho[:-1]) if k % s >> i & 1)
            for k in range(n + 1)]) + 2 * live_rows * eps
        np.testing.assert_allclose(checked, bound, rtol=1e-13, atol=0.0)
        # measured at most 0.39 of the bound over these models (linear
        # optics), and 0.055 on dfs2 XI at joint dim 256 and 0.012 on the
        # eight-level hopping model at joint dim 256, n up to 65536
        assert np.all(np.abs(nu - nu[0]) <= bound * nu[0])

    @pytest.mark.parametrize("factor", [1e-8, 1e-11])
    def test_drifting_advance_is_a_numerical_failure(self, monkeypatch, factor):
        # the advance by the stride C^s, s = 256 here, scaled by 1 + factor
        # moves nu by 2 factor per block, past the bound of 9.4e-13 at k =
        # 256, though every matrix stays within the unitarity tolerance
        m, pulse = self.MODELS["dfs2_xz_j64"]()
        s = rule_stride(live_views(m, code_state(m)), 300)
        log_s = s.bit_length() - 1
        step, calls = dynamics._step, []

        def drifting(states, u, out):
            calls.append(len(states))
            step(states, u, out)
            if len(calls) > log_s:
                out *= 1.0 + factor
            return out

        monkeypatch.setattr(dynamics, "_step", drifting)
        with pytest.raises(NumericalDegeneracyError,
                           match=f"^state norm after {s} cycles drifted by"):
            simulate(m, ParityKickSchedule(300, 0.003, pulse), code_state(m))
        # log_s doublings, then one block of s states per advance
        assert calls == [2 ** i for i in range(log_s)] + [
            min(s, 300 + 1 - k) for k in range(s, 301, s)]
        assert s == 256

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= 1e-18,
                        reason="longdouble is no wider than double here")
    def test_long_run_against_extended_precision(self, monkeypatch):
        # dfs2 XI at joint dim 64, T = 2, n = 65536, where cycle^n drifts
        # past the unitarity tolerance: the oracle steps the same double
        # cycle C one cycle at a time in clongdouble.
        # Error model: every product keeps the pair form (_product), so the
        # complement amplitude, which carries the leakage, is rounded
        # relative to its own size, by at most about J eps / 2 per product
        # (an inner product of length J, J = 32 the live sector's dim); a
        # square passes its factor's error on doubled, so C^m is within
        # m J eps / 2 of the oracle's, and psi_k, products of powers that
        # add up to k, within k J eps / 2. The leakage, a squared amplitude,
        # is then within k J eps relative, and the oracle's own stepping
        # adds k J eps_ld. Measured: at most 0.02 of that at every k.
        # The norm moves by the drift of the products, to first order k r_C
        # for the cycle's residual r_C (as cycle^k's), and by the rounding
        # of the a_k products that reach psi_k, each as in _norm_bound:
        # measured 8.5e-12, 0.09 of the bound.
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=16)
        n = 65536
        sched = ParityKickSchedule(n, 2.0 / (2 * n), exchange_dfs2_leo())
        report, nu, _, _ = self.run(monkeypatch, m, sched, code_state(m))
        (view,) = live_views(m, code_state(m))
        j = view.rows.shape[1]
        leakage = extended_leakage(m, code_state(m), n, sched.tau)
        k = np.arange(1, n + 1)
        eps, eps_ld = np.finfo(float).eps, float(np.finfo(np.longdouble).eps)
        assert leakage[1:].min() > 0 and report.leakage_population[0] == 0
        error = np.abs(report.leakage_population[1:] - leakage[1:]) / leakage[1:]
        assert np.all(error <= k * j * (eps + eps_ld))
        c = dynamics._cycle(view, sched.tau).astype(np.clongdouble)
        gram = c.conj().T @ c - np.eye(j)
        r_c = float(np.sqrt(np.sum(np.abs(gram) ** 2)))
        s = rule_stride([view], n)
        a = k // s + np.array([bin(x % s).count("1") for x in k])
        bound = (k * r_c + a * np.sqrt(2.0) * (j + 2) * np.sqrt(j) * eps
                 + 2 * j * eps)
        assert nu[0] == 1.0
        assert np.all(np.abs(nu[1:] - 1.0) <= bound)


class TestStride:
    """A pulsed run steps its states by one stride C^s per run: the first s
    states by doubling, each later block of s states by one product with
    C^s. s comes from the rule that no more flops go to the squarings than
    to stepping the states (rule_stride, dynamics._stride)."""

    # perfbench's pulsed rungs (bath seed 3, as at its seed 0) and the
    # shipped config: the model, the cycle count and the rule's stride
    RUNGS = {
        "dfs2_j16_n4096": (lambda _: (dfs2_leakage_model(
            ["XI"], 0.05, 3, bath_dim=4), 4096), 256),
        "dfs2_j64_n4096": (lambda _: (dfs2_leakage_model(
            ["XI"], 0.05, 3, bath_dim=16), 4096), 256),
        "dfs2_j256_n1024": (lambda _: (dfs2_leakage_model(
            ["XI"], 0.05, 3, bath_dim=64), 1024), 256),
        "hopping8_j256_n1024": (lambda _: (hopping_model(
            8, 3, 0.05, bath_dim=32), 1024), 16),
        "dfs2_j512_n64": (lambda _: (dfs2_leakage_model(
            ["XI"], 0.05, 3, bath_dim=128), 64), 1),
        "shipped_config": (shipped_config, 64),
    }

    @pytest.mark.parametrize("rung", list(RUNGS))
    def test_benchmark_rungs(self, bench_dir, rung):
        build, s = self.RUNGS[rung]
        m, n = build(bench_dir)
        views = live_views(m, code_state(m))
        assert dynamics._stride(views, n) == rule_stride(views, n) == s

    def test_zero_and_one_cycle_step_by_the_cycle(self):
        m = benchmark_model()
        views = live_views(m, code_state(m))
        assert dynamics._stride(views, 0) == dynamics._stride(views, 1) == 1

    # (bath dim, n, start, s): the j512 rung from a basis state (s = 1, a
    # plain chain by the cycle) and from a superposition (two live copies,
    # s = 2), and dfs2 at joint dim 256 over 256 cycles (s = 16: fifteen
    # blocks in the first batch, one in the second) and over 1000 (s =
    # 256, one block per batch)
    SHORT = [(128, 64, "basis", 1), (128, 64, "superposition", 2),
             (64, 256, "basis", 16), (64, 1000, "basis", 256)]

    @staticmethod
    def start(m, kind):
        if kind == "basis":
            return code_state(m)
        return (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)

    @pytest.mark.parametrize("bath_dim,n,kind,s", SHORT)
    def test_short_strides_against_extended_precision(self, bath_dim, n, kind, s):
        # the error model of test_long_run_against_extended_precision: every
        # product keeps the pair form, so psi_k, products of powers that add
        # up to k, is within k J eps / 2 of the clongdouble oracle's, and
        # the leakage within k J eps relative, plus the oracle's own k J
        # eps_ld; J is the live sector's dim
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=bath_dim)
        state = self.start(m, kind)
        (view,) = live_views(m, state)
        assert rule_stride([view], n) == s
        sched = ParityKickSchedule(n, 2.0 / (2 * n), exchange_dfs2_leo())
        got = simulate(m, sched, state).leakage_population
        want = extended_leakage(m, state, n, sched.tau)
        k, j = np.arange(1, n + 1), view.rows.shape[1]
        eps, eps_ld = np.finfo(float).eps, float(np.finfo(np.longdouble).eps)
        assert want[1:].min() > 0 and got[0] == 0
        error = np.abs(got[1:] - want[1:]) / want[1:]
        assert np.all(error <= k * j * (eps + eps_ld))

    @pytest.mark.parametrize("bath_dim,n", [(64, 256), (128, 64)])
    def test_norm_bound_at_a_stride_switch(self, monkeypatch, bath_dim, n):
        # psi_s and psi_2s take one and two products with the stride and
        # none with a square; psi_(s-1) takes every square once, psi_(s+1)
        # the stride and the cycle
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=bath_dim)
        views = live_views(m, code_state(m))
        s = rule_stride(views, n)
        sched = ParityKickSchedule(n, 2.0 / (2 * n), exchange_dfs2_leo())
        _, nu, r, (bound,) = TestStateNormCheck.run(monkeypatch, m, sched,
                                                    code_state(m))
        j = max(v.rows.shape[1] for v in views)
        eps = np.finfo(float).eps
        g = np.sqrt(2.0) * (j + 2) * j * eps
        product = np.sqrt(2.0) * (j + 2) * np.sqrt(j) * eps
        read = 2 * sum(v.rows.size for v in views) * eps
        stride = r[0] + g + product
        squares = [(r[-1] + 3 * g) * 2 ** i - 2 * g + product
                   for i in range(s.bit_length() - 1)]
        for k, want in [(s, stride), (2 * s, 2 * stride),
                        (s - 1, sum(squares)),
                        (s + 1, stride + (squares[0] if squares else stride))]:
            assert bound[k] == pytest.approx(want + read, rel=1e-13, abs=0.0), k
        assert np.all(np.abs(nu - nu[0]) <= bound * nu[0])

    @pytest.mark.parametrize("bath_dim,n", [(64, 256), (128, 64)])
    def test_drifting_stride_fails_at_the_first_block(self, monkeypatch,
                                                      bath_dim, n):
        # each block's product with C^s scaled by 1 + 1e-8 moves nu by 2e-8
        # at k = s, far past the bound there
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=bath_dim)
        s = rule_stride(live_views(m, code_state(m)), n)
        step, calls = dynamics._step, []

        def drifting(states, u, out):
            calls.append(len(states))
            step(states, u, out)
            if len(calls) > s.bit_length() - 1:
                out *= 1.0 + 1e-8
            return out

        monkeypatch.setattr(dynamics, "_step", drifting)
        with pytest.raises(NumericalDegeneracyError,
                           match=f"^state norm after {s} cycles drifted by"):
            simulate(m, ParityKickSchedule(n, 2.0 / (2 * n), exchange_dfs2_leo()),
                     code_state(m))
        # the doublings, then a block of s states (the last of what is left)
        # per advance
        assert calls == [2 ** i for i in range(s.bit_length() - 1)] + [
            min(s, n + 1 - k) for k in range(s, n + 1, s)]


class TestDeferredDistance:
    """simulate forms no limit, no total (cycle^n or the free total) and no
    distance; the report forms them on the first read of distance_to_limit
    and keeps the value."""

    MODELS = {
        "pair": lambda: (benchmark_model(), exchange_dfs2_leo()),
        "distinct": lambda: (dfs2_leakage_model(("XZ",), g=0.2, bath_seed=3,
                                                bath_dim=4), exchange_dfs2_leo()),
        "hopping": lambda: (hopping_model(5, seed=7, g=0.2, bath_dim=3),
                            number_operator_leo(5)),
    }

    @pytest.fixture
    def calls(self, monkeypatch):
        return {name: counting(monkeypatch, name)
                for name in ("_limit", "_pulsed", "_free_total", "_distance")}

    @pytest.mark.parametrize("case", sorted(MODELS))
    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    def test_formed_once_on_first_read(self, calls, case, pulsed):
        m, pulse = self.MODELS[case]()
        sched = ParityKickSchedule(300, 0.003, pulse if pulsed else None)
        report = simulate(m, sched, code_state(m))
        assert {name: len(c) for name, c in calls.items()} == {
            "_limit": 0, "_pulsed": 0, "_free_total": 0, "_distance": 0}
        first = report.distance_to_limit
        assert report.distance_to_limit == first and type(first) is float
        assert {name: len(c) for name, c in calls.items()} == {
            "_limit": 1, "_pulsed": int(pulsed), "_free_total": int(not pulsed),
            "_distance": 1}
        assert calls["_limit"][0][1] == sched.total_free_time

    @pytest.mark.parametrize("case", sorted(MODELS))
    def test_read_after_another_run_matches_the_public_propagators(self, case):
        m, pulse = self.MODELS[case]()
        sched = ParityKickSchedule(8, 0.05, pulse)
        report = simulate(m, sched, code_state(m))
        free = simulate(m, ParityKickSchedule(8, 0.05, None), code_state(m))
        # another run on the same model between the call and the read
        simulate(m, ParityKickSchedule(3, 0.07, pulse), code_state(m)).distance_to_limit
        want = _spectral_distance(
            parity_kick_unitary(m, sched).mat,
            decoupled_limit_unitary(m, sched.total_free_time).mat)
        # sector by sector against the whole matrix: rounding, O(J eps)
        assert report.distance_to_limit == pytest.approx(want, rel=1e-12)
        free_total = hermitian_exponential(m.h_joint, -sched.total_free_time).mat
        want = _spectral_distance(
            free_total, decoupled_limit_unitary(m, sched.total_free_time).mat)
        assert free.distance_to_limit == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    def test_read_lets_go_of_the_model_and_totals(self, monkeypatch, pulsed):
        refs = []

        def watched(name):
            total = getattr(dynamics, name)

            def formed(*args):
                totals, halves = total(*args)  # frame blocks, diagonal blocks
                refs.extend(map(weakref.ref, totals))
                return totals, halves

            monkeypatch.setattr(dynamics, name, formed)

        watched("_pulsed")
        watched("_free_total")
        m, pulse = self.MODELS["distinct"]()
        refs.append(weakref.ref(m))
        report = simulate(m, ParityKickSchedule(8, 0.05, pulse if pulsed else None),
                          code_state(m))
        del m
        gc.collect()
        # an unread report keeps its model and no total, pulsed or free
        assert len(refs) == 1 and refs[0]() is not None
        report.distance_to_limit
        gc.collect()
        # the read formed the run's total, one block per sector, and let go
        # of it and of the model
        assert len(refs) == 3
        assert all(ref() is None for ref in refs)

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    def test_pickle_and_copy_carry_the_value(self, calls, pulsed):
        m, pulse = self.MODELS["pair"]()
        report = simulate(m, ParityKickSchedule(8, 0.05, pulse if pulsed else None),
                          code_state(m))
        loaded = pickle.loads(pickle.dumps(report))  # read here, once
        assert len(calls["_distance"]) == 1
        for other in (loaded, copy.copy(report), copy.deepcopy(report)):
            assert other.distance_to_limit == report.distance_to_limit
            assert np.array_equal(other.leakage_population,
                                  report.leakage_population)
            assert np.array_equal(other.code_fidelity, report.code_fidelity)
            assert other.tau == report.tau
        assert len(calls["_distance"]) == 1


def perturbed_spectra(monkeypatch, index, factor):
    """Make the index-th spectrum a model diagonalizes come back with V's
    first column scaled by factor: for a sector that does not pair, 0 is
    H_joint, 1 the code block and 2 the complement block; for a pair, 0
    and 1 its halves and 2 the code block."""
    calls = []
    spectrum = models.hermitian_spectrum

    def perturbed(h):
        w, v = spectrum(h)
        calls.append(h.dim)
        if len(calls) - 1 == index:
            v = v.copy()
            v[:, 0] *= factor
        return w, v

    monkeypatch.setattr(models, "hermitian_spectrum", perturbed)


class TestEigenvectorCertificate:
    """SystemBathModel.spectra certifies each eigenvector matrix once:
    ||V^dag V - I||_F <= UNITARY_TOL / 4, else a NumericalDegeneracyError
    before any sample or sweep row."""

    # scaling one column by 1 + d moves ||V^dag V - I||_F by about 2d: past
    # UNITARY_TOL / 4 = 2.5e-11, but within the UNITARY_TOL a per-run
    # check of the segment would allow
    FACTOR = 1.0 + 2e-11

    @pytest.mark.parametrize("paired,index,name", [
        (False, 0, "H_joint"), (False, 1, "the code block"),
        (False, 2, "the complement block"), (True, 0, r"the half A \+ zeta G"),
        (True, 1, "the half A - zeta G"), (True, 2, "the code block")])
    def test_perturbed_eigenvectors_are_named(self, monkeypatch, paired, index,
                                              name):
        perturbed_spectra(monkeypatch, index, self.FACTOR)
        # the collective term keeps the sectors of dfs2 XI from pairing
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=4,
                               collective_strength=0.0 if paired else 0.3)
        with pytest.raises(NumericalDegeneracyError,
                           match=f"^eigenvectors of {name}: residual 4"):
            m.spectra

    @pytest.mark.parametrize("pulsed", [True, False])
    def test_fails_before_any_sample(self, monkeypatch, pulsed):
        perturbed_spectra(monkeypatch, 0, self.FACTOR)
        calls = []
        monkeypatch.setattr(dynamics, "_observables",
                            lambda *args: calls.append(args))
        m = benchmark_model()
        pulse = exchange_dfs2_leo() if pulsed else None
        with pytest.raises(NumericalDegeneracyError, match="^eigenvectors of"):
            simulate(m, ParityKickSchedule(8, 0.05, pulse), code_state(m))
        assert calls == []

    def test_fails_before_any_row(self, monkeypatch):
        perturbed_spectra(monkeypatch, 1, self.FACTOR)
        calls = []
        monkeypatch.setattr(dynamics, "_pulsed", lambda *args: calls.append(args))
        m = benchmark_model()
        with pytest.raises(NumericalDegeneracyError, match="^eigenvectors of"):
            sweep_cycles(m, 0.8, (1, 2, 4), code_state(m), exchange_dfs2_leo())
        assert calls == []

    @pytest.mark.parametrize("kind", ["hermitian", "anti_hermitian", "general"])
    @pytest.mark.parametrize("dim", [16, 64, 256])
    def test_error_model_over_random_phases(self, dim, kind):
        # V = Q (I + d X) for a random unitary Q; for any real phases,
        # ||U^dag U - I||_F <= 2e + e^2 + J^(3/2) eps, U = V e^(i phi) V^dag
        # and e = ||V^dag V - I||_F (measured: within 2e + e^2 alone)
        rng = np.random.default_rng(dim)
        q = random_unitary(dim, rng)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        x = {"hermitian": x + x.conj().T, "anti_hermitian": x - x.conj().T,
             "general": x}[kind]
        x /= np.linalg.norm(x)
        rounding = dim ** 1.5 * np.finfo(float).eps
        for d in (0.0, 1e-14, 1e-12, 1e-11, 1e-6):
            v = q @ (np.eye(dim) + d * x)
            e = opalg._unitary_residual(v)
            for scale in (1e-3, 1.0, 1e3):
                phi = scale * rng.uniform(-np.pi, np.pi, dim)
                u = opalg._spectral_matrix((phi, v), 1.0)
                assert opalg._unitary_residual(u) <= 2 * e + e * e + rounding

    @pytest.mark.parametrize("collective", [0.0, 0.3], ids=["pair", "no_pair"])
    @pytest.mark.parametrize("bath_dim", [4, 16, 64])
    def test_segment_within_the_error_model(self, bath_dim, collective):
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=bath_dim,
                               collective_strength=collective)
        for sector in m.spectra:
            # the segment's small part E is formed on each block, a pair's on
            # its halves: each I + E keeps its own block's bound
            e = max(opalg._unitary_residual(v) for _, v in sector.blocks)
            assert e <= opalg.UNITARY_TOL / 4
            rounding = sector.rows.shape[1] ** 1.5 * np.finfo(float).eps
            for tau in (1e-3, 0.05, 2.0):
                small = dynamics._segment(sector, tau)
                assert len(small) == len(sector.blocks)
                for block in small:
                    block = block + np.eye(len(block))
                    assert opalg._unitary_residual(block) <= 2 * e + e * e + rounding


class TestLeakageCertificate:
    """simulate checks the run's leakage column once, and a sweep each
    row's final leakage: a value outside [0, 1] (within 1e-12), or NaN, is
    a numerical failure."""

    @staticmethod
    def patch_leakage(monkeypatch, value, index=2):
        observables = dynamics._observables

        def patched(*args):
            leak, fid = observables(*args)
            leak[index] = value
            return leak, fid

        monkeypatch.setattr(dynamics, "_observables", patched)

    @pytest.mark.parametrize("value", [1.5, np.nan, -1e-11, 1.0 + 1e-11])
    @pytest.mark.parametrize("pulsed", [True, False])
    def test_out_of_range_is_numerical(self, monkeypatch, value, pulsed):
        m = benchmark_model()
        pulse = exchange_dfs2_leo() if pulsed else None
        self.patch_leakage(monkeypatch, value)
        with pytest.raises(NumericalDegeneracyError,
                           match=r"leakage population .* outside \[0, 1\]"):
            simulate(m, ParityKickSchedule(8, 0.05, pulse), code_state(m))

    @pytest.mark.parametrize("value", [-1e-12, 1.0 + 1e-12])
    def test_bounds_are_inclusive(self, monkeypatch, value):
        m = benchmark_model()
        self.patch_leakage(monkeypatch, value)
        rep = simulate(m, ParityKickSchedule(8, 0.05, None), code_state(m))
        assert rep.samples[2].leakage_population == value

    @pytest.mark.parametrize("value", [1.5, np.nan, -1e-11, 1.0 + 1e-11])
    def test_sweep_row_out_of_range_is_numerical(self, monkeypatch, value):
        m = benchmark_model()
        monkeypatch.setattr(dynamics, "_leakage",
                            lambda sectors, parts: np.full(len(parts[0]), value))
        with pytest.raises(NumericalDegeneracyError,
                           match=r"leakage population .* outside \[0, 1\]"):
            sweep_cycles(m, 0.8, (1, 2, 4), code_state(m), exchange_dfs2_leo())

    @pytest.mark.parametrize("value", [-1e-12, 1.0 + 1e-12])
    def test_sweep_bounds_are_inclusive(self, monkeypatch, value):
        m = benchmark_model()
        monkeypatch.setattr(dynamics, "_leakage",
                            lambda sectors, parts: np.full(len(parts[0]), value))
        table = sweep_cycles(m, 0.8, (1, 2, 4), code_state(m), exchange_dfs2_leo())
        assert [r.final_leakage for r in table.rows] == [value] * 3

    def test_a_later_batch_is_checked(self, monkeypatch):
        m = benchmark_model()
        self.patch_leakage(monkeypatch, np.nan, index=-1)
        with pytest.raises(NumericalDegeneracyError, match="nan outside"):
            simulate(m, ParityKickSchedule(600, 0.001, exchange_dfs2_leo()),
                     code_state(m))


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

    def test_rejects_an_infinite_time(self):
        # a Python int no float holds is bad input too, not a TypeError
        for total in (math.inf, 10**400, -10**400):
            with pytest.raises(ValueError, match="^total_free_time must be finite$"):
                decoupled_limit_unitary(benchmark_model(), total)

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

    @pytest.mark.parametrize("n,tau", [(4, 0.1), (600, 1.0 / 3.0), (300, 0.003)])
    def test_time_grid_is_two_tau_k(self, n, tau):
        m = benchmark_model()
        rep = simulate(m, ParityKickSchedule(n, tau, None), code_state(m))
        got = [s.elapsed_time for s in rep.samples]
        assert got == [2 * tau * k for k in range(n + 1)]
        assert all(type(t) is float for t in got)

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


REPORT_HEADER = "step,elapsed_time,leakage_population,code_fidelity"
SWEEP_HEADER = "n,tau,final_leakage,distance_to_limit"


def per_field_csv(header, rows):
    """The CSV as one f"{x:.17g}" per named field, the format the report's
    row format must reproduce byte for byte."""
    names = header.split(",")
    lines = [",".join(f"{getattr(r, k):.17g}" for k in names) for r in rows]
    return "\n".join([header, *lines]) + "\n"


class TestReportColumns:
    """A report stores its two columns; records and CSV derive from them."""

    EDGES = [0.0, -0.0, 1.0, 5e-324, 0.1]

    def test_csv_matches_per_field_format(self):
        col = np.array(self.EDGES)
        rep = dynamics.SimulationReport(0.1, col, col[::-1].copy(), lambda: 0.0)
        assert rep.csv_text() == per_field_csv(REPORT_HEADER,
                                               rep.samples)
        rows = tuple(dynamics.SweepRow(n, tau, leak, d) for n, tau, leak, d in
                     zip([1, 2, 3, 2**17, 2**20], self.EDGES, self.EDGES[::-1],
                         self.EDGES[1:] + self.EDGES[:1]))
        table = dynamics.SweepTable(rows)
        assert table.csv_text() == per_field_csv(SWEEP_HEADER, rows)
        assert table.csv_text().splitlines()[-1] == "1048576,0.10000000000000001,0,0"

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    def test_samples_are_the_columns(self, pulsed):
        m = benchmark_model()
        psi = (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)
        n, tau = 257, 1.0 / 257
        pulse = exchange_dfs2_leo() if pulsed else None
        rep = simulate(m, ParityKickSchedule(n, tau, pulse), psi)
        samples = rep.samples
        assert [tuple(s) for s in samples] == list(zip(
            range(n + 1), [2 * tau * k for k in range(n + 1)],
            rep.leakage_population.tolist(), rep.code_fidelity.tolist()))
        assert all(type(s) is dynamics.SimulationSample for s in samples)
        assert rep.final_leakage == samples[-1].leakage_population
        assert rep.csv_text() == per_field_csv(REPORT_HEADER,
                                               samples)

    @pytest.mark.parametrize("column", ["leakage_population", "code_fidelity"])
    def test_columns_are_read_only(self, column):
        m = benchmark_model()
        rep = simulate(m, ParityKickSchedule(4, 0.1, None), code_state(m))
        values = getattr(rep, column)
        assert values.dtype == np.float64 and values.shape == (5,)
        with pytest.raises(ValueError, match="read-only"):
            values[1] = 0.5


def stepper(h, t):
    """exp(-i h t) for Hermitian h from its eigh, as I + V expm1(-i w t)
    V^dag: stepped n times, the eigenvectors' rounding e = ||V^dag V -
    I||_F enters each step only as |expm1(-i w t)|^2 e, where V e^(-i w t)
    V^dag carries about e into every step. TestReferenceAccuracy measures
    both against a 30-digit run."""
    w, v = np.linalg.eigh(h)
    u = (v * np.expm1(-1j * t * w)) @ v.conj().T
    u[np.diag_indices_from(u)] += 1.0
    return u


def per_sample_reference(model, schedule, state, step=stepper):
    """Leakage and fidelity per sample, one state at a time.

    States and targets are stepped one cycle at a time with the propagators
    step(h, t) = exp(-i h t), and each kick is the ideal (Q - P) x I of the
    model's code, which every pulse is up to a phase that cancels in the
    cycle. Leakage is |Q_joint psi|^2; fidelity is the purification form of
    Uhlmann's fidelity on the full system space, ||A^dag C||_1^2 / ||C||^2
    with A = psi and C = (P x I) target reshaped to system x bath, one
    nuclear norm per sample.
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
        return float(np.linalg.norm(q @ psi) ** 2)

    tau = schedule.tau
    if schedule.pulses is None:
        cycle = step(model.h_joint.mat, 2 * tau)
    else:
        segment = step(model.h_joint.mat, tau)
        z = np.kron(model.code.complement_projector - model.code.projector,
                    np.eye(model.bath_dim))
        cycle = segment @ z @ segment @ z
    h_c, h_perp, _ = explicit_split(model)
    target_step = step(h_c + h_perp, 2 * tau)
    psi = np.kron(state, model.initial_bath_state)
    target = psi.copy()
    leaks, fids = [leakage(psi)], [fidelity(psi, target)]
    for _ in range(schedule.n_cycles):
        psi = cycle @ psi
        target = target_step @ target
        leaks.append(leakage(psi))
        fids.append(fidelity(psi, target))
    return leaks, fids


def dense_frame_model(code, bath_dim=3):
    """Dense seeded couplings on a code: for dfs3 and dfs4 the frame is
    not a permutation, so every frame contraction mixes entries."""
    s = code.ambient_dim
    terms = [(0.3, random_hermitian(s, 10 + i), random_hermitian(bath_dim, 20 + i))
             for i in range(3)]
    return SystemBathModel.from_terms(code, terms,
                                      free_bath=random_hermitian(bath_dim, 30))


class TestCodeFrame:
    """Sampling in the frame F x I agrees with product coordinates on codes
    whose frame is dense, within perfbench's reference tolerances."""

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    @pytest.mark.parametrize("label", ["dfs3", "dfs4"])
    def test_superposition_run_matches_product_coordinates(self, label, pulsed):
        code = build_code(label)
        m = dense_frame_model(code)
        psi = (code.basis[:, 0] + 1j * code.basis[:, 1]) / np.sqrt(2.0)
        # 300 cycles: a full batch, a C^256 advance and a partial batch
        sched = ParityKickSchedule(300, 0.003, projector_leo(code) if pulsed else None)
        rep = simulate(m, sched, psi)
        leaks, fids = per_sample_reference(m, sched, psi)
        np.testing.assert_allclose([s.leakage_population for s in rep.samples],
                                   leaks, rtol=1e-9, atol=1e-20)
        np.testing.assert_allclose([s.code_fidelity for s in rep.samples],
                                   fids, rtol=0.0, atol=1e-8)
        assert max(leaks) > 1e-7  # the run does leak
        t = sched.total_free_time
        if pulsed:
            segment = hermitian_exponential(m.h_joint, -sched.tau).mat
            r = np.kron(sched.pulses.unitary.mat, np.eye(m.bath_dim))
            total = np.linalg.matrix_power(segment @ r.conj().T @ segment @ r, 300)
        else:
            total = hermitian_exponential(m.h_joint, -t).mat
        h_c, h_perp, _ = explicit_split(m)
        limit = hermitian_exponential(
            Operator(h_c + h_perp, frozenset({"hermitian"})), -t).mat
        want = np.linalg.norm(total - limit, 2)
        assert abs(rep.distance_to_limit - want) <= 1e-9

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    @pytest.mark.parametrize("label", ["dfs3", "dfs4"])
    def test_code_start_has_no_leakage(self, label, pulsed):
        # F^dag rounds a code basis state's complement coordinates to about
        # 1e-17, not 0; they are checked against STATE_CODE_TOL, then zeroed
        code = build_code(label)
        m = dense_frame_model(code)
        sched = ParityKickSchedule(4, 0.003, projector_leo(code) if pulsed else None)
        rep = simulate(m, sched, code.basis[:, 0])
        assert rep.leakage_population[0] == 0.0

    def test_code_filling_the_ambient_space(self):
        # no complement: an empty complement block, no leakage, and the
        # limit is the free evolution
        code = CodeSubspace("full", np.eye(2, dtype=complex))
        b = random_hermitian(3, 4)
        m = SystemBathModel.from_terms(code, [(0.3, pauli_string("X"), b)])
        assert [(len(s.blocks[0][0]), len(s.code[0]), len(s.complement[0]))
                for s in m.spectra] == [(6, 6, 0)]
        rep = simulate(m, ParityKickSchedule(5, 0.1, None), code.basis[:, 0])
        assert all(s.leakage_population == 0.0 for s in rep.samples)
        assert rep.distance_to_limit <= 1e-14


def floquet_hamiltonian(c, tau):
    """H_F with c = exp(-2i tau H_F), one cycle over time 2 tau: V from eigh
    of (c - c^dag)/2i, theta = angle(diag(V^dag c V)), H_F = -V theta
    V^dag / 2 tau. sin is one-to-one only on |theta| < pi/2, where V also
    diagonalizes c."""
    _, v = np.linalg.eigh((c - c.conj().T) / 2j)
    theta = np.angle(np.einsum("ij,ij->j", v.conj(), c @ v))
    assert np.abs(theta).max() < np.pi / 2
    return -(v * theta) @ v.conj().T / (2 * tau)


class TestFloquetLeakageBlock:
    """The paper's claim, with no initial state and no distance: a kick
    cycle's Floquet Hamiltonian H_F is H_c + H_perp up to O(tau), so its
    leakage block (P x I) H_F (Q x I) is O(tau) and halves when n doubles
    at fixed T (Wu, Byrd and Lidar, PRL 89, 127901 (2002)). Free evolution
    keeps the leakage block of H itself."""

    HALVING_RANGE = (1.8, 2.2)  # perfbench's bound on the sweep distance
    T, NS = 2.0, (16, 32, 64, 128)
    CASES = {
        "dfs2_XI": lambda: (dfs2_leakage_model(["XI"], 0.05, 3), exchange_dfs2_leo()),
        "dfs2_XZ": lambda: (dfs2_leakage_model(["XZ"], 0.05, 3), exchange_dfs2_leo()),
        "dfs2_XI_IX": lambda: (dfs2_leakage_model(["XI", "IX"], 0.05, 3),
                               exchange_dfs2_leo()),
        "dfs2_XI_XZ_collective": lambda: (
            dfs2_leakage_model(["XI", "XZ"], 0.05, 3, bath_dim=1,
                               collective_strength=0.3), exchange_dfs2_leo()),
        "hopping": lambda: (hopping_model(5, seed=7, g=0.2, bath_dim=3),
                            number_operator_leo(5)),
        "linear_optics": lambda: (linear_optics_model(seed=5, g=0.2),
                                  phase_shifter_leo()),
        "dfs3": lambda: (dense_frame_model(build_code("dfs3")),
                         projector_leo(build_code("dfs3"))),
        "dfs4": lambda: (dense_frame_model(build_code("dfs4")),
                         projector_leo(build_code("dfs4"))),
    }

    @staticmethod
    def leakage_block(model, h):
        p = np.kron(model.code.projector, np.eye(model.bath_dim))
        return np.linalg.norm(p @ h @ (np.eye(len(p)) - p))

    @pytest.mark.parametrize("name", CASES)
    def test_leakage_block_halves_per_doubling(self, name):
        model, pulse = self.CASES[name]()
        blocks = []
        for n in self.NS:
            tau = self.T / (2 * n)
            c = parity_kick_unitary(model, ParityKickSchedule(1, tau, pulse)).mat
            blocks.append(self.leakage_block(model, floquet_hamiltonian(c, tau)))
        lo, hi = self.HALVING_RANGE
        for a, b in zip(blocks, blocks[1:]):
            assert lo < a / b < hi

    @pytest.mark.parametrize("name", CASES)
    def test_free_leakage_block_stays_put(self, name):
        model, _ = self.CASES[name]()
        want = self.leakage_block(model, model.h_joint.mat)
        assert want > 1e-3
        for n in self.NS:
            tau = self.T / (2 * n)
            c = hermitian_exponential(model.h_joint, -2 * tau).mat
            got = self.leakage_block(model, floquet_hamiltonian(c, tau))
            assert got == pytest.approx(want, rel=1e-9)


class TestBatchedObservables:
    CASES = {
        "dfs2_j16": lambda: (benchmark_model(), exchange_dfs2_leo()),
        # bath no larger than the code (k = 2 >= b)
        "dfs2_bath1": lambda: (dfs2_leakage_model(("XI",), g=0.2, bath_seed=3,
                                                  bath_dim=1), exchange_dfs2_leo()),
        "dfs2_bath2": lambda: (dfs2_leakage_model(("XI",), g=0.2, bath_seed=3,
                                                  bath_dim=2), exchange_dfs2_leo()),
        "hopping8": lambda: (hopping_model(8, seed=7, g=0.2), None),
        "linear_optics_bath1": lambda: (linear_optics_model(seed=5, g=0.2), None),
        # two distinct sectors, one sector, and the collective term
        "dfs2_xz": lambda: (dfs2_leakage_model(("XZ",), g=0.2, bath_seed=3),
                            exchange_dfs2_leo()),
        "dfs2_xi_ix": lambda: (dfs2_leakage_model(("XI", "IX"), g=0.2, bath_seed=3),
                               exchange_dfs2_leo()),
        "dfs2_xi_collective": lambda: (
            dfs2_leakage_model(("XI",), g=0.2, bath_seed=3, collective_strength=0.3),
            exchange_dfs2_leo()),
        # the code block acts on the code: targets are stepped
        "dfs2_code_acting": lambda: (code_acting_model(), exchange_dfs2_leo()),
    }

    STEPPED = {"dfs2_code_acting", "hopping8", "linear_optics_bath1"}

    def test_cases_take_both_target_paths(self):
        flags = {case: build()[0].decoherence_free
                 for case, build in self.CASES.items()}
        assert not flags["dfs2_code_acting"] and flags["dfs2_xi_collective"]
        assert set(flags.values()) == {True, False}
        assert {case for case, free in flags.items() if not free} == self.STEPPED

    @pytest.mark.parametrize("pulsed", [True, False])
    def test_decoherence_free_runs_form_no_target(self, monkeypatch, pulsed):
        # the overlap with x needs neither a target nor an R factor; the
        # other runs step one target stack per batch, and a qubit code
        # factors its code rows (_observables' c) and the states'
        observed = counting(monkeypatch, "_observables")
        factors = counting(monkeypatch, "_gram_schmidt_r")
        for case, build in sorted(self.CASES.items()):
            m, pulse = build()
            sched = ParityKickSchedule(600, 0.0015, (pulse or projector_leo(m.code))
                                       if pulsed else None)
            observed.clear()
            factors.clear()
            sup = (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)
            simulate(m, sched, sup)
            assert len(observed) == 3, case
            targets = [args[4] for args in observed if args[4] is not None]
            if case not in self.STEPPED:
                assert targets == [] and factors == [], case
            else:  # batches from 0, 256 and 512
                assert len(targets) == 3, case
                assert len(factors) == (6 if m.code.code_dim == 2 else 0), case

    def check(self, case, pulsed, n, superposition):
        m, pulse = self.CASES[case]()
        if pulsed and pulse is None:
            pulse = projector_leo(m.code)
        sched = ParityKickSchedule(n, 0.9 / max(n, 1), pulse if pulsed else None)
        state = code_state(m)
        if superposition:
            state = (state + 1j * code_state(m, 1)) / np.sqrt(2.0)
        rep = simulate(m, sched, state)
        leaks, fids = per_sample_reference(m, sched, state)
        assert [s.step for s in rep.samples] == list(range(n + 1))
        np.testing.assert_allclose([s.leakage_population for s in rep.samples],
                                   leaks, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose([s.code_fidelity for s in rep.samples],
                                   fids, rtol=1e-12, atol=1e-12)

    # 600 and 1000 take several C^256 advances and end on a partial batch
    @pytest.mark.parametrize("n", [0, 255, 256, 257, 600, 1000])
    @pytest.mark.parametrize("pulsed", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_per_sample_reference(self, case, pulsed, n):
        self.check(case, pulsed, n, superposition=False)

    # a basis start leaves the qubit fidelity's cross terms at zero;
    # (|0_L> + i|1_L>)/sqrt(2) reaches them
    @pytest.mark.parametrize("n", [0, 255, 256, 257, 600, 1000])
    @pytest.mark.parametrize("pulsed", [True, False])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_superposition_matches_per_sample_reference(self, case, pulsed, n):
        self.check(case, pulsed, n, superposition=True)


def exact_step(h, t):
    """exp(-i h t) from a 30-digit mpmath expm, rounded once to double."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        u = mp.expm(-1j * t * mp.matrix(h.tolist()))
        return np.array(u.tolist(), dtype=complex)


def spectral_step(h, t):
    """exp(-i h t) as V e^(-i w t) V^dag, via hermitian_exponential."""
    return hermitian_exponential(Operator(h, frozenset({"hermitian"})), -t).mat


class TestReferenceAccuracy:
    """per_sample_reference steps with stepper, not V e^(-i w t) V^dag:
    over 1000 pulsed cycles the latter's fidelity drifts 1.4e-12 from the
    truth at joint dim 8 and 3.3e-12 at 16, past the 2e-12 that
    TestBatchedObservables allows near 1, as each of its steps carries its
    eigenvectors' rounding; stepper stays within 3e-15 and simulate within
    7e-14. The truth is the same reference stepped with propagators exact
    to double rounding (30-digit mpmath)."""

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    @pytest.mark.parametrize("bath_dim", [2, 4])
    def test_stepper_is_nearer_the_truth(self, bath_dim, pulsed):
        m = dfs2_leakage_model(("XI",), g=0.2 if bath_dim == 2 else 0.05,
                               bath_seed=3, bath_dim=bath_dim)
        sched = ParityKickSchedule(1000, 0.9e-3,
                                   exchange_dfs2_leo() if pulsed else None)
        state = code_state(m)
        truth = np.array(per_sample_reference(m, sched, state, exact_step))

        def gap(got):  # worst leakage and fidelity distance to the truth
            return np.abs(np.array(got) - truth).max(axis=1)

        new = gap(per_sample_reference(m, sched, state))
        old = gap(per_sample_reference(m, sched, state, spectral_step))
        assert (new <= 1e-13).all()
        assert (new < old).all()
        # x^dag A has a cross term only from a superposition start
        sup = (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)
        for start, want in [(state, truth),
                            (sup, np.array(per_sample_reference(m, sched, sup,
                                                                exact_step)))]:
            rep = simulate(m, sched, start)
            got = np.array([[s.leakage_population for s in rep.samples],
                            [s.code_fidelity for s in rep.samples]])
            assert (np.abs(got - want) <= 1e-12 + 1e-12 * np.abs(want)).all()


def random_stack(rng, n, b):
    return rng.standard_normal((n, 2, b)) + 1j * rng.standard_normal((n, 2, b))


def nuclear_norm_cases(b):
    """Pairs of stacks (A, C) of 2 x b matrices: generic, rank-deficient,
    zero rows, equal, far-scaled and nearly orthogonal pairs."""
    rng = np.random.default_rng(b)

    def rank1():  # u v^T per sample, rows exactly dependent
        return random_stack(rng, 32, 1) * random_stack(rng, 32, b)[:, :1]

    def zero_row(x, row):
        x = x.copy()
        x[:, row] = 0.0
        return x

    generic = random_stack(rng, 32, b)
    unit = random_stack(rng, 32, 1)[:, :, 0]
    unit /= np.linalg.norm(unit, axis=1, keepdims=True)
    perp = np.stack([-unit[:, 1].conj(), unit[:, 0].conj()], axis=1)
    rows_a, rows_c = random_stack(rng, 32, b)[:, 0], random_stack(rng, 32, b)[:, 0]
    cases = {
        "generic": (random_stack(rng, 32, b), random_stack(rng, 32, b)),
        "rank1_a": (rank1(), random_stack(rng, 32, b)),
        "rank1_c": (random_stack(rng, 32, b), rank1()),
        "rank1_both": (rank1(), rank1()),
        "zero_first_row_a": (zero_row(generic, 0), random_stack(rng, 32, b)),
        "zero_second_row_a": (zero_row(generic, 1), random_stack(rng, 32, b)),
        "zero_first_row_c": (random_stack(rng, 32, b), zero_row(generic, 0)),
        "zero_a": (0.0 * generic, random_stack(rng, 32, b)),
        "zero_c": (random_stack(rng, 32, b), 0.0 * generic),
        "equal": (generic, generic.copy()),
        # A's code columns along u, C's along u_perp, plus 1e-9 of noise
        "nearly_orthogonal": (
            unit[:, :, None] * rows_a[:, None, :] + 1e-9 * random_stack(rng, 32, b),
            perp[:, :, None] * rows_c[:, None, :] + 1e-9 * random_stack(rng, 32, b)),
    }
    for sa, sc in [(150, 0), (-150, 0), (0, 150), (0, -150), (150, -150),
                   (-150, 150)]:
        a, c = random_stack(rng, 32, b), random_stack(rng, 32, b)
        cases[f"scaled_{sa}_{sc}"] = (a * 10.0 ** sa, c * 10.0 ** sc)
    # a first row near 1e-161 squares to subnormals, so a norm summed from
    # the squares is off by far more than rounding
    tiny = generic.copy()
    tiny[:, 0] *= 1e-161
    cases["tiny_first_row_a"] = (tiny, random_stack(rng, 32, b))
    cases["tiny_first_row_c"] = (random_stack(rng, 32, b), tiny)
    return cases


class TestOverlap:
    """The overlap ||x^dag A||^2 / ||x||^2 is ||A^dag C||_1^2 / ||C||^2
    (the QR + SVD path) for every rank-one target C = x w^T, with x of any
    norm, complex and in code order."""

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("b", [1, 2, 3, 16])
    def test_matches_rank_one_target(self, k, b):
        rng = np.random.default_rng(10 * k + b)

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a = gaussian(32, k, b)
        for scale in (1e-3, 1.0, 1e3):
            x, w = scale * gaussian(k), gaussian(b)
            c = np.outer(x, w)
            want = (dynamics._nuclear_norm(a, np.broadcast_to(c, a.shape)) ** 2
                    / np.linalg.norm(c) ** 2)
            got = dynamics._overlap(list(a.swapaxes(0, 1)), x)
            scale_a = np.linalg.norm(a, axis=(1, 2)) ** 2
            assert np.all(np.abs(got - want) <= 1e-14 * scale_a)


class TestQubitNuclearNorm:
    """The qubit closed form against the QR + SVD path of the other codes."""

    @pytest.mark.parametrize("b", [1, 2, 3, 16, 64])
    def test_matches_svd_path(self, b):
        for name, (a, c) in nuclear_norm_cases(b).items():
            fa, fc = (dynamics._gram_schmidt_r(*x.swapaxes(0, 1)) for x in (a, c))
            got = dynamics._qubit_nuclear_norm(fa, fc)
            want = dynamics._nuclear_norm(a, c)
            scale = np.linalg.norm(a, axis=(1, 2)) * np.linalg.norm(c, axis=(1, 2))
            err = np.abs(got - want)
            assert np.all(err <= 2e-15 * scale), (name, np.max(err / scale))

    def test_tiny_coupling_keeps_the_fidelity_physical(self):
        # the code row the coupling fills stays near 1e-161: its norm from
        # the squares alone read a fidelity of 1.136 (a property-test find)
        m = hopping_model(3, seed=0, g=1.2740695972489209e-161, bath_dim=2)
        sched = ParityKickSchedule(1, 1.0, None)
        rep = simulate(m, sched, code_state(m, 1))
        _, fids = per_sample_reference(m, sched, code_state(m, 1))
        assert rep.code_fidelity.max() <= 1.0
        np.testing.assert_allclose(rep.code_fidelity, fids, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("pulsed", [True, False])
    @pytest.mark.parametrize("bath_dim", [1, 2, 4, 16])
    def test_first_sample_fidelity_is_exactly_one(self, bath_dim, pulsed):
        # sample 0 compares the initial state with itself, superpositions too
        runs = [(dfs2_leakage_model(("XI",), g=0.05, bath_seed=3,
                                    bath_dim=bath_dim), exchange_dfs2_leo()),
                (hopping_model(5, seed=7, g=0.2, bath_dim=bath_dim),
                 number_operator_leo(5))]
        for m, pulse in runs:
            sup = (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)
            for state in [code_state(m, k) for k in range(m.code.code_dim)] + [sup]:
                sched = ParityKickSchedule(3, 0.1, pulse if pulsed else None)
                assert simulate(m, sched, state).samples[0].code_fidelity == 1.0


def svd_fidelities(model, phis, c):
    """The code fidelity as written before the qubit closed form: QR
    factors when the bath exceeds the code, then one SVD per sample. The
    states come in the frame F x I, so A is their code rows."""
    k, b = model.code.code_dim, model.bath_dim
    a_dag = phis[:, :k * b].reshape(len(phis), k, b).conj().swapaxes(1, 2)
    c = c.reshape(len(c), k, b)
    norm = np.sum(np.abs(c) ** 2, axis=(1, 2))
    if b > k:
        a_dag = np.linalg.qr(a_dag, mode="r")
        c = np.linalg.qr(c.conj().swapaxes(1, 2), mode="r").conj().swapaxes(1, 2)
    has_code = norm > 0.0
    nuclear = np.linalg.svd(a_dag @ c, compute_uv=False).sum(axis=1)
    f = nuclear ** 2 / np.where(has_code, norm, 1.0)
    f = np.where(f < 1.0 + 1e-9, np.minimum(f, 1.0), f)
    return np.where(has_code, f, 0.0).tolist()


class TestOtherCodeDimsKeepSvdPath:
    # dual rail has code dim 4: bath 1 and 3 take the SVD alone, bath 6 the QR
    @pytest.mark.parametrize("pulsed", [True, False])
    @pytest.mark.parametrize("bath_dim", [1, 3, 6])
    def test_linear_optics_fidelity_unchanged(self, monkeypatch, bath_dim, pulsed):
        m = linear_optics_model(seed=5, g=0.2, bath_dim=bath_dim)
        batches, targets = [], []
        observables = dynamics._observables

        def scattered(parts):
            # the code rows of a stack, each sector's on its own frame rows
            kb = m.code.code_dim * m.bath_dim
            phis = np.zeros((len(parts[0]), kb), dtype=complex)
            for sector, part in zip(m.spectra, parts):
                code_rows = sector.rows[:, :sector.n_code]
                phis[:, code_rows] = part[:, :, :sector.n_code]
            return phis

        def spy(sectors, parts, columns, x, c):
            # c: the stepped targets' code rows, in frame code order
            batches.append(scattered(parts))
            targets.append(np.stack(c, axis=1))
            return observables(sectors, parts, columns, x, c)

        monkeypatch.setattr(dynamics, "_observables", spy)
        pulse = projector_leo(m.code) if pulsed else None
        rep = simulate(m, ParityKickSchedule(300, 0.003, pulse), code_state(m, 2))
        assert not m.decoherence_free  # targets are stepped: one per batch
        want = [f for phis, c in zip(batches, targets)
                for f in svd_fidelities(m, phis, c)]
        assert len(batches) == len(targets) == 2
        assert [s.code_fidelity for s in rep.samples] == want

    @pytest.mark.parametrize("pulsed", [True, False])
    @pytest.mark.parametrize("bath_dim", [1, 3])
    def test_decoherence_free_dual_rail_takes_the_overlap(self, monkeypatch,
                                                          bath_dim, pulsed):
        # a system factor with its code block zeroed: the dual rail frame is
        # a permutation, so the code block of H' is I_4 x the free bath
        code = dual_rail_code()
        s = random_hermitian(code.ambient_dim, 21).mat
        s = s - code.projector @ s @ code.projector
        m = SystemBathModel.from_terms(
            code, [(0.3, Operator(s, frozenset({"hermitian"})),
                    random_hermitian(bath_dim, 22))],
            free_bath=random_hermitian(bath_dim, 23))
        assert m.decoherence_free and m.code.code_dim == 4
        svd, observed = (counting(monkeypatch, name)
                         for name in ("_nuclear_norm", "_observables"))
        pulse = projector_leo(code) if pulsed else None
        sched = ParityKickSchedule(300, 0.03, pulse)
        state = code.basis @ np.array([0.5, 0.5j, -0.5, 0.5])
        rep = simulate(m, sched, state)
        assert svd == [] and len(observed) == 2
        assert all(args[4] is None for args in observed)  # no target
        leaks, fids = per_sample_reference(m, sched, state)
        assert max(leaks) > 1e-6 and min(fids) < 1.0 - 1e-6  # the run moves
        np.testing.assert_allclose(rep.code_fidelity, fids, rtol=1e-12, atol=1e-12)


def counting(monkeypatch, name):
    """Record the arguments of every call to dynamics.<name>."""
    calls = []
    fn = getattr(dynamics, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(dynamics, name, counted)
    return calls


class TestSweep:
    def test_one_limit_and_no_samples_per_sweep(self, monkeypatch):
        limits = counting(monkeypatch, "_limit")
        observables = counting(monkeypatch, "_observables")
        # rows run in order on the calling thread: no pool beside BLAS
        rows = []
        pulsed = dynamics._pulsed

        def on_thread(model, n, tau):
            rows.append((n, threading.get_ident()))
            return pulsed(model, n, tau)

        monkeypatch.setattr(dynamics, "_pulsed", on_thread)
        m = benchmark_model()
        table = sweep_cycles(m, 0.8, (1, 2, 3, 300), code_state(m),
                             exchange_dfs2_leo())
        assert [r.n for r in table.rows] == [1, 2, 3, 300]
        assert len(limits) == 1 and limits[0][1] == 0.8
        assert observables == []
        assert rows == [(n, threading.get_ident()) for n in (1, 2, 3, 300)]

    def test_cycle_forms_no_spectral_exponential(self, monkeypatch):
        # the segment is built on the model's certified eigenvectors: no
        # checked exponential, and the only V e^(i phi) V^dag formed are the
        # limit's, one per code and complement sub-block of each sector, or
        # one per pair, whose code and complement sub-blocks are one;
        # simulate forms its limit only when its distance is read
        assert not hasattr(dynamics, "hermitian_exponential")
        m = benchmark_model()
        pulse = exchange_dfs2_leo()  # built by an exponential of its own
        calls = []
        monkeypatch.setattr(opalg, "hermitian_exponential",
                            lambda *args: calls.append(args))
        matrices = counting(monkeypatch, "_spectral_matrix")
        sweep_cycles(m, 0.8, (1, 2, 4), code_state(m), pulse)
        parity_kick_unitary(m, ParityKickSchedule(4, 0.1, pulse))
        report = simulate(m, ParityKickSchedule(4, 0.1, pulse), code_state(m))
        (sector,) = m.spectra
        assert sector.code is sector.complement
        assert [id(args[0]) for args in matrices] == [id(sector.code)]
        report.distance_to_limit
        assert calls == []
        assert [id(args[0]) for args in matrices] == [id(sector.code)] * 2

    @pytest.mark.parametrize("state", [np.zeros(3), np.eye(4)[0],
                                       0.5 * dfs2_dephasing().basis[:, 0]],
                             ids=["length", "outside_code", "unnormalized"])
    def test_state_checked_once_before_any_row(self, monkeypatch, state):
        m = benchmark_model()
        pulse = exchange_dfs2_leo()
        limits = counting(monkeypatch, "_limit")
        cycles = counting(monkeypatch, "_pulsed")
        with pytest.raises(ValueError) as direct:
            simulate(m, ParityKickSchedule(2, 0.4, pulse), state)
        with pytest.raises(ValueError) as swept:
            sweep_cycles(m, 0.8, (1, 2), state, pulse)
        assert str(swept.value) == str(direct.value)
        assert limits == [] and cycles == []

    SUPERPOSITION_CASES = {
        "hopping5": lambda: (hopping_model(5, seed=7, g=0.2, bath_dim=3),
                             number_operator_leo(5)),
        "linear_optics_bath1": lambda: (linear_optics_model(seed=5, g=0.2), None),
    }

    @pytest.mark.parametrize("case", sorted(SUPERPOSITION_CASES))
    def test_odd_rows_past_a_batch_edge_match_simulate(self, case):
        m, pulse = self.SUPERPOSITION_CASES[case]()
        pulse = pulse or projector_leo(m.code)
        psi = (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)
        # at T = 0.9, 2 n (T / 2n) is T for n = 1 and 300 but not for 3 and 5
        t = 0.9
        table = sweep_cycles(m, t, (1, 3, 5, 300), psi, pulse)
        assert [r.n for r in table.rows] == [1, 3, 5, 300]
        exact = []
        for row in table.rows:
            direct = simulate(m, ParityKickSchedule(row.n, row.tau, pulse), psi)
            assert direct.final_leakage > 1e-12  # the run does leak
            np.testing.assert_allclose(row.final_leakage, direct.final_leakage,
                                       rtol=1e-12, atol=0.0)
            if 2 * row.n * row.tau == t:
                exact.append(row.n)
                assert row.distance_to_limit == direct.distance_to_limit
            else:  # simulate's limit is at 2 n tau, one rounding from T
                assert row.distance_to_limit == pytest.approx(
                    direct.distance_to_limit, rel=1e-12)
        assert exact == [1, 300]

    def test_single_point_matches_simulate(self):
        # a row takes no samples and shares the sweep's one limit; at a
        # power of two n, 2 n tau == T, so its distance must still be
        # bit-identical to a standalone simulate call's, and so must its
        # leakage where the run's stride s (rule_stride) reaches n, as
        # simulate then steps by cycle^n's own squares. At a shorter stride
        # both leakages must be within the error model of
        # test_long_run_against_extended_precision, k J eps relative (k = n,
        # J the live sector's dim) plus the oracle's own k J eps_ld
        m = benchmark_model()
        state, pulse = code_state(m), exchange_dfs2_leo()
        table = sweep_cycles(m, 0.8, (1, 2, 4, 8, 16, 64), state, pulse)
        assert [r.n for r in table.rows] == [1, 2, 4, 8, 16, 64]
        (view,) = live_views(m, state)
        j = view.rows.shape[1]
        eps, eps_ld = np.finfo(float).eps, float(np.finfo(np.longdouble).eps)
        strides = []
        for row in table.rows:
            assert row.tau == pytest.approx(0.4 / row.n)
            direct = simulate(m, ParityKickSchedule(row.n, row.tau, pulse), state)
            assert row.distance_to_limit == direct.distance_to_limit
            strides.append(rule_stride([view], row.n))
            if strides[-1] >= row.n:
                assert row.final_leakage == direct.final_leakage
                continue
            want = extended_leakage(m, state, row.n, row.tau)[-1]
            for got in (row.final_leakage, direct.final_leakage):
                assert abs(got - want) <= row.n * j * (eps + eps_ld) * want
        assert strides == [1, 1, 2, 4, 16, 64]

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

    def test_rejects_free_schedule(self):
        # pulses=None would give free evolution, the same for every row
        m = benchmark_model()
        with pytest.raises(ValueError, match="no pulses"):
            sweep_cycles(m, 0.8, (1, 2, 4), code_state(m), None)

    def test_rejects_bad_n_list(self):
        m = benchmark_model()
        pulse = exchange_dfs2_leo()
        with pytest.raises(ValueError):
            sweep_cycles(m, 0.8, (), code_state(m), pulse)
        with pytest.raises(ValueError):
            sweep_cycles(m, 0.8, (4, 2), code_state(m), pulse)
        with pytest.raises(ValueError):
            sweep_cycles(m, 0.8, (0, 2), code_state(m), pulse)

    @pytest.mark.parametrize("total", [0.0, -1.0, math.inf, math.nan, pytest.param(
        10**400, id="int_past_the_float_range")])
    def test_rejects_bad_total_free_time(self, total):
        m = benchmark_model()
        with pytest.raises(ValueError, match="total_free_time must be positive"):
            sweep_cycles(m, total, (1, 2), code_state(m), exchange_dfs2_leo())

    def test_rejects_a_cycle_count_past_the_float_range(self):
        # T / 2n cannot even be formed: bad input that names the count
        m = benchmark_model()
        with pytest.raises(ValueError, match=f"cycle count {10**400} "):
            sweep_cycles(m, 2.0, [1, 10**400], code_state(m), exchange_dfs2_leo())

    def test_rejects_underflowing_tau(self):
        # T / 2n rounds to 0 at the smallest positive T: no row runs at tau 0
        m = benchmark_model()
        with pytest.raises(ValueError, match="^tau must be positive and finite$"):
            sweep_cycles(m, 5e-324, (1, 2), code_state(m), exchange_dfs2_leo())

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


def route_pulses(m):
    """A pulse for the model's code from every route that builds one:
    projector and exchange_2dfs on dfs2, and canonical with each logical
    Pauli; projector and number_op on a bare qubit in five levels;
    projector and phase_shifter on the dual rail."""
    if m.code.label == "dfs2":
        ops = logical_ops_dfs2()
        return [projector_leo(m.code), exchange_dfs2_leo(),
                *(canonical_leo(op, m.code) for op in (ops.x, ops.y, ops.z))]
    if m.code.label == "dual_rail":
        return [projector_leo(m.code), phase_shifter_leo()]
    return [projector_leo(m.code), number_operator_leo(m.system_dim)]


class TestPulseIsOnlyItsCode:
    """Every route that builds a pulse for one code gives the same run bit
    for bit: the kick is the ideal sign flip of the code rows, so a pulse
    is read only for its code, never for its rounding or its phase."""

    CASES = {
        "dfs2": benchmark_model,
        "bare5": lambda: hopping_model(5, seed=7, g=0.2, bath_dim=3),
        "dual_rail": lambda: linear_optics_model(seed=5, g=0.2),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_every_route_gives_equal_runs(self, case):
        m = self.CASES[case]()
        psi = (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)
        # 300 cycles and rows: past a sample batch edge
        (report, table), *others = [
            (simulate(m, ParityKickSchedule(300, 0.003, p), psi),
             sweep_cycles(m, 0.9, (1, 3, 8, 300), psi, p)) for p in route_pulses(m)]
        assert max(s.leakage_population for s in report.samples) > 1e-9
        for got, rows in others:
            assert got.samples == report.samples
            assert got.distance_to_limit == report.distance_to_limit
            assert rows.rows == table.rows


class TestPulseMustMatchModelCode:
    """A pulse is accepted for a model only if its code is the model's
    subspace; a shared label is not enough."""

    @staticmethod
    def mislabelled_model():
        # labelled "dfs2" but spanning {|00>, |01>}, which XX leaks out of
        code = CodeSubspace("dfs2", np.eye(4)[:, :2])
        return SystemBathModel.from_terms(
            code, [(0.05, pauli_string("XX"), random_hermitian(4, 3))],
            free_bath=random_hermitian(4, 4),
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

    def test_rejected_before_any_eigh(self, monkeypatch):
        pulse = exchange_dfs2_leo()
        runs = {
            "simulate": lambda m: simulate(
                m, ParityKickSchedule(2, 0.1, pulse), code_state(m)),
            "parity_kick_unitary": lambda m: parity_kick_unitary(
                m, ParityKickSchedule(2, 0.1, pulse)),
            "sweep_cycles": lambda m: sweep_cycles(
                m, 2.0, [1, 2], code_state(m), pulse),
        }
        fresh = {name: self.mislabelled_model() for name in runs}
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda *args: calls.append(args) or eigh(*args))
        message = (r"^pulse targets code 'dfs2' \(dim 4\), model uses a "
                   r"different code 'dfs2' \(dim 4\)$")
        for name, run in runs.items():
            with pytest.raises(ValueError, match=message):
                run(fresh[name])
        assert calls == []

    def test_checked_once_per_call(self, monkeypatch):
        m = benchmark_model()
        pulse = exchange_dfs2_leo()
        calls = []
        same = CodeSubspace.same_subspace
        monkeypatch.setattr(CodeSubspace, "same_subspace",
                            lambda code, other: calls.append(other) or same(code, other))
        table = sweep_cycles(m, 2.0, (1, 2, 4, 8, 16, 32, 64), code_state(m), pulse)
        assert len(table.rows) == 7 and len(calls) == 1
        simulate(m, ParityKickSchedule(8, 0.05, pulse), code_state(m))
        parity_kick_unitary(m, ParityKickSchedule(8, 0.05, pulse))
        assert calls == [m.code] * 3

    def test_pulse_for_the_subspace_accepted(self):
        m = self.mislabelled_model()
        pulsed = simulate(m, ParityKickSchedule(64, 2.0 / 128,
                                                projector_leo(m.code)),
                          code_state(m))
        free = simulate(m, ParityKickSchedule(64, 2.0 / 128, None),
                        code_state(m))
        assert pulsed.final_leakage < 1e-3 * free.final_leakage


class TestSpectralCache:
    """Each model diagonalizes every distinct block of H_joint in the code
    frame (a sector and its copies) and that block's code and complement
    sub-blocks once, for every caller."""

    @staticmethod
    def eigh_shapes(monkeypatch, m, pulse):
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
        return calls

    def test_three_eigh_for_every_propagator(self, monkeypatch):
        # two sectors of J/2, each with half of the code rows, that are
        # copies and pair: three eigh of J/4 for both, the two halves and
        # the code block, which is also the complement block
        m = benchmark_model()
        calls = self.eigh_shapes(monkeypatch, m, exchange_dfs2_leo())
        kb = m.code.code_dim * m.bath_dim // 2
        assert calls == [(kb, kb)] * 3
        # XZ's two sectors differ by the sign of the bath coupling, and
        # each pairs: three eigh of J/4 per sector
        m = dfs2_leakage_model(("XZ",), g=0.05, bath_seed=3, bath_dim=4)
        calls = self.eigh_shapes(monkeypatch, m, exchange_dfs2_leo())
        assert calls == [(kb, kb)] * 6
        # a model with one sector: exactly three
        m = hopping_model(5, seed=7, g=0.2, bath_dim=3)
        calls = self.eigh_shapes(monkeypatch, m, number_operator_leo(5))
        j, kb = m.joint_dim, m.code.code_dim * m.bath_dim
        assert calls == [(j, j), (kb, kb), (j - kb, j - kb)]

    def test_cached_arrays_are_read_only(self):
        m = benchmark_model()
        for sector in m.spectra:
            assert not sector.rows.flags.writeable
            for w, v in (*sector.blocks, sector.code, sector.complement):
                assert not w.flags.writeable
                assert not v.flags.writeable
                with pytest.raises(ValueError):
                    v[0, 0] = 0.0

    @pytest.mark.parametrize("collective", [0.0, 0.3], ids=["pair", "no_pair"])
    def test_limit_and_kick_come_from_the_cache(self, collective):
        m = dfs2_leakage_model(("XI",), g=0.05, bath_seed=3, bath_dim=4,
                               collective_strength=collective)
        pulse = exchange_dfs2_leo()
        h_c, h_perp, _ = explicit_split(m)
        # two eigendecompositions of one generator (the full matrix here,
        # its frame blocks in the model): each is exact for a generator
        # within O(J eps ||H||_2) of H, which moves exp(-i H T) by T times
        # that, and rebuilding U from J-term sums adds O(J eps) per entry,
        # so the Frobenius gap is at most about J^(3/2) eps (1 + T ||H||_2)
        # (measured 3.1e-15 here, and at most 0.16 of the bound from joint
        # dim 4 to 512, T up to 20, dfs2, dfs3, dfs4, hopping, dual rail)
        t = 0.8
        h_norm = np.linalg.norm(m.h_joint.mat, 2)
        eps = np.finfo(float).eps
        bound = m.joint_dim ** 1.5 * eps * (1 + t * h_norm)
        want = hermitian_exponential(
            Operator(h_c + h_perp, frozenset({"hermitian"})), -t).mat
        assert np.linalg.norm(decoupled_limit_unitary(m, t).mat - want) <= bound
        # the kick is the ideal one, Z = -1 on a sector's code rows and +1
        # elsewhere, applied to the cached segment S' = I + E: (S' Z)^2 is
        # exactly I + 2 bd(E) + (E Z)^2 from the small parts E (_segment),
        # bd(E) = (E + Z E Z) / 2 E's diagonal blocks, and (E Z)^2 one
        # product for a block, or for a pair E+ E- and E- E+ on its halves,
        # rotated to the frame; within rounding of sz @ sz
        totals, _ = dynamics._pulsed(m, 1, 0.1)  # cycle^1 is the cycle
        assert len(totals) == len(m.spectra) == (2 if collective else 1)
        for sector, total in zip(m.spectra, totals):
            cycle = dynamics._cycle(sector, 0.1)
            np.testing.assert_array_equal(total, cycle)
            dim = sector.rows.shape[1]
            z = np.diag(np.where(np.arange(dim) < sector.n_code, -1.0, 1.0))
            small = dynamics._segment(sector, 0.1)
            if sector.zeta is None:
                (e,) = small
                ez = e @ z
                want = ez @ ez + (e + z @ e @ z) + np.eye(dim)
            else:
                plus, minus = small
                want = (dynamics._frame_block(sector, [plus @ minus, minus @ plus])
                        + np.kron(np.eye(2), plus + minus) + np.eye(dim))
            np.testing.assert_array_equal(cycle, want)
            sz = (dynamics._frame_block(sector, small) + np.eye(dim)) @ z
            assert np.max(np.abs(cycle - sz @ sz)) <= 1e-15
        # in product coordinates that is S Z S Z, Z = (Q - P) x I, within
        # the same error model for the two segments of a cycle, 2 tau apart
        # from T above (measured at most 0.47 of the bound over the
        # TestKickContraction cases, dfs3, dfs4 and dfs2 up to joint dim 512)
        u = parity_kick_unitary(m, ParityKickSchedule(1, 0.1, pulse)).mat
        segment = hermitian_exponential(m.h_joint, -0.1).mat
        z = np.kron(m.code.complement_projector - m.code.projector,
                    np.eye(m.bath_dim))
        bound = m.joint_dim ** 1.5 * eps * (1 + 0.2 * h_norm)
        assert np.linalg.norm(u - segment @ z @ segment @ z) <= bound


def exact_cycle(h, c, tau):
    """(S Z)^2 for S = exp(-i h tau), Z = -1 on the first c rows and +1 on
    the rest, from a 40-digit mpmath expm, rounded once to double."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        sz = mp.expm(-1j * tau * mp.matrix(h.tolist()))
        sz *= mp.diag([-1] * c + [1] * (len(h) - c))
        return np.array((sz * sz).tolist(), dtype=complex)


class TestCycleAccuracy:
    """The cycle's coupling blocks (code rows by complement columns and
    back) against a 40-digit cycle, relative to their own size, which is
    O(||A|| ||G|| tau^2): the kick cancels the coupling to first order.

    Error model: the cycle is I + 2 bd(E) + (E Z)^2 from the segment's
    small parts E (_cycle), of size ||H|| tau for the sector block H, A
    its code block and G its coupling block. E carries the coupling, of
    size ||G|| tau, with the rounding eps ||H|| tau of its larger entries,
    and each product of E's adds rounding eps (||H|| tau)^2: relative to
    the coupling blocks, J eps ||H|| / ||G||, the segment's own loss. No
    term is eps / (||H|| tau), as nothing of the coupling's first-order
    size ||G|| tau is added and then cancelled. The frame-form square (S'
    Z)^2 carries that term: 16 to 35 times this bound at tau = 1e-4, and
    up to 2.9 times at 1e-3. Measured here: at most 0.30 of the bound."""

    CASES = {
        "dfs2_XI_pair": lambda: dfs2_leakage_model(("XI",), g=0.05, bath_seed=3,
                                                   bath_dim=4),
        "dfs2_YI_pair": lambda: dfs2_leakage_model(("YI",), g=0.05, bath_seed=3,
                                                   bath_dim=4),
        "dfs2_collective": lambda: dfs2_leakage_model(
            ("XI",), g=0.05, bath_seed=3, bath_dim=4, collective_strength=0.3),
        "hopping": lambda: hopping_model(5, seed=7, g=0.05, bath_dim=3),
    }
    ZETAS = {"dfs2_XI_pair": [1], "dfs2_YI_pair": [1j, 1j],
             "dfs2_collective": [None, None], "hopping": [None]}

    @pytest.mark.parametrize("tau", [1e-4, 1e-3, 1e-2])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_coupling_blocks_within_the_segment_loss(self, case, tau):
        m = self.CASES[case]()
        assert [sector.zeta for sector in m.spectra] == self.ZETAS[case]
        h = frame_hamiltonian(m)
        eps = np.finfo(float).eps
        for sector in m.spectra:
            blk, c = h[np.ix_(sector.rows[0], sector.rows[0])], sector.n_code
            coupling = np.zeros(blk.shape, dtype=bool)
            coupling[:c, c:] = coupling[c:, :c] = True
            want = exact_cycle(blk, c, tau)[coupling]
            got = dynamics._cycle(sector, tau)[coupling]
            error = np.linalg.norm(got - want) / np.linalg.norm(want)
            bound = (len(blk) * eps * np.linalg.norm(blk, 2)
                     / np.linalg.norm(blk[:c, c:], 2))
            assert error <= bound, (error, bound)


class TestKickContraction:
    """The ideal kick in the frame equals the product with kron(R, I) for
    the route-built pulse R: R is phi (Q - P) up to its structural residual
    (3.6e-16 for exchange_2dfs, 0 for projector pulses), phi cancels, and
    two eigendecompositions of H_joint (the frame sectors' and the full
    matrix) differ by rounding; measured at most 3.7e-15 here, on dfs3 and
    dfs4 dense frames, and on dfs2 up to joint dim 512."""

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


def interleaved_bare_model(bath_field=0.0):
    """bare_qubit_code(3) at bath dim 2 with 0.3 (|0><1| + h.c.) x X and
    0.2 (|1><2| + h.c.) x X: sectors [0, 3, 4] and [1, 2, 5], so the
    sectors' code rows concatenate to [0, 3, 1, 2], not frame order. The
    two sectors are copies; a bath field bath_field Z gives their rows
    opposite diagonals, so a nonzero one makes them distinct."""
    def hop(i, j, dim):
        h = np.zeros((dim, dim), dtype=complex)
        h[i, j] = h[j, i] = 1.0
        return Operator(h, frozenset({"hermitian"}))

    z = Operator(bath_field * pauli_string("Z").mat, frozenset({"hermitian"}))
    return SystemBathModel.from_terms(
        bare_qubit_code(3), [(0.3, hop(0, 1, 3), hop(0, 1, 2)),
                             (0.2, hop(1, 2, 3), hop(0, 1, 2))], free_bath=z)


def one_sector(monkeypatch):
    """Make every model built from here on find a single sector."""
    monkeypatch.setattr(models, "_sector_rows", lambda h: [np.arange(len(h))])


class TestSectors:
    """Runs split by sector match runs forced to one sector, within the
    golden tolerances (leakage rtol 1e-9, fidelity atol 1e-8) and 1e-12 on
    the distance."""

    # name: (model, pulse for the model)
    CASES = {
        "dfs2_bath4": (benchmark_model, lambda m: exchange_dfs2_leo()),
        # at bath dim 1 a lone flip cancels exactly over a cycle; the
        # collective term keeps the pulsed leakage above rounding
        "dfs2_bath1": (lambda: dfs2_leakage_model(("XI",), g=0.2, bath_seed=3,
                                                  bath_dim=1, collective_strength=0.3),
                       lambda m: exchange_dfs2_leo()),
        "dfs2_zy_collective": (lambda: dfs2_leakage_model(
            ("ZY",), g=0.2, bath_seed=5, bath_dim=3, collective_strength=0.3),
            lambda m: exchange_dfs2_leo()),
        "dfs2_xi_xz_bath1": (lambda: dfs2_leakage_model(
            ("XI", "XZ"), g=0.2, bath_seed=3, bath_dim=1, collective_strength=0.3),
            lambda m: exchange_dfs2_leo()),
        # code rows that interleave across copies of one sector, [0, 3]
        # and [1, 2], and across two distinct sectors
        "bare3_interleaved": (interleaved_bare_model, lambda m: projector_leo(m.code)),
        "bare3_interleaved_distinct": (lambda: interleaved_bare_model(0.1),
                                       lambda m: projector_leo(m.code)),
    }

    def test_interleaved_code_rows_need_the_permutation(self):
        m = interleaved_bare_model()
        assert [s.rows.tolist() for s in m.spectra] == [[[0, 3, 4], [1, 2, 5]]]
        assert [s.n_code for s in m.spectra] == [2]
        m = interleaved_bare_model(0.1)
        assert [s.rows.tolist() for s in m.spectra] == [[[0, 3, 4]], [[1, 2, 5]]]
        assert [s.n_code for s in m.spectra] == [2, 2]

    @staticmethod
    def starts(m):
        basis = m.code.basis
        return {"basis": basis[:, 0],
                "superposition": (basis[:, 0] + 1j * basis[:, 1]) / np.sqrt(2.0)}

    @staticmethod
    def assert_reports_match(got, want):
        assert [s.step for s in got.samples] == [s.step for s in want.samples]
        np.testing.assert_allclose([s.leakage_population for s in got.samples],
                                   [s.leakage_population for s in want.samples],
                                   rtol=1e-9, atol=0.0)
        np.testing.assert_allclose([s.code_fidelity for s in got.samples],
                                   [s.code_fidelity for s in want.samples],
                                   rtol=0.0, atol=1e-8)
        assert abs(got.distance_to_limit - want.distance_to_limit) <= 1e-12

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_simulate_matches_one_sector(self, monkeypatch, case, pulsed):
        build, pulse = self.CASES[case]
        m = build()
        assert sum(len(s.rows) for s in m.spectra) > 1  # row sets
        # 300 cycles: a full batch, a C^256 advance and a partial batch
        sched = ParityKickSchedule(300, 0.003, pulse(m) if pulsed else None)
        split = {name: simulate(m, sched, psi)
                 for name, psi in self.starts(m).items()}
        one_sector(monkeypatch)
        whole = build()
        assert len(whole.spectra) == 1
        for name, psi in self.starts(whole).items():
            rep = simulate(whole, sched, psi)
            assert max(s.leakage_population for s in rep.samples) > 1e-9
            self.assert_reports_match(split[name], rep)

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_sweep_matches_one_sector(self, monkeypatch, case):
        build, pulse = self.CASES[case]
        m = build()
        pulse = pulse(m)
        split = {name: sweep_cycles(m, 0.9, (1, 3, 8, 300), psi, pulse)
                 for name, psi in self.starts(m).items()}
        one_sector(monkeypatch)
        whole = build()
        for name, psi in self.starts(whole).items():
            rows = sweep_cycles(whole, 0.9, (1, 3, 8, 300), psi, pulse).rows
            for got, want in zip(split[name].rows, rows):
                assert (got.n, got.tau) == (want.n, want.tau)
                assert got.final_leakage == pytest.approx(want.final_leakage,
                                                          rel=1e-9, abs=0.0)
                assert abs(got.distance_to_limit - want.distance_to_limit) <= 1e-12

    def test_public_propagators_match_one_sector(self, monkeypatch):
        pulse = exchange_dfs2_leo()
        sched = ParityKickSchedule(64, 0.01, pulse)
        m = benchmark_model()
        kick, limit = parity_kick_unitary(m, sched), decoupled_limit_unitary(m, 1.28)
        one_sector(monkeypatch)
        whole = benchmark_model()
        for got, want in ((kick, parity_kick_unitary(whole, sched)),
                          (limit, decoupled_limit_unitary(whole, 1.28))):
            assert "unitary" in got.tags and got.dim == m.joint_dim
            assert np.linalg.norm(got.mat - want.mat) <= 1e-13


def frame_hamiltonian(m):
    """H' = (F^dag x I) H_joint (F x I), F the code's frame, by kron."""
    f = np.kron(m.code.frame, np.eye(m.bath_dim))
    return f.conj().T @ m.h_joint.mat @ f


def no_pairs(monkeypatch):
    """Make every model built from here on keep its sectors unpaired."""
    monkeypatch.setattr(models, "_pair_phase", lambda blk, c: None)


class TestPairs:
    """Runs on paired sectors, built from their halves A +- zeta G, match
    runs with pairing turned off, within TestSectors' bounds (leakage rtol
    1e-9, fidelity atol 1e-8, distance 1e-12), and so do the public
    propagators (1e-13). one_ulp_off has a pair next to a sector that does
    not pair, and XI_IZ_code_acting steps its targets."""

    CASES = sorted(name for name, (_, zetas) in PAIR_MODELS.items()
                   if any(z is not None for z in zetas))

    def test_cases_take_both_fidelity_paths(self):
        flags = {PAIR_MODELS[case][0]().decoherence_free for case in self.CASES}
        assert flags == {True, False}

    @pytest.mark.parametrize("case", CASES)
    def test_pair_form_round_trips(self, case):
        # any halves: _frame_block and _diagonal_blocks invert each other,
        # and the half-row product of two frame blocks is their product; an
        # unpaired sector's frame block is its one block, unchanged
        m = PAIR_MODELS[case][0]()
        rng = np.random.default_rng(5)
        for sector in m.spectra:
            if sector.zeta is None:
                block = random_unitary(sector.rows.shape[1], rng)
                assert dynamics._frame_block(sector, [block]) is block
                (diagonal,) = dynamics._diagonal_blocks(sector, block)
                assert diagonal.base is block  # a view, not a copy
                continue
            h = sector.n_code
            plus, minus, other, another = (random_unitary(h, rng) for _ in range(4))
            a = dynamics._frame_block(sector, [plus, minus])
            b = dynamics._frame_block(sector, [other, another])
            for got, want in zip(dynamics._diagonal_blocks(sector, a), (plus, minus)):
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
            np.testing.assert_allclose(dynamics._product(sector)(a, b), a @ b,
                                       rtol=0, atol=1e-14)
            np.testing.assert_allclose(
                dynamics._frame_block(sector, [plus @ other, minus @ another]),
                a @ b, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("case", CASES)
    def test_free_batches_are_frame_rows(self, case):
        # any frame vector, complement rows included (simulate's starts lie
        # in the code): a pair's halves, put back in the frame, step it as
        # the sector's whole block does
        m = PAIR_MODELS[case][0]()
        h = frame_hamiltonian(m)
        rng = np.random.default_rng(5)
        phi = rng.standard_normal(m.joint_dim) + 1j * rng.standard_normal(m.joint_dim)
        for sector in m.spectra:
            blk = h[np.ix_(sector.rows[0], sector.rows[0])]
            whole = np.linalg.eigh(blk)
            got = np.concatenate(list(dynamics._free_batches(sector, phi, -0.3, 300)))
            want = np.concatenate(list(dynamics._spectral_batches(
                whole, phi[sector.rows], -0.3, 300)))
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    @pytest.mark.parametrize("case", CASES)
    def test_simulate_matches_unpaired(self, monkeypatch, case, pulsed):
        build, zetas = PAIR_MODELS[case]
        m = build()
        assert [s.zeta for s in m.spectra] == zetas
        # 300 cycles: a full batch, a C^256 advance and a partial batch
        sched = ParityKickSchedule(300, 0.003, exchange_dfs2_leo() if pulsed else None)
        paired = {name: simulate(m, sched, psi)
                  for name, psi in TestSectors.starts(m).items()}
        no_pairs(monkeypatch)
        whole = build()
        assert all(s.zeta is None for s in whole.spectra)
        for name, psi in TestSectors.starts(whole).items():
            rep = simulate(whole, sched, psi)
            assert max(rep.leakage_population) > 1e-9
            TestSectors.assert_reports_match(paired[name], rep)

    @pytest.mark.parametrize("case", CASES)
    def test_sweep_matches_unpaired(self, monkeypatch, case):
        build, _ = PAIR_MODELS[case]
        m, pulse = build(), exchange_dfs2_leo()
        paired = {name: sweep_cycles(m, 0.9, (1, 3, 8, 300), psi, pulse)
                  for name, psi in TestSectors.starts(m).items()}
        no_pairs(monkeypatch)
        whole = build()
        for name, psi in TestSectors.starts(whole).items():
            rows = sweep_cycles(whole, 0.9, (1, 3, 8, 300), psi, pulse).rows
            for got, want in zip(paired[name].rows, rows, strict=True):
                assert (got.n, got.tau) == (want.n, want.tau)
                assert got.final_leakage == pytest.approx(want.final_leakage,
                                                          rel=1e-9, abs=0.0)
                assert abs(got.distance_to_limit - want.distance_to_limit) <= 1e-12

    @pytest.mark.parametrize("case", CASES)
    def test_public_propagators_match_unpaired(self, monkeypatch, case):
        build, _ = PAIR_MODELS[case]
        sched = ParityKickSchedule(64, 0.01, exchange_dfs2_leo())
        m = build()
        kick, limit = parity_kick_unitary(m, sched), decoupled_limit_unitary(m, 1.28)
        no_pairs(monkeypatch)
        whole = build()
        for got, want in ((kick, parity_kick_unitary(whole, sched)),
                          (limit, decoupled_limit_unitary(whole, 1.28))):
            assert "unitary" in got.tags and got.dim == m.joint_dim
            assert np.linalg.norm(got.mat - want.mat) <= 1e-13


class TestCopies:
    """dfs2 with X on one qubit has two sectors that are copies: one block,
    stepped for both copies' rows at once."""

    MODELS = {
        "XI": lambda: dfs2_leakage_model(("XI",), g=0.2, bath_seed=3, bath_dim=4),
        "IX": lambda: dfs2_leakage_model(("IX",), g=0.2, bath_seed=5, bath_dim=3),
    }

    @pytest.mark.parametrize("n", [0, 257, 600])
    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_superposition_matches_per_sample_reference(self, label, pulsed, n):
        # (|0_L> + i|1_L>)/sqrt(2) puts amplitude on both copies' rows
        m = self.MODELS[label]()
        assert [s.rows.shape[0] for s in m.spectra] == [2]
        state = (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)
        sched = ParityKickSchedule(n, 0.9 / max(n, 1),
                                   exchange_dfs2_leo() if pulsed else None)
        rep = simulate(m, sched, state)
        leaks, fids = per_sample_reference(m, sched, state)
        assert n == 0 or max(leaks) > 1e-9  # the run does leak
        np.testing.assert_allclose([s.leakage_population for s in rep.samples],
                                   leaks, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose([s.code_fidelity for s in rep.samples],
                                   fids, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("label", sorted(MODELS))
    def test_propagators_carry_one_block_on_both_copies(self, label):
        m = self.MODELS[label]()
        (sector,) = m.spectra
        f = np.kron(m.code.frame, np.eye(m.bath_dim))  # a permutation for dfs2
        first, second = sector.rows
        kick = parity_kick_unitary(m, ParityKickSchedule(5, 0.1, exchange_dfs2_leo()))
        for u in (kick, decoupled_limit_unitary(m, 1.0)):
            frame = f.T @ u.mat @ f
            np.testing.assert_array_equal(frame[np.ix_(first, first)],
                                          frame[np.ix_(second, second)])
            assert not np.any(frame[np.ix_(first, second)])
            assert not np.any(frame[np.ix_(second, first)])


def all_live(monkeypatch):
    """Make every run step and read every copy of every sector."""
    monkeypatch.setattr(dynamics, "_live", lambda model, phi0: list(model.spectra))


def diagonal(values):
    return Operator(np.diag(np.asarray(values, dtype=complex)),
                    frozenset({"hermitian"}))


def diagonal_bath_model(code_acting):
    """dfs2 at bath dim 3 whose bath factors are all diagonal, so H' splits
    by bath index: three distinct sectors, one per bath index, each
    holding both code basis states' rows at that index. A start with bath
    index 0 leaves the sectors of indices 1 and 2 dead, so every code row
    holds positions that no live copy does. XI and ZX leak; ZZ is -1 on
    the code and +1 on the complement, so the kicks no longer cancel the
    leakage exactly over a cycle. code_acting adds a logical X term, so
    the code block of H' acts on the code and the targets are stepped."""
    terms = [(0.2, pauli_string("XI"), diagonal([1.0, 0.4, -0.7])),
             (0.1, pauli_string("ZX"), diagonal([0.3, 0.8, 0.2])),
             (0.15, pauli_string("ZZ"), diagonal([0.7, -0.3, 0.5]))]
    if code_acting:
        terms.append((0.3, logical_ops_dfs2().x, diagonal([0.5, -0.2, 0.9])))
    return SystemBathModel.from_terms(dfs2_dephasing(), terms,
                                      free_bath=diagonal([0.0, 0.6, 1.3]))


class TestLiveCopies:
    """simulate and sweep_cycles step and read only the sector copies where
    the start is exactly nonzero; a copy that starts at zero stays zero.
    Runs match runs that step every copy (all_live) to rounding, and the
    distance, when read, still forms, certifies and measures every
    sector's total."""

    @staticmethod
    def xi():
        return TestCopies.MODELS["XI"]()

    @staticmethod
    def run(m, pulsed, state, n=300):
        sched = ParityKickSchedule(n, 0.003, exchange_dfs2_leo() if pulsed else None)
        return simulate(m, sched, state)

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    def test_basis_start_steps_one_copy(self, monkeypatch, pulsed):
        m = self.xi()
        (sector,) = m.spectra
        j = sector.rows.shape[1]
        steps = counting(monkeypatch, "_step")
        spectral = counting(monkeypatch, "_spectral_batches")
        gathers = counting(monkeypatch, "_code_rows")
        live = self.run(m, pulsed, code_state(m))
        shapes = ({a[0].shape[1:] for a in steps} if pulsed
                  else {a[1].shape for a in spectral})
        assert shapes == {(1, j)}
        # the overlap gathers only code row 0, which the live copy holds
        # whole: no zero column
        assert {a[1].shape for a in gathers} == {(1, m.bath_dim)}
        assert all(a[1].max() < a[0][0][0].size for a in gathers)
        steps.clear()
        spectral.clear()
        all_live(monkeypatch)
        every = self.run(m, pulsed, code_state(m))
        shapes = ({a[0].shape[1:] for a in steps} if pulsed
                  else {a[1].shape for a in spectral})
        assert shapes == {(2, j)}
        assert max(every.leakage_population) > 1e-9
        np.testing.assert_allclose(live.leakage_population, every.leakage_population,
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(live.code_fidelity, every.code_fidelity,
                                   rtol=0.0, atol=1e-15)
        assert live.distance_to_limit == every.distance_to_limit

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    def test_superposition_steps_both_copies(self, monkeypatch, pulsed):
        m = self.xi()
        state = (code_state(m, 0) + 1j * code_state(m, 1)) / np.sqrt(2.0)
        steps = counting(monkeypatch, "_step")
        spectral = counting(monkeypatch, "_spectral_batches")
        live = self.run(m, pulsed, state)
        shapes = ({a[0].shape[1] for a in steps} if pulsed
                  else {a[1].shape[0] for a in spectral})
        assert shapes == {2}
        all_live(monkeypatch)
        every = self.run(m, pulsed, state)
        np.testing.assert_array_equal(live.leakage_population, every.leakage_population)
        np.testing.assert_array_equal(live.code_fidelity, every.code_fidelity)
        assert live.distance_to_limit == every.distance_to_limit

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    def test_dead_distinct_sector_waits_for_the_distance(self, monkeypatch,
                                                         pulsed):
        m = dfs2_leakage_model(("XZ",), g=0.2, bath_seed=3, bath_dim=4)
        assert [len(s.rows) for s in m.spectra] == [1, 1]  # two distinct sectors
        cycles = counting(monkeypatch, "_cycle")
        spectral = counting(monkeypatch, "_spectral_batches")
        certified = counting(monkeypatch, "_certified")
        live = self.run(m, pulsed, code_state(m))
        # only the live sector is stepped: a pulsed run forms and certifies
        # its stride and its cycle alone
        j = m.spectra[0].rows.shape[1]
        if pulsed:
            assert [a[0].rows.shape for a in cycles] == [(1, j)]
            assert [[v.rows.shape for v in a[0]] for a in certified] == [[(1, j)]] * 2
        else:
            assert cycles == certified == []
            assert [a[1].shape for a in spectral] == [(1, j)]
        # the distance covers every sector: the limit, then the run's total,
        # cycle^n or the free total
        cycles.clear()
        certified.clear()
        live.distance_to_limit
        assert [len(a[0]) for a in certified] == [2, 2]
        assert [a[0].rows.shape for a in cycles] == ([(1, j)] * 2 if pulsed else [])
        all_live(monkeypatch)
        every = self.run(m, pulsed, code_state(m))
        assert max(every.leakage_population) > 1e-9
        np.testing.assert_allclose(live.leakage_population, every.leakage_population,
                                   rtol=1e-14, atol=0.0)
        np.testing.assert_allclose(live.code_fidelity, every.code_fidelity,
                                   rtol=0.0, atol=1e-15)
        assert live.distance_to_limit == every.distance_to_limit

    def test_sweep_reads_the_live_copies(self, monkeypatch):
        m, pulse = self.xi(), exchange_dfs2_leo()
        steps = counting(monkeypatch, "_step")
        live = sweep_cycles(m, 0.9, (1, 3, 300), code_state(m), pulse)
        assert [a[0].shape[:2] for a in steps] == [(1, 1)] * 3  # one copy per row
        all_live(monkeypatch)
        every = sweep_cycles(m, 0.9, (1, 3, 300), code_state(m), pulse)
        for got, want in zip(live.rows, every.rows, strict=True):
            assert got.final_leakage == pytest.approx(want.final_leakage,
                                                      rel=1e-14, abs=0.0)
            assert got.distance_to_limit == want.distance_to_limit

    @pytest.mark.parametrize("pulsed", [True, False], ids=["pulsed", "free"])
    @pytest.mark.parametrize("code_acting", [False, True],
                             ids=["overlap", "stepped_target"])
    def test_dead_code_rows_read_as_zeros(self, pulsed, code_acting):
        m = diagonal_bath_model(code_acting)
        assert m.decoherence_free is not code_acting
        _, phi0 = dynamics._frame_state(m, code_state(m))
        live = dynamics._live(m, phi0)
        assert len(live) == 3 and live[1] is None and live[2] is None
        in_states, in_targets = dynamics._code_columns(m, [live[0]])
        assert (in_states == live[0].rows.size).sum() == 4  # bath 1 and 2
        assert (in_targets == live[0].n_code).sum() == 4
        sched = ParityKickSchedule(300, 0.003,
                                   exchange_dfs2_leo() if pulsed else None)
        rep = simulate(m, sched, code_state(m))
        leaks, fids = per_sample_reference(m, sched, code_state(m))
        assert max(leaks) > 1e-9 and min(fids) < 1.0 - 1e-9  # the run moves
        np.testing.assert_allclose(rep.leakage_population, leaks,
                                   rtol=1e-9, atol=1e-20)
        np.testing.assert_allclose(rep.code_fidelity, fids, rtol=0.0, atol=1e-8)


class TestIdealKick:
    """A pulse is read only for its code: the kick is the ideal sign flip
    of the code rows in the frame, whatever the pulse's rounding."""

    def test_a_pulse_off_by_its_tolerance_runs_as_the_exact_one(self):
        # the first column scaled by 1 + 4.5e-11: residual 9.0e-11, inside
        # UNITARY_TOL; read as R x I twice per cycle, it used to fail the
        # cycle^n check at n = 1 (3.6e-10) and n = 8 (2.9e-9)
        exact = exchange_dfs2_leo()
        u = exact.unitary.mat.copy()
        u[:, 0] *= 1.0 + 4.5e-11
        off = LeakageEliminationOperator(Operator(u, frozenset({"unitary"})),
                                         exact.code, exact.route)
        assert opalg._unitary_residual(u) > 8e-11
        m = dfs2_leakage_model(["XI"], 0.05, 3, bath_dim=4)
        for n in (1, 8):
            for pulse in (off, exact):
                parity_kick_unitary(m, ParityKickSchedule(n, 0.05, pulse))
            got = simulate(m, ParityKickSchedule(n, 0.05, off), code_state(m))
            want = simulate(m, ParityKickSchedule(n, 0.05, exact), code_state(m))
            assert got.samples == want.samples
            assert got.distance_to_limit == want.distance_to_limit

    @pytest.mark.parametrize("build,n", [
        (lambda: (dfs2_leakage_model(["XI"], 0.05, 3, bath_dim=16),
                  exchange_dfs2_leo()), 4096),
        (lambda: (lambda m: (m, projector_leo(m.code)))(
            hopping_model(8, seed=3, g=0.05, bath_dim=32)), 1024),
    ], ids=["dfs2_j64_n4096", "hopping8_j256_n1024"])
    def test_long_runs_stay_unitary(self, build, n):
        # two runs that drifted past UNITARY_TOL while the segment was
        # V e^(-i w tau) V^dag (1.49e-10 and 1.26e-10); the expm1 form
        # keeps cycle^n at 1.0e-11 and 9.1e-12
        m, pulse = build()
        sched = ParityKickSchedule(n, 1.0 / n, pulse)
        u = parity_kick_unitary(m, sched)
        assert opalg._unitary_residual(u.mat) <= opalg.UNITARY_TOL / 4
        assert len(simulate(m, sched, code_state(m)).samples) == n + 1
