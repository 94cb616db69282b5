"""Acceptance gate: one test per release criterion.

Each test prints the measured quantity next to its bound, so a verbose run
doubles as the acceptance report. Golden numbers come from
bench/golden_oracle.json, produced by bench/oracle.py with an independent
propagator; regenerate the goldens only by rerunning that script.
"""

import json

import numpy as np
import pytest

from leolab import cli
from leolab.classify import decompose
from leolab.codes import (
    build_code,
    code_labels,
    s_squared,
    spin_sector_decomposition,
)
from leolab.dynamics import (
    ParityKickSchedule,
    decoupled_limit_unitary,
    parity_kick_unitary,
    simulate,
    sweep_cycles,
)
from leolab.leo import (
    canonical_leo,
    exchange_dfs2_leo,
    generalized_leo,
    number_operator_leo,
    phase_shifter_leo,
    projector_leo,
    random_probes,
    s_squared_leo,
    verify_leo,
)
from leolab.models import logical_ops_dfs2, model_from_config
from leolab.opalg import Operator, hermitian_exponential, pauli_string


HERM = frozenset({"hermitian"})


def benchmark_setup(bench_dir):
    config = json.loads((bench_dir / "dfs2_benchmark.json").read_text())
    model = model_from_config(config)
    state = np.array(model.code.basis[:, 0], dtype=complex)
    return config, model, state


def run_cli(argv):
    try:
        cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return int(exc.code)
    raise AssertionError("cli.main must exit")


def test_criterion_1_spin_sector_structure():
    three = spin_sector_decomposition(3)
    got3 = {(s.spin, s.multiplicity, s.block_dim) for s in three.sectors}
    assert got3 == {(0.5, 2, 2), (1.5, 1, 4)}
    four = spin_sector_decomposition(4)
    got4 = {(s.spin, s.multiplicity, s.block_dim) for s in four.sectors}
    assert got4 == {(0.0, 2, 1), (1.0, 3, 3), (2.0, 1, 5)}
    print(f"criterion 1: n=3 sectors {sorted(got3)}, n=4 sectors {sorted(got4)}")


def test_criterion_2_collective_spin_pulse_spectrum():
    pulse = s_squared_leo()
    eigs = np.linalg.eigvals(pulse.unitary.mat)
    plus = int(np.sum(np.abs(eigs - 1.0) <= 1e-10))
    minus = int(np.sum(np.abs(eigs + 1.0) <= 1e-10))
    assert plus == 2
    assert minus == 14
    assert plus + minus == eigs.size
    worst = float(np.min(np.abs(np.abs(eigs) - 1.0)))
    print(f"criterion 2: eigenvalues +1 x{plus}, -1 x{minus} "
          f"(modulus defect {worst:.1e} <= 1e-10)")


def test_criterion_3_exchange_pulse_equals_double_flip():
    ops = logical_ops_dfs2()
    lhs = hermitian_exponential(ops.x, np.pi).mat
    rhs = pauli_string("ZZ").mat
    resid = float(np.linalg.norm(lhs - rhs))
    assert resid <= 1e-12
    print(f"criterion 3: Frobenius residual {resid:.3e} <= 1e-12")


def test_criterion_4_recoupling_identity():
    ops = logical_ops_dfs2()
    half_turn_in = hermitian_exponential(ops.x, np.pi / 4).mat
    half_turn_out = hermitian_exponential(ops.x, -np.pi / 4).mat
    worst = 0.0
    for theta in np.linspace(0.0, 2 * np.pi, 100, endpoint=False):
        product = (half_turn_in
                   @ hermitian_exponential(ops.z, -theta).mat
                   @ half_turn_out)
        direct = hermitian_exponential(ops.y, -theta).mat
        worst = max(worst, float(np.linalg.norm(product - direct)))
    assert worst <= 1e-12
    print(f"criterion 4: worst residual over 100 angles {worst:.3e} <= 1e-12")


def test_criterion_5_every_route_on_random_probes():
    dfs2 = build_code("dfs2")
    xbar = Operator(logical_ops_dfs2().x.mat, HERM)
    half_total_spin = Operator(s_squared(4).mat / 2.0, HERM)
    pulses = [projector_leo(build_code(label)) for label in code_labels()
              if "<" not in label]
    pulses += [
        canonical_leo(xbar, dfs2),
        canonical_leo(Operator(build_code("dfs3").projector, HERM),
                      build_code("dfs3")),
        exchange_dfs2_leo(),
        number_operator_leo(2),
        number_operator_leo(4),
        phase_shifter_leo(),
        s_squared_leo(),
        generalized_leo(half_total_spin, build_code("dfs4")),
    ]
    routes = {p.route for p in pulses}
    assert routes == {"projector", "canonical", "exchange_2dfs", "number_op",
                      "phase_shifter", "s_squared", "generalized"}
    worst = 0.0
    for k, pulse in enumerate(pulses):
        probes = random_probes(pulse.code.ambient_dim, 100, seed=200 + k)
        report = verify_leo(pulse.unitary, pulse.code, probes)
        assert report.passed, f"{pulse.route} on {pulse.code.label}: " \
                              f"{report.summary()}"
        worst = max(worst, report.max_residual)
    print(f"criterion 5: {len(pulses)} pulses x 100 probes, "
          f"max residual {worst:.3e} <= 1e-10")


def test_criterion_6_classification_soundness():
    worst_rebuild = 0.0
    worst_freeze = 0.0
    for label in code_labels():
        if "<" in label:
            continue
        code = build_code(label)
        v = code.basis
        for probe in random_probes(code.ambient_dim, 10, seed=31):
            dec = decompose(probe, code)
            total = dec.e_part.mat + dec.eperp_part.mat + dec.l_part.mat
            worst_rebuild = max(
                worst_rebuild, float(np.linalg.norm(probe.mat - total)))
            for t in (0.3, 1.3):
                u = hermitian_exponential(dec.eperp_part, -t).mat
                worst_freeze = max(
                    worst_freeze, float(np.linalg.norm(u @ v - v)))
    assert worst_rebuild <= 1e-12
    assert worst_freeze <= 1e-12
    print(f"criterion 6: rebuild residual {worst_rebuild:.3e}, "
          f"code-frame drift {worst_freeze:.3e}, both <= 1e-12")


def test_criterion_7_convergence_order(bench_dir, golden):
    config, model, state = benchmark_setup(bench_dir)
    total = float(config["schedule"]["total_time"])
    pulse = exchange_dfs2_leo()
    table = sweep_cycles(model, total, (8, 16, 32, 64), state, pulse)
    dist = {r.n: r.distance_to_limit for r in table.rows}
    ratios = {n: dist[n] / dist[2 * n] for n in (8, 16, 32)}
    for n, ratio in ratios.items():
        assert 1.7 <= ratio <= 2.3, f"halving ratio at n={n}: {ratio}"
        assert ratio == pytest.approx(
            golden["convergence"]["ratios"][str(n)], rel=1e-6)

    taus = golden["single_cycle"]["taus"]
    defects = []
    for tau in taus:
        u = parity_kick_unitary(model, ParityKickSchedule(1, tau, pulse))
        lim = decoupled_limit_unitary(model, 2 * tau)
        defects.append(float(np.linalg.norm(u.mat - lim.mat, 2)))
    slope = float(np.polyfit(np.log(taus), np.log(defects), 1)[0])
    assert slope == pytest.approx(2.0, abs=0.1)
    shown = ", ".join(f"n={n}: {r:.4f}" for n, r in ratios.items())
    print(f"criterion 7: halving ratios {shown} in [1.7, 2.3]; "
          f"single-cycle slope {slope:.4f} = 2 +/- 0.1")


def test_criterion_8_leakage_suppression(bench_dir, golden):
    config, model, state = benchmark_setup(bench_dir)
    n = int(config["schedule"]["n_cycles"])
    total = float(config["schedule"]["total_time"])
    tau = total / (2 * n)
    pulsed = simulate(model, ParityKickSchedule(n, tau, exchange_dfs2_leo()),
                      state)
    free = simulate(model, ParityKickSchedule(n, tau, None), state)
    factor = free.final_leakage / pulsed.final_leakage
    assert factor >= 50.0
    assert factor == pytest.approx(golden["benchmark"]["suppression_factor"],
                                   rel=1e-6)
    assert config["g"] * total == pytest.approx(0.1, abs=1e-15)
    print(f"criterion 8: suppression factor {factor:.1f} >= 50 "
          f"(free {free.final_leakage:.3e} / pulsed "
          f"{pulsed.final_leakage:.3e})")


def test_criterion_9_deterministic_outputs(bench_dir, tmp_path):
    jobs = []
    for config in sorted(bench_dir.glob("*.json")):
        if config.name == "golden_oracle.json":
            continue
        jobs.append(["simulate", "--config", config])
        jobs.append(["simulate", "--config", config, "--free"])
        jobs.append(["sweep", "--config", config, "--n", "1,4,16"])
    assert len(jobs) == 6
    for k, job in enumerate(jobs):
        first = tmp_path / f"run{k}a.csv"
        second = tmp_path / f"run{k}b.csv"
        assert run_cli(job + ["--out", first]) == 0
        assert run_cli(job + ["--out", second]) == 0
        assert first.read_bytes() == second.read_bytes(), f"job {job}"
    print(f"criterion 9: {len(jobs)} config runs repeated byte-identically")
