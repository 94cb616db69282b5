"""CLI outputs against the committed golden CSVs in bench/golden.

The four cases are the shipped configurations the benchmark's CLI
workload runs. Every row and every value is compared; integer columns must
match exactly, floating-point columns within these bounds:

- elapsed_time, tau: rtol 1e-12, a few ulps of a product 2 tau k or a
  quotient T / 2n.
- leakage: rtol 1e-9. The library and the independent scipy oracle agree
  to ~1e-12 relative; the rest is room for reordered float sums. With no
  absolute slack, the exact zero of the first sample must stay exact.
- code_fidelity: atol 1e-8. The golden column was written by an eigh-based
  sqrt(rho) formula, which keeps only about half the digits of a nearly
  rank-deficient reduced state; the purification formula differs from it
  by up to 9.3e-10 on the free run.
- distance_to_limit: atol 1e-9; library and oracle agree to ~5e-12.

Byte equality is required only between two runs of the same build.
"""

import csv
import io

import numpy as np
import pytest

from leolab import cli

CASES = {
    "dfs2_benchmark_pulsed.csv": ["simulate", "--config", "dfs2_benchmark.json"],
    "dfs2_benchmark_free.csv": ["simulate", "--config", "dfs2_benchmark.json",
                                "--free"],
    "dfs2_benchmark_sweep.csv": ["sweep", "--config", "dfs2_benchmark.json",
                                 "--n", "1,2,4,8,16,32,64"],
    "dfs2_example_pulsed.csv": ["simulate", "--config", "dfs2_example.json"],
}

INTEGER_COLUMNS = {"step", "n"}
# column -> (rtol, atol)
TOLERANCES = {
    "elapsed_time": (1e-12, 0.0),
    "tau": (1e-12, 0.0),
    "leakage_population": (1e-9, 0.0),
    "final_leakage": (1e-9, 0.0),
    "code_fidelity": (0.0, 1e-8),
    "distance_to_limit": (0.0, 1e-9),
}


def run_case(bench_dir, argv, out):
    argv = list(argv)
    argv[argv.index("--config") + 1] = str(bench_dir / argv[argv.index("--config") + 1])
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(out)])
    assert exc.value.code == 0
    return out.read_bytes()


def columns(text):
    rows = list(csv.reader(io.StringIO(text)))
    return {name: [row[i] for row in rows[1:]] for i, name in enumerate(rows[0])}


@pytest.mark.parametrize("golden_name", sorted(CASES))
def test_cli_matches_golden(bench_dir, tmp_path, golden_name):
    first = run_case(bench_dir, CASES[golden_name], tmp_path / "first.csv")
    second = run_case(bench_dir, CASES[golden_name], tmp_path / "second.csv")
    assert first == second

    got = columns(first.decode())
    want = columns((bench_dir / "golden" / golden_name).read_text())
    assert list(got) == list(want)
    for name in want:
        if name in INTEGER_COLUMNS:
            assert [int(x) for x in got[name]] == [int(x) for x in want[name]]
        else:
            rtol, atol = TOLERANCES[name]
            np.testing.assert_allclose(np.array(got[name], dtype=float),
                                       np.array(want[name], dtype=float),
                                       rtol=rtol, atol=atol, err_msg=name)
