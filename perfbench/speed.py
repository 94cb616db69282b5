"""Machine-speed probe: rescales measured times to a reference machine speed.

On a shared host the same code runs 20-40% slower for minutes at a time
while a neighbour is busy, far more than the run-to-run bounds of the
benchmark allow. Around every in-process operation (and around every CLI
pass, and after every timed set-up) the benchmark times a fixed kernel on
two threads at once: a Python loop, small complex eigh and matmul calls,
and two 128 x 128 eigh per thread. The two threads contend for the
interpreter lock and the CPUs much as the workloads and the sweep's pool
do; of the probes tried (one thread or two, per pass or per operation),
two threads around each operation tracked the slowdowns most closely.

Each time measured is multiplied by factor = REFERENCE_S / kernel time
(the mean of the probes just before and just after it), so reported times
are seconds on a machine that runs the kernel in REFERENCE_S. The kernel
uses numpy only, never leolab, so a change to leolab cannot move the
factor. The driver prints the raw times and the factors next to the
metrics.
"""

from __future__ import annotations

import threading
import time

import numpy as np

REFERENCE_S = 0.020
THREADS = 2


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        small = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        mid = rng.standard_normal((128, 128))
        self._small = small + small.conj().T
        self._mid = mid + mid.T

    def _kernel(self) -> None:
        total = 0
        for i in range(30000):
            total += i * i
        for _ in range(150):
            _, v = np.linalg.eigh(self._small)
            np.linalg.norm(v @ self._small)
        for _ in range(2):
            np.linalg.eigh(self._mid)

    def factor(self) -> float:
        threads = [threading.Thread(target=self._kernel) for _ in range(THREADS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return REFERENCE_S / (time.perf_counter() - t0)
