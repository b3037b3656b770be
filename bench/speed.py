"""The machine's momentary speed, read from small fixed kernels.

On a shared machine the CPU speed drifts by up to +-20 % over tens of seconds,
in wall and CPU time alike, and a run's median op time lands in whichever
state dominates the run.  A `Speedometer` times a few kernels that do the
same kinds of work as a workload's ops, with no qfamily code in them: a
change to qfamily moves its ops and not the kernels.  A reading is taken
before every op (every third cold op) and every set-up probe, and one after
the last; each op and probe is scaled from the latest reading.  Its times are
multiplied by `scale(reading)`: the geometric mean over kernels of reference
time / median time in the readings around it (see KERNELS).  So they read
as times at the speed at which every kernel takes its reference time.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

# BLAS thread settings, which cold ops run without
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fractions():
    table = {}
    for i in range(1, 500):
        value = Fraction(i, i + 3) * Fraction(3, 7) - Fraction(1, i)
        table[(i % 17, value.denominator % 5)] = value


def wire_json():
    payload = {"rows": [{"k": i, "v": [i, i + 1, str(i)]} for i in range(300)]}
    for _ in range(3):
        json.loads(json.dumps(payload))


def small_eigensolves():
    import numpy as np

    m = np.arange(16, dtype=float).reshape(4, 4) + 1j * np.eye(4)
    hermitian = m @ m.conj().T
    for _ in range(200):
        np.linalg.eigvalsh(hermitian)


def cold_start():
    """A fresh interpreter importing numpy, in the environment cold ops get.

    It pays the interpreter start, numpy's loading and the start of OpenBLAS's
    thread pool, whose cost depends on whether the other cores are free."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True)


# Reference times in seconds: the kernels' times on a 2-vCPU x86-64 machine
# (Python 3.11, numpy 2.4) in its faster state.
REFERENCE_S = {
    fractions: 0.0028,
    wire_json: 0.0016,
    small_eigensolves: 0.0015,
    cold_start: 0.16,
}
# Per kind of op: the kernels, how many ops share one reading, and how many
# readings, centred on an op's own, set its scale (None: all of the run's).
# Cold ops are mostly a fresh interpreter loading numpy, and one launch of it
# varies too much to scale a single op: per-op scaling widened the spread of
# op_p90_ms and cpu_ms_per_op across seeds, so cold runs get one factor.
# In-process checks are Fraction arithmetic, JSON and small LAPACK calls.
KERNELS = {
    "cold": ((cold_start,), 3, None),
    "in-process": ((fractions, wire_json, small_eigensolves), 1, 5),
}


class Speedometer:
    def __init__(self, kind: str):
        self.kernels, self.ops_per_reading, self.window = KERNELS[kind]
        self.readings: list[list[float]] = []
        self.read()
        self.readings.clear()  # the first reading only loads and warms the kernels

    def read(self) -> int:
        times = []
        for kernel in self.kernels:
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        self.readings.append(times)
        return len(self.readings) - 1

    def scale(self, reading: int) -> float:
        window = self.readings
        if self.window is not None:
            half = self.window // 2
            window = self.readings[max(0, reading - half):reading + half + 1]
        return statistics.geometric_mean(
            REFERENCE_S[kernel] / statistics.median(times[k] for times in window)
            for k, kernel in enumerate(self.kernels)
        )
