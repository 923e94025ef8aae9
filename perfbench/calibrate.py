"""Time a fixed piece of work to measure how fast the machine runs right now.

    python3 perfbench/calibrate.py

Prints one number: the median seconds of REPS repetitions of a fixed mix
of what resfault spends its time on (interpreted Python arithmetic, small
float64 matrix products as in nn training, and float formatting and
parsing as in persist). It imports nothing from the program, so a change
to the program cannot move it; run.py divides each execution's wall time
by the calibration measured around it. Run it with BLAS pinned to one
thread, as the workloads are.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPS = 31

_RNG = np.random.default_rng(0)
_BATCH = _RNG.standard_normal((64, 24))
_WEIGHTS = _RNG.standard_normal((24, 24))
_VALUES = _RNG.standard_normal(4000).tolist()


def work() -> float:
    total = 0.0
    for i in range(60_000):
        total += i * 0.5
    x = _BATCH
    for _ in range(1_500):
        x = np.tanh(_BATCH @ _WEIGHTS) + x * 0.0
    text = ",".join(format(v, ".9g") for v in _VALUES)
    total += sum(float(v) for v in text.split(","))
    return total + float(x[0, 0])


def main() -> None:
    work()  # warm-up
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        work()
        times.append(time.perf_counter() - start)
    print(statistics.median(times))


if __name__ == "__main__":
    main()
