"""Calibration loops that measure the host's current speed.

The benchmark's host is a shared virtual machine whose speed drifts by tens
of percent over minutes; a fixed nvswap loop's 10-second means ranged over
+-25% within five minutes.  A fixed loop doing the same kinds of work as
nvswap (small complex matrix products and eigvalsh, Python-level loops, and
masked row copies like the sampler's) slows down with it: the ratio of the
two varied by 2.5% over the same windows.  So each worker interleaves such a
loop with its operations, untimed, and run.py scales every timing by the
loop's nominal time over its mean time in that worker.  The results read as
times at the speed where the loop takes its nominal time, and drift cancels.

Each workload uses the loop whose work drifts like its own: "small" for the
engine, "large" (sampler-sized row copies) for mc_sample, and "startup" (an
interpreter importing numpy) for cli, whose commands are mostly start-up.
The loops must never change: the scale of every reported timing depends on
them.
"""

from __future__ import annotations

import functools
import subprocess
import sys
import time

import numpy as np

# calibration time spent after each operation, as a share of its duration
SHARE = 0.15
# nominal duration of one loop of each kind, on a quiet run of the machine the
# benchmark was defined on; it sets the unit of every reported timing
REFERENCE_S = {"small": 0.0015, "large": 0.04, "startup": 0.1}
# rows of the masked copies: 128 rows (64 KiB) stay out of the worker's peak
# resident memory; "large" copies as many rows as mc_sample samples, since the
# sampler's speed drifts with the memory system's
ROWS = {"small": 128, "large": 20_000}

_SMALL = np.full((32, 32), 0.03, dtype=complex)


def array_loop(mask: np.ndarray) -> float:
    """Run the fixed array loop once, copying rows selected by `mask`; returns seconds."""
    start = time.perf_counter()
    matrix = np.eye(32, dtype=complex)
    rows = np.ones((len(mask), 32), dtype=complex)
    total = 0
    for _ in range(16):
        matrix = (matrix @ _SMALL) * 0.5 + np.eye(32)
        np.linalg.eigvalsh(matrix + matrix.conj().T)
        sub = rows[mask]
        sub[:, ::2] = 0.0
        rows[mask] = sub * 0.5
        for k in range(150):
            total += k * k
    return time.perf_counter() - start


def startup_loop() -> float:
    """Start an interpreter that imports numpy, as every cli command does; returns seconds."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


class Calibrator:
    """Loop durations gathered in proportion to the operation time they follow."""

    def __init__(self, kind: str = "small") -> None:
        self.kind = kind
        self.times: list[float] = []
        if kind == "startup":
            self.loop = startup_loop
        else:
            mask = np.random.default_rng(0).random(ROWS[kind]) < 0.5
            self.loop = functools.partial(array_loop, mask)
        self.loop()  # the first run pays one-off set-up costs

    def after(self, op_seconds: float) -> None:
        """Run the loop at least once, and until it has taken SHARE of op_seconds."""
        spent = 0.0
        while spent == 0.0 or spent < SHARE * op_seconds:
            duration = self.loop()
            self.times.append(duration)
            spent += duration

    def scale(self) -> float:
        """Factor that converts wall time into time at the reference speed."""
        return REFERENCE_S[self.kind] * len(self.times) / sum(self.times)
