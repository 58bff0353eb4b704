"""Host-speed correction for timings taken on a shared machine.

On a shared 2-core VM the host's speed drifts by up to about 1.6x, in phases
that last from seconds to minutes.  Process CPU time drifts with wall time,
so the slowdown is not scheduler waiting, and every timing in a run moves
with it.  A fixed probe, whose work does not depend on the program under
test, is therefore timed between rounds.  The run's median probe time over
the probe's time on the reference host is the run's slowdown; round times
divided by it are the times at the reference host's speed.

One factor per run, not one per round: probes run between rounds, so they
cannot see the host during a round that lasts seconds, and per-round
factors added more noise than they removed on such rounds.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

# The probe's median time on the reference host (a 2-core Xeon VM) in its
# fast phase.  It only sets the scale: corrected times read as seconds at
# that speed.
REFERENCE_PROBE_S = 0.0034


class HostProbe:
    """An interpreter loop, small dense solves, and sparse products streaming
    a matrix the size of a 118-bus masked LP: the kinds of work a market
    round does."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.uniform(-1.0, 1.0, (30, 30)) + 30.0 * np.eye(30)
        rows, cols, per_row = 2280, 2712, 136
        nnz = rows * per_row
        self.M = sp.csr_matrix(
            (rng.uniform(0.0, 1.0, nnz),
             rng.integers(0, cols, nnz, dtype=np.int32),
             np.arange(0, nnz + 1, per_row, dtype=np.int32)),
            shape=(rows, cols))
        self.x = np.ones(cols)
        self.seconds = []

    def sample(self):
        """Time the probe once, record the time and return it."""
        t0 = time.perf_counter()
        d = {}
        for i in range(10_000):
            d[i % 97] = d.get(i % 97, 0) + i
        for _ in range(20):
            np.linalg.solve(self.A, self.x[:30])
        for _ in range(3):
            self.M.T @ (self.M @ self.x)
        self.seconds.append(time.perf_counter() - t0)
        return self.seconds[-1]

    def slowdown(self):
        return statistics.median(self.seconds) / REFERENCE_PROBE_S


def correct(metrics, units, slowdown, skip=()):
    """Times (unit ``s``) divided by ``slowdown`` and rates (``1/s``)
    multiplied by it, except the metrics named in ``skip``."""
    scale = {"s": 1.0 / slowdown, "1/s": slowdown}
    return {k: v * scale[units[k]] if units[k] in scale and k not in skip
            else v for k, v in metrics.items()}
