"""A fixed reference kernel that measures how fast the host runs right now.

On a host shared with other virtual machines, the CPU time one pass takes
drifts by up to a third over minutes, with the same code and inputs: on a
2-core Xeon guest, ten seeds of ``cell_point`` spread 21% (IQR over
median) in CPU time and 32% in five other seeds. The drift comes in
phases of tens of seconds to minutes, so a run of the benchmark sits in
one phase and longer runs do not average it away.

The benchmark therefore samples this kernel in its own process between
the things it times (set-up probes, passes and, within a pass, operations)
and reports times at the kernel's nominal speed: each timed segment
counts ``cpu * NOMINAL_S / median(samples)``, over the samples taken just
before and just after it. Over four minutes in which one process's
``cell_point`` passes took 5.6-9.1 s of CPU time (IQR 30% of the
median), the pass time over the median of the ten samples around it
varied by 6%. The kernel is plain numpy and
scipy, the work maphom's solvers do most (conjugate-gradient steps with a
9-point sparse matrix on a 256^2 periodic grid), and calls no maphom
code, so a change to maphom moves the scaled time exactly as it moves
the raw one, while a host phase that slows both cancels. Raw times and
every sample are kept in the result file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

GRID = 256
STEPS = 60
# a typical CPU time of one sample on a 2-core Intel Xeon guest (4 MiB L2
# per core) with OpenBLAS pinned to one thread, where single samples read
# 0.045-0.155 s within minutes; it only sets the scale of reported times
NOMINAL_S = 0.06


def _matrix(n: int) -> sp.csr_matrix:
    """SPD 9-point matrix of a periodic n x n grid."""
    ring = sp.diags([2.0, -1.0, -1.0, -1.0, -1.0], [0, 1, -1, n - 1, 1 - n],
                    shape=(n, n), format="csr")
    eye = sp.identity(n, format="csr")
    return (sp.kron(ring, eye) + sp.kron(eye, ring) + 0.1 * sp.kron(ring, ring)
            + 0.01 * sp.identity(n * n)).tocsr()


class Reference:
    """CPU times of the kernel, sampled on demand, and the scale they give."""

    def __init__(self, grid: int = GRID, steps: int = STEPS):
        self.matrix = _matrix(grid)
        self.rhs = np.random.default_rng(0).standard_normal(grid * grid)
        self.steps = steps
        self.samples: list[float] = []

    def _cg_steps(self) -> np.ndarray:
        x = np.zeros_like(self.rhs)
        r = self.rhs.copy()
        p = r.copy()
        rr = r @ r
        for _ in range(self.steps):
            q = self.matrix @ p
            alpha = rr / (p @ q)
            x += alpha * p
            r -= alpha * q
            rr_next = r @ r
            p *= rr_next / rr
            p += r
            rr = rr_next
        return x

    def sample(self, count: int) -> list[float]:
        """CPU times of ``count`` runs of the kernel, also kept in ``samples``."""
        block = []
        for _ in range(count):
            start = time.process_time()
            self._cg_steps()
            block.append(time.process_time() - start)
        self.samples += block
        return block


def scale(samples: list[float]) -> float:
    """Factor that turns a CPU time measured among ``samples`` into one at
    the kernel's nominal speed."""
    return NOMINAL_S / statistics.median(samples)


class Clock:
    """This process's CPU time between marks, raw and scaled.

    Each ``mark`` samples the kernel ``count`` times. The segment since the
    previous mark is scaled by the samples of both marks; the samples' own
    CPU time is in no segment.
    """

    def __init__(self, ref: Reference, count: int):
        self.ref = ref
        self.count = count
        self.before: list[float] = []
        self.start = 0.0
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def mark(self) -> None:
        end = time.process_time()
        after = self.ref.sample(self.count)
        if self.before:
            self.raw_s += end - self.start
            self.scaled_s += (end - self.start) * scale(self.before + after)
        self.before = after
        self.start = time.process_time()

    def restart(self) -> None:
        """Zero the totals; the next segment starts now."""
        self.raw_s = self.scaled_s = 0.0
        self.start = time.process_time()
