"""Machine-speed sampling for the end-to-end times.

Shared hosts change speed by tens of percent within a minute, so raw wall
times of the same code spread too widely to compare two revisions. While an
untraced episode runs, a timer interrupts it every ~0.1 s (jittered, so it
cannot lock onto a periodic load) and times a fixed calibration kernel that
mixes the program's kinds of work: small-array numpy calls in a Python loop,
stencil and einsum work on a 48x96 grid, stencils and arctan on a 128^2
grid, and sparse matrix-vector products.
The episode's time is then rescaled to a fixed reference speed:

    ref_s = (wall_s - time spent sampling) * REFERENCE_SAMPLE_S / mean sample time

The kernel belongs to the benchmark, so a change to codimflow moves ref_s
exactly as it moves the work it does; only the host's speed cancels. The
samples do not touch program state, so results stay bit-identical.
"""

from __future__ import annotations

import random
import signal
import time

import numpy as np
import scipy.sparse as sp

PERIOD_S = 0.1
# one calibration sample on an idle 2-core Xeon sandbox (numpy 2.4, scipy 1.17);
# it only fixes the unit of ref_s
REFERENCE_SAMPLE_S = 0.004


class SpeedSampler:
    """Context manager that samples the calibration kernel on SIGALRM."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._grid = rng.normal(size=(48, 96, 3))
        self._metric = rng.normal(size=(48, 96, 2, 2))
        self._curve = rng.normal(size=(256, 2))
        self._field = rng.normal(size=(128, 128))
        # a 48x96 periodic operator with the semi-implicit step's stencil width
        d1 = [sp.diags([1.0, -8.0, 8.0, -1.0], [-2, -1, 1, 2], shape=(n, n), format="csr")
              + sp.diags([1.0, -8.0, 8.0, -1.0], [n - 2, n - 1, 1 - n, 2 - n], shape=(n, n))
              for n in (48, 96)]
        self._matrix = (sp.kron(d1[0], d1[1]) + sp.identity(48 * 96)).tocsr() / 144.0
        self._vector = rng.normal(size=4608)
        self._jitter = random.Random(0)
        self.samples: list[tuple[float, float]] = []   # (start, duration)
        self._previous = None

    def kernel(self) -> float:
        """Run the calibration kernel once; returns its duration."""
        t0 = time.perf_counter()
        a = self._grid
        for _ in range(2):
            d = (np.roll(a, -1, 0) - np.roll(a, 1, 0)) * 0.5
            g = np.einsum("...a,...a->...", d, d)
            h = np.einsum("...ij,...jk->...ik", self._metric, self._metric)
            a = a + 1e-12 * (g[..., None] + h[..., 0, :1])
        c = self._curve
        for _ in range(40):
            e = np.concatenate([c[-1:], c, c[:1]])
            e = (e[2:] - e[:-2]) * 0.5
            c = c + 1e-12 * np.einsum("na,na->n", e, e)[:, None]
            float(c.max())
        f = self._field
        for _ in range(2):
            lap = np.roll(f, 1, 0) + np.roll(f, -1, 0) + np.roll(f, 1, 1) + np.roll(f, -1, 1) - 4.0 * f
            f = f + 1e-12 * np.arctan(lap)
        x = self._vector
        for _ in range(10):
            x = self._matrix @ x * 0.1
        return time.perf_counter() - t0

    def _arm(self):
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S * self._jitter.uniform(0.5, 1.5))

    def _on_alarm(self, signum, frame):
        start = time.perf_counter()
        self.kernel()
        self.samples.append((start, time.perf_counter() - start))
        self._arm()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._arm()
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def to_reference(self, start: float, end: float) -> float:
        """Rescale the time from start to end (perf_counter stamps inside
        this context) to the reference speed. Samples taken in that window
        set the speed and are not counted as the program's time; with none
        in it (a window shorter than the period), one is taken now."""
        inside = [d for t, d in self.samples if start <= t < end]
        speed = inside or [self.kernel()]
        return (end - start - sum(inside)) * REFERENCE_SAMPLE_S / (sum(speed) / len(speed))
