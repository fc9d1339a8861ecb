"""Reference kernel that measures how fast the host runs right now.

The kernel is owned by the benchmark and never calls into ncjoin, so it is
the same on every commit that is compared. Its unit mimics the solver's mix
of work: a Dykstra-style loop of small Hermitian eigendecompositions,
simplex projections and affine mat-vecs at a tiny size (interpreter-bound,
like the corpus solves) and at a medium size (LAPACK-bound, like the
ladder), optionally followed by dense SVDs like the commutant null spaces
that dominate some analysis commands. The host's slow states slow the
small-call loop about 1.9x but a dense SVD only about 1.5x, so each task
names the mix that matches its own work (MIXES below).

The host can switch between fast and slow states within a second, so a
unit kernel is sampled every SAMPLE_INTERVAL_S from a timer signal while a
timed call runs, and the samples' own time is subtracted from the call. The
call is reported in reference-normalized seconds:

    norm = wall * NOMINAL_PROBE_S / (UNITS * mean sampled unit time)

A host that runs everything 20% slower leaves the figure unchanged. On the
host this was built on, normalizing by samples taken during the call cut
the spread of repeated identical solves from about 11% to 5%, against
probes taken only just before and after the call. Those bracketing probes
(UNITS units each) are still taken; they normalize a call too short to be
sampled, and the traced runs. NOMINAL_PROBE_S is a fixed constant, not a
measurement.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Fixed forever: changing any of these rescales every normalized figure.
NOMINAL_PROBE_S = 0.05
UNITS = 20
SAMPLE_INTERVAL_S = 0.05
_SIZES = ((6, 30), (16, 40))   # (matrix size, affine rows) of the two loops
_SVD_SHAPE = (160, 24)

# Reference-kernel mixes: (loops at the two sizes, dense SVDs) per unit,
# about 2.5 ms each. "solver" matches small-call loops around eigh: the
# Dykstra solver, validation and CLI glue. "dense" matches commands whose
# time goes mostly to dense SVDs (the commutant null spaces of C12 and M3).
MIXES = {"solver": ((20, 5), 0), "dense": ((3, 1), 1)}


def _hermitian(rng, n):
    m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (m + m.conj().T) / 2


def _simplex(v):
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    rho = int(np.nonzero(u - css / idx > 0)[0][-1]) + 1
    return np.maximum(v - css[rho - 1] / rho, 0.0)


class Probe:
    """The reference kernel of one mix, with its fixed inputs.

    A unit runs the mix's dense SVDs, then its loop counts at each of the
    two sizes.
    """

    def __init__(self, mix: str):
        loops, svd_reps = MIXES[mix]
        rng = np.random.default_rng(20080314)
        self._cases = []
        for (n, rows), count in zip(_SIZES, loops):
            h = _hermitian(rng, n)
            a = rng.standard_normal((rows, 2 * n * n))
            b = rng.standard_normal(rows)
            x0 = np.concatenate([h.real.reshape(-1), h.imag.reshape(-1)])
            self._cases.append((n, a, np.linalg.pinv(a), b, x0, count))
        self._dense = rng.standard_normal(_SVD_SHAPE) + 1j * rng.standard_normal(_SVD_SHAPE)
        self._svd_reps = svd_reps
        self.sink = 0.0

    def _unit(self):
        for _ in range(self._svd_reps):
            self.sink += float(np.linalg.svd(self._dense)[1][0])
        for n, a, pinv, b, x0, loops in self._cases:
            half = n * n
            x = x0
            for _ in range(loops):
                w = x[:half].reshape(n, n) + 1j * x[half:].reshape(n, n)
                w = (w + w.conj().T) / 2
                vals, vecs = np.linalg.eigh(w)
                y = (vecs * _simplex(vals)) @ vecs.conj().T
                yv = np.concatenate([y.real.reshape(-1), y.imag.reshape(-1)])
                r = a @ yv - b
                x = 0.5 * (x0 + yv - pinv @ r)
            self.sink += float(x[0])

    def measure(self) -> float:
        """Wall seconds of one probe (UNITS unit kernels)."""
        t0 = time.perf_counter()
        for _ in range(UNITS):
            self._unit()
        return time.perf_counter() - t0

    def warm(self) -> None:
        for _ in range(3):
            self.measure()

    def sampled(self, fn):
        """Run fn() with a unit kernel sampled every SAMPLE_INTERVAL_S.

        Returns (result, wall seconds without the samples, sample durations).
        """
        samples = []

        def sample(signum, frame):
            t0 = time.perf_counter()
            self._unit()
            samples.append(time.perf_counter() - t0)

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            wall = time.perf_counter() - t0
            signal.signal(signal.SIGALRM, previous)
        return result, wall - sum(samples), samples


def normalize(wall: float, before: float, after: float, samples=()) -> float:
    """Normalized seconds of a call, from the units sampled during it.

    A call too short to be sampled falls back to the probes just before
    and after it.
    """
    unit = statistics.mean(samples) if samples else (before + after) / (2 * UNITS)
    return wall * NOMINAL_PROBE_S / (UNITS * unit)
