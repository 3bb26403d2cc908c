"""The machine's current speed, measured with a fixed calibration kernel.

On a shared host the same code runs up to twice as slow for stretches of
seconds to minutes, as other tenants load the cores this one shares.  The
benchmark times a fixed kernel of its own next to the program's work and
scales each measured time by ``REFERENCE_S / kernel time``, which turns it
into time on the reference machine at its fastest.  The kernel mixes the
kinds of work the workloads do: Python loops, many numpy calls on small
arrays (Gram matrices and paired overlaps of fixed random decompositions,
the work of the benchmark's checks) and a LAPACK call.  It calls neither the
program nor the checks, so a change to either cannot move it.
"""

from __future__ import annotations

import math
import statistics
from time import perf_counter

import numpy as np

#: Kernel time in seconds on the reference machine (2-core Xeon VM, numpy 2.4.6
#: with OpenBLAS 0.3.31 on one thread) at its fastest, without and with the
#: large-operand part.  Re-measure both if :func:`kernel` changes.
REFERENCE_S = {False: 2.2e-3, True: 5.5e-3}
#: The kernel is timed again once this many seconds have passed since the last time.
INTERVAL_S = 0.25


def _decompositions():
    rng = np.random.default_rng(0)
    out = []
    for n, d in ((3, 4), (5, 6), (6, 8)):
        slots = []
        for _ in range(2):
            a = rng.standard_normal((d, n)) + 1j * rng.standard_normal((d, n))
            slots.append(a / np.linalg.norm(a, axis=0))
        first = (rng.uniform(0.5, 1.5, n), slots)
        out.append((first, (first[0][::-1], [s[:, ::-1] for s in slots])))
    sym = rng.standard_normal((120, 120))
    return out, sym + sym.T


_PAIRS, _SYM = _decompositions()


def _large_operand() -> np.ndarray:
    rng = np.random.default_rng(1)
    return rng.standard_normal((1024, 1024)) + 1j * rng.standard_normal((1024, 1024))


def _small_arrays(first, second) -> None:
    """Gram matrix of the combined terms, then every paired overlap, on small arrays."""
    w = np.concatenate([first[0], -second[0]])
    g = np.ones((len(w), len(w)))
    for x, y in zip(first[1], second[1]):
        stacked = np.hstack([x, y])
        g *= np.abs(stacked.conj().T @ stacked) ** 2
    float(w @ g @ w)
    collinear = np.ones((len(first[0]), len(second[0])), dtype=bool)
    for x, y in zip(first[1], second[1]):
        collinear &= np.abs(x.conj().T @ y) >= 1.0 - 1e-8
    for k, j in enumerate(np.argmax(collinear, axis=0)):
        for x, y in zip(first[1], second[1]):
            abs(np.vdot(x[:, j], y[:, k]))


def kernel(large: np.ndarray | None = None) -> None:
    """The calibration work; ``large`` adds products with that 16 MB operand, as the dense workload streams."""
    total = 0
    for i in range(10000):
        total += i * i
    for _ in range(4):
        for first, second in _PAIRS:
            _small_arrays(first, second)
    np.linalg.eigvalsh(_SYM)
    if large is not None:
        for _ in range(4):
            large @ large[:, 0]


class Speed:
    """``scale`` converts a time measured now into reference-machine time."""

    def __init__(self, large: bool = False) -> None:
        self.large = _large_operand() if large else None
        self.reference_s = REFERENCE_S[large]
        self.scale = 1.0
        self._last = -math.inf

    def operand_mb(self) -> float:
        """Memory held by the large operand, in MiB (0 without one)."""
        return 0.0 if self.large is None else self.large.nbytes / 2**20

    def update(self, force: bool = False) -> float:
        """Re-measure the kernel (median of three) if ``INTERVAL_S`` has passed; return ``scale``."""
        if force or perf_counter() - self._last >= INTERVAL_S:
            times = []
            for _ in range(3):
                start = perf_counter()
                kernel(self.large)
                times.append(perf_counter() - start)
            self.scale = self.reference_s / statistics.median(times)
            self._last = perf_counter()
        return self.scale
