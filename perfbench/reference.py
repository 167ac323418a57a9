"""Reference kernels timed alongside each pass.

The host this benchmark runs on is shared, and its speed changes by up to
a factor of two within a second and from one minute to the next, so runs
of the same code differ by more than the changes the benchmark must
show.  A pass's own time divided by the time of a fixed kernel, taken
while or right around the pass, cancels most of that drift.  The kernels
use only Python and numpy, never the package, so a change to the package
moves the ratio exactly as it moves the pass's own time.

Each workload names the kernel whose work is most like its own:

- ``interpreter`` does what the partial trace does per amplitude: it
  unpacks occupation patterns digit by digit, groups them under tuple
  keys, and sums a small density matrix from outer products.  On a shared
  2-vCPU virtual machine, the package's partial trace and a pure-Python
  kernel timed side by side in 0.5 s windows slowed down together
  (correlation 0.94), but a window apart they hardly did (0.4).  So an interval timer interrupts the pass every ``PERIOD``
  seconds and the signal handler runs and times the kernel once; the
  pass's own time is its wall time less the time spent in the handler.
- ``lapack`` is a dense complex Hermitian ``eigh`` of order 600 (5.8 MB,
  out of cache like the sector matrices), run once just before and once
  just after the pass.  Python runs signal handlers between bytecodes
  only, so a pass made mostly of long LAPACK calls could not be sampled
  during them.
"""

from __future__ import annotations

import contextlib
import gc
import signal
import statistics
import time

import numpy as np

PERIOD = 0.05
PATTERNS = 2_000
OUTERS = 100
LAPACK_ORDER = 600


class Sampler:
    """Times the ``interpreter`` or the ``lapack`` kernel around a block."""

    KINDS = ("interpreter", "lapack")

    def __init__(self, kind: str) -> None:
        if kind not in self.KINDS:
            raise ValueError(f"unknown reference kernel {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        self._vectors = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(64)]
        if kind == "lapack":
            shape = (LAPACK_ORDER, LAPACK_ORDER)
            matrix = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            self._matrix = matrix + matrix.conj().T
        self._samples: list[float] = []
        self._spent = 0.0
        self._busy = False

    def _kernel(self) -> None:
        groups: dict[tuple, list] = {}
        for i in range(PATTERNS):
            digits = []
            x = i * 2654435761 % 65536
            for _ in range(8):
                x, r = divmod(x, 4)
                digits.append(r)
            groups.setdefault(tuple(digits[:4]), []).append(complex(digits[5], digits[6]))
        rho = np.zeros((4, 4), complex)
        for j in range(OUTERS):
            v = self._vectors[j % len(self._vectors)]
            rho += np.outer(v, v.conj())
            if j % 10 == 0:
                np.linalg.eigvalsh(rho)

    def _lapack(self) -> float:
        gc.collect()
        start = time.perf_counter()
        np.linalg.eigh(self._matrix)
        return time.perf_counter() - start

    def _sample(self, *_signal) -> None:
        if self._busy:  # a signal that arrives inside the handler is dropped
            return
        self._busy = True
        collecting = gc.isenabled()
        gc.disable()  # a collection here would time the pass's heap, not the kernel
        start = time.perf_counter()
        try:
            self._kernel()
            self._samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()
            self._spent += time.perf_counter() - start
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Sample during the block; yields a dict filled in on exit with
        ``spent`` (seconds taken from the block) and ``kernel_s`` (mean
        kernel time)."""
        result: dict[str, float] = {}
        if self.kind == "lapack":
            before = self._lapack()
            yield result
            result["spent"] = 0.0
            result["kernel_s"] = (before + self._lapack()) / 2.0
            return
        self._samples.clear()
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        try:
            yield result
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)
        spent = self._spent
        if not self._samples:  # a pass shorter than PERIOD: sample right after it
            self._sample()
        result["spent"] = spent
        result["kernel_s"] = statistics.fmean(self._samples)
