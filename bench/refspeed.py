"""Reference kernels: how fast the host runs the benchmark's kind of work now.

The virtual machine these figures come from changes speed by up to 1.8x for
fractions of a second to minutes, as its neighbours load the host. A run's
medians then depend on how much of it fell in a fast spell, and two runs of
the same code differ by more than a change worth measuring. So every timed
operation is paired with a fixed reference kernel timed right next to it,
and the benchmark reports its times at reference speed:

    reported = wall time * (NOMINAL_US / kernel's median time next to it) ** FOLLOW

The kernels live here and never change with the program, so a change to the
program moves the reported figure exactly as it moves wall time on a steady
host. Two kernels, because interpreter-bound and memory-bound work speed up
by different amounts in a fast spell:

- ``compute``: frontend-like work, half interpreter (small dicts, lists and
  strings, as per-frame bookkeeping makes) and half small numpy calls (an
  rfft, a filterbank product, a short correlation). Tracks the frontend,
  the comb, the toy models, enrollment and set-up. Interpreter work swings
  more than small numpy calls; a hop of the frontend swings like their sum.
- ``ppn512``: one float32 matrix-vector product over 7.67M weights, the size
  of ppn512, then ``compute`` runs taking about as long. Tracks a ppn512
  hop, which streams its weights every step and runs the frontend and the
  comb around it; the product alone swings less than such a hop does.

Over 40 s of ticks interleaved with these kernels, the tick-to-kernel ratio
of 1 s chunks varied by 7% (coefficient of variation) where the wall tick
varied by 16-26%. NOMINAL_US is a round figure near each kernel's time on
that machine, so reported figures read close to its wall times. Wall times
are printed alongside.

FOLLOW is how strongly each kind of operation follows the ``compute``
kernel: the slope of log wall time on log kernel time, measured on that
machine over a minute of enrollments and training steps, each between two
10-run kernel readings. Training steps follow it at 0.60 (0.77 with the
regression reversed): scaling them fully over-corrects, and their
coefficient of variation went from 0.13 wall to 0.11 at exponent 1 and
0.07 at 0.6. Enrollments sit between 0.54 and 1.5 (0.75 left 0.12 of
0.16-0.20 wall); set-up, one fast process at 1.35x the usual speed while
the kernel ran 1.69x, at about 0.6. Hops follow their kernels fully.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

NOMINAL_US = {"compute": 200.0, "ppn512": 5500.0}
GEMV_SHAPE = (2048, 3744)          # 7.67M float32 weights, as ppn512 has
COMPUTE_PER_GEMV = 14              # compute runs that take as long as one product
FOLLOW = {"hop": 1.0, "enroll": 0.75, "train_step": 0.6, "setup": 0.6}


class Kernels:
    """The reference kernels and their inputs; one per workload process."""

    def __init__(self, ppn512: bool) -> None:
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal(960)
        self.window = np.hanning(960)
        self.bands = rng.random((32, 481))
        self.matrix = None
        self.vector = None
        if ppn512:
            self.matrix = np.full(GEMV_SHAPE, 0.5, dtype=np.float32)
            self.vector = rng.standard_normal(GEMV_SHAPE[1]).astype(np.float32)

    @property
    def resident_mb(self) -> float:
        """Memory the kernels' inputs hold for the life of the process."""
        return 0.0 if self.matrix is None else self.matrix.nbytes / 2 ** 20

    def _compute(self) -> float:
        table: dict[int, int] = {}
        rows = []
        for i in range(200):
            table[i % 37] = table.get(i % 37, 0) + i
            rows.append([i, i + 1, str(i)])
        acc = float(len(table) + len(rows))
        for _ in range(2):
            spec = np.fft.rfft(self.x * self.window)
            power = spec.real ** 2 + spec.imag ** 2
            energies = self.bands @ power
            corr = np.correlate(self.x[:480], self.x[:240], "valid")
            acc += float(energies[3] + corr[0] + np.sqrt(power[:64]).sum())
        return acc

    def _ppn512(self) -> float:
        acc = float((self.matrix @ self.vector)[0])
        for _ in range(COMPUTE_PER_GEMV):
            acc += self._compute()
        return acc

    def time_us(self, kind: str, repeats: int) -> float:
        """Median time of `repeats` runs of one kernel, in microseconds."""
        fn = self._ppn512 if kind == "ppn512" else self._compute
        times = []
        for _ in range(repeats):
            t = time.perf_counter_ns()
            fn()
            times.append(time.perf_counter_ns() - t)
        return statistics.median(times) / 1e3

    def scale_of(self, kind: str, times_us: list[float]) -> float:
        """Reference speed from kernel times already taken."""
        return NOMINAL_US[kind] / statistics.median(times_us)

    def scale(self, kind: str, repeats: int) -> float:
        """Reference speed now: NOMINAL_US over the kernel's median time."""
        return NOMINAL_US[kind] / self.time_us(kind, repeats)


class Sampler:
    """Reads the reference speed during one long call, every `interval_s`.

    A SIGALRM timer interrupts the call between bytecodes and the handler
    times three kernel runs. `spent_ns` is what the handler took; the caller
    takes it out of the call's wall time. Inactive, it does nothing.
    """

    def __init__(self, kernels: Kernels, kind: str, interval_s: float,
                 active: bool = True) -> None:
        self.kernels = kernels
        self.kind = kind
        self.interval_s = interval_s
        self.active = active
        self.times_us: list[float] = []
        self.spent_ns = 0
        self._previous = None

    def __enter__(self) -> "Sampler":
        if self.active:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, _signum, _frame) -> None:
        t = time.perf_counter_ns()
        self.times_us.append(self.kernels.time_us(self.kind, 3))
        self.spent_ns += time.perf_counter_ns() - t
