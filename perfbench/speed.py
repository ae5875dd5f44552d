"""Host speed probe: a fixed kernel timed on the same CPU as the work.

The machine the baseline was measured on shares its cores with other
tenants.  Each of its two virtual CPUs drifts in speed on its own, by up
to 40 % over seconds to minutes: the same pure-Python loop took 17 to
27 ms in successive 5 s windows, and the drift of one CPU did not
correlate with the other's.  Raw medians of whole 30 s runs differed by
30 %.

So every reported time is scaled to nominal seconds: seconds at the
speed where one loop of `kernel` takes its nominal time.  While a timed
call runs, a timer interrupts it every `SAMPLE_EVERY_S` and runs a
short kernel on the same thread; for a `twinbeam` process,
`launch.py` does this inside the child.  The call's time, less
those interruptions, is scaled by `SAMPLE_NOMINAL_S` over the mean loop
time sampled during it.  Traced spans are timed on `SpeedProbe.clock`,
which stops while the sampler runs, so they hold no interruptions.
The `-X importtime` runs are not sampled inside; they are scaled by
`BOUNDARY_NOMINAL_S` over the mean of longer kernels run just before
and just after each process.  In a 100 s test with
a sample every 0.17 s, 10 s blocks of a fixed `gain_curves` call varied
by +-30 % raw and by +-2.5 % scaled.

The kernel is the benchmark's own code.  It mixes interpreter work
with the small dense linear algebra the program does.  Raw times and
samples go into the report.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

# one kernel loop on the 2-core baseline machine in a quiet minute, run
# on its own between calls and run as a short interruption of a call
BOUNDARY_NOMINAL_S = 4.2e-5
SAMPLE_NOMINAL_S = 6.0e-5
BOUNDARY_LOOPS = 360
SAMPLE_LOOPS = 24
SAMPLE_EVERY_S = 0.05

_A = np.array(
    [[2.0, 0.3, -0.1, 0.0], [0.3, 1.5, 0.2, -0.4], [-0.1, 0.2, 1.2, 0.1], [0.0, -0.4, 0.1, 0.9]]
)


def kernel(loops: int) -> float:
    """Seconds per loop of the fixed reference work, right now."""
    start = perf_counter()
    acc = 0.0
    for i in range(loops):
        big = np.kron(_A, _A) + np.eye(16) * (1.0 + 1e-3 * i)
        w = np.linalg.eigvalsh(_A + 1e-3 * i)
        x = np.linalg.solve(big[:4, :4], w)
        acc += float(x[0]) + sum(k * 0.5 for k in range(60))
    if not np.isfinite(acc):
        raise FloatingPointError("reference kernel produced a non-finite value")
    return (perf_counter() - start) / loops


class Sampler:
    """Runs the short kernel every `SAMPLE_EVERY_S` on this thread while
    started; `spent` is the time the interruptions took."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _on_timer(self, signum, frame):
        began = perf_counter()
        self.samples.append(kernel(SAMPLE_LOOPS))
        self.spent += perf_counter() - began

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)
        # let the kernel restart system calls the timer interrupts
        signal.siginterrupt(signal.SIGALRM, False)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


class SpeedProbe:
    """Kernel samples around and inside timed calls."""

    def __init__(self):
        self.samples: list[float] = []  # kernels run between calls
        self.inside: list[float] = []  # short kernels run during calls
        self.sampler = Sampler()
        self._last: float | None = None

    def _boundary(self) -> float:
        self._last = kernel(BOUNDARY_LOOPS)
        self.samples.append(self._last)
        return self._last

    def clock(self) -> float:
        """perf_counter less the time the sampler has taken so far."""
        return perf_counter() - self.sampler.spent

    def measure(self, fn, mode: str = "between"):
        """(value, raw seconds, nominal seconds) of `fn()`.

        mode "between": the kernel runs before and after the call, and
        consecutive calls share the sample between them.  "inside": the
        sampler runs during the call.  "child": the call ran in a child
        process under its own `Sampler`, and `fn` returns (value,
        samples, spent seconds).
        """
        if mode == "between":
            before = self._last if self._last is not None else self._boundary()
            start = perf_counter()
            try:
                value = fn()
            finally:
                raw = perf_counter() - start
                after = self._boundary()
            return value, raw, raw * 2.0 * BOUNDARY_NOMINAL_S / (before + after)

        sampler = self.sampler
        taken, spent = len(sampler.samples), sampler.spent
        if mode == "inside":
            sampler.start()
        start = perf_counter()
        try:
            value = fn()
        finally:
            raw = perf_counter() - start
            if mode == "inside":
                sampler.stop()
        if mode == "child":
            value, samples, child_spent = value
        else:
            samples, child_spent = sampler.samples[taken:], sampler.spent - spent
        raw -= child_spent
        self.inside.extend(samples)
        if not samples:
            return value, raw, raw * BOUNDARY_NOMINAL_S / self._boundary()
        return value, raw, raw * SAMPLE_NOMINAL_S / statistics.fmean(samples)

    def factor(self) -> float:
        """Nominal over raw seconds for the run as a whole."""
        if self.inside:
            return SAMPLE_NOMINAL_S / statistics.fmean(self.inside)
        return BOUNDARY_NOMINAL_S / statistics.fmean(self.samples)
