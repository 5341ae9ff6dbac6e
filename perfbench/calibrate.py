"""Machine-speed calibration for the benchmark's timings.

Each vCPU of the benchmark's VM has slow periods of its own, up to 1.7x
slower and lasting from seconds to minutes, because other guests share
the host.  ``chunk`` is a fixed piece of reference work that touches no
momentforge code: pure-Python integer arithmetic and a sort of Python
tuples, the kind of interpreter work that dominates both workloads
(mpmath series in ``scan``, the atom merge in ``catalog``).  A time is
rescaled by the median chunk time sampled on the same CPU while it was
measured, to a machine on which a chunk takes ``REFERENCE_S``.  That
cancels the slow periods and keeps every change in momentforge's speed.

While a child imports the CLI and again while it runs a pass, a
``Sampler`` thread in it times one chunk every ``PERIOD_S`` on the same
CPU.  Each sample runs the chunk twice and times the second run, so the
cache state the workload leaves behind does not enter the sample.
"""

import statistics
import threading
import time

#: the speed every calibrated time is rescaled to: one chunk in 1 ms
REFERENCE_S = 0.001
#: time between two samples of a ``Sampler``; the samples take about 4 %
#: of a pass, and their time is taken out of the pass time
PERIOD_S = 0.04

_PAIRS = [((i * 7919) % 4093 / 4093.0, i) for i in range(2000)]


def _chunk():
    total = 0
    for i in range(1500):
        total += (i * i) % 7
    sorted(_PAIRS)
    return total


def sample():
    """(seconds of a warm chunk, seconds the whole sample took)."""
    start = time.perf_counter()
    _chunk()
    mid = time.perf_counter()
    _chunk()
    end = time.perf_counter()
    return end - mid, end - start


def rescale(seconds, chunk_times):
    """``seconds`` at the reference speed, given chunk times sampled on
    the same CPU while it was measured."""
    return seconds * REFERENCE_S / statistics.median(chunk_times)


class Sampler(threading.Thread):
    """Samples chunk times every ``PERIOD_S`` until ``finish`` is called."""

    def __init__(self):
        super().__init__(daemon=True)
        self.chunks = []
        self.busy_s = 0.0
        self._done = threading.Event()

    def run(self):
        # sample first, so that even a short interval has one sample
        while True:
            warm, busy = sample()
            self.chunks.append(warm)
            self.busy_s += busy
            if self._done.wait(PERIOD_S):
                return

    def finish(self):
        self._done.set()
        self.join()
