"""Timing at a reference machine speed.

The machines this benchmark was built on share their cores with other
tenants.  Their speed drifts by 20-30% over tens of seconds, and the
kernels slow down together: 10-s medians of one fixed request ranged from
45 to 71 ms.  A fixed probe therefore runs every half second from a timer
signal: a real FFT part and an interpreter-loop part, timed separately.
The probes' own time is taken out of the operations they interrupt, and
each operation's time is scaled by the reference time of one probe part
over that part's median time around the operation.  The FFT part tracked
skigrid's fits best and the loop part its requests; a sparse matvec, also
tried, tracked neither.  The probe does not call skigrid.  A known change
to skigrid, a second CG solve in every fit, moved scaled fit times as it
moved raw ones; NOTES.md records the check.
"""

import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

# About the median time of each probe part during runs on the 2-vCPU Xeon VM
# where the benchmark was defined, so that scaled times read close to wall
# times there.
REF_S = {"fft": 0.0066, "loop": 0.0016}
INTERVAL_S = 0.5
PROBE_FFTS = 8
PROBE_LOOP = 30000
WINDOW_S = 2.5          # probes this close to an operation set its speed


class RefClock:
    """Durations in seconds at the reference speed."""

    def __init__(self):
        self.probes = []            # (start, fft part, loop part)
        self._a = np.random.default_rng(0).standard_normal((256, 512))
        self._busy = False

    def probe(self, *_):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        for _ in range(PROBE_FFTS):
            np.fft.rfft(self._a, axis=0)
        t1 = time.perf_counter()
        s = 0
        for i in range(PROBE_LOOP):
            s += i
        self.probes.append((t0, t1 - t0, time.perf_counter() - t1))
        self._busy = False

    @contextmanager
    def running(self):
        """Probe every INTERVAL_S while the block runs."""
        old = signal.signal(signal.SIGALRM, self.probe)
        self.probe()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def seconds(self, t0, t1, ref):
        """Reference-speed duration of the operation that ran from t0 to t1
        on ``time.perf_counter``, scaled by probe part ``ref``: "fft" for
        numerical work such as fits, "loop" for interpreter-bound work such
        as requests.  Call it once probing has ended."""
        col = 1 if ref == "fft" else 2
        inside = sum(p[1] + p[2] for p in self.probes if t0 <= p[0] < t1)
        near = [p[col] for p in self.probes
                if t0 - WINDOW_S <= p[0] <= t1 + WINDOW_S]
        near = near or [p[col] for p in self.probes]
        return (t1 - t0 - inside) * REF_S[ref] / statistics.median(near)

    def median_probe_ms(self):
        return {ref: 1e3 * statistics.median(p[col] for p in self.probes)
                for col, ref in ((1, "fft"), (2, "loop"))}
