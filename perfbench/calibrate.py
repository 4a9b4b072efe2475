"""Host-speed calibration of the benchmark's times.

The benchmark runs on shared virtual machines whose CPU speed wanders by
up to 2x over seconds to minutes, as other tenants load the host.  Raw
times then spread more between runs of the same code than the changes
they are meant to resolve.  So every time the benchmark reports is
calibrated: a fixed reference kernel (numpy hashing, float math, a sort
and a binary search, much like the simulator's and the optimizer's inner
loops, but independent of ``qkdlab``) is timed again and again between
the program's operations, and each stretch of program time is scaled by
``REF_NOMINAL_S`` over the reference time measured around it.  A change
to the program moves the calibrated times as it moves the raw ones; a
change of host speed, which slows the kernel as it slows the program,
cancels out.  The calibrated unit is the second of a host on which one
kernel call takes ``REF_NOMINAL_S``.

The reference samples themselves are cut out of the calibrated timeline,
so they add nothing to the times reported.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# Median kernel time on a 2-vCPU Intel Xeon at 2.0 GHz (Python 3.11,
# numpy 2.4); it only sets the scale of calibrated seconds.
REF_NOMINAL_S = 0.0033

REF_SIZE = 1 << 17  # 1 MiB of uint64 per array: fits L2/L3, as the kernels' chunks do
REF_REPS = 3  # kernel calls per sample; the sample is their median
SAMPLE_INTERVAL_S = 0.25  # least program time between two samples

_MUL = np.uint64(0x9E3779B97F4A7C15)
_S31 = np.uint64(31)
_S11 = np.uint64(11)


class _Kernel:
    """The reference kernel on buffers allocated once, so that its time
    does not depend on the state the program leaves the allocator in."""

    def __init__(self):
        self.index = np.arange(REF_SIZE, dtype=np.uint64)
        self.x = np.empty(REF_SIZE, dtype=np.uint64)
        self.tmp = np.empty(REF_SIZE, dtype=np.uint64)
        self.u = np.empty(REF_SIZE, dtype=np.float64)
        self.h = np.empty(REF_SIZE, dtype=np.float64)
        self.pos = np.empty(REF_SIZE // 64, dtype=np.intp)

    def __call__(self) -> int:
        x, tmp, u, h = self.x, self.tmp, self.u, self.h
        np.multiply(self.index, _MUL, out=x)
        np.right_shift(x, _S31, out=tmp)
        np.bitwise_xor(x, tmp, out=x)
        np.right_shift(x, _S11, out=tmp)
        np.multiply(tmp, 1.0 / (1 << 53), out=u, casting="unsafe")
        np.add(u, 1e-300, out=u)
        np.log2(u, out=h)
        np.multiply(h, u, out=h)
        tmp[:] = x
        tmp.sort()
        self.pos[:] = np.searchsorted(tmp, x[::64])
        return int(self.pos.sum()) + int(h.argmin())


class Calibrator:
    """Reference samples on one timeline (``time.perf_counter``) and the
    map from raw to calibrated time they define."""

    def __init__(self):
        self._kernel = _Kernel()
        self._kernel()  # untimed: the first call pays for page faults
        self._main = threading.main_thread()
        self.samples: list[tuple[float, float, float]] = []  # (start, end, kernel s)
        self._last = -float("inf")

    def sample(self) -> None:
        start = time.perf_counter()
        reps = []
        for _ in range(REF_REPS):
            t0 = time.perf_counter()
            self._kernel()
            reps.append(time.perf_counter() - t0)
        end = time.perf_counter()
        self.samples.append((start, end, statistics.median(reps)))
        self._last = end

    def maybe_sample(self) -> None:
        """Sample if ``SAMPLE_INTERVAL_S`` has passed since the last one;
        only on the main thread, so a sample never runs beside the
        program's worker threads."""
        if threading.current_thread() is self._main and (
            time.perf_counter() - self._last >= SAMPLE_INTERVAL_S
        ):
            self.sample()

    def speed(self) -> float:
        """Host speed relative to nominal: above 1 is faster."""
        return REF_NOMINAL_S / statistics.median(s[2] for s in self.samples)

    def mapping(self):
        """``cal(t)``: calibrated seconds at raw time ``t``.  Between two
        samples the rate is nominal over the mean of their kernel times;
        inside a sample it is zero; before the first and after the last
        sample it follows that sample alone."""
        if not self.samples:
            raise RuntimeError("no reference samples taken")
        xs, ys, y = [], [], 0.0
        prev = None
        for start, end, ref in self.samples:
            if prev is not None:
                y += (start - prev[1]) * REF_NOMINAL_S / (0.5 * (prev[2] + ref))
            xs += [start, end]
            ys += [y, y]
            prev = (start, end, ref)
        xs_a, ys_a = np.asarray(xs), np.asarray(ys)
        first, last = self.samples[0], self.samples[-1]

        def cal(t: float) -> float:
            if t < first[0]:
                return (t - first[0]) * REF_NOMINAL_S / first[2]
            if t > last[1]:
                return ys_a[-1] + (t - last[1]) * REF_NOMINAL_S / last[2]
            return float(np.interp(t, xs_a, ys_a))

        return cal
