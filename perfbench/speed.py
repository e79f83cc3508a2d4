"""Machine-speed probes: turn measured seconds into reference-speed seconds.

The benchmark shares its cores with other tenants, and the machine's
speed swings by up to 1.7x in phases of 5-20 s (measured on a 2-vCPU
Intel Xeon: the same exact solve took 1.3 s in one phase and 2.2 s in the
next).  Runs minutes apart meet different mixes of phases, so raw seconds
of the same code differ between runs: over ten 30 s runs per workload the
interquartile spread of raw seconds per round was 23 % (exact), 10 %
(raster_hw) and 14 % (cli_check); scaled as below it was 2.9 %, 3.8 % and
10.9 %.

A probe is a fixed piece of work that the benchmark times between
operations, in bursts that take PROBE_SHARE of the time since the previous
burst: a 4 s raster is bracketed by a dozen probes on each side, and a
2 ms solve shares a burst with its neighbours.  An operation's seconds are
scaled by ``ref / probe``, with ``probe`` the median probe time around the
operation and ``ref`` the probe's time in the machine's fast phase.

The probe must stress the machine the way the workload does, or it
tracks the wrong resource: exact Fraction arithmetic for the exact track,
and for the raster kernel the kernel's own broadcasting pattern on arrays
of its size (a small numpy probe did not track the 512^2 raster at all).
Probes are benchmark code the library cannot touch, so a slower library
still reads slower; only the machine's speed is divided out.  Raw seconds
are reported next to the scaled ones.
"""

from __future__ import annotations

import math
import statistics
from fractions import Fraction
from time import perf_counter

import numpy as np

PROBE_EVERY_S = 0.25    # at most one burst per interval
PROBE_SHARE = 0.05      # a burst lasts this share of the time since the last
WINDOW_S = 1.0          # probes up to this far before/after an operation count

_RNG = np.random.default_rng(0)
_S1, _S2 = _RNG.random(1001), _RNG.random(1001)
_T1 = _RNG.random(256)
_A0, _A1 = _RNG.random(6), _RNG.random(6)


def fraction_probe() -> float:
    """Seconds for a fixed exact harmonic sum."""
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(1, 1200):
        s += Fraction(1, i)
    return perf_counter() - t0


def kernel_probe() -> float:
    """Seconds for rows of a 6-facet, 1001-sample brute-force gauge argmin."""
    t0 = perf_counter()
    for _ in range(3):
        d1 = _S1[None, :] - _T1[:, None]
        d2 = (_S2 - 0.3)[None, :]
        dist = _A0[0] * d1 + _A1[0] * d2
        for f in range(1, 6):
            np.maximum(dist, _A0[f] * d1 + _A1[f] * d2, out=dist)
        np.argmin(dist, axis=1)
    return perf_counter() - t0


# probe -> its time in the fast phase (2-vCPU Intel Xeon, Python 3.11,
# numpy 2.4); scaled seconds read as seconds at that speed
PROBES = {"fraction": (fraction_probe, 0.0042), "kernel": (kernel_probe, 0.019)}


class Speed:
    """Probe samples of one run, as (time, seconds) pairs."""

    def __init__(self, kind: str):
        self.kind = kind
        self.probe, self.ref = PROBES[kind]
        self.samples = []
        self._last = None

    def tick(self, force: bool = False):
        """Probe for PROBE_SHARE of the time since the last burst (at least
        once), unless that burst ended less than PROBE_EVERY_S ago."""
        now = perf_counter()
        since = math.inf if self._last is None else now - self._last
        if not force and since < PROBE_EVERY_S:
            return
        end = now + (0.0 if since == math.inf else PROBE_SHARE * since)
        while True:
            t = perf_counter()
            took = self.probe()
            self.samples.append((t + took / 2, took))
            if t + took >= end:
                break
        self._last = perf_counter()

    def local(self, t0: float, t1: float) -> float:
        """Median probe time around the interval [t0, t1]."""
        near = [s for t, s in self.samples if t0 - WINDOW_S <= t <= t1 + WINDOW_S]
        if not near:
            mid = (t0 + t1) / 2
            near = [min(self.samples, key=lambda ts: abs(ts[0] - mid))[1]]
        return statistics.median(near)

    def scale(self, seconds: float, t0: float, t1: float) -> float:
        """``seconds`` measured during [t0, t1], at the reference speed."""
        return seconds * self.ref / self.local(t0, t1)

    def summary(self) -> dict:
        times = [s for _, s in self.samples]
        return {"probe": self.kind, "probes": len(times), "probe_ref_s": self.ref,
                "probe_s_p50": statistics.median(times), "probe_s_min": min(times),
                "probe_s_max": max(times)}
