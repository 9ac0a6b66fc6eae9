"""A fixed calibration loop that measures how fast the host runs right now.

On a shared host the same work takes up to 1.7 times longer in some phases
than in others, and phases last from seconds to minutes, so raw wall times
of whole runs spread past any useful bound.  The loop below does a fixed mix
of the kinds of work demlearn does: a pure-Python pass that fills and scans
a dict keyed by index pairs, as the server's linkage code does, and small
numpy matrix products, as client SGD does.  The child reads it at every
phase boundary of a run (before set-up, after set-up, after each round) and
the benchmark rescales each phase's wall time by the readings around it.
The loop is the benchmark's own code, so a change to the program cannot
speed it up; it uses no random state and touches nothing of the program, so
the program's outputs stay byte-identical to a plain run.
"""

from __future__ import annotations

import time

import numpy as np

# rescaled times read as seconds on a host where one loop takes this long
# (about its median on the 2-vCPU Intel Xeon VM, Python 3.11.7 and numpy
# 2.4.6 the benchmark was defined on)
REFERENCE_LOOP_S = 0.010
# timings of the loop per reading; their median is the reading
LOOPS = 5

_PAIRS = [(i, j) for i in range(120) for j in range(i + 1, 120)]
_EYE = np.eye(32) * 0.5


def _loop() -> None:
    table = {}
    for i, j in _PAIRS:
        table[(min(i, j), max(i, j))] = i * 0.5 + j
    best = None
    for i, j in _PAIRS:
        cand = (table[(i, j)], i, j)
        if best is None or cand < best:
            best = cand
    a = np.ones((16, 32))
    for _ in range(150):
        a = np.tanh(a @ _EYE)


def calibrate() -> float:
    """The loop's median time in seconds over `LOOPS` runs."""
    times = []
    for _ in range(LOOPS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[LOOPS // 2]


def rescale(phase_s: float, loop_before_s: float, loop_after_s: float) -> float:
    """A phase's wall time at the reference host speed, taking the host's
    speed during the phase as the mean of the readings on either side."""
    return phase_s * REFERENCE_LOOP_S / (0.5 * (loop_before_s + loop_after_s))
