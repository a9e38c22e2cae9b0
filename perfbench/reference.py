"""Fixed reference tasks that tell how fast the shared host runs right now.

The host this benchmark was sized on switches between slow and fast phases,
up to twice apart, for a second to minutes at a time.  A switch slows
pure-Python integer loops far more than code that spends its time in many
small numpy calls.  So each workload names the reference task that does its
kind of work: ``python``, an edit-distance DP over two words, for ``prep``'s
alignment and scoring DPs, and ``numpy``, a chain of small matrix products,
for the autodiff-driven ``train`` and ``corrupt``.

While a warm pass runs, a timer signal runs the workload's task every
``INTERVAL_S`` of wall time.  The pass reports its own time, with the
handler's time taken out, and the mean task time; the benchmark scales the
pass's throughput by it:

    norm_ops_per_s = ops / pass_s * task_s / NOMINAL_S[kind]

The tasks never change with the program, so a change to asrnoise moves the
pass time and not the task time.  Import this module only after the set-up
clock stops: it imports numpy.
"""
from __future__ import annotations

import gc
import signal
import time

import numpy as np

# median time of one task on the 2-vCPU Xeon host the benchmark was sized
# on; it only sets the scale of the normalized figures
NOMINAL_S = {"numpy": 0.0035, "python": 0.0035}
# wall time between two reference tasks while a pass runs
INTERVAL_S = 0.1

_A = np.linspace(-0.5, 0.5, 32 * 32).reshape(32, 32)
_WORDS = ("phonetically", "fanatically")


def _numpy_task(rounds: int = 300) -> float:
    # the same operands every round, so every round costs the same
    total = 0.0
    for _ in range(rounds):
        h = np.tanh(_A @ _A)
        total += float(np.exp(h).sum())
    return total


def _python_task(rounds: int = 50) -> int:
    # two preallocated rows and small ints: nothing here feeds the cyclic GC,
    # whose pauses grow with the program's heap, not with the host's speed
    s, t = _WORDS
    n, m = len(s), len(t)
    prev, cur = [0] * (m + 1), [0] * (m + 1)
    for _ in range(rounds):
        for j in range(m + 1):
            prev[j] = j
        for i in range(1, n + 1):
            cur[0] = i
            cs = s[i - 1]
            for j in range(1, m + 1):
                cur[j] = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (cs != t[j - 1]))
            prev, cur = cur, prev
    return prev[m]


TASKS = {"numpy": _numpy_task, "python": _python_task}


def run(kind: str) -> float:
    """Seconds one reference task of this kind takes now."""
    task = TASKS[kind]
    t0 = time.perf_counter()
    task()
    return time.perf_counter() - t0


class Sampler:
    """Runs a reference task from a timer signal while a pass runs.

    ``samples`` holds each task's time; ``spent`` is the wall time the signal
    handler took, which the pass takes out of its own time.  Python runs the
    handler between bytecodes, so a long numpy call only delays a sample.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.samples.append(run(self.kind))
        finally:
            if collecting:
                gc.enable()
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "Sampler":
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
