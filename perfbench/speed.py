"""Machine-speed adjustment of measured times.

On a shared host the same work runs up to ~50% slower or faster from one
second to the next, as neighbours load the machine; the slowdown is in user
CPU time, not in waiting, so CPU time does not hide it. A fixed reference
kernel that uses no mixsel code (numpy array passes of the shape the EM makes,
plus a pure-Python dict loop) is timed before a piece of work, after it, and
every PERIOD_S during it, from a SIGALRM handler; the work is paused while the
kernel runs (an in-process call by the handler itself, a child process by
SIGSTOP / SIGCONT), so the two never compete for a CPU. Each stretch of work
between two kernel runs is rescaled by REF_S / (mean of those two kernel
times), i.e. to the speed at which the kernel takes REF_S, and the stretches
are summed. The program's own speed is untouched by this: a change that makes
mixsel slower makes the adjusted time larger, because the kernel runs no
mixsel code.
"""
from __future__ import annotations

import os
import signal
import subprocess
import time

import numpy as np
from scipy.special import gammaln

# One kernel run on a 2-vCPU x86-64 VM at its usual speed; it only fixes the
# scale, so adjusted times read close to wall times there.
REF_S = 0.0110
PERIOD_S = 0.1

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((2000, 16))
_K = _rng.poisson(3.0, (2000, 16)).astype(float)
_MU = _rng.standard_normal((3, 16))
_LAM = _rng.uniform(1.0, 5.0, (3, 16))


def kernel_s() -> float:
    """Wall time of one run of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(4):
        sq = (_X[:, None, :] - _MU[None]) ** 2
        logp = -0.5 * sq.sum(axis=2) + (_K[:, None, :] * np.log(_LAM[None]) - _LAM[None]
                                        - gammaln(_K[:, None, :] + 1.0)).sum(axis=2)
        resp = np.exp(logp - logp.max(axis=1, keepdims=True))
        resp /= resp.sum(axis=1, keepdims=True)
        resp.T @ _X
    acc = {}
    for i in range(15000):
        k = (i * 7) % 97
        acc[k] = acc.get(k, 0.0) + i * 0.5
    sorted(acc.values())
    return time.perf_counter() - t0


class _Sampler:
    """Kernel runs before, every PERIOD_S during, and after a piece of work."""

    def __init__(self):
        self.marks = []    # (start, end, kernel s) of each kernel run
        self.pid = None    # child process to pause while the kernel runs

    def mark(self, *_):
        pid = self.pid
        if pid is not None:
            try:
                os.kill(pid, signal.SIGSTOP)
            except ProcessLookupError:   # already reaped
                pid = None
        t0 = time.perf_counter()
        k = kernel_s()
        self.marks.append((t0, time.perf_counter(), k))
        if pid is not None:
            try:
                os.kill(pid, signal.SIGCONT)
            except ProcessLookupError:
                pass

    def __enter__(self):
        self.mark()
        self._old = signal.signal(signal.SIGALRM, self.mark)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.pid = None
        self.mark()

    def times(self) -> tuple:
        """(wall s without the kernel runs, speed-adjusted s)."""
        wall = adjusted = 0.0
        for (_, end, k0), (start, _, k1) in zip(self.marks, self.marks[1:]):
            wall += start - end
            adjusted += (start - end) * REF_S / (0.5 * (k0 + k1))
        return wall, adjusted


def measure(fn) -> tuple:
    """Run ``fn()`` in this (main) thread; return (its result, wall s,
    speed-adjusted s)."""
    with _Sampler() as sampler:
        result = fn()
    return (result, *sampler.times())


def measure_child(argv: list, timeout: float, **popen) -> tuple:
    """Run ``argv`` as a child process to its end (CalledProcessError if it
    fails, TimeoutExpired past ``timeout`` s); return (wall s, adjusted s)."""
    with _Sampler() as sampler:
        proc = subprocess.Popen(argv, **popen)
        sampler.pid = proc.pid
        try:
            rc = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            sampler.pid = None
            proc.kill()
            proc.wait()
            raise
    if rc != 0:
        raise subprocess.CalledProcessError(rc, argv)
    return sampler.times()
