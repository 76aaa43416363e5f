"""Speed of the host's cores, sampled while the benchmark runs.

The cores a shared host gives the benchmark run at speeds that change by a
factor of up to two within a second, as other tenants load and unload the
same physical cores: the same round of the same workload takes 12 s in one
minute and 20 s in the next.  To compare two versions of the program, the
benchmark scales each measured time to a fixed speed.

One sampler process per core the timed work runs on, pinned to that core,
wakes every ``INTERVAL_S`` seconds and runs a short fixed kernel, timing
it by its own CPU time (so a preemption does not count).  Samples are
evenly spaced in time, so over a timed interval the mean of
``REF_NOMINAL_S / sample`` is the mean speed of the cores relative to the
reference core, and

    scaled = measured * mean(REF_NOMINAL_S / sample)

is the time the same work would have taken on the reference core.  The
kernel lives here, not in the program, so no change to the program moves
it.  Like the program's integrator it spends its time in small numpy
matrix-vector products driven from Python.  ``REF_NOMINAL_S`` is its CPU
time on an idle core of the reference machine (2-core Xeon VM) in a quiet
period, so a scaled time reads as seconds on that core.  A sampler costs
its core about 2% of its time.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import statistics
import time

import numpy as np

REF_DIM = 40
REF_STEPS = 300
REF_NOMINAL_S = 1.4e-3   # kernel CPU time on a quiet core of the reference machine
INTERVAL_S = 0.1

_rng = np.random.default_rng(20210418)
_A = _rng.normal(size=(REF_DIM, REF_DIM)) / REF_DIM
_B = _rng.normal(size=(REF_DIM, REF_DIM)) / REF_DIM


def kernel() -> float:
    """Run the reference kernel once; return its CPU time in seconds."""
    s = np.full(REF_DIM, 1.0 / REF_DIM)
    t0 = time.thread_time()
    for _ in range(REF_STEPS):
        k = _A @ s
        m = float(_B[0] @ s)
        if m != 0.0:
            k += m * (_B @ s)
        s = s + 1e-3 * k
    return time.thread_time() - t0


def _sample_loop(conn, cpu: int) -> None:
    os.sched_setaffinity(0, {cpu})
    samples = []
    while not conn.poll(INTERVAL_S):
        t0 = time.perf_counter()
        cpu_s = kernel()
        samples.append((0.5 * (t0 + time.perf_counter()), cpu_s))
    conn.recv()
    conn.send(samples)
    conn.close()


class Sampler:
    """Samples the speed of ``cpus`` until ``stop``.

    Use as a context manager: leaving it ends the sampler processes."""

    def __init__(self, cpus):
        ctx = mp.get_context("fork")
        self.cpus = sorted(cpus)
        self.samples: list[tuple[float, float]] = []   # (time, kernel CPU s)
        self._procs = []
        for cpu in self.cpus:
            conn, child = ctx.Pipe()
            proc = ctx.Process(target=_sample_loop, args=(child, cpu), daemon=True)
            proc.start()
            child.close()
            self._procs.append((proc, conn))

    def stop(self) -> None:
        """End the samplers and collect their samples."""
        for proc, conn in self._procs:
            conn.send(None)
            self.samples += conn.recv()
        self._end()
        self.samples.sort()

    def _end(self) -> None:
        for proc, conn in self._procs:
            conn.close()
            proc.join(timeout=10)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._procs = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for proc, _ in self._procs:      # left without stop: discard
            proc.kill()
        self._end()

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed of the sampled cores between perf_counter times t0 and
        t1, relative to the reference core."""
        inside = [c for t, c in self.samples if t0 <= t <= t1]
        if not inside:
            raise RuntimeError(f"no speed sample in an interval of {t1 - t0:.3f} s")
        return statistics.fmean(REF_NOMINAL_S / c for c in inside)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds between t0 and t1, scaled to the reference core."""
        return (t1 - t0) * self.speed(t0, t1)


def cores(n: int) -> list[int]:
    """The first ``n`` cores this process may run on."""
    return sorted(os.sched_getaffinity(0))[:n]


def pin(cpus) -> None:
    """Keep this process, and the children it starts later, on ``cpus``."""
    os.sched_setaffinity(0, set(cpus))
