"""Reference speed: scales the benchmark's wall times to one machine speed.

On a shared machine the speed of the same code drifts over seconds to
minutes.  A fixed pure-Python loop on the 2-core machine the baseline was
measured on took 6.3-9.9 ms per 2-s window.  Unscaled, the throughput of
one workload spread 15-30% across ten runs, and its median moved by about
30% between two sweeps taken minutes apart.

So each timed interval is bracketed by a fixed kernel, timed right before
and right after it, and scaled by ``REF_KERNEL_S`` over the mean kernel
time around it (the caller decides over how many kernels).  The kernel is
small numpy work in the style of amwave's operator arithmetic, and it
shares no code with amwave: a change to amwave cannot move it, only the
machine can.

An interval that runs on one thread is bracketed by the kernel in the
benchmark's own thread.  One that runs amwave's default worker pool uses
every CPU the pool may, so it is bracketed by one kernel per CPU, run at
once in helper processes, and their mean.  Each helper times only its own
loop, and processes share no interpreter lock, so the figure measures the
CPUs and not amwave's threading.
"""

from __future__ import annotations

import contextlib
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

# The kernel's time at the reference speed; it sets the scale of every
# scaled figure and must stay fixed for figures to compare across commits.
REF_KERNEL_S = 0.0075

_EPS = np.zeros((3, 3, 3))
_EPS[0, 1, 2] = _EPS[1, 2, 0] = _EPS[2, 0, 1] = 1.0
_EPS[0, 2, 1] = _EPS[2, 1, 0] = _EPS[1, 0, 2] = -1.0
_RNG = np.random.default_rng(0)
_U = _RNG.normal(size=(3, 3, 3)) + 1j * _RNG.normal(size=(3, 3, 3))


def kernel_seconds(iterations: int = 500) -> float:
    """Wall time of a fixed loop of small complex einsums and checks."""
    t0 = time.perf_counter()
    for i in range(iterations):
        w = np.array(np.einsum("ijk,jab,kbc->iac", _EPS, _U, _U), dtype=complex)
        if not np.isfinite(w).all() or np.linalg.norm(w[i % 3]) <= 0.0:
            raise ArithmeticError("reference kernel produced a degenerate value")
    return time.perf_counter() - t0


def scale(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """``seconds`` at the reference speed."""
    return seconds * REF_KERNEL_S / (0.5 * (kernel_before + kernel_after))


class Speed:
    """Kernel timings for one-thread intervals and for intervals that use
    ``cpus`` CPUs at once.  Close it to stop the helper processes.

    The helpers are plain child interpreters fed over a pipe, not a
    multiprocessing pool: a pool also starts a resource-tracker process
    that outlives the benchmark.  A helper exits when its standard input
    closes, so it ends with the benchmark even if the benchmark is killed.
    """

    def __init__(self, cpus: int):
        self._helpers: list[subprocess.Popen] = []
        try:
            for _ in range(cpus if cpus > 1 else 0):
                self._helpers.append(subprocess.Popen(
                    [sys.executable, "-c", _HELPER, str(Path(__file__).resolve().parent)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1))
        except BaseException:
            self.close()
            raise

    def kernel(self, all_cpus: bool) -> float:
        if all_cpus and self._helpers:
            for helper in self._helpers:
                helper.stdin.write("500\n")
                helper.stdin.flush()
            replies = [helper.stdout.readline() for helper in self._helpers]
            if not all(replies):
                raise RuntimeError("a reference-speed helper ended early")
            return statistics.mean(float(r) for r in replies)
        return kernel_seconds()

    def close(self):
        helpers, self._helpers = self._helpers, []
        for helper in helpers:
            with contextlib.suppress(OSError):
                helper.stdin.close()
        for helper in helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()


# A helper runs one kernel per line it reads and writes back its time.
_HELPER = """\
import sys
sys.path.insert(0, sys.argv[1])
from refspeed import kernel_seconds
for line in sys.stdin:
    print(repr(kernel_seconds(int(line))), flush=True)
"""
