"""Machine-speed normalization for timings on a shared machine.

On a shared machine the same code runs up to a third slower for seconds at
a time, and CPU time tracks wall time, so neither alone repeats from run
to run.  ``Clock.time`` therefore also times a fixed pure-Python kernel
right before and right after the timed call and, through an interval
timer, every ``TICK_S`` during it.  The call's wall time, less the kernel
runs inside it, is scaled by ``REF_S`` over the mean kernel time: the
result is the call's time in seconds on a machine that runs the kernel in
``REF_S``.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

REF_S = 0.004
TICK_S = 0.2

_POOL = tuple(range(-5, 6))
_TARGETS = frozenset((-3, 0, 3, 5))


def _kernel() -> int:
    # the program's kinds of work in small: a recursive search over a
    # bitmask pool with set tests, string-keyed dicts, integer arithmetic
    hits = 0

    def dfs(depth: int, pool: int, total: int) -> None:
        nonlocal hits
        if depth == 4:
            hits += total in _TARGETS
            return
        for i, v in enumerate(_POOL):
            if (pool >> i) & 1:
                dfs(depth + 1, pool & ~(1 << i), total + v)

    dfs(0, (1 << len(_POOL)) - 1, 0)
    labels = {f"v{i}.{i % 7}": i * i % 11 for i in range(1000)}
    return hits + sum(sorted(labels.values())[::100])


def kernel_time() -> float:
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class Clock:
    def __init__(self) -> None:
        self._during: list[float] = []
        self._last: list[float] = []

    def _tick(self, signum, frame) -> None:
        self._during.append(kernel_time())

    def time(self, fn, tick: bool = True, bracket: int = 1):
        """Run ``fn()``; return (result, wall_s, normalized_s, kernel_s).

        ``bracket`` kernel runs go on each side of the call.  ``tick=False``
        skips the runs during it, for a call that waits on another process,
        which the kernel would run beside.
        """
        # the runs after one call are the runs before the next
        before = self._last or [kernel_time() for _ in range(bracket)]
        self._during = []
        if tick:
            old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - t0
            if tick:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        during = self._during
        self._last = after = [kernel_time() for _ in range(bracket)]
        kernel = statistics.fmean(before + during + after)
        wall -= sum(during)
        return result, wall, wall * REF_S / kernel, kernel
