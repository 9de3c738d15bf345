"""CPU speed, sampled on each CPU a benchmark step runs on.

On a shared host a virtual CPU changes speed from second to second:
when another tenant loads the same physical core, the same Python code
runs about 1.5 times slower.  A step's wall time then depends on when
it ran, by more than the bounds the benchmark gates on.  So while a
step runs, one probe thread per CPU it uses times a fixed pure-Python
kernel every ``INTERVAL_S`` seconds, in thread CPU time, and the step's
times are scaled by the mean speed seen over them relative to
``REFERENCE_SPEED``.  A reported second is then a second of an
uncontended reference core: the wall time the step would take with no
other tenant on its CPUs.

Costs: each probe takes about 0.35 ms of every ``INTERVAL_S``, under
the GIL, which is in every time measured (about 1.4%, the same on every
commit).
"""

from __future__ import annotations

import os
import statistics
import threading
import time

INTERVAL_S = 0.025
#: Kernel runs per second on an uncontended core of the host the
#: benchmark was defined on (2-vCPU Intel Xeon VM, CPython 3.11):
#: about 350 us per run.
REFERENCE_SPEED = 1.0 / 350e-6


def kernel() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores."""
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        table[i & 255] = total
        total = (total + i * 7) % 1000003
    return total


class SpeedProbe:
    """Samples kernel speed on each of ``cpus`` until closed."""

    def __init__(self, cpus):
        self.cpus = sorted(cpus)
        self._samples: list[tuple[float, int, float]] = []
        self._stop = threading.Event()
        self._threads = [
            threading.Thread(target=self._run, args=(cpu,), daemon=True)
            for cpu in self.cpus
        ]

    def __enter__(self) -> "SpeedProbe":
        for thread in self._threads:
            thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for thread in self._threads:
            thread.join()

    def _run(self, cpu: int) -> None:
        os.sched_setaffinity(threading.get_native_id(), {cpu})
        while not self._stop.wait(INTERVAL_S):
            started = time.thread_time_ns()
            kernel()
            used = max(time.thread_time_ns() - started, 1)
            # list.append is atomic under the GIL
            self._samples.append((time.perf_counter(), cpu, 1e9 / used))

    def factor(self, start: float, end: float, cpus=None) -> float:
        """Mean speed on ``cpus`` (default: all probed) between two
        ``time.perf_counter`` stamps, relative to the reference.

        Each CPU's samples are averaged, then the CPUs: a step spread
        over several CPUs runs at their mean speed.  An interval too
        short to hold a sample uses the CPU's samples so far.
        """
        wanted = set(self.cpus if cpus is None else cpus)
        samples = [s for s in list(self._samples) if s[1] in wanted]
        inside = [s for s in samples if start <= s[0] <= end]
        per_cpu: dict[int, list[float]] = {}
        for _stamp, cpu, speed in inside or samples:
            per_cpu.setdefault(cpu, []).append(speed)
        if not per_cpu:
            raise RuntimeError("no speed samples taken")
        mean = statistics.mean(statistics.mean(v) for v in per_cpu.values())
        return mean / REFERENCE_SPEED
