"""One fresh-interpreter benchmark step; prints one JSON line.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED [--trace FILE]

``setup`` times ``import repro`` plus parse, synthesis, fault collapse
and mutant generation for the workload's circuits.  ``measure`` does
the same set-up, then times the workload's measured call, checks its
outputs and reports the process tree's peak resident memory.  With
``--trace`` every layer entry point is wrapped (see ``layers.py``),
the spans are written to FILE as a Chrome trace, and the per-layer
metrics are reported instead of memory.

Set-up and serial calls run pinned to one CPU; a grid call may use
every CPU.  Times are reported twice: as measured (``*_raw_s``) and
scaled to the reference CPU speed (see ``speed.py``).

The runner starts this with ``src`` on ``PYTHONPATH`` and
``PYTHONHASHSEED=0``.
"""

import argparse
import json
import os
import resource
import sys
import threading
import time
from collections import Counter

from speed import SpeedProbe
from workloads import WORKLOADS, digest


class ChildPeaks:
    """Peak resident memory of every descendant process.

    Samples each live descendant's high-water mark (``VmHWM``) every
    ``interval`` seconds and keeps the last value seen per pid, so a
    pool worker's peak is known up to its last sample before exit.
    """

    def __init__(self, interval: float = 0.05):
        self._interval = interval
        self._peaks: dict[int, int] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def total_kib(self) -> int:
        return sum(self._peaks.values())

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            self._sample()

    def _sample(self) -> None:
        pending = _children(os.getpid())
        while pending:
            pid = pending.pop()
            hwm = _hwm_kib(pid)
            if hwm is not None:
                self._peaks[pid] = max(hwm, self._peaks.get(pid, 0))
            pending.extend(_children(pid))


def _children(pid: int) -> list[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(child) for child in handle.read().split())
        except OSError:
            continue
    return found


def _hwm_kib(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class Step:
    """One step's process: pinned CPUs, speed probe, set-up."""

    def __init__(self, workload, seed: int, probe: SpeedProbe, home: set):
        self.workload = workload
        self.seed = seed
        self.probe = probe
        self.home = home            #: the one CPU set-up and serial calls use
        self.import_s = 0.0

    def setup(self, after_import=None) -> dict:
        """Import the program and build the workload's labs, timed.

        ``after_import()`` runs between the two, untimed.
        """
        started = time.perf_counter()
        import repro  # noqa: F401  (the import is part of set-up time)

        imported = time.perf_counter()
        self.import_s = imported - started
        if after_import is not None:
            after_import()
        resumed = time.perf_counter()
        self.workload.setup(self.seed)
        ended = time.perf_counter()
        raw = self.import_s + ended - resumed
        factor = self.probe.factor(started, ended, self.home)
        return {"setup_s": raw * factor, "setup_raw_s": raw}

    def call(self, events=None) -> tuple[list, dict]:
        """The measured call: its payloads and its times."""
        if self.workload.grid_workers:
            os.sched_setaffinity(0, set(self.probe.cpus))
        started = time.perf_counter()
        payloads = self.workload.run(self.seed, events=events)
        ended = time.perf_counter()
        factor = self.probe.factor(started, ended)
        return payloads, {"wall_s": (ended - started) * factor,
                          "wall_raw_s": ended - started, "speed": factor}


def measure(step: Step) -> dict:
    record = step.setup()
    with ChildPeaks() as children:
        payloads, times = step.call()
    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return dict(
        record, **times,
        peak_rss_mb=(self_kib + children.total_kib) / 1024.0,
        problems=step.workload.check(step.seed, payloads),
        digests=[digest(payload) for payload in payloads],
    )


def traced(step: Step, trace_file: str) -> dict:
    import layers
    from spans import Recorder, chrome_trace

    workload = step.workload
    recorder = Recorder(
        run_id=f"{workload.name}/seed{step.seed}/pid{os.getpid()}"
    )
    counts: Counter = Counter()
    record = step.setup(lambda: layers.install(recorder, counts))
    root = recorder.begin(f"workload.{workload.kind}")
    try:
        payloads, times = step.call(events=layers.unit_events(counts))
    finally:
        recorder.end(root)
    from repro.obs.trace import validate_trace

    trace = chrome_trace(recorder.spans)
    validate_trace(trace)
    with open(trace_file, "w", encoding="utf-8") as handle:
        json.dump(trace, handle)
    return dict(
        record, **times,
        problems=workload.check(step.seed, payloads),
        layers=layers.layer_metrics(
            recorder.spans, root, counts, step.import_s,
            workload.grid_workers,
        ),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("setup", "measure"))
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", metavar="FILE")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    usable = sorted(os.sched_getaffinity(0))
    home = {usable[-1]}
    os.sched_setaffinity(0, home)
    probed = usable if args.step == "measure" and workload.grid_workers else home
    with SpeedProbe(probed) as probe:
        step = Step(workload, args.seed, probe, home)
        if args.step == "setup":
            record = step.setup()
        elif args.trace:
            record = traced(step, args.trace)
        else:
            record = measure(step)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
