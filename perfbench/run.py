"""Paper-campaign benchmark: end-to-end and per-layer cost of the flow.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the root of a checkout.  Every step runs in a fresh
interpreter (``worker.py``) with ``src`` on ``PYTHONPATH`` and
``PYTHONHASHSEED=0``, so no lab memo or result cache carries over
between measured calls.  One run:

1. on a fresh checkout, one discarded set-up (it compiles ``.pyc``
   files);
2. ``SETUP_SAMPLES`` timed set-ups;
3. measured calls, each in its own interpreter after its own set-up:
   the workload's ``min_calls``, and more while they end within
   ``--seconds``; call ``i`` runs on workload seed
   ``--seed + SUBSEED_STRIDE * i``, so a run averages over seeds;
4. with ``--trace 1``, one untraced call instead, then one call with
   every layer entry point wrapped, giving the per-layer metrics and
   the tracing overhead.

End-to-end metrics (``--trace 0``) are medians over the run:
``wall_s`` (the measured call, set-up excluded), ``setup_s`` (every
set-up of the run, including those before measured calls) and
``peak_rss_mb`` (the measuring process plus any worker processes it
started).  Times are scaled to the reference CPU speed (``speed.py``);
the raw ones are in the run record.  Each operation's output is checked; the failed count is the
last line's ``failed`` against ``attempted``.  The line before it is
the run record: the seed, ``cpus``, every sample and every failure.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS as LAYER_METRICS
from workloads import SUBSEED_STRIDE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Timed fresh-interpreter set-ups per run, besides the measured calls'.
SETUP_SAMPLES = 4
#: A run ends within this many seconds, whatever ``--seconds`` says.
RUN_LIMIT_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    # Set-up is timed with compiled ``.pyc`` files, as users run it;
    # the discarded first set-up of a checkout writes them.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    return env


def stop_group(pgid: int) -> None:
    """Kill a worker's process group and wait until it is gone."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(500):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def run_worker(args: list[str], timeout: float) -> dict | None:
    """One worker step; its JSON record, or None if it failed."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        stop_group(proc.pid)
        proc.communicate()
        print(f"perfbench: {' '.join(args)} timed out", file=sys.stderr)
        return None
    finally:
        stop_group(proc.pid)
    if proc.returncode != 0:
        print(f"perfbench: {' '.join(args)} failed:\n{err[-2000:]}",
              file=sys.stderr)
        return None
    return json.loads(out.strip().splitlines()[-1])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 is the paper's configuration")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured-call time to aim for in this run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    deadline = time.monotonic() + RUN_LIMIT_S
    step = [workload.name, str(args.seed)]

    def remaining() -> float:
        return deadline - time.monotonic()

    fresh = not (ROOT / "src" / "repro" / "__pycache__").is_dir()
    if fresh and run_worker(["setup", *step], remaining()) is None:
        print("perfbench: set-up failed; nothing measured", file=sys.stderr)
        return 1
    samples: dict[str, list[float]] = {
        name: [] for name in ("wall_s", "setup_s", "peak_rss_mb",
                              "wall_raw_s", "setup_raw_s", "speed")
    }

    def keep(record: dict) -> None:
        for name, values in samples.items():
            if name in record:
                values.append(record[name])

    for _ in range(SETUP_SAMPLES):
        record = run_worker(["setup", *step], remaining())
        if record is not None:
            keep(record)

    ops = len(workload.op_names())
    attempted = failed = 0
    failures: list[str] = []

    def tally(record: dict | None) -> bool:
        nonlocal attempted, failed
        attempted += ops
        if record is None:
            failed += ops
            failures.append("worker failed")
            return False
        bad = [problem for problem in record["problems"] if problem]
        failed += len(bad)
        failures.extend(bad)
        return True

    walls = samples["wall_s"]
    digests: dict[str, list[str]] = {}
    started = time.monotonic()
    calls = 0
    while True:
        seed = str(args.seed + SUBSEED_STRIDE * calls)
        record = run_worker(["measure", workload.name, seed], remaining())
        calls += 1
        if tally(record):
            keep(record)
            digests[seed] = record["digests"]
        elapsed = time.monotonic() - started
        call = elapsed / calls
        # Past min_calls, another call only if it should end within
        # --seconds.  A traced run needs one untraced call only, for
        # the overhead.
        if args.trace or remaining() < 1.5 * call:
            break
        if calls >= workload.min_calls and elapsed + call > args.seconds:
            break
    if not walls:
        print("perfbench: every measured call failed", file=sys.stderr)
        return 1

    layers = None
    trace_file = None
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"{workload.name}-seed{args.seed}.trace.json"
        record = run_worker(
            ["measure", *step, "--trace", str(trace_file)], remaining()
        )
        if tally(record):
            layers = record["layers"]
            layers["trace.overhead"] = (
                record["wall_s"] / statistics.median(walls) - 1.0
            )

    end_to_end = {
        "wall_s": metric(statistics.median(walls), "s"),
        "setup_s": metric(statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": metric(statistics.median(samples["peak_rss_mb"]),
                              "MiB"),
    }
    print(json.dumps({
        "workload": workload.name,
        "seed": args.seed,
        "cpus": len(os.sched_getaffinity(0)),
        "end_to_end": dict(
            end_to_end, failed_ops=metric(failed, "count"),
            attempted_ops=metric(attempted, "count"),
        ),
        "samples": samples,
        "failures": failures,
        "digests": digests,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }))
    if args.trace:
        if layers is None:
            print("perfbench: the traced call failed", file=sys.stderr)
            return 1
        metrics = {
            name: metric(layers[name], unit)
            for name, unit in LAYER_METRICS.items()
        }
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
