"""Work-unit execution: the same code path in every scheduler.

:func:`execute_unit` turns one :class:`~repro.grid.units.WorkUnit` into
a plain JSON-serializable result dict.  It rebuilds per-circuit state
through the memoized :func:`repro.experiments.context.get_lab`, so a
process worker pays synthesis once per circuit and amortizes it over
every subsequent unit, while the serial and thread schedulers share the
parent's lab outright.

:func:`process_entry` is the top-level function a
:class:`~concurrent.futures.ProcessPoolExecutor` pickles: it rebuilds
the config from plain data, times the unit, and ships the timing back
so the parent can stream accurate ``on_unit_done`` events.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from contextlib import ExitStack

from repro.errors import GridError
from repro.grid.units import EQUIV_PART, FAULT_CHUNK, MUTANT_PART, WorkUnit

#: Good-machine reference responses, shared by every unit of a wave.
#: All units of one kill-analysis (or equivalence) wave replay the same
#: stimulus set, and mutant sweeps only need the *reference* once — so
#: it is memoized per (circuit, stimuli) instead of recomputed per
#: partition.  Keyed purely by design-determining inputs (the
#: behavioural mutation engine does not depend on the netlist backend);
#: bounded so long campaigns cannot grow it without limit.
_REFERENCE_MEMO: OrderedDict = OrderedDict()
_REFERENCE_MEMO_MAX = 8
_REFERENCE_LOCK = threading.Lock()


def _memoized_reference(key: tuple, compute):
    with _REFERENCE_LOCK:
        if key in _REFERENCE_MEMO:
            _REFERENCE_MEMO.move_to_end(key)
            return _REFERENCE_MEMO[key]
        value = compute()
        _REFERENCE_MEMO[key] = value
        while len(_REFERENCE_MEMO) > _REFERENCE_MEMO_MAX:
            _REFERENCE_MEMO.popitem(last=False)
        return value


def execute_unit(unit: WorkUnit, config) -> dict:
    """Compute one work unit; returns a JSON-serializable result."""
    from repro.experiments.context import get_lab
    from repro.mutation.score import equivalence_stimuli

    lab = get_lab(unit.circuit, config.lab_config())

    if unit.kind == FAULT_CHUNK:
        spec = unit.spec
        if len(lab.sim_faults) != spec["num_faults"]:
            raise GridError(
                f"unit {unit.uid}: fault list drifted "
                f"({len(lab.sim_faults)} != {spec['num_faults']})"
            )
        # The lab's fault model (and post-prune list) is rebuilt from
        # the same fingerprinted config on every worker, so the slice
        # is the same one the planner sharded — no model tag in the
        # unit spec.
        faults = lab.sim_faults[spec["start"]:spec["stop"]]
        result = lab.fault_model.simulate(
            lab.netlist,
            spec["vectors"],
            faults,
            config.fault_lanes,
            engine=config.engine,
        )
        return {"detection": result.detection}

    if unit.kind == MUTANT_PART:
        wanted = set(unit.spec["mids"])
        # Population order, so the relative run order inside a partition
        # matches the serial sweep (the union is order-free regardless).
        mutants = [m for m in lab.all_mutants if m.mid in wanted]
        if len(mutants) != len(wanted):
            raise GridError(
                f"unit {unit.uid}: {len(wanted) - len(mutants)} mutant "
                f"id(s) not in the population"
            )
        vectors = unit.spec["vectors"]
        reference = _memoized_reference(
            ("kill", unit.circuit, tuple(vectors)),
            lambda: lab.engine.reference_outputs(vectors),
        )
        records = lab.engine.run_all(mutants, vectors, reference)
        return {
            "killed": sorted(r.mid for r in records if r.killed),
            # JSON object keys are strings; the merge converts back.
            "witnesses": {
                str(r.mid): [r.cycle, r.reason]
                for r in records
                if r.killed
            },
        }

    if unit.kind == EQUIV_PART:
        wanted = set(unit.spec["mids"])
        mutants = [m for m in lab.all_mutants if m.mid in wanted]
        if len(mutants) != len(wanted):
            raise GridError(
                f"unit {unit.uid}: {len(wanted) - len(mutants)} mutant "
                f"id(s) not in the population"
            )

        def compute():
            stimuli, _ = equivalence_stimuli(
                lab.design, config.equivalence_budget, config.seed
            )
            return stimuli, lab.engine.reference_outputs(stimuli)

        stimuli, reference = _memoized_reference(
            ("equiv", unit.circuit, config.equivalence_budget, config.seed),
            compute,
        )
        survivors, kill_cycle = lab.engine._equivalence_sweep(
            mutants, stimuli, reference
        )
        # JSON object keys are strings; the merge converts back.
        return {
            "survivors": survivors,
            "kill_cycle": {
                str(mid): cycle for mid, cycle in kill_cycle.items()
            },
        }

    raise GridError(f"unknown work-unit kind {unit.kind!r}")


def worker_pid() -> str:
    """The trace ``pid`` lane of this worker process."""
    return f"worker-{os.getpid()}"


def process_entry(unit_data: dict, config_data: dict) -> dict:
    """Process-pool entry point: plain dicts in, plain dict out.

    When the config enables telemetry the unit runs under its own
    :mod:`repro.obs` registry and the envelope carries a ``metrics``
    snapshot for the parent to fold in — counters travel with results,
    not through a side channel.  ``config.trace`` works the same way:
    the unit runs under a worker-local tracer whose span buffer rides
    the envelope as ``spans``, and the parent stitches it into the
    campaign trace under this worker's ``pid`` lane.
    """
    from repro.campaign.config import CampaignConfig
    from repro.obs import metrics as _metrics
    from repro.obs import trace as _trace

    unit = WorkUnit.from_dict(unit_data)
    config = CampaignConfig.from_dict(config_data)
    started = time.monotonic()
    registry = None
    tracer = None
    with ExitStack() as stack:
        if config.telemetry:
            registry = stack.enter_context(_metrics.collecting())
        if config.trace:
            tracer = stack.enter_context(
                _trace.tracing(_trace.Tracer(pid=worker_pid()))
            )
            stack.enter_context(tracer.span(
                f"unit:{unit.kind}", "unit",
                {"uid": unit.uid, "circuit": unit.circuit,
                 "stage": unit.stage},
            ))
        result = execute_unit(unit, config)
    envelope = {
        "seconds": time.monotonic() - started,
        "result": result,
    }
    if registry is not None and not registry.is_empty():
        envelope["metrics"] = registry.snapshot()
    if tracer is not None and len(tracer):
        envelope["spans"] = tracer.export_buffer()
    return envelope
