"""Outside-in layer tracing for the traced benchmark run.

:func:`install` wraps each layer's public entry point — from here, not
from inside the program — so every call becomes a span and bumps the
layer's work counters.  :func:`layer_metrics` folds the spans and
counters of one run into the per-layer metrics the benchmark reports.

Layers and the entry points that stand for them:

===============  ===================================================
synth            ``synthesize`` (as the lab calls it)
fault            ``StuckAtModel.collapse`` / ``.simulate``
mutation         ``generate_mutants``, ``estimate_equivalents`` (as the
                 lab calls them), ``MutationEngine.comb_kill_sets`` /
                 ``.run_all`` (kill analysis) / ``.triage_survivors``
testgen          ``MutationTestGenerator.generate``
testgen.atpg     ``Podem.run``
grid             ``GridExecutor.fault_sim`` / ``.kill_analysis`` /
                 ``.equivalence`` and ``CampaignEvents.on_unit_done``
===============  ===================================================
"""

from __future__ import annotations

from collections import Counter, defaultdict

from spans import Recorder, descendants, outermost, self_times

#: Grid work-unit kinds (``repro.grid.units``), one metric each.
UNIT_KINDS = ("fault-chunk", "mutant-part", "equiv-part")

#: span name -> per-layer time metric fed by its self time.
SELF_TIME_METRICS = {
    "synth.synthesize": "synth.synthesize_s",
    "fault.collapse": "fault.collapse_s",
    "mutation.generate": "mutation.generate_s",
    "mutation.equivalence": "mutation.equivalence_s",
    "mutation.comb_kill_sets": "mutation.comb_kill_sets_s",
    "mutation.kill_analysis": "mutation.kill_analysis_s",
    "mutation.triage": "mutation.triage_s",
    "testgen.generate": "testgen.generate_self_s",
    "fault.simulate": "fault.simulate_s",
    "atpg.podem": "atpg.podem_s",
}

#: Every per-layer metric name and its unit, in report order.
METRICS = {
    "repro.import_s": "s",
    "synth.synthesize_s": "s",
    "fault.collapse_s": "s",
    "mutation.generate_s": "s",
    "mutation.population": "count",
    "mutation.equivalence_s": "s",
    "mutation.equivalence_mutants": "count",
    "mutation.equivalence_survivors": "count",
    "mutation.comb_kill_sets_s": "s",
    "mutation.comb_kill_sets_evals": "count",
    "mutation.kill_analysis_s": "s",
    "mutation.kill_analysis_evals": "count",
    "mutation.triage_s": "s",
    "testgen.generate_self_s": "s",
    "testgen.vectors": "count",
    "fault.simulate_s": "s",
    "fault.simulate_calls": "count",
    "fault.fault_patterns": "count",
    "fault.ns_per_fault_pattern": "ns",
    "atpg.podem_s": "s",
    "atpg.faults": "count",
    "atpg.detected": "count",
    "atpg.redundant": "count",
    "atpg.aborted": "count",
    "atpg.abort_ratio": "ratio",
    "atpg.decisions": "count",
    "atpg.backtracks": "count",
    "atpg.ms_per_decision": "ms",
    "grid.dispatch_s": "s",
    **{f"grid.units.{kind}": "count" for kind in UNIT_KINDS},
    **{f"grid.unit_exec_s.{kind}": "s" for kind in UNIT_KINDS},
    "grid.efficiency": "ratio",
    "grid.parent_s": "s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def install(recorder: Recorder, counts: Counter) -> None:
    """Wrap every layer entry point for the rest of the process."""
    from repro.experiments import context
    from repro.fault.models.stuck_at import StuckAtModel
    from repro.grid.executor import GridExecutor
    from repro.mutation.execution import MutationEngine
    from repro.testgen.atpg import Podem
    from repro.testgen.mutation_gen import MutationTestGenerator

    def patch(owner, attr: str, name: str, on_call=None) -> None:
        setattr(owner, attr,
                recorder.wrap(getattr(owner, attr), name, on_call))

    def population(args, kwargs, mutants):
        counts["mutation.population"] += len(mutants)

    def equivalence(args, kwargs, analysis):
        # estimate_equivalents(design, mutants, ...)
        counts["mutation.equivalence_mutants"] += len(args[1])
        counts["mutation.equivalence_survivors"] += len(
            analysis.equivalent_mids
        )

    def evals(metric):
        def count(args, kwargs, _result):
            # (self, mutants, stimuli, ...) on MutationEngine methods
            counts[metric] += len(args[1]) * len(args[2])
        return count

    def generated(args, kwargs, result):
        counts["testgen.vectors"] += len(result.vectors)

    def simulated(args, kwargs, result):
        # StuckAtModel.simulate(self, netlist, stimuli, faults, ...)
        counts["fault.simulate_calls"] += 1
        counts["fault.fault_patterns"] += (
            len(result.faults) * len(args[2])
        )

    def podem(args, kwargs, result):
        counts["atpg.faults"] += len(result.outcomes)
        counts["atpg.detected"] += result.detected
        counts["atpg.redundant"] += result.redundant
        counts["atpg.aborted"] += result.aborted
        counts["atpg.decisions"] += result.total_decisions
        counts["atpg.backtracks"] += result.total_backtracks

    patch(context, "synthesize", "synth.synthesize")
    patch(context, "generate_mutants", "mutation.generate", population)
    patch(context, "estimate_equivalents", "mutation.equivalence",
          equivalence)
    patch(StuckAtModel, "collapse", "fault.collapse")
    patch(StuckAtModel, "simulate", "fault.simulate", simulated)
    patch(MutationEngine, "comb_kill_sets", "mutation.comb_kill_sets",
          evals("mutation.comb_kill_sets_evals"))
    patch(MutationEngine, "run_all", "mutation.kill_analysis",
          evals("mutation.kill_analysis_evals"))
    patch(MutationEngine, "triage_survivors", "mutation.triage")
    patch(MutationTestGenerator, "generate", "testgen.generate", generated)
    patch(Podem, "run", "atpg.podem", podem)
    for method in ("fault_sim", "kill_analysis", "equivalence"):
        patch(GridExecutor, method, f"grid.{method}")


def unit_events(counts: Counter):
    """A ``CampaignEvents`` sink counting executed grid units by kind."""
    from repro import CampaignEvents

    class UnitEvents(CampaignEvents):
        def on_unit_done(self, unit, seconds, cached=False):
            if not cached:
                counts[f"grid.units.{unit.kind}"] += 1
                counts[f"grid.unit_exec_s.{unit.kind}"] += seconds

    return UnitEvents()


def layer_metrics(spans, root, counts: Counter, import_s: float,
                  grid_workers: int) -> dict:
    """Per-layer metric values of one traced run.

    ``root`` is the span of the measured call; the time metrics are
    self times, so a layer nested in another (kill sweeps inside test
    generation) is counted once, in the inner layer.  ``trace.overhead``
    needs an untraced run, so the runner fills it in.
    """
    own = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    for span in spans:
        by_name[span.name] += own[span.span_id]
    values = {metric: 0.0 for metric in METRICS}
    values["repro.import_s"] = import_s
    for span_name, metric in SELF_TIME_METRICS.items():
        values[metric] = by_name[span_name]
    for metric, count in counts.items():
        values[metric] = count

    wall_s = root.duration
    patterns = values["fault.fault_patterns"]
    if patterns:
        values["fault.ns_per_fault_pattern"] = (
            1e9 * values["fault.simulate_s"] / patterns
        )
    if values["atpg.faults"]:
        values["atpg.abort_ratio"] = (
            values["atpg.aborted"] / values["atpg.faults"]
        )
    if values["atpg.decisions"]:
        values["atpg.ms_per_decision"] = (
            1e3 * values["atpg.podem_s"] / values["atpg.decisions"]
        )
    dispatch_s = sum(s.duration for s in outermost(spans, "grid."))
    values["grid.dispatch_s"] = dispatch_s
    if dispatch_s and grid_workers:
        busy = sum(values[f"grid.unit_exec_s.{k}"] for k in UNIT_KINDS)
        values["grid.efficiency"] = busy / (dispatch_s * grid_workers)
    values["grid.parent_s"] = wall_s - dispatch_s
    named = sum(own[span.span_id] for span in descendants(spans, root))
    values["trace.coverage"] = named / wall_s
    return values
