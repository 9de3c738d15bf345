"""Mutant execution against stimuli: kills, matrices, survivors.

Strong mutation: a mutant is killed by a stimulus sequence when any
sampled output differs from the original at any cycle, or when its
execution raises a run-time error / fails to settle (observably
different behaviour).  Sequences always start from reset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.errors import MutantRuntimeError, OscillationError
from repro.hdl import ast
from repro.hdl.design import Design
from repro.mutation.mutant import Mutant
from repro.obs import metrics
from repro.sim.compiler import CompileCache, _Compiler
from repro.sim.interp import Evaluator, ExecContext
from repro.sim.testbench import StimulusEncoder, Testbench

_NO_EVENTS: frozenset[str] = frozenset()


class _CombTrace:
    """The original design's run over one decoded stimulus batch.

    Built once per sweep and shared by every mutant in it.  For vector
    ``v``: ``values[v]`` is the read-only signal map (declared inits
    plus the stimulus); ``states[v][j]`` the machine state before
    top-level statement ``j`` (``j == len(body)``: end of the vector)
    as a ``(variables, signals)`` pair of fixed-order tuples, where a
    signal's entry is its effective value (the scheduled write, else
    the current value); ``outputs[v]`` the observed outputs.
    """

    __slots__ = ("values", "states", "outputs")

    def __init__(self) -> None:
        self.values: list[dict[str, object]] = []
        self.states: list[list[tuple[tuple, tuple]]] = []
        self.outputs: list[tuple] = []


def _can_fast_path(design: Design) -> bool:
    if design.is_sequential or len(design.processes) != 1:
        return False
    process = design.processes[0]
    # The fast path needs the process to read input ports only.
    return all(
        design.symbols[name].kind.name == "PORT_IN"
        for name in process.reads
    )


@dataclass(frozen=True)
class KillRecord:
    """Outcome of running one mutant against one stimulus sequence."""

    mid: int
    killed: bool
    cycle: int | None          # first differing cycle (0-based)
    reason: str                # "output-diff" | "runtime" | "oscillation" | "survived"


#: Surviving-mutant triage categories (the fault-classification
#: scheme): the test data never excited the mutated site at all, or it
#: did infect internal state but the infection never reached an
#: observed output, or the equivalence sweep flagged the mutant as a
#: candidate equivalent (no stimulus may be able to kill it).
NEVER_ACTIVATED = "never-activated"
PROPAGATION_BLOCKED = "propagation-blocked"
POSSIBLY_EQUIVALENT = "possibly-equivalent"
TRIAGE_CATEGORIES = (
    NEVER_ACTIVATED, PROPAGATION_BLOCKED, POSSIBLY_EQUIVALENT
)


class MutationEngine:
    """Runs mutants of one design against packed stimulus sequences."""

    def __init__(self, design: Design, max_delta: int = 256,
                 backend: str = "compiled"):
        self._design = design
        self._encoder = StimulusEncoder(design)
        self._max_delta = max_delta
        self._backend = backend
        self._fast = _can_fast_path(design)
        # Compiled closures for the compiled backend; statement subtree
        # node ids (the patched-statement lookup) for both backends.
        self._cache = CompileCache()
        if self._fast:
            process = design.processes[0]
            self._body = process.body
            self._var_init = {var.name: var.init for var in process.variables}
            self._defaults = {
                symbol.name: symbol.init
                for symbol in design.signal_like_symbols
            }
            self._output_names = [p.name for p in design.output_ports]

    @property
    def design(self) -> Design:
        return self._design

    @property
    def encoder(self) -> StimulusEncoder:
        return self._encoder

    def decode_all(self, stimuli: list[int]) -> list[dict[str, object]]:
        return [self._encoder.decode(packed) for packed in stimuli]

    def reference_outputs(self, stimuli: list[int]) -> list[tuple]:
        """Original-design responses (no patch)."""
        if self._fast:
            return self._comb_trace(stimuli).outputs
        bench = Testbench(
            self._design, max_delta=self._max_delta,
            backend=self._backend,
        )
        return bench.run_sequence(self.decode_all(stimuli))

    def _fresh_bench(self, patch) -> tuple[Testbench, tuple]:
        """A reset bench plus its pristine state checkpoint.

        Combinational vectors are independent by definition, but a
        mutant may read an internal signal and thereby smuggle state
        from one evaluation into the next when a bench is reused;
        restoring the pristine checkpoint before every vector keeps the
        per-vector semantics the fast path has (fresh evaluation), at a
        state-copy rather than bench-construction price.
        """
        bench = Testbench(
            self._design, patch, max_delta=self._max_delta,
            backend=self._backend,
        )
        bench.reset()
        return bench, bench.save_state()

    def run_mutant(
        self,
        mutant: Mutant,
        stimuli: list[int],
        reference: list[tuple] | None = None,
    ) -> KillRecord:
        """Run one mutant, stopping at the first observable difference.

        Sequential stimuli are one reset-started sequence; for
        combinational designs every vector is evaluated from fresh
        signal state (on the one-process fast path, process variables
        carry over from the previous vector — see ``_comb_kills``).
        """
        if self._fast:
            return self._comb_records([mutant], stimuli, reference)[0]
        if reference is None:
            reference = self.reference_outputs(stimuli)
        decoded = self.decode_all(stimuli)
        try:
            bench, pristine = self._fresh_bench(mutant.patch())
            sequential = self._design.is_sequential
            for cycle, stimulus in enumerate(decoded):
                if not sequential:
                    bench.restore_state(pristine)
                outputs = bench.step(stimulus)
                if outputs != reference[cycle]:
                    return KillRecord(mutant.mid, True, cycle, "output-diff")
        except MutantRuntimeError:
            return KillRecord(mutant.mid, True, None, "runtime")
        except OscillationError:
            return KillRecord(mutant.mid, True, None, "oscillation")
        return KillRecord(mutant.mid, False, None, "survived")

    def run_all(
        self,
        mutants: list[Mutant],
        stimuli: list[int],
        reference: list[tuple] | None = None,
    ) -> list[KillRecord]:
        return self._kill_records(mutants, stimuli, reference)

    def _kill_records(
        self,
        mutants: list[Mutant],
        stimuli: list[int],
        reference: list[tuple] | None,
    ) -> list[KillRecord]:
        """One :class:`KillRecord` per mutant, in order.

        The body of :meth:`run_all`, kept apart so the equivalence
        sweep runs the same code without passing through the public
        kill-analysis entry point.
        """
        if self._fast:
            return self._comb_records(mutants, stimuli, reference)
        if reference is None:
            reference = self.reference_outputs(stimuli)
        return [
            self.run_mutant(mutant, stimuli, reference)
            for mutant in mutants
        ]

    def _equivalence_sweep(
        self,
        mutants: list[Mutant],
        stimuli: list[int],
        reference: list[tuple] | None = None,
    ) -> tuple[list[int], dict[int, int | None]]:
        """Survivor ids and per-mutant first-kill cycles of one sweep.

        Shared by :func:`repro.mutation.score.estimate_equivalents` and
        the grid's equivalence work units.
        """
        records = self._kill_records(mutants, stimuli, reference)
        survivors = [record.mid for record in records if not record.killed]
        return survivors, {record.mid: record.cycle for record in records}

    def killed_mids(
        self,
        mutants: list[Mutant],
        stimuli: list[int],
        reference: list[tuple] | None = None,
    ) -> set[int]:
        return {
            record.mid
            for record in self.run_all(mutants, stimuli, reference)
            if record.killed
        }

    # -- one-process combinational fast path ---------------------------------

    def _stmt_fns(self, patch: dict[int, ast.Node] | None):
        """Runners of the (patched) body's top-level statements.

        Also returns the first and last index of the statements the
        patch touches: ``(0, -1)`` when it touches none.
        """
        cache = self._cache
        if self._backend == "compiled":
            compiler = _Compiler(patch or {}, cache)
            fns = [compiler.compile_stmt_cached(stmt) for stmt in self._body]
        else:
            evaluator = Evaluator(patch)
            fns = [partial(evaluator.exec_stmt, stmt) for stmt in self._body]
        patched = [
            index for index, stmt in enumerate(self._body)
            if patch and not patch.keys().isdisjoint(cache.nids_of(stmt))
        ]
        if not patched:
            return fns, 0, -1
        return fns, patched[0], patched[-1]

    def _comb_trace(self, stimuli: list[int]) -> _CombTrace:
        """Run the original process once over ``stimuli``, recording states.

        The process reads input ports only, so signal values stay fixed
        within a vector and a dict of effective values (initialised to
        the current values) stands in for the scheduled-write map.
        Variables persist from one vector to the next.
        """
        fns, _, _ = self._stmt_fns(None)
        variables = dict(self._var_init)
        trace = _CombTrace()
        for packed in stimuli:
            values = dict(self._defaults)
            values.update(self._encoder.decode(packed))
            scheduled = dict(values)
            ctx = ExecContext(
                values.__getitem__, scheduled.__setitem__,
                scheduled.__getitem__, variables, _NO_EVENTS,
            )
            states = [(tuple(variables.values()), tuple(scheduled.values()))]
            for fn in fns:
                fn(ctx)
                states.append(
                    (tuple(variables.values()), tuple(scheduled.values()))
                )
            trace.values.append(values)
            trace.states.append(states)
            trace.outputs.append(
                tuple(scheduled[name] for name in self._output_names)
            )
        return trace

    def _comb_records(
        self,
        mutants: list[Mutant],
        stimuli: list[int],
        reference: list[tuple] | None,
    ) -> list[KillRecord]:
        """First-kill records of ``mutants`` against one shared trace."""
        trace = self._comb_trace(stimuli)
        if reference is None:
            reference = trace.outputs
        records = []
        for mutant in mutants:
            kills = self._comb_kills(
                trace, mutant.patch(), reference, first_only=True
            )
            if not kills:
                records.append(KillRecord(mutant.mid, False, None, "survived"))
                continue
            index, reason = kills[0]
            cycle = None if reason == "runtime" else index
            records.append(KillRecord(mutant.mid, True, cycle, reason))
        return records

    def _comb_kills(
        self,
        trace: _CombTrace,
        patch: dict[int, ast.Node],
        reference: list[tuple],
        first_only: bool,
    ) -> list[tuple[int, str]]:
        """``(vector index, reason)`` of every vector that kills ``patch``.

        Differential run against ``trace``: statements before the first
        patched one are the original's, so while the mutant's variables
        match the reference's at the start of a vector it resumes from
        the reference state before that statement.  After the last
        patched statement, a state equal to the reference's at the same
        boundary means the rest of the vector reproduces the reference
        exactly, so the run stops there.  A vector that raised, or ran
        to the end without rejoining, leaves the mutant with its own
        variables, and the next vector starts at statement 0 unless
        they happen to equal the reference's.  ``first_only`` stops at
        the first kill.
        """
        fns, first, last = self._stmt_fns(patch)
        count = len(fns)
        var_names = list(self._var_init)
        sig_names = list(self._defaults)
        output_names = self._output_names
        variables = dict(self._var_init)
        scheduled: dict[str, object] = {}
        ctx = ExecContext(
            None, scheduled.__setitem__, scheduled.__getitem__, variables,
            _NO_EVENTS,
        )
        kills: list[tuple[int, str]] = []
        in_sync = True
        evaluated = converged = executed = 0
        for index, states in enumerate(trace.states):
            values = trace.values[index]
            ctx.read_signal = values.__getitem__
            scheduled.clear()
            if in_sync:
                state_vars, state_sigs = states[first]
                variables.update(zip(var_names, state_vars))
                scheduled.update(zip(sig_names, state_sigs))
                start = first
            else:
                scheduled.update(values)
                start = 0
            evaluated += 1
            at = start
            rejoined = False
            try:
                while at < count:
                    fns[at](ctx)
                    at += 1
                    if at > last and states[at] == (
                        tuple(variables.values()), tuple(scheduled.values())
                    ):
                        rejoined = True
                        break
            except MutantRuntimeError:
                executed += at - start + 1
                kills.append((index, "runtime"))
                if first_only:
                    break
                in_sync = tuple(variables.values()) == states[count][0]
                continue
            executed += at - start
            if rejoined:
                converged += at < count
                in_sync = True
                outputs = trace.outputs[index]
            else:
                in_sync = tuple(variables.values()) == states[count][0]
                outputs = tuple(map(scheduled.__getitem__, output_names))
            if outputs != reference[index]:
                kills.append((index, "output-diff"))
                if first_only:
                    break
        m = metrics.active()
        if m.enabled:
            m.counter("mutation.sweep.mutants")
            m.counter("mutation.sweep.evals", evaluated)
            m.counter("mutation.sweep.converged", converged)
            m.counter("mutation.sweep.stmts", executed)
            m.counter("mutation.sweep.stmts_full", evaluated * count)
        return kills

    # -- surviving-mutant triage --------------------------------------------

    @staticmethod
    def _observable_state(state: tuple) -> tuple:
        """The comparable slice of a ``save_state`` checkpoint.

        Signal values plus process variables; the ``initialized`` flag
        is bench bookkeeping, identical on both machines by
        construction.
        """
        values, variables, _initialized = state
        return values, variables

    def reference_state_trace(self, stimuli: list[int]) -> list[tuple]:
        """Per-cycle internal-state checkpoints of the original design.

        Computed once per stimulus set and shared across every
        survivor's triage; combinational designs restore the pristine
        checkpoint before each vector, matching :meth:`run_mutant`.
        """
        decoded = self.decode_all(stimuli)
        bench, pristine = self._fresh_bench(None)
        sequential = self._design.is_sequential
        trace: list[tuple] = []
        for stimulus in decoded:
            if not sequential:
                bench.restore_state(pristine)
            bench.step(stimulus)
            trace.append(self._observable_state(bench.save_state()))
        return trace

    def triage_survivor(
        self,
        mutant: Mutant,
        stimuli: list[int],
        trace: list[tuple] | None = None,
    ) -> str:
        """Why ``stimuli`` failed to kill a surviving mutant.

        Steps the mutant in lockstep against the reference state trace
        and compares the *complete* machine state (every signal and
        process variable) after each cycle: a mutant whose state never
        deviates was :data:`NEVER_ACTIVATED` by the test data; one that
        deviated internally yet survived (its outputs matched) was
        activated but :data:`PROPAGATION_BLOCKED` on the way to an
        observed output.  The third category,
        :data:`POSSIBLY_EQUIVALENT`, is assigned by the caller from the
        equivalence analysis before ever running this sweep.
        """
        if trace is None:
            trace = self.reference_state_trace(stimuli)
        decoded = self.decode_all(stimuli)
        try:
            bench, pristine = self._fresh_bench(mutant.patch())
        except (MutantRuntimeError, OscillationError):
            # Initialization itself misbehaves — internal activation
            # without an output kill (or this would not be a survivor).
            return PROPAGATION_BLOCKED
        sequential = self._design.is_sequential
        for cycle, stimulus in enumerate(decoded):
            if not sequential:
                bench.restore_state(pristine)
            try:
                bench.step(stimulus)
            except (MutantRuntimeError, OscillationError):
                return PROPAGATION_BLOCKED
            state = self._observable_state(bench.save_state())
            if state != trace[cycle]:
                return PROPAGATION_BLOCKED
        return NEVER_ACTIVATED

    def triage_survivors(
        self, mutants: list[Mutant], stimuli: list[int]
    ) -> dict[int, str]:
        """Triage categories for a batch of survivors (shared trace)."""
        if not mutants:
            return {}
        trace = self.reference_state_trace(stimuli)
        return {
            mutant.mid: self.triage_survivor(mutant, stimuli, trace)
            for mutant in mutants
        }

    def comb_kill_sets(
        self,
        mutants: list[Mutant],
        vectors: list[int],
        reference: list[tuple] | None = None,
    ) -> dict[int, set[int]]:
        """For combinational designs: mid -> indexes of killing vectors.

        Every vector is independent (no state), so the whole matrix
        comes from one pass per mutant over the candidate list.
        """
        if self._fast:
            trace = self._comb_trace(vectors)
            if reference is None:
                reference = trace.outputs
            return {
                mutant.mid: {
                    index for index, _reason in self._comb_kills(
                        trace, mutant.patch(), reference, first_only=False
                    )
                }
                for mutant in mutants
            }
        if reference is None:
            reference = self.reference_outputs(vectors)
        decoded = self.decode_all(vectors)
        matrix: dict[int, set[int]] = {}
        for mutant in mutants:
            kills: set[int] = set()
            try:
                bench, pristine = self._fresh_bench(mutant.patch())
            except (MutantRuntimeError, OscillationError):
                # Initialization itself misbehaves: observably different
                # on every vector.
                matrix[mutant.mid] = set(range(len(decoded)))
                continue
            for index, stimulus in enumerate(decoded):
                try:
                    bench.restore_state(pristine)
                    if bench.step(stimulus) != reference[index]:
                        kills.add(index)
                except (MutantRuntimeError, OscillationError):
                    # The erroring vector observably differs; a fresh
                    # bench continues the sweep for the remaining ones.
                    kills.add(index)
                    bench, pristine = self._fresh_bench(mutant.patch())
            matrix[mutant.mid] = kills
        return matrix
