"""The benchmark's workloads: inputs from a seed, the measured call, and
the check of its outputs.

Every workload drives a public entry point — ``Campaign(...).run`` or
``run_atpg_reuse`` — on configs derived from the workload seed.  Seed 0
is the paper's configuration (``CampaignConfig`` defaults); seed ``n``
offsets the master, test-generation and sampling seeds by ``n``.

The work a campaign does changes with its seeds by up to a third (how
many mutants survive the random equivalence stimuli, how many search
rounds run before the stall limit).  So the runner measures at least
``min_calls`` calls per run, call ``i`` on workload seed
``seed + SUBSEED_STRIDE * i``, and a run's figure averages over seeds
as well as over time.  The ATPG-reuse workload makes one long call
instead: there the seed moves only the validation search, so a small
fault stride that makes PODEM most of the call steadies it more per
second measured than a second call would.

An *operation* is one circuit of a campaign, or one mode (row) of the
ATPG-reuse experiment.  Each is checked on its own: its sha256 digest
must match the stored reference for the seed when one is stored
(``reference.json``), and its numbers must be self-consistent on any
seed.

This module imports ``repro`` lazily, so the runner can read the
workload table without the program on its path.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

#: The paper's seeds (``CampaignConfig`` defaults) = workload seed 0.
PAPER_SEEDS = {"seed": 20050301, "testgen_seed": 7, "sampling_seed": 13}
#: PODEM settings of the ATPG-reuse workload.
ATPG_BACKTRACK_LIMIT = 24
#: Every 10th collapsed fault: PODEM is then most of the call, and the
#: seed-dependent validation search a smaller part.
ATPG_FAULT_STRIDE = 10
#: Workload-seed step between the measured calls of one run.
SUBSEED_STRIDE = 100_000

REFERENCE_FILE = Path(__file__).with_name("reference.json")


def derive_seeds(seed: int) -> dict[str, int]:
    """The program's seeds for workload seed ``seed`` (0: the paper's)."""
    return {name: value + seed for name, value in PAPER_SEEDS.items()}


@dataclass(frozen=True)
class Workload:
    name: str
    circuits: tuple[str, ...]
    kind: str                       #: "campaign" or "atpg"
    grid_workers: int = 0           #: >0: ``grid="process"`` with N workers
    #: measured calls per untraced run, at least; each call runs on its
    #: own seed, so a run averages over this many seeds
    min_calls: int = 2
    #: workload whose reference digests this one must reproduce
    reference: str | None = None

    # -- inputs --------------------------------------------------------------

    def config(self, seed: int):
        """The ``CampaignConfig`` the program sees for ``seed``."""
        from repro import CampaignConfig

        knobs = dict(derive_seeds(seed), circuits=self.circuits)
        if self.grid_workers:
            knobs.update(grid="process", grid_workers=self.grid_workers)
        return CampaignConfig(**knobs)

    def lab_config(self, seed: int):
        return self.config(seed).lab_config()

    # -- set-up and the measured call ------------------------------------------

    def setup(self, seed: int) -> int:
        """Parse, synthesize, collapse and generate mutants for every
        circuit through the lab memo the measured call reuses; returns
        the mutant population."""
        from repro.experiments.context import get_lab

        lab_config = self.lab_config(seed)
        return sum(
            len(get_lab(name, lab_config).all_mutants)
            for name in self.circuits
        )

    def run(self, seed: int, events=None) -> list:
        """The measured call; returns one JSON payload per operation."""
        if self.kind == "atpg":
            from repro.experiments.atpg_reuse import run_atpg_reuse

            rows = run_atpg_reuse(
                self.circuits,
                config=self.lab_config(seed),
                testgen_seed=derive_seeds(seed)["testgen_seed"],
                backtrack_limit=ATPG_BACKTRACK_LIMIT,
                fault_stride=ATPG_FAULT_STRIDE,
            )
            return [asdict(row) for row in rows]
        from repro import Campaign

        result = Campaign(self.config(seed), events=events).run()
        return result.to_dict()["circuits"]

    # -- output check ----------------------------------------------------------

    def op_names(self) -> list[str]:
        if self.kind == "atpg":
            return [f"{c}:{mode}" for c in self.circuits
                    for mode in ("atpg-only", "reuse")]
        return list(self.circuits)

    def check(self, seed: int, payloads: list,
              references: dict | None = None) -> list[str | None]:
        """Per operation: None if its output is correct, else why not."""
        names = self.op_names()
        if len(payloads) != len(names):
            return [f"expected {len(names)} operations, got {len(payloads)}"
                    ] * len(names)
        if references is None:
            references = load_references()
        stored = references.get(self.reference or self.name, {}).get(str(seed))
        config = self.config(seed)
        problems = []
        for index, (name, payload) in enumerate(zip(names, payloads)):
            if stored is not None and digest(payload) != stored[index]:
                problems.append(f"{name}: digest differs from the reference")
                continue
            check = check_row if self.kind == "atpg" else check_circuit
            problems.append(check(name, payload, config))
        return problems


def digest(payload) -> str:
    """sha256 of the canonical JSON form of one operation's output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_references() -> dict:
    """workload -> seed (str) -> per-operation digests."""
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def check_circuit(name: str, data: dict, config) -> str | None:
    """Self-consistency of one circuit of a campaign result."""
    if data.get("circuit") != name:
        return f"{name}: result is for {data.get('circuit')!r}"
    rows = data.get("strategies", [])
    if [row["strategy"] for row in rows] != list(config.strategies):
        return f"{name}: strategy rows do not match the config"
    if not data.get("operators"):
        return f"{name}: no calibration rows"
    for row in rows:
        label = f"{name}/{row['strategy']}"
        alive = row["population"] - row["equivalents"]
        if not 0 <= row["killed"] <= alive:
            return f"{label}: {row['killed']} killed of {alive} live mutants"
        score = 100.0 * (row["killed"] / alive if alive > 0 else 1.0)
        if abs(row["ms_pct"] - score) > 1e-9:
            return f"{label}: MS% {row['ms_pct']} is not K/(M-E)"
        if len(row["witnesses"]) != row["killed"]:
            return f"{label}: witnesses do not match the kill count"
        survivors = sum(len(mids) for mids in row["triage"].values())
        if survivors != row["population"] - row["killed"]:
            return f"{label}: triage does not cover every survivor"
        if not 0 < len(row["vectors"]) <= config.max_vectors:
            return f"{label}: {len(row['vectors'])} vectors"
    return None


def check_row(name: str, row: dict, _config) -> str | None:
    """Self-consistency of one ATPG-reuse row."""
    if f"{row['circuit']}:{row['mode']}" != name:
        return f"{name}: row is for {row['circuit']}:{row['mode']}"
    if not 0.0 <= row["final_coverage_pct"] <= 100.0:
        return f"{name}: coverage {row['final_coverage_pct']}"
    if row["final_coverage_pct"] < row["preload_coverage_pct"]:
        return f"{name}: top-up lowered coverage"
    if row["atpg_vectors"] > row["targeted_faults"]:
        return f"{name}: more vectors than targeted faults"
    if row["targeted_faults"] < 1 or row["decisions"] < 1:
        return f"{name}: PODEM did no work"
    return None


WORKLOADS = {
    w.name: w for w in (
        Workload("campaign-c432", ("c432",), "campaign"),
        Workload("campaign-b01-b03", ("b01", "b03"), "campaign"),
        Workload("campaign-c432-grid2", ("c432",), "campaign",
                 grid_workers=2, reference="campaign-c432"),
        Workload("atpg-reuse-c432", ("c432",), "atpg", min_calls=1),
    )
}
