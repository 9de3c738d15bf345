"""Tests of the benchmark's own arithmetic and checks.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import speed  # noqa: E402
from spans import Recorder, Span, chrome_trace, self_times  # noqa: E402
from workloads import Workload, check_circuit, digest  # noqa: E402


def span(span_id, name, start, end, parent=None):
    return Span(span_id, name, start, end, parent, "run")


def test_self_time_nested():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "child", 1.0, 4.0, parent=0),
        span(2, "grandchild", 2.0, 3.0, parent=1),
    ]
    assert self_times(spans) == {0: 7.0, 1: 2.0, 2: 1.0}


def test_self_time_siblings():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 3.0, parent=0),
        span(2, "b", 5.0, 8.0, parent=0),
    ]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_self_time_overlapping_and_overhanging_children():
    spans = [
        span(0, "root", 0.0, 10.0),
        span(1, "a", 1.0, 5.0, parent=0),
        span(2, "b", 3.0, 7.0, parent=0),     # overlaps a: union is 1..7
        span(3, "c", 9.0, 12.0, parent=0),    # clipped to 9..10
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_links_parents_and_shares_run_id():
    recorder = Recorder("run-7")
    inner = recorder.wrap(lambda: None, "inner")
    outer = recorder.wrap(lambda: [inner(), inner()], "outer")
    outer()
    names = [(s.name, s.parent) for s in recorder.spans]
    assert names == [("outer", None), ("inner", 0), ("inner", 0)]
    assert {s.run_id for s in recorder.spans} == {"run-7"}
    own = self_times(recorder.spans)
    total = recorder.spans[0].duration
    assert sum(own.values()) == pytest.approx(total)


def test_chrome_trace_passes_repro_validator(tmp_path):
    from repro.obs.trace import validate_trace

    recorder = Recorder("run-1")
    leaf = recorder.wrap(lambda: None, "leaf")
    recorder.wrap(lambda: [leaf() for _ in range(3)], "mid")()
    trace = chrome_trace(recorder.spans)
    assert validate_trace(trace) == 8
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(trace))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "--validate", str(path)],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(HERE.parent / "src"), "PATH": ""},
    )
    assert proc.returncode == 0, proc.stderr


def test_layer_metrics_coverage_and_ratios():
    spans = [
        span(0, "workload.campaign", 0.0, 10.0),
        span(1, "testgen.generate", 0.0, 4.0, parent=0),
        span(2, "mutation.comb_kill_sets", 1.0, 3.0, parent=1),
        span(3, "grid.equivalence", 5.0, 9.0, parent=0),
    ]
    counts = Counter({"grid.unit_exec_s.equiv-part": 6.0})
    values = layers.layer_metrics(spans, spans[0], counts, 0.5, 2)
    assert values["testgen.generate_self_s"] == pytest.approx(2.0)
    assert values["mutation.comb_kill_sets_s"] == pytest.approx(2.0)
    assert values["grid.dispatch_s"] == pytest.approx(4.0)
    assert values["grid.parent_s"] == pytest.approx(6.0)
    assert values["grid.efficiency"] == pytest.approx(6.0 / (4.0 * 2))
    assert values["trace.coverage"] == pytest.approx(8.0 / 10.0)
    assert set(values) == set(layers.METRICS)


def test_speed_factor_averages_each_cpu_then_the_cpus():
    ref = speed.REFERENCE_SPEED
    probe = speed.SpeedProbe([0, 1])
    probe._samples = [
        (0.5, 0, ref), (1.5, 0, 2 * ref), (1.6, 0, 2 * ref),
        (1.7, 1, ref), (9.0, 1, 5 * ref),
    ]
    assert probe.factor(1.0, 2.0) == pytest.approx((2 + 1) / 2)
    assert probe.factor(1.0, 2.0, cpus=[0]) == pytest.approx(2)
    # nothing inside the interval: every sample of the CPU so far
    assert probe.factor(3.0, 4.0, cpus=[0]) == pytest.approx(5 / 3)


def test_speed_probe_samples_each_cpu():
    cpus = sorted(os.sched_getaffinity(0))[:2]
    with speed.SpeedProbe(cpus) as probe:
        time.sleep(0.2)
    assert {cpu for _, cpu, _ in probe._samples} == set(cpus)
    assert 0.1 < probe.factor(0.0, float("inf")) < 10


@pytest.fixture(scope="module")
def c17_payload():
    workload = Workload("c17-smoke", ("c17",), "campaign")
    return workload, workload.run(0)


def test_output_check_accepts_reference_and_rejects_perturbed(c17_payload):
    workload, payloads = c17_payload
    refs = {"c17-smoke": {"0": [digest(p) for p in payloads]}}
    assert workload.check(0, payloads, refs) == [None]
    perturbed = copy.deepcopy(payloads)
    perturbed[0]["strategies"][0]["vectors"][0] ^= 1
    [problem] = workload.check(0, perturbed, refs)
    assert "digest differs" in problem


def test_consistency_check_rejects_perturbed_score(c17_payload):
    workload, payloads = c17_payload
    config = workload.config(0)
    assert check_circuit("c17", payloads[0], config) is None
    perturbed = copy.deepcopy(payloads[0])
    perturbed["strategies"][0]["ms_pct"] += 1.0
    assert "MS%" in check_circuit("c17", perturbed, config)


def test_runner_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign-c432",
         "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_code():
    from workloads import WORKLOADS

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "setup_s", "peak_rss_mb"
    ]
