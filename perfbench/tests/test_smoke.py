"""Smoke tests of the benchmark: each workload at minimal size.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
from spans import LAYER_SPANS, Tracer, install_program_spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", list(harness.WORKLOADS))
def test_workload_runs_validates_and_fails_nothing(name):
    result = harness.run_workload(ROOT, name, seed=3, seconds=0.0, trace=True, size="smoke")
    assert result["failed"] == 0, result["failures"]
    assert result["attempted"] >= 1
    assert result["end_to_end"]["failed_frac"] == (0.0, "ratio")
    for spec in SPEC["end_to_end"]:
        value, unit = result["end_to_end"][spec["name"]]
        assert unit == spec["unit"]
        assert math.isfinite(value) and value > 0
    units = {spec["name"]: spec["unit"] for spec in SPEC["per_layer"]}
    for metric, (value, unit) in result["layers"].items():
        assert math.isfinite(value)
        assert units.get(metric, unit) == unit
    trace = result["trace"]
    assert trace["absent_layers"] == []
    for index, span in enumerate(trace["spans"]):
        assert span["start_ns"] <= span["end_ns"]
        assert -1 <= span["parent"] < index
    json.dumps(result)


def test_benchmark_names_are_measured_at_full_size():
    measured = {f"{layer}.{kind}" for layer in LAYER_SPANS for kind in ("calls", "self_ms")}
    measured |= {"pipeline.agent_tokens_encoded", "trace_overhead_frac"}
    for call in harness.AttentionLarge.calls(harness.AttentionLarge.sizes["full"]):
        measured |= {f"{call.key}.{kind}"
                     for kind in ("ms", "peak_mib", "ledger_mib", "scores_mib", "gflops")}
    assert {spec["name"] for spec in SPEC["per_layer"]} <= measured


def test_traced_rollout_counts_are_exact():
    mods = harness.load_program(ROOT)
    p = mods.pipeline
    original = p.mhsa
    config = p.PipelineConfig()
    weights = p.PipelineWeights.seeded(config, seed=0)
    scene = mods.scene.make_scene(seed=0, n_agents=8, n_steps=8)
    tracer = Tracer()
    install_program_spans(tracer, mods)
    try:
        p.rollout(scene, p.PipelinePolicy(weights, config), 16)
    finally:
        tracer.uninstall()
    assert p.mhsa is original
    summary = tracer.summary()
    calls = {name: entry["calls"] for name, entry in summary.items()}
    assert calls["attention.mhsa"] == 528
    assert calls["attention.mhca"] == 496
    assert calls["attention.mhsa_causal"] == 128
    assert calls["rotary.rotate_pairs"] == 2048
    assert calls["rotary.FrequencySchedule.default"] == 1024
    # two blocks per step, each fed every agent at every timestep so far
    assert tracer.counters["pipeline.agent_tokens_encoded"] == 2 * 8 * sum(range(8, 24))
    assert all(entry["self_ms"] >= 0.0 for entry in summary.values())


def test_missing_public_name_is_reported_absent():
    tracer = Tracer()
    tracer.install(SimpleNamespace(), "attend", "attention.attend")
    assert tracer.absent == ["attention.attend"]
    assert tracer.summary() == {}


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rollout-short",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
