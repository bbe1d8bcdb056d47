"""Every workload the benchmark gates runs clean on the program at smoke size.

``perfbench/harness.py`` calls program names that the span tracer does not
rebind (among them ``mhsa_causal``, ``replay_actions``,
``count_input_memory(...).bytes_fp64``, ``PipelineConfig.grid.action`` and
``tests/oracles.ref_attention``), so a refactor that drops one would only
show as a failed benchmark run. Each case runs one workload of
``BENCHMARK.json`` in a subprocess, because ``harness.load_program`` drops
and re-imports the ``drope`` modules, with one BLAS thread as the benchmark
runs it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

RUN = """
import json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "perfbench"))
import harness
result = harness.run_workload(root, sys.argv[2], 3, 0.0, False, "smoke")
print(json.dumps({"failed": result["failed"], "failures": result["failures"],
                  "end_to_end": result["end_to_end"]}))
"""


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_runs_without_failures(workload):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", RUN, str(ROOT), workload], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    for metric in SPEC["end_to_end"]:
        value, unit = result["end_to_end"][metric["name"]]
        assert unit == metric["unit"] and value > 0, (metric["name"], value, unit)
