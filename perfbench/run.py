"""Benchmark of the drope reproduction: closed-loop rollouts, large-N attention
and the verify gate, end to end and per layer.

    python3 perfbench/run.py --workload rollout-long --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1            # all five workloads, traced too

Run it from any directory; it builds nothing and imports the program from
``src/`` beside this directory. For one workload the last line of standard
output is a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics named in BENCHMARK.json with
``--trace 0``, its per-layer metrics with ``--trace 1``. The lines above it
print every metric the workload measured, by name and unit, and the full
result (environment, config, failures and, when traced, every span) is
written under ``.bench_out/<workload>/``.

A per-layer metric of a layer the workload never calls reads 0. End-to-end
metrics are measured with tracing off; a traced run then replays the first
few operations with the program's public names rebound to timing wrappers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# run order of the all-workload mode: peak RSS only grows within a process,
# so the largest footprint goes last
ALL_ORDER = (
    "rollout-short", "rollout-long", "profile-suite", "verify-suite", "attention-large",
)


def _select(result: dict, specs: list, traced: bool) -> dict:
    """The metrics BENCHMARK.json names, with the units it gives them."""
    measured = result["layers"] if traced else result["end_to_end"]
    out = {}
    for spec in specs:
        value, unit = measured.get(spec["name"], (0, spec["unit"]))
        if unit != spec["unit"] or (not traced and spec["name"] not in measured):
            raise RuntimeError(f"{result['workload']} does not measure {spec['name']} "
                               f"in {spec['unit']}")
        out[spec["name"]] = {"value": value, "unit": unit}
    return out


def _print_result(result: dict) -> None:
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['attempted']} operations, {result['failed']} failed")
    print("environment " + json.dumps(result["environment"]))
    print("config " + json.dumps(result["config"]))
    if result["action_digest"] is not None:
        print(f"action digest {result['action_digest']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for title, metrics in (("end to end", result["end_to_end"]), ("per layer", result["layers"])):
        if metrics:
            print(f"-- {title}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<48} {value:>16.6g} {unit}")
    if any(name.endswith(".scores_mib") for name in result["layers"]):
        print("computed from array sizes and FLOP counts, not measured: "
              "*.ledger_mib, *.scores_mib, *.gflops")
    if result["trace"] and result["trace"]["absent_layers"]:
        print("absent layers: " + ", ".join(result["trace"]["absent_layers"]))


def _write_result(result: dict) -> None:
    out = ROOT / ".bench_out" / result["workload"]
    out.mkdir(parents=True, exist_ok=True)
    trace = result.pop("trace")
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    if trace is not None:
        (out / "trace.json").write_text(json.dumps(trace) + "\n")


def main(argv=None) -> int:
    # BLAS reads its thread count once, when numpy loads. One thread: on a
    # shared 2-vCPU machine a second, spinning BLAS thread made small-matrix
    # timings both slower and less steady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if not (ROOT / "src" / "drope" / "__init__.py").is_file():
        print("error: the program's source src/drope is not beside perfbench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import harness

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(harness.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="per-layer run (default: 0 for one workload, 1 for all)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    traced = bool(args.trace if args.trace is not None else args.workload == "all")
    specs = spec["per_layer"] if traced else spec["end_to_end"]

    names = ALL_ORDER if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    selected = {}
    for name in names:
        result = harness.run_workload(ROOT, name, args.seed, args.seconds, traced)
        _print_result(result)
        attempted += result["attempted"]
        failed += result["failed"]
        metrics = _select(result, specs, traced)
        selected.update(
            metrics if len(names) == 1 else {f"{name}.{k}": v for k, v in metrics.items()}
        )
        _write_result(result)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": selected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
