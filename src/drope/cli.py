"""Command-line harness: ``drope-bench verify | profile | rollout``.

Runs are deterministic for a fixed config file, flag set, and seed; JSON
reports carry a ``generated_at`` header that consumers should drop before
comparing. Exit codes: 0 all checks passed, 1 a numerical property was
violated, 2 usage, config, or I/O error, an arithmetic overflow or invalid
operation on the given inputs, or sizes that do not fit in memory.
"""

from __future__ import annotations

import argparse
import datetime
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from .attention import Variant
from .errors import ConfigurationError, DropeError, VerificationError
from .kinematics import ZERO_ACTION, min_ade
from .pipeline import (
    ConstantActionPolicy,
    PipelineConfig,
    PipelinePolicy,
    PipelineWeights,
    rollout_samples,
    write_trajectory_csv,
)
from .profiling import (
    WIDTH_CONVENTION,
    check_sweep_trends,
    sweep,
    write_sweep_csv,
)
from .scene import _read_json, load_scene, make_constant_velocity_scene, make_scene
from .verification import (
    FAULT_ROPE_FREQS_IN_FANGLE,
    VerificationConfig,
    run_verification,
)

USAGE_EXIT = 2
VIOLATION_EXIT = 1

DEFAULT_PROFILE_GRID = {
    "n_tokens": [16, 32, 64],
    "n_heads": [4],
    "d_k": [32, 64, 128],
    "d_v": [64],
}


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    config = _read_json(path, "config file")
    if not isinstance(config, dict):
        raise ConfigurationError("the config file must hold a JSON object")
    return config


def _is_int(value) -> bool:
    """An integer a signed 64-bit reader of the reports can hold."""
    return isinstance(value, int) and not isinstance(value, bool) and -2**63 <= value < 2**63


#: Config value kinds: a description for messages and a predicate.
_INT = ("a 64-bit integer", _is_int)
_SEED = ("a non-negative 64-bit integer", lambda v: _is_int(v) and v >= 0)
_NUMBER = ("a number", lambda v: _is_int(v) or isinstance(v, float))
_STRING = ("a string", lambda v: isinstance(v, str))
_OBJECT = ("a JSON object", lambda v: isinstance(v, dict))
_SIZE_LIST = ("a non-empty list of positive 64-bit integers",
              lambda v: isinstance(v, list) and len(v) > 0
              and all(_is_int(item) and item > 0 for item in v))
_STRING_LIST = ("a list of strings",
                lambda v: isinstance(v, list) and all(isinstance(item, str) for item in v))
_POLICY = ("'pipeline' or 'constant'", lambda v: v in ("pipeline", "constant"))
_MODE = ("'greedy' or 'sample'", lambda v: v in ("greedy", "sample"))


def _setting(config: dict, key: str, kind, default, flag=None):
    """The flag if given, else ``config[key]``, else ``default``; a flag or
    config value of the wrong kind is a ``ConfigurationError``."""
    if flag is None and key not in config:
        return default
    value = config[key] if flag is None else flag
    description, accepts = kind
    if not accepts(value):
        raise ConfigurationError(f"{key!r} must be {description}, got {value!r}")
    return value


def _out_dir(args, command: str) -> Path:
    """The output directory, checked before a command's work (no NUL byte, its
    nearest existing ancestor a directory); the command makes it after the work."""
    out = Path(args.out if args.out is not None else f"{command}-out")
    if "\0" in str(out):
        raise ConfigurationError(f"output directory {str(out)!r} cannot be made: "
                                 "it holds a NUL byte")
    existing = next((path for path in (out, *out.parents) if path.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigurationError(f"output directory {str(out)!r} cannot be made: "
                                 f"{str(existing)!r} is not a directory")
    return out


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _given(config: dict, kinds: dict, flags: dict) -> dict:
    """The settings among ``kinds`` (key to kind) that a flag or the config
    gives; the library defaults the others."""
    settings = {key: _setting(config, key, kind, None, flags.get(key))
                for key, kind in kinds.items()}
    return {key: value for key, value in settings.items() if value is not None}


def cmd_verify(args) -> int:
    config = _load_config(args.config)
    fault = _setting(config, "fault_inject", _STRING, None, args.fault_inject)
    cfg = VerificationConfig(
        fault_injection=fault,
        **_given(config, {"seed": _SEED, "trials": _INT, "d_k_values": _SIZE_LIST},
                 {"seed": args.seed, "trials": args.trials}),
    )
    out = _out_dir(args, "verify")
    results = run_verification(cfg)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(
            f"[{status}] {result.name}: trials={result.trials} "
            f"max_error={result.max_error:.3e} tolerance={result.tolerance:.1e}"
        )
    all_passed = all(result.passed for result in results)
    report = {
        "schema_version": 1,
        "generated_at": _timestamp(),
        "seed": cfg.seed,
        "trials": cfg.trials,
        "fault_injection": fault,
        "properties": [result.as_dict() for result in results],
        "all_passed": all_passed,
    }
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "verify_report.json", report)
    print(f"report written to {out / 'verify_report.json'}")
    return 0 if all_passed else VIOLATION_EXIT


def _grid_points(grid: dict):
    """Every (n_tokens, n_heads, d_k, d_v) point of the grid, the last varying fastest."""
    keys = ("n_tokens", "n_heads", "d_k", "d_v")
    for key in keys:
        if _setting(grid, key, _SIZE_LIST, None) is None:
            raise ConfigurationError(f"profile grid is missing {key!r}")
    return itertools.product(*(grid[key] for key in keys))


def _write_curve_dat(path: Path, rows, value_key: str, axis_label: str) -> None:
    """Gnuplot-style tables: QK width against one column per variant.

    One block per (n_heads, d_v) of the sweep, at its largest token count;
    blocks are separated by two blank lines, so gnuplot's ``index`` picks one.
    """
    variants = sorted({row["variant"] for row in rows})
    blocks = {}
    for row in rows:
        blocks.setdefault((row["n_heads"], row["d_v"]), []).append(row)
    with open(path, "w") as fh:
        for index, ((n_heads, d_v), block) in enumerate(sorted(blocks.items())):
            n_max = max(row["n_tokens"] for row in block)
            lookup = {(row["variant"], 2 * row["d_k"]): row[value_key]
                      for row in block if row["n_tokens"] == n_max}
            fh.write("\n\n" if index else "")
            fh.write(f"# {axis_label} at n_tokens={n_max} n_heads={n_heads} d_v={d_v}\n")
            fh.write("# qk_width " + " ".join(variants) + "\n")
            for width in sorted({width for _, width in lookup}):
                values = " ".join(str(lookup[(variant, width)]) for variant in variants)
                fh.write(f"{width} {values}\n")


def cmd_profile(args) -> int:
    config = _load_config(args.config)
    grid = _setting(config, "grid", _OBJECT, DEFAULT_PROFILE_GRID)
    variant_names = _setting(config, "variants", _STRING_LIST, [v.value for v in Variant],
                             args.variant)
    variants = [Variant.from_string(name) for name in variant_names]
    points = _grid_points(grid)
    out = _out_dir(args, "profile")
    rows = sweep(points, variants)
    try:
        check_sweep_trends(rows)
        trend_error = None
    except VerificationError as exc:
        trend_error = str(exc)
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(rows, out / "memory_flops.csv")
    _write_json(
        out / "profile_report.json",
        {
            "schema_version": 1,
            "generated_at": _timestamp(),
            "width_convention": WIDTH_CONVENTION,
            "trend_check": trend_error or "ok",
            "rows": rows,
        },
    )
    _write_curve_dat(out / "memory_vs_width.dat", rows, "total_scalars_in_place",
                     "input scalars (in-place embedding)")
    _write_curve_dat(out / "flops_vs_width.dat", rows, "flops_total", "total flops")
    print(f"{len(rows)} rows written to {out}")
    if trend_error is not None:
        print(f"trend check failed: {trend_error}", file=sys.stderr)
        return VIOLATION_EXIT
    return 0


def _build_scene(config: dict, seed: int):
    if "scene" in config:
        return load_scene(_setting(config, "scene", _STRING, None))
    synthetic = _setting(config, "synthetic", _OBJECT, {})
    kind = _setting(synthetic, "kind", _STRING, "random")
    kwargs = {
        "seed": _setting(synthetic, "seed", _SEED, seed),
        "n_agents": _setting(synthetic, "n_agents", _INT, 4),
        "n_steps": _setting(synthetic, "n_steps", _INT, 24),
        "dt": _setting(synthetic, "dt", _NUMBER, 0.5),
    }
    if kind == "constant-velocity":
        return make_constant_velocity_scene(**kwargs)
    if kind == "random":
        return make_scene(**kwargs)
    raise ConfigurationError(f"unknown synthetic scene kind {kind!r}")


def cmd_rollout(args) -> int:
    config = _load_config(args.config)
    if args.scene is not None:
        config["scene"] = args.scene
    seed = _setting(config, "seed", _SEED, 0, args.seed)
    horizon = _setting(config, "horizon", _INT, 16, args.horizon)
    samples = _setting(config, "samples", _INT, 1, args.samples)
    policy_name = _setting(config, "policy", _POLICY, "pipeline", args.policy)
    mode = _setting(config, "mode", _MODE, "greedy", args.mode)
    variant = Variant.from_string(_setting(config, "variant", _STRING, "drope-hbh", args.variant))
    if horizon < 1 or samples < 1:
        raise ConfigurationError("horizon and samples must be positive")
    out = _out_dir(args, "rollout")

    scene = _build_scene(config, seed)
    prefix = _setting(config, "prefix_steps", _INT, None, args.prefix)
    if prefix is None:
        prefix = max(scene.n_steps - horizon, 2) if scene.n_steps > 2 else scene.n_steps
    history = scene.prefix(prefix)

    sizes = dict.fromkeys(("d_model", "n_heads", "d_k", "d_v", "n_blocks"), _INT)
    pipe_config = PipelineConfig(variant=variant, **_given(config, sizes, {}))
    weights = PipelineWeights.seeded(pipe_config, seed=seed)

    if policy_name == "constant":
        policy = ConstantActionPolicy(ZERO_ACTION)
    else:
        policy = PipelinePolicy(weights, pipe_config, mode=mode, seed=seed)
    # one batched rollout, its arrays allocated before any output is made
    results = rollout_samples(history, policy, horizon, samples)
    out.mkdir(parents=True, exist_ok=True)
    files = [f"trajectories_{sample:02d}.csv" for sample in range(samples)]
    for filename, result in zip(files, results):
        write_trajectory_csv(out / filename, result)

    ade_per_agent = None
    ade_mean = None
    if scene.n_steps >= prefix + horizon:
        truth = scene.agent_states[:, prefix:prefix + horizon, :2]
        ade_per_agent = [
            min_ade(
                np.stack([result.positions()[agent] for result in results]),
                truth[agent],
            )
            for agent in range(scene.n_agents)
        ]
        ade_mean = float(np.mean(ade_per_agent))
        print(f"min_ade mean over agents: {ade_mean:.6f} m")
    else:
        print("scene holds no ground-truth continuation; skipping min_ade")

    _write_json(
        out / "rollout_report.json",
        {
            "schema_version": 1,
            "generated_at": _timestamp(),
            "seed": seed,
            "samples": samples,
            "horizon_steps": horizon,
            "prefix_steps": prefix,
            "dt": scene.dt,
            "policy": policy_name,
            "variant": variant.value,
            "min_ade_per_agent": ade_per_agent,
            "min_ade_mean": ade_mean,
            "trajectory_files": files,
        },
    )
    print(f"rollout artifacts written to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drope-bench",
        description="verification, complexity profiling, and demo rollouts",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run the numerical property suite")
    profile = sub.add_parser("profile", help="emit memory and FLOP ledgers")
    roll = sub.add_parser("rollout", help="closed-loop rollout on a scene")
    for sp in (verify, profile, roll):
        sp.add_argument("--config", help="JSON config file; flags override it")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--out", help="output directory (default <command>-out)")

    verify.add_argument("--trials", type=int, default=None)
    verify.add_argument(
        "--fault-inject", choices=[FAULT_ROPE_FREQS_IN_FANGLE], default=None,
        help="negative control: multi-frequency schedule inside the heading embedding",
    )
    verify.set_defaults(func=cmd_verify)

    profile.add_argument(
        "--variant", action="append", choices=[v.value for v in Variant],
        help="variant to profile (repeatable; default all)",
    )
    profile.set_defaults(func=cmd_profile)

    roll.add_argument("--scene", help="scene JSON file")
    roll.add_argument("--horizon", type=int, default=None)
    roll.add_argument("--prefix", type=int, default=None)
    roll.add_argument("--samples", type=int, default=None)
    roll.add_argument("--policy", choices=["pipeline", "constant"], default=None)
    roll.add_argument("--mode", choices=["greedy", "sample"], default=None)
    roll.add_argument("--variant", choices=[v.value for v in Variant], default=None)
    roll.set_defaults(func=cmd_rollout)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    try:
        # an overflow or a NaN in any numpy operation ends the command, never a warning
        with np.errstate(over="raise", invalid="raise"):
            return args.func(args)
    except (OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except VerificationError as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return VIOLATION_EXIT
    except DropeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
