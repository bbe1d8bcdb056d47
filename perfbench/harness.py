"""The benchmark workloads and the loop that measures them.

Every workload builds its inputs from the seed alone, warms up, then runs
operations until the busy time reaches the requested seconds (and at least a
minimum number of operations ran). Each operation's outputs are checked right
after it, outside the timed region; a miss is counted, never raised.

The program is driven only through public names of ``drope.scene``,
``drope.pipeline``, ``drope.attention``, ``drope.kinematics``,
``drope.verification``, ``drope.profiling`` and ``drope.cli``, looked up on
the module objects at call time, so a traced run can rebind them.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import importlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import sys
import tracemalloc
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from spans import LAYER_SPANS, Tracer, install_program_spans

PROGRAM_MODULES = (
    "attention", "cli", "kinematics", "pipeline", "profiling", "rotary", "scene", "verification",
)
SETUP_REPEATS = 9
ORACLE_ATOL = 1e-12   # the tier-1 oracle tolerance
MIB = 2**20
MAX_REPORTED_FAILURES = 10


def load_program(root: Path) -> SimpleNamespace:
    """Import the program's modules afresh from ``root/src``.

    Earlier imports are dropped first, so each set-up pays the program's own
    import cost; numpy stays loaded.
    """
    src = str(root / "src")
    if sys.path[0] != src:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "drope" or m.startswith("drope.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{name: importlib.import_module(f"drope.{name}") for name in PROGRAM_MODULES}
    )


@dataclass
class Outcome:
    """One timed operation: its wall time, latency samples and outputs."""

    seconds: float
    samples: list          # latency samples in seconds (steps, passes or gates)
    work: int              # work items completed (agent-steps, calls, commands)
    parts: dict = field(default_factory=dict)
    output: object = None
    start: float = 0.0     # perf_counter at the call and return of ``run``
    end: float = 0.0


def _median(values) -> float:
    return float(statistics.median(values))


class Calibration:
    """Times a fixed computation that never touches the program.

    The benchmark shares its machine, whose speed drifts by tens of percent
    over minutes. Sampled between pieces of timed work (never inside them),
    the calibration measures how slow the machine runs, and end-to-end times
    are reported divided by that slowdown: wall time at the reference speed.
    The gated times are divided by the slowdown around each operation, as the
    machine switches between a fast and a slow state within seconds; the raw
    wall time is reported beside them.

    Small-array code and large kernels slow down unlike each other, so a
    workload picks the sample it is calibrated by: ``glue``, a tiny attention
    with its numpy glue as in a pipeline step, or ``kernel``, one 128-token
    attention block.
    """

    #: about the fast-state median sample on a 2-vCPU x86-64 machine with
    #: numpy 2.4 on one BLAS thread; it only sets the scale of reported times
    REFERENCE_S = {"glue": 0.0045, "kernel": 0.010}
    PERIOD_S = 0.1

    def __init__(self, kind: str):
        self.kind = kind
        rng = np.random.default_rng(0)
        self._tiny = rng.standard_normal((6, 2, 32))
        self._weights = rng.standard_normal((64, 32))
        self._bank = rng.standard_normal((128, 4, 64))
        self.samples: list[float] = []
        self.stamps: list[float] = []    # when each sample ended
        self._last = -float("inf")

    @staticmethod
    def _attend(q, v):
        scores = np.einsum("ihd,jhd->ihj", q, q) * 0.125
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        return np.einsum("ihj,jhd->ihd", e / e.sum(axis=-1, keepdims=True), v)

    def sample(self) -> None:
        start = perf_counter()
        if self.kind == "glue":
            for _ in range(100):
                x = np.asarray(self._tiny, dtype=np.float64)
                bool(np.isfinite(x).all())
                np.tanh(self._attend(x, x).reshape(len(x), -1) @ self._weights)
        else:
            self._attend(self._bank, self._bank)
        self._last = perf_counter()
        self.samples.append(self._last - start)
        self.stamps.append(self._last)

    def maybe_sample(self) -> None:
        if perf_counter() - self._last >= self.PERIOD_S:
            self.sample()

    def slowdown(self) -> float:
        """Median sample over the reference: above 1 when the machine is slow."""
        return _median(self.samples) / self.REFERENCE_S[self.kind]

    def local_slowdown(self, start: float, end: float) -> float:
        """The mean slowdown from the last sample before ``start`` to the
        first after ``end``, those two included. A mean, not a median: an
        operation that spans a change of state runs partly in each."""
        first = max(bisect.bisect_right(self.stamps, start) - 1, 0)
        last = bisect.bisect_left(self.stamps, end) + 1
        return statistics.fmean(self.samples[first:last]) / self.REFERENCE_S[self.kind]


def _seeds(seed: int, salt: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(2**31, size=n)]


# --------------------------------------------------------------------------
# rollouts


class _StampedPolicy:
    """Marks each closed-loop step boundary, calibrating there when due.

    Each stamp is (arrived, resumed): the previous step ends on arrival and
    the next starts on resuming, so calibration time falls in neither.
    """

    def __init__(self, policy, stamps: list, cal: Calibration):
        self.policy = policy
        self.stamps = stamps
        self.cal = cal

    def actions(self, scene):
        arrived = perf_counter()
        self.cal.maybe_sample()
        self.stamps.append((arrived, perf_counter()))
        return self.policy.actions(scene)


class _Workload:
    """A workload: ``build`` inputs from a seed, ``warm``, then ``run`` and
    ``check`` operations by index."""

    op_size = 1      # checked parts per operation; None when it varies per state
    calibration = "glue"

    def __init__(self, root: Path):
        self.root = root

    def digest(self, outcomes, cfg) -> str | None:
        return None

    def op_seconds(self, outcomes, cfg) -> list[tuple]:
        """Samples of the operation time that ``op_ms_p50`` takes the median
        of, each as (seconds, start, end)."""
        return [(o.seconds, o.start, o.end) for o in outcomes if o is not None]


class _Rollouts(_Workload):
    """Closed-loop rollouts; one operation is one rollout."""

    def run(self, mods, state, index: int, cal: Calibration) -> Outcome:
        scene, config, weights, policy_seed = state.op_inputs(index)
        stamps: list[tuple] = []
        policy = _StampedPolicy(
            mods.pipeline.PipelinePolicy(weights, config, mode=state.mode, seed=policy_seed),
            stamps, cal,
        )
        start = perf_counter()
        result = mods.pipeline.rollout(scene, policy, state.horizon)
        end = perf_counter()
        ends = [arrived for arrived, _ in stamps[1:]] + [end]
        steps = [stop - resumed for (_, resumed), stop in zip(stamps, ends)]
        paused = sum(resumed - arrived for arrived, resumed in stamps)
        return Outcome(end - start - paused, steps, scene.n_agents * state.horizon,
                       output=(scene, config, result))

    def check(self, mods, state, index: int, outcome: Outcome) -> list[str]:
        scene, config, result = outcome.output
        initial = [scene.state(i, scene.n_steps - 1) for i in range(scene.n_agents)]
        replayed = mods.pipeline.replay_actions(initial, result.actions, scene.dt)
        errors = []
        if not np.all(np.isfinite(result.states)):
            errors.append(f"rollout {index}: non-finite state")
        elif not np.array_equal(replayed, result.states):
            errors.append(f"rollout {index}: replay_actions does not reproduce the states")
        lookup = {
            (a.accel, a.yaw_rate): i
            for i, a in enumerate(map(config.grid.action, range(config.n_actions)))
        }
        outcome.parts["action_indices"] = [
            [lookup[(a.accel, a.yaw_rate)] for a in agent] for agent in result.actions
        ]
        return errors

    def metrics(self, outcomes, cfg) -> dict:
        steps = [s for o in outcomes for s in o.samples]
        p95 = float(np.percentile(steps, 95))
        return {
            "step_ms_p50": (1e3 * _median(steps), "ms"),
            "step_ms_p95": (1e3 * p95, "ms"),
            "step_samples": (len(steps), "count"),
            "steps_beyond_p95": (sum(s > p95 for s in steps), "count"),
            "agent_steps_per_s": (
                sum(o.work for o in outcomes) / sum(o.seconds for o in outcomes), "1/s"
            ),
            "rollouts": (len(outcomes), "count"),
        }

    def op_seconds(self, outcomes, cfg) -> list[tuple]:
        """Mean step time over each full cycle through the workload's inputs.

        A median over single steps jumps between the clusters that different
        agent counts, variants and history lengths form; each cycle holds the
        same mix, so these samples are alike.
        """
        n = cfg["cycle"]
        samples = []
        for start in range(0, len(outcomes) - n + 1, n):
            group = outcomes[start:start + n]
            if None not in group:
                mean = sum(o.seconds for o in group) / sum(len(o.samples) for o in group)
                samples.append((mean, group[0].start, group[-1].end))
        # with a failure in every cycle, fall back to single rollouts
        return samples or [(o.seconds / len(o.samples), o.start, o.end)
                           for o in outcomes if o is not None]

    def digest(self, outcomes, cfg) -> str:
        """Hash of the action-index sequences of the first min_ops rollouts."""
        digest = hashlib.sha256()
        for outcome in outcomes[: cfg["min_ops"]]:
            digest.update(json.dumps(outcome.parts["action_indices"]).encode())
        return digest.hexdigest()[:16]


class RolloutLong(_Rollouts):
    name = "rollout-long"
    sizes = {
        "full": {"variant": "drope-hbh", "n_agents": 8, "prefix": 8, "horizon": 64,
                 "mode": "sample", "scenes": 2, "samples_per_scene": 2, "cycle": 1,
                 "min_ops": 4, "traced_ops": 1},
        "smoke": {"variant": "drope-hbh", "n_agents": 3, "prefix": 2, "horizon": 3,
                  "mode": "sample", "scenes": 1, "samples_per_scene": 2, "cycle": 1,
                  "min_ops": 2, "traced_ops": 1},
    }

    def build(self, mods, seed: int, cfg: dict):
        p = mods.pipeline
        config = p.PipelineConfig(variant=mods.attention.Variant.from_string(cfg["variant"]))
        weight_seed, *scene_seeds = _seeds(seed, 1, 1 + cfg["scenes"])
        weights = p.PipelineWeights.seeded(config, seed=weight_seed)
        scenes = [
            mods.scene.make_scene(seed=s, n_agents=cfg["n_agents"], n_steps=cfg["prefix"])
            for s in scene_seeds
        ]
        per_scene = cfg["samples_per_scene"]
        policy_seeds = _seeds(seed, 2, len(scenes) * per_scene)

        def op_inputs(index):
            pair = index % len(policy_seeds)
            return scenes[pair // per_scene], config, weights, policy_seeds[pair]

        return SimpleNamespace(op_inputs=op_inputs, mode=cfg["mode"], horizon=cfg["horizon"])

    def warm(self, mods, state) -> None:
        scene, config, weights, policy_seed = state.op_inputs(0)
        policy = mods.pipeline.PipelinePolicy(weights, config, mode=state.mode, seed=policy_seed)
        mods.pipeline.rollout(scene, policy, 2)


class RolloutShort(_Rollouts):
    name = "rollout-short"
    sizes = {
        # agent counts cycle through 2..8 and variants through all five, so
        # every (agents, variant) pair recurs every 35 rollouts
        "full": {"n_agents": list(range(2, 9)), "prefix": 2, "horizon": 4, "mode": "greedy",
                 "scenes": 35, "cycle": 35, "min_ops": 50, "traced_ops": 35},
        "smoke": {"n_agents": [2, 3], "prefix": 2, "horizon": 2, "mode": "greedy",
                  "scenes": 5, "cycle": 5, "min_ops": 5, "traced_ops": 5},
    }

    def build(self, mods, seed: int, cfg: dict):
        p, variants = mods.pipeline, list(mods.attention.Variant)
        weight_seeds = _seeds(seed, 3, len(variants))
        models = []
        for variant, weight_seed in zip(variants, weight_seeds):
            config = p.PipelineConfig(variant=variant)
            models.append((config, p.PipelineWeights.seeded(config, seed=weight_seed)))
        agents = cfg["n_agents"]
        scenes = [
            mods.scene.make_scene(seed=s, n_agents=agents[j % len(agents)],
                                  n_steps=cfg["prefix"])
            for j, s in enumerate(_seeds(seed, 4, cfg["scenes"]))
        ]

        def op_inputs(index):
            j = index % len(scenes)
            config, weights = models[j % len(models)]
            return scenes[j], config, weights, 0

        return SimpleNamespace(op_inputs=op_inputs, mode=cfg["mode"], horizon=cfg["horizon"])

    def warm(self, mods, state) -> None:
        for index in range(5):
            scene, config, weights, _ = state.op_inputs(index)
            mods.pipeline.rollout(scene, mods.pipeline.PipelinePolicy(weights, config), 1)


# --------------------------------------------------------------------------
# large-N attention


@dataclass(frozen=True)
class _Call:
    kind: str       # mhsa, mhca or mhsa_causal
    variant: str
    n_q: int
    n_kv: int

    @property
    def key(self) -> str:
        if self.kind == "mhsa":
            return f"attention.{self.variant}.n{self.n_q}"
        if self.kind == "mhca":
            return f"attention.mhca.{self.variant}.n{self.n_q}x{self.n_kv}"
        return f"attention.mhsa_causal.n{self.n_q}"


def _oracles(root: Path):
    spec = importlib.util.spec_from_file_location("drope_bench_oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class AttentionLarge(_Workload):
    name = "attention-large"
    op_size = None    # one attention call per entry of the call list
    calibration = "kernel"   # kernel-bound: a large attention block tracks it
    sizes = {
        "full": {"n_heads": 4, "d_k": 32, "d_v": 64, "n_tokens": [256, 1024], "rpe_max_n": 256,
                 "mhca": [1024, 256], "causal_n": 1024, "oracle_rows": 2,
                 "min_ops": 3, "traced_ops": 1},
        "smoke": {"n_heads": 2, "d_k": 4, "d_v": 4, "n_tokens": [8, 16], "rpe_max_n": 8,
                  "mhca": [16, 8], "causal_n": 16, "oracle_rows": 2,
                  "min_ops": 1, "traced_ops": 1},
    }

    def __init__(self, root: Path):
        super().__init__(root)
        self.reference = None    # first pass outputs, checked against the oracle

    @staticmethod
    def calls(cfg: dict) -> list[_Call]:
        calls = [
            _Call("mhsa", variant, n, n)
            for n in cfg["n_tokens"]
            for variant in ("plain", "rpe", "rope", "drope-hbh", "drope-ih")
            if variant != "rpe" or n <= cfg["rpe_max_n"]
        ]
        n_q, n_kv = cfg["mhca"]
        calls.append(_Call("mhca", "drope-hbh", n_q, n_kv))
        calls.append(_Call("mhsa_causal", "plain", cfg["causal_n"], cfg["causal_n"]))
        return calls

    def build(self, mods, seed: int, cfg: dict):
        a = mods.attention
        rng = np.random.default_rng([seed, 5])
        calls = self.calls(cfg)
        sizes = sorted({n for call in calls for n in (call.n_q, call.n_kv)})
        h, d_k, d_v = cfg["n_heads"], cfg["d_k"], cfg["d_v"]
        banks = {n: (a.QKVSet.random(n, h, d_k, d_v, rng), a.PoseSet.random(n, rng)) for n in sizes}
        rows = {
            call.key: sorted(int(i) for i in rng.choice(call.n_q, cfg["oracle_rows"], replace=False))
            for call in calls
        }
        return SimpleNamespace(
            calls=calls, banks=banks, rows=rows, dims=(h, d_k, d_v),
            sched=mods.rotary.FrequencySchedule.default(d_k),
            enc=a.RPEEncoders.seeded(d_k, d_v, seed=int(rng.integers(2**31))),
        )

    def _invoke(self, mods, state, call: _Call):
        a = mods.attention
        variant = a.Variant.from_string(call.variant)
        kwargs = {}
        if variant is a.Variant.RPE:
            kwargs["enc"] = state.enc
        elif variant is not a.Variant.PLAIN:
            kwargs["sched"] = state.sched
        qkv, poses = state.banks[call.n_q]
        if call.kind == "mhsa":
            return a.mhsa(qkv, poses, variant, **kwargs)
        if call.kind == "mhca":
            kv, kv_poses = state.banks[call.n_kv]
            return a.mhca(qkv, kv, poses, kv_poses, variant, **kwargs)
        return a.mhsa_causal(qkv)

    def warm(self, mods, state) -> None:
        small = SimpleNamespace(**vars(state))
        h, d_k, d_v = state.dims
        rng = np.random.default_rng(0)
        small.banks = {n: (mods.attention.QKVSet.random(8, h, d_k, d_v, rng),
                           mods.attention.PoseSet.random(8, rng)) for n in state.banks}
        for call in state.calls:
            self._invoke(mods, small, call)

    def run(self, mods, state, index: int, cal: Calibration) -> Outcome:
        times, outputs = {}, {}
        for call in state.calls:
            start = perf_counter()
            out = self._invoke(mods, state, call)
            times[call.key] = perf_counter() - start
            outputs[call.key] = out.merged
            cal.maybe_sample()
        total = sum(times.values())
        return Outcome(total, [total], len(state.calls), parts=times, output=outputs)

    def check(self, mods, state, index: int, outcome: Outcome) -> list[str]:
        """Sampled rows of the first pass against the scalar oracle; later
        passes against the first pass, both at the oracle tolerance."""
        if self.reference is None:
            oracles = _oracles(self.root)
            errors = [self._oracle_check(oracles, state, call, outcome.output[call.key])
                      for call in state.calls]
            self.reference = outcome.output
        else:
            errors = []
            for call in state.calls:
                gap = float(np.max(np.abs(outcome.output[call.key] - self.reference[call.key])))
                errors.append(None if gap <= ORACLE_ATOL else
                              f"pass {index} {call.key}: differs from the first pass by {gap:.2e}")
        outcome.output = None
        return [e for e in errors if e is not None]

    @staticmethod
    def _oracle_check(oracles, state, call: _Call, merged) -> str | None:
        qkv, poses = state.banks[call.n_q]
        kv, kv_poses = state.banks[call.n_kv]
        split = None
        if call.variant == "drope-ih":
            split = (qkv.d_k, qkv.d_k)   # the balanced split the engine defaults to
        worst = 0.0
        for row in state.rows[call.key]:
            keys = slice(None) if call.kind != "mhsa_causal" else slice(0, row + 1)
            _, expected = oracles.ref_attention(
                call.variant, qkv.q[row:row + 1], kv.k[keys], kv.v[keys],
                poses.positions[row:row + 1], poses.headings[row:row + 1],
                kv_poses.positions[keys], kv_poses.headings[keys],
                enc=state.enc, split=split,
            )
            worst = max(worst, float(np.max(np.abs(expected[0] - merged[row]))))
        if worst <= ORACLE_ATOL:
            return None
        return f"{call.key}: oracle rows differ by {worst:.2e}"

    def metrics(self, outcomes, cfg) -> dict:
        return {
            "attn_pass_s": (_median([o.seconds for o in outcomes]), "s"),
            "passes": (len(outcomes), "count"),
        }

    def kernel_metrics(self, mods, state, outcomes) -> dict:
        """Per call: median time, tracemalloc peak beside the ledger, computed
        score bytes and computed GFLOP/s."""
        prof, a = mods.profiling, mods.attention
        h, d_k, d_v = state.dims
        peaks = {}
        tracemalloc.start()
        try:
            for call in state.calls:
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                self._invoke(mods, state, call)
                peaks[call.key] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        out = {}
        for call in state.calls:
            seconds = _median([o.parts[call.key] for o in outcomes])
            variant = a.Variant.from_string(call.variant)
            flops = prof.count_flops(variant, call.n_q, call.n_kv, h, d_k, d_v, full=True).total
            out.update({
                f"{call.key}.ms": (1e3 * seconds, "ms"),
                f"{call.key}.peak_mib": (peaks[call.key] / MIB, "MiB"),
                f"{call.key}.scores_mib": (call.n_q * call.n_kv * h * 8 / MIB, "MiB"),
                f"{call.key}.gflops": (flops / seconds / 1e9, "GFLOP/s"),
            })
            if call.kind != "mhca":   # the ledger covers self-attention only
                ledger = prof.count_input_memory(variant, call.n_q, h, d_k, d_v)
                out[f"{call.key}.ledger_mib"] = (ledger.bytes_fp64 / MIB, "MiB")
        return out


# --------------------------------------------------------------------------
# the CI gate

SMOKE_GRID = {"n_tokens": [4], "n_heads": [2], "d_k": [2], "d_v": [2]}


class ProfileSuite(_Workload):
    """``drope-bench profile`` through ``cli.main``, then ``verify_memory_ledger``
    for every grid point and variant; one operation is one such gate.

    The profile grid holds no random input, so the seed changes nothing here.
    """

    name = "profile-suite"
    op_size = 1       # one profile command per gate
    sizes = {
        "full": {"grid": None, "min_ops": 5, "traced_ops": 1},
        "smoke": {"grid": SMOKE_GRID, "min_ops": 1, "traced_ops": 1},
    }

    def __init__(self, root: Path):
        super().__init__(root)
        self.out = root / ".bench_out" / self.name

    def build(self, mods, seed: int, cfg: dict):
        self.out.mkdir(parents=True, exist_ok=True)
        profile_args = ["profile"]
        grid = cfg["grid"] or mods.cli.DEFAULT_PROFILE_GRID
        if cfg["grid"] is not None:
            config_path = self.out / "profile_config.json"
            config_path.write_text(json.dumps({"grid": grid}))
            profile_args += ["--config", str(config_path)]
        points = [
            (n, h, d_k, d_v)
            for n in grid["n_tokens"] for h in grid["n_heads"]
            for d_k in grid["d_k"] for d_v in grid["d_v"]
        ]
        return SimpleNamespace(
            profile_args=profile_args + ["--out", str(self.out / "profile")],
            points=points,
        )

    def warm(self, mods, state) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            mods.cli.main(state.profile_args)

    def _profile(self, mods, state):
        """Time one profile command and the ledger checks that follow it."""
        start = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            profile_code = mods.cli.main(state.profile_args)
        ledger_error = None
        try:
            for variant in mods.attention.Variant:
                for point in state.points:
                    mods.profiling.verify_memory_ledger(variant, *point)
        except Exception as exc:   # any raise is a miss, counted below
            ledger_error = f"{type(exc).__name__}: {exc}"
        return perf_counter() - start, (profile_code, ledger_error)

    def run(self, mods, state, index: int, cal: Calibration) -> Outcome:
        profile_s, output = self._profile(mods, state)
        cal.maybe_sample()
        return Outcome(profile_s, [profile_s], 1, parts={"profile": profile_s}, output=output)

    def _check_profile(self, mods, state, index: int, output) -> list[str]:
        profile_code, ledger_error = output
        report_path = self.out / "profile" / "profile_report.json"
        report = json.loads(report_path.read_text()) if report_path.is_file() else {}
        rows = len(report.get("rows", []))
        expected = len(state.points) * len(mods.attention.Variant)
        if profile_code != 0 or ledger_error is not None or rows != expected:
            return [f"gate {index}: profile exit {profile_code}, {rows} of {expected} rows, "
                    f"ledger: {ledger_error}"]
        return []

    def check(self, mods, state, index: int, outcome: Outcome) -> list[str]:
        return self._check_profile(mods, state, index, outcome.output)

    def metrics(self, outcomes, cfg) -> dict:
        return {
            "profile_s": (_median([o.parts["profile"] for o in outcomes]), "s"),
            "gates": (len(outcomes), "count"),
        }


class VerifySuite(ProfileSuite):
    """The profile gate after ``drope-bench verify`` with a distinct seed each
    time, at the default 1,000 trials.

    Not in BENCHMARK.json: ``verify`` fails on a few percent of seeds (see
    README.md), and a gated workload must fail nothing. It stays runnable by
    name and in the all-workload run, where those failures show.
    """

    name = "verify-suite"
    op_size = 2       # one verify and one profile command per gate
    sizes = {
        "full": {"trials": None, "grid": None, "min_ops": 5, "traced_ops": 1},
        "smoke": {"trials": 10, "grid": SMOKE_GRID, "min_ops": 1, "traced_ops": 1},
    }

    def build(self, mods, seed: int, cfg: dict):
        state = super().build(mods, seed, cfg)
        verify_args = ["verify"]
        if cfg["trials"] is not None:
            verify_args += ["--trials", str(cfg["trials"])]
        state.verify_args = verify_args + ["--out", str(self.out / "verify")]
        state.seeds = _seeds(seed, 6, 1000)
        return state

    def warm(self, mods, state) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            mods.cli.main(["verify", "--trials", "10", "--out", str(self.out / "verify")])
        super().warm(mods, state)

    def run(self, mods, state, index: int, cal: Calibration) -> Outcome:
        seed = str(state.seeds[index % len(state.seeds)])
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            verify_code = mods.cli.main(state.verify_args + ["--seed", seed])
            verify_s = perf_counter() - start
        cal.maybe_sample()
        profile_s, output = self._profile(mods, state)
        cal.maybe_sample()
        return Outcome(verify_s + profile_s, [verify_s + profile_s], 2,
                       parts={"verify": verify_s, "profile": profile_s},
                       output=(verify_code, output))

    def check(self, mods, state, index: int, outcome: Outcome) -> list[str]:
        verify_code, output = outcome.output
        errors = []
        report_path = self.out / "verify" / "verify_report.json"
        report = json.loads(report_path.read_text()) if report_path.is_file() else {}
        if verify_code != 0 or report.get("all_passed") is not True:
            failing = [
                f"{prop['name']} max_error={prop['max_error']:.3e} tolerance={prop['tolerance']:.1e}"
                for prop in report.get("properties", []) if not prop["passed"]
            ]
            errors.append(f"gate {index} seed {report.get('seed')}: verify exit {verify_code}, "
                          f"failing: {', '.join(failing) or 'no report'}")
        return errors + self._check_profile(mods, state, index, output)

    def metrics(self, outcomes, cfg) -> dict:
        return {"verify_s": (_median([o.parts["verify"] for o in outcomes]), "s"),
                **super().metrics(outcomes, cfg)}


WORKLOADS = {w.name: w for w in (RolloutLong, RolloutShort, AttentionLarge, ProfileSuite,
                                 VerifySuite)}


# --------------------------------------------------------------------------
# measurement


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def environment_record(root: Path) -> dict:
    blas = {}
    with contextlib.suppress(TypeError, KeyError):   # older numpy has no dict mode
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": _git_sha(root),
    }


def _op_size(workload, state) -> int:
    return workload.op_size or len(state.calls)


def _run_op(workload, mods, state, index, cal, failures):
    start = perf_counter()
    try:
        outcome = workload.run(mods, state, index, cal)
    except Exception as exc:   # a raising operation is a miss, never an abort
        failures.append(f"op {index}: {type(exc).__name__}: {exc}")
        return None
    outcome.start, outcome.end = start, perf_counter()
    return outcome


def _check_op(workload, mods, state, index, outcome, failures) -> int:
    """Check one operation's outputs; returns how many of its parts failed."""
    if outcome is None:
        return _op_size(workload, state)
    errors = workload.check(mods, state, index, outcome)
    failures.extend(errors)
    return min(len(errors), _op_size(workload, state))


def _trace_overhead(traced, traced_cal, untraced, cal) -> float:
    """Traced time of the replayed operations against their untraced time.

    Operation inputs repeat with the period of the traced replay, so each
    traced operation is set against the median untraced time of the
    operations that share its inputs. Both sides are at the reference speed.
    """
    period = len(traced)
    traced_s = untraced_s = 0.0
    for i, outcome in enumerate(traced):
        same = [o.seconds for j, o in enumerate(untraced) if j % period == i and o is not None]
        if outcome is not None and same:
            traced_s += outcome.seconds
            untraced_s += _median(same)
    return (traced_s / traced_cal.slowdown()) / (untraced_s / cal.slowdown()) - 1.0


def _at_reference_speed(metrics: dict, slowdown: float) -> dict:
    scale = {"s": 1 / slowdown, "ms": 1 / slowdown, "1/s": slowdown}
    return {name: (value * scale.get(unit, 1), unit) for name, (value, unit) in metrics.items()}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full") -> dict:
    """Measure one workload; returns end-to-end and (when traced) layer metrics."""
    warnings.filterwarnings("ignore", message=".*soft limit.*")
    workload = WORKLOADS[name](root)
    cfg = workload.sizes[size]

    # each set-up is normalized by the machine's speed just before and after it
    setup_cal = Calibration(workload.calibration)
    setups, setups_at_reference = [], []
    setup_cal.sample()
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        mods = load_program(root)
        state = workload.build(mods, seed, cfg)
        workload.warm(mods, state)
        end = perf_counter()
        setup_cal.sample()
        setups.append(end - start)
        setups_at_reference.append(setups[-1] / setup_cal.local_slowdown(start, end))

    cal = Calibration(workload.calibration)
    cal.sample()
    outcomes, failures = [], []
    attempted = failed = 0
    busy = 0.0
    index = 0
    while index < cfg["min_ops"] or busy < seconds:
        start = perf_counter()
        outcome = _run_op(workload, mods, state, index, cal, failures)
        busy += perf_counter() - start if outcome is None else outcome.seconds
        attempted += _op_size(workload, state)
        failed += _check_op(workload, mods, state, index, outcome, failures)
        outcomes.append(outcome)
        cal.maybe_sample()
        index += 1
    done = [o for o in outcomes if o is not None]
    if not done:
        raise RuntimeError(f"every operation of {name} failed: {failures[:3]}")

    op_samples = workload.op_seconds(outcomes, cfg)
    e2e = {
        "setup_s": (_median(setups_at_reference), "s"),
        "op_ms_p50": (1e3 * _median([s / cal.local_slowdown(a, b) for s, a, b in op_samples]),
                      "ms"),
        "work_per_s": (sum(o.work for o in done)
                       / sum(o.seconds / cal.local_slowdown(o.start, o.end) for o in done),
                       "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "failed_frac": (failed / attempted, "ratio"),
        **_at_reference_speed(workload.metrics(done, cfg), cal.slowdown()),
    }
    e2e["setup_s_wall"] = (_median(setups), "s")
    e2e["op_ms_p50_wall"] = (1e3 * _median([s for s, _, _ in op_samples]), "ms")
    e2e["machine_slowdown"] = (cal.slowdown(), "ratio")

    layers, spans = {}, None
    if trace:
        tracer = Tracer()
        install_program_spans(tracer, mods)
        traced, traced_cal = [], Calibration(workload.calibration)
        traced_cal.sample()
        try:
            with tracer.span("bench.setup"):
                traced_state = workload.build(mods, seed, cfg)
            for index in range(cfg["traced_ops"]):
                with tracer.span("bench.op"):
                    traced.append(
                        _run_op(workload, mods, traced_state, index, traced_cal, failures))
        finally:
            tracer.uninstall()
        for index, outcome in enumerate(traced):
            attempted += _op_size(workload, traced_state)
            failed += _check_op(workload, mods, traced_state, index, outcome, failures)
        summary = tracer.summary()
        for layer in LAYER_SPANS:
            entry = summary.get(layer, {"calls": 0, "self_ms": 0.0})
            layers[f"{layer}.calls"] = (entry["calls"], "count")
            layers[f"{layer}.self_ms"] = (entry["self_ms"], "ms")
        layers["pipeline.agent_tokens_encoded"] = (
            tracer.counters["pipeline.agent_tokens_encoded"], "count")
        layers["trace_overhead_frac"] = (
            _trace_overhead(traced, traced_cal, outcomes, cal), "ratio")
        if isinstance(workload, AttentionLarge):
            layers.update(workload.kernel_metrics(mods, state, done))
        spans = {"absent_layers": tracer.absent, "summary": summary,
                 "spans": tracer.span_records()}
        e2e["failed_frac"] = (failed / attempted, "ratio")

    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "size": size,
        "config": cfg,
        "environment": environment_record(root),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:MAX_REPORTED_FAILURES],
        "setup_runs_s": setups,
        "end_to_end": e2e,
        "layers": layers,
        "action_digest": workload.digest(done, cfg),
        "trace": spans,
    }
