"""Acceptance suite: one test per criterion, each timed against its budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Every tolerance is asserted exactly as stated; nothing defers to
later calibration.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from drope.attention import (
    RPE_HIDDEN,
    PoseSet,
    QKVSet,
    RPEEncoders,
    Variant,
    attention_backward,
    mhca,
    mhsa,
)
from drope.cli import main
from drope.kinematics import ZERO_ACTION, min_ade
from drope.pipeline import (
    ConstantActionPolicy,
    PipelineConfig,
    PipelinePolicy,
    PipelineWeights,
    replay_actions,
    rollout,
)
from drope.profiling import count_flops, verify_memory_ledger
from drope.rotary import TWO_PI, FrequencySchedule, drope_embed, rope_embed, wrap_angle
from drope.scene import make_constant_velocity_scene, make_scene
from drope.verification import periodicity_gaps

from oracles import fd_gradient, ref_attention
from scene_moves import translated


def report_line(number, name, elapsed, limit, passed=True, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" {detail}" if detail else ""
    print(f"ACCEPTANCE {number:02d} [{status}] {name}: {elapsed:.2f}s "
          f"(limit {limit:.0f}s){suffix}")


def rel_errors(d1, d2):
    return np.abs(d1 - d2) / np.maximum(np.maximum(np.abs(d1), np.abs(d2)), 1e-30)


def test_c01_position_shift_identity():
    """Common-offset shifts leave position-embedded dot products unchanged."""
    start = time.perf_counter()
    worst = 0.0
    trials_per_dk = 250
    for index, d_k in enumerate((1, 2, 8, 32)):
        rng = np.random.default_rng(100 + index)
        sched = FrequencySchedule.default(d_k)
        for _ in range(trials_per_dk):
            q = rng.standard_normal(2 * d_k)
            k = rng.standard_normal(2 * d_k)
            m_i, m_j = rng.uniform(-1000.0, 1000.0, 2)
            offset = rng.uniform(-500.0, 500.0)
            d1 = rope_embed(q, m_i, sched) @ rope_embed(k, m_j, sched)
            d2 = rope_embed(q, m_i + offset, sched) @ rope_embed(k, m_j + offset, sched)
            worst = max(worst, float(rel_errors(np.array(d1), np.array(d2))))
    elapsed = time.perf_counter() - start
    report_line(1, "position shift identity (1000 trials)", elapsed, 5.0,
                detail=f"max_rel_err={worst:.3e}")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_c02_angle_shift_identity():
    """Common heading shifts (with wrapping) leave angle-embedded dots unchanged."""
    start = time.perf_counter()
    worst = 0.0
    trials_per_dk = 250
    for index, d_k in enumerate((1, 2, 8, 32)):
        rng = np.random.default_rng(200 + index)
        for trial in range(trials_per_dk):
            q = rng.standard_normal(2 * d_k)
            k = rng.standard_normal(2 * d_k)
            if trial % 4 == 0:
                # exactly one of the two headings wraps across 2*pi
                theta_i, theta_j, delta = 0.2, 5.9, 1.0
            else:
                theta_i, theta_j = rng.uniform(0.0, TWO_PI, 2)
                delta = rng.uniform(0.0, TWO_PI)
            d1 = drope_embed(q, theta_i) @ drope_embed(k, theta_j)
            d2 = drope_embed(q, wrap_angle(theta_i + delta)) @ drope_embed(
                k, wrap_angle(theta_j + delta)
            )
            worst = max(worst, float(rel_errors(np.array(d1), np.array(d2))))
    elapsed = time.perf_counter() - start
    report_line(2, "angle shift identity (1000 trials, with wraps)", elapsed, 5.0,
                detail=f"max_rel_err={worst:.3e}")
    assert worst < 1e-8
    assert elapsed < 5.0


def test_c03_periodicity_counterexample():
    """Equal wrapped relative angles: multi-frequency gaps, uniform does not."""
    start = time.perf_counter()
    min_rope_gap = np.inf
    max_drope_gap = 0.0
    sched = FrequencySchedule.default(8)
    for seed in range(100):
        rng = np.random.default_rng(seed)
        q, k = rng.standard_normal(16), rng.standard_normal(16)
        rope_lhs, rope_rhs, _ = periodicity_gaps(lambda x, t: rope_embed(x, t, sched), q, k)
        drope_lhs, drope_rhs, _ = periodicity_gaps(drope_embed, q, k)
        min_rope_gap = min(min_rope_gap, abs(rope_lhs - rope_rhs))
        max_drope_gap = max(max_drope_gap, abs(drope_lhs - drope_rhs))
    elapsed = time.perf_counter() - start
    report_line(3, "periodicity counterexample (100 seeds, d_k=8)", elapsed, 2.0,
                detail=f"min_rope_gap={min_rope_gap:.3e} max_drope_gap={max_drope_gap:.3e}")
    assert min_rope_gap > 1e-3
    assert max_drope_gap < 1e-10
    assert elapsed < 2.0


def test_c04_memory_ledger():
    """Closed-form scalar counts equal instrumented allocations exactly."""
    start = time.perf_counter()
    checked = 0
    for variant in Variant:
        heads = (2, 4) if variant is Variant.DROPE_HBH else (1, 2, 4)
        for n in (2, 4, 8, 16, 64):
            for h in heads:
                verify_memory_ledger(variant, n, h, 4, 8)
                checked += 1
    # doubling the token count multiplies the pairwise term by exactly 4
    for n in (2, 4, 8):
        small = verify_memory_ledger(Variant.RPE, n, 2, 4, 8)
        large = verify_memory_ledger(Variant.RPE, 2 * n, 2, 4, 8)
        assert large.pairwise_scalars == 4 * small.pairwise_scalars
    elapsed = time.perf_counter() - start
    report_line(4, "memory ledger measured == predicted", elapsed, 10.0,
                detail=f"{checked} (variant, config) pairs")
    assert elapsed < 10.0


def test_c05_flop_trend():
    """Pairwise-encoder FLOPs exceed the directional variant's by > 2x at every width.

    Under the README FLOP convention both totals are affine in d_k, so their
    ratio (a*d_k + b) / (c*d_k + e) is monotone in d_k and tends to a/c. It
    decreases here, because b*c > a*e: the encoder's fixed per-pair cost
    (the 3->hidden layer, its tanh and the descriptor) raises b, and the
    rotary embedding's 6 FLOPs per pair per bank raise only the head-by-head
    slope c. So the factor is checked where it is smallest, in the limit:
    both totals are exactly affine over the sweep, both slopes equal their
    closed forms, the limiting ratio a/c = 608/67 exceeds 2, and the sampled
    ratios fall strictly while staying above it.
    """
    start = time.perf_counter()
    n, heads, d_v = 64, 4, 64
    widths = (32, 64, 128)
    rpe = [count_flops(Variant.RPE, n, None, heads, d_k, d_v).total for d_k in widths]
    hbh = [count_flops(Variant.DROPE_HBH, n, None, heads, d_k, d_v).total for d_k in widths]
    ratios = [Fraction(r, d) for r, d in zip(rpe, hbh)]

    def slopes(totals):
        return [
            Fraction(totals[i + 1] - totals[i], widths[i + 1] - widths[i])
            for i in range(len(widths) - 1)
        ]

    rpe_slopes, hbh_slopes = slopes(rpe), slopes(hbh)
    # scores 4*N*M*H, key-encoder outputs N*M*4*hidden (no output bias), per-head adds 2*N*M*H
    rpe_slope = n * n * (6 * heads + 4 * RPE_HIDDEN)
    # scores 4*N*M*H, rotary embedding 6*(N + M)*H
    hbh_slope = 4 * n * n * heads + 12 * n * heads
    limit = rpe_slopes[-1] / hbh_slopes[-1]
    elapsed = time.perf_counter() - start

    factor_ok = all(ratio > 2 for ratio in ratios)
    affine = len(set(rpe_slopes)) == 1 and len(set(hbh_slopes)) == 1
    closed_form = rpe_slopes[0] == rpe_slope and hbh_slopes[0] == hbh_slope
    limit_ok = limit == Fraction(608, 67) and limit > 2
    falls_to_limit = (
        all(a > b for a, b in zip(ratios, ratios[1:])) and ratios[-1] > limit
    )
    report_line(5, "flop trend (ratio > 2, affine, limit > 2)", elapsed, 5.0,
                passed=factor_ok and affine and closed_form and limit_ok and falls_to_limit,
                detail="ratios=" + ", ".join(f"{float(r):.3f}" for r in ratios)
                + f" limit={limit.numerator}/{limit.denominator}={float(limit):.3f}")
    assert factor_ok, f"RPE/DRoPE-HbH FLOP ratio <= 2: {[float(r) for r in ratios]}"
    assert elapsed < 5.0
    assert affine, (
        f"FLOP totals are not affine in d_k over {widths}: "
        f"RPE slopes {rpe_slopes}, HbH slopes {hbh_slopes}"
    )
    assert closed_form, (
        f"d_k slopes RPE {rpe_slopes[0]}, HbH {hbh_slopes[0]} differ from the "
        f"closed forms {rpe_slope}, {hbh_slope}"
    )
    assert limit_ok, f"limiting ratio {limit} as d_k grows is not 608/67 > 2"
    assert falls_to_limit, (
        f"ratios {[float(r) for r in ratios]} do not fall strictly toward "
        f"the limit {float(limit):.4f} from above"
    )


VARIANT_NAMES = {
    Variant.PLAIN: "plain",
    Variant.RPE: "rpe",
    Variant.ROPE: "rope",
    Variant.DROPE_HBH: "drope-hbh",
    Variant.DROPE_IH: "drope-ih",
}


def ih_widths(variant, d_k):
    """The oracle's scalar widths of drope-ih's d_k // 2 position pairs; None otherwise."""
    return (2 * (d_k // 2), 2 * (d_k - d_k // 2)) if variant is Variant.DROPE_IH else None


def test_c06_oracle_equivalence():
    """Every variant matches the loop-based scalar reference on the full grid."""
    start = time.perf_counter()
    checked = 0
    seed = 0
    for variant in Variant:
        for n in (1, 2, 3, 4, 5):
            for h in (1, 2):
                if variant is Variant.DROPE_HBH and h < 2:
                    continue
                for d_k in (1, 2, 3, 4):
                    if variant is Variant.DROPE_IH and d_k % 2 != 0:
                        continue
                    for d_v in (1, 2, 4):
                        seed += 1
                        rng = np.random.default_rng(seed)
                        qkv = QKVSet.random(n, h, d_k, d_v, rng)
                        poses = PoseSet.random(n, rng)
                        enc = (
                            RPEEncoders.seeded(d_k, d_v, seed=seed)
                            if variant is Variant.RPE else None
                        )
                        out = mhsa(qkv, poses, variant, enc=enc)
                        _, expected = ref_attention(
                            VARIANT_NAMES[variant], qkv.q, qkv.k, qkv.v,
                            poses.positions, poses.headings,
                            poses.positions, poses.headings,
                            enc=enc, split=ih_widths(variant, d_k),
                        )
                        gap = float(np.max(np.abs(out.merged - expected)))
                        assert gap < 1e-12, (variant, n, h, d_k, d_v, gap)
                        checked += 1
    # cross-attention spot grid
    for variant in Variant:
        for (n_q, n_kv) in ((3, 4), (5, 2), (1, 5)):
            seed += 1
            rng = np.random.default_rng(seed)
            d_k, d_v, h = 2, 3, 2
            queries = QKVSet.random(n_q, h, d_k, d_v, rng)
            keysvals = QKVSet.random(n_kv, h, d_k, d_v, rng)
            poses_q = PoseSet.random(n_q, rng)
            poses_kv = PoseSet.random(n_kv, rng)
            enc = RPEEncoders.seeded(d_k, d_v, seed=seed) if variant is Variant.RPE else None
            out = mhca(queries, keysvals, poses_q, poses_kv, variant, enc=enc)
            _, expected = ref_attention(
                VARIANT_NAMES[variant], queries.q, keysvals.k, keysvals.v,
                poses_q.positions, poses_q.headings,
                poses_kv.positions, poses_kv.headings,
                enc=enc, split=ih_widths(variant, d_k),
            )
            assert float(np.max(np.abs(out.merged - expected))) < 1e-12
            checked += 1
    elapsed = time.perf_counter() - start
    report_line(6, "oracle equivalence (exhaustive seeded grid)", elapsed, 30.0,
                detail=f"{checked} instances")
    assert elapsed < 30.0


def test_c07_gradient_check():
    """Analytic backward matches central finite differences per coordinate."""
    start = time.perf_counter()
    configs = []
    for index in range(5):
        configs.append((Variant.PLAIN, 2 + index % 3, 1 + index % 2, 1 + index % 3, 1 + index % 3))
        configs.append((Variant.ROPE, 2 + (index + 1) % 3, 1 + index % 2, 1 + index % 3, 2))
        configs.append((Variant.DROPE_HBH, 3, 2, 1 + index % 4, 1 + index % 2))
        configs.append((Variant.DROPE_IH, 2 + index % 2, 1 + index % 2, 2 * (1 + index % 2), 2))
    assert len(configs) == 20
    worst = 0.0
    for seed, (variant, n, h, d_k, d_v) in enumerate(configs):
        rng = np.random.default_rng(700 + seed)
        qkv = QKVSet.random(n, h, d_k, d_v, rng)
        poses = PoseSet(rng.uniform(-5.0, 5.0, (n, 2)), rng.uniform(0.0, TWO_PI, n))
        probe = rng.standard_normal((n, h * d_v))
        analytic = attention_backward(variant, qkv, poses, probe)

        def loss_for(bank_name):
            def loss(x):
                banks = {"q": qkv.q, "k": qkv.k, "v": qkv.v, bank_name: x}
                out = mhsa(QKVSet(banks["q"], banks["k"], banks["v"]), poses, variant)
                return float(np.sum(out.merged * probe))
            return loss

        for bank_name, grad in zip(("q", "k", "v"), analytic):
            numeric = fd_gradient(loss_for(bank_name), getattr(qkv, bank_name).copy(),
                                  h=1e-5)
            scale = np.maximum(np.maximum(np.abs(grad), np.abs(numeric)), 1e-4)
            worst = max(worst, float(np.max(np.abs(grad - numeric) / scale)))
    elapsed = time.perf_counter() - start
    report_line(7, "gradient check (20 seeded configs)", elapsed, 60.0,
                detail=f"max_rel_err={worst:.3e}")
    assert worst < 1e-4
    assert elapsed < 60.0


def test_c08_pipeline_translation_invariance():
    """Rigidly translating the scene translates the greedy rollout exactly."""
    start = time.perf_counter()
    config = PipelineConfig(d_model=16, n_heads=2, d_k=4, d_v=8, n_blocks=2,
                            variant=Variant.DROPE_HBH)
    weights = PipelineWeights.seeded(config, seed=800)
    scene = make_scene(seed=801, n_agents=4, n_steps=6)
    shift = np.array([137.25, -58.5])

    base = rollout(scene, PipelinePolicy(weights, config), horizon=16)
    moved = rollout(
        translated(scene, *shift), PipelinePolicy(weights, config), horizon=16
    )
    position_gap = np.max(np.abs(moved.states[:, :, :2] - shift - base.states[:, :, :2]))
    other_gap = np.max(np.abs(moved.states[:, :, 2:] - base.states[:, :, 2:]))
    elapsed = time.perf_counter() - start
    report_line(8, "pipeline translation invariance (16-step rollout)", elapsed, 30.0,
                detail=f"max_coord_gap={max(position_gap, other_gap):.3e} m")
    assert position_gap < 1e-6
    assert other_gap < 1e-6
    assert elapsed < 30.0


def test_c09_kinematic_replay():
    """Rollouts replay exactly from their actions; constant velocity is a fixed point."""
    start = time.perf_counter()
    config = PipelineConfig(d_model=16, n_heads=2, d_k=4, d_v=8, n_blocks=1,
                            variant=Variant.DROPE_HBH)
    weights = PipelineWeights.seeded(config, seed=900)
    scene = make_scene(seed=901, n_agents=3, n_steps=5)
    result = rollout(scene, PipelinePolicy(weights, config), horizon=8)
    initial = [scene.state(i, scene.n_steps - 1) for i in range(scene.n_agents)]
    replayed = replay_actions(initial, result.actions, scene.dt)
    assert np.array_equal(replayed, result.states)

    cv_scene = make_constant_velocity_scene(seed=902, n_steps=20)
    prefix = cv_scene.prefix(4)
    cv_result = rollout(prefix, ConstantActionPolicy(ZERO_ACTION), horizon=16)
    truth = cv_scene.agent_states[:, 4:20, :2]
    ades = [
        min_ade(cv_result.positions()[agent], truth[agent])
        for agent in range(cv_scene.n_agents)
    ]
    elapsed = time.perf_counter() - start
    report_line(9, "kinematic replay + self-consistency min_ade", elapsed, 10.0,
                detail=f"max_min_ade={max(ades):.3e} m")
    assert max(ades) < 1e-9
    assert elapsed < 10.0


def test_c10_negative_control(tmp_path):
    """Multi-frequency headings break the angle identity: the suite must fail."""
    start = time.perf_counter()
    out = tmp_path / "fault"
    code = main([
        "verify", "--trials", "400",
        "--fault-inject", "rope-freqs-in-fangle",
        "--out", str(out),
    ])
    import json

    with open(out / "verify_report.json") as fh:
        report = json.load(fh)
    by_name = {prop["name"]: prop for prop in report["properties"]}
    angle_identity = by_name["angle_shift_identity"]
    elapsed = time.perf_counter() - start
    report_line(10, "negative control (fault-injected heading frequencies)", elapsed,
                5.0, detail=f"exit={code} angle_identity_passed={angle_identity['passed']}")
    assert code == 1
    assert angle_identity["passed"] is False
    assert report["all_passed"] is False
    assert elapsed < 5.0
