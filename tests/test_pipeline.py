import hashlib
import math
import warnings
from collections import Counter
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import numpy as np
import pytest

import drope.attention as attention
import drope.pipeline as pipeline
from drope.attention import PoseSet, Variant, recording
from drope.errors import ConfigurationError, InvalidArgumentError
from drope.kinematics import YAW_RATE_LIMIT, ZERO_ACTION, ControlAction
from drope.pipeline import (
    FFN_HIDDEN,
    ActionDistribution,
    BlockWeights,
    ConstantActionPolicy,
    InteractionBlockWeights,
    PipelineConfig,
    PipelinePolicy,
    PipelineWeights,
    decode_actions,
    interaction_step,
    replay_actions,
    rollout,
    rollout_samples,
    temporal_step,
    tokenize_scene,
    write_trajectory_csv,
)
from drope.rotary import TWO_PI, FrequencySchedule
from drope.scene import MapSegment, Scene, make_constant_velocity_scene, make_scene

from scene_moves import translated

from oracles import (
    ref_attention_block,
    ref_ffn,
    ref_linear,
    ref_sinusoidal_pe,
)


def small_config(variant=Variant.DROPE_HBH, **kw):
    defaults = dict(d_model=8, n_heads=2, d_k=2, d_v=2, n_blocks=1, variant=variant)
    defaults.update(kw)
    return PipelineConfig(**defaults)


def identity_block(config):
    """Identity QKV/output projections with a zero feed-forward."""
    d, h, f = config.d_model, config.n_heads, FFN_HIDDEN
    return BlockWeights(
        w_q=np.eye(d).reshape(d, h, -1), w_k=np.eye(d).reshape(d, h, -1),
        w_v=np.eye(d).reshape(d, h, -1), w_o=np.eye(d),
        ffn_w1=np.zeros((d, f)), ffn_w2=np.zeros((f, d)), enc=None,
    )


def forward(scene, weights, config):
    """The pipeline stages over the whole scene: the distribution and the final tokens."""
    tokens = tokenize_scene(scene, weights, config)
    for block in weights.blocks:
        tokens = interaction_step(tokens, block, config)
    final_tokens = temporal_step(tokens.agent_tokens, weights.temporal, config)
    return decode_actions(final_tokens, weights, config), final_tokens


def small_scene(seed=0, n_agents=3, n_steps=3):
    return make_scene(seed=seed, n_agents=n_agents, n_steps=n_steps)


def agent_poses(tokens, t):
    """The agents' poses at timestep ``t`` of scene tokens."""
    return PoseSet(tokens.agent_poses.positions[t], tokens.agent_poses.headings[t])


class TestTokenize:
    def test_identical_agents_get_identical_tokens(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=0)
        # same speed, different poses
        states = np.zeros((2, 2, 4))
        states[0, :, :2] = [5.0, 1.0]
        states[1, :, :2] = [-20.0, 3.0]
        states[1, :, 2] = 1.2
        states[:, :, 3] = 7.5
        scene = Scene(states, make_scene(seed=0).segments, 0.5)
        tokens = tokenize_scene(scene, weights, config)
        assert np.array_equal(tokens.agent_tokens[0], tokens.agent_tokens[1])
        assert not np.array_equal(tokens.agent_poses.positions[:, 0],
                                  tokens.agent_poses.positions[:, 1])

    def test_map_tokens_ignore_absolute_pose(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=1)
        scene = small_scene(1)
        moved = translated(scene, 40.0, -7.0)
        base = tokenize_scene(scene, weights, config)
        shifted = tokenize_scene(moved, weights, config)
        assert shifted.map_tokens == pytest.approx(base.map_tokens, abs=1e-9)
        assert np.array_equal(shifted.agent_tokens, base.agent_tokens)

    def test_empty_scene_rejected(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=2)
        scene = small_scene(2)
        empty_map = Scene(scene.agent_states, [], scene.dt)
        with pytest.raises(InvalidArgumentError):
            tokenize_scene(empty_map, weights, config)


class TestInteraction:
    def test_zero_ffn_identity_block(self):
        # identity projections plus a zero feed-forward leave tokens unchanged
        config = small_config(d_model=8, n_heads=2, d_k=2, d_v=4)
        block = InteractionBlockWeights(
            agent_sa=identity_block(config),
            map_sa=identity_block(config),
            cross=identity_block(config),
        )
        weights = PipelineWeights.seeded(config, seed=3)
        tokens = tokenize_scene(small_scene(3), weights, config)
        updated = interaction_step(tokens, block, config)
        assert np.array_equal(updated.agent_tokens, tokens.agent_tokens)
        assert np.array_equal(updated.map_tokens, tokens.map_tokens)

    @pytest.mark.parametrize("variant", [Variant.ROPE, Variant.DROPE_HBH, Variant.DROPE_IH])
    def test_rigid_translation_leaves_tokens_unchanged(self, variant):
        config = small_config(variant)
        weights = PipelineWeights.seeded(config, seed=4)
        scene = small_scene(4)
        base = interaction_step(
            tokenize_scene(scene, weights, config), weights.blocks[0], config
        )
        moved = interaction_step(
            tokenize_scene(translated(scene, 12.3, -45.6), weights, config),
            weights.blocks[0],
            config,
        )
        scale = np.max(np.abs(base.agent_tokens))
        assert np.max(np.abs(moved.agent_tokens - base.agent_tokens)) / scale < 1e-7

    def test_matches_scalar_reference(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=5)
        scene = small_scene(5, n_agents=3)
        scene = Scene(scene.agent_states, scene.segments[:2], scene.dt)
        tokens = tokenize_scene(scene, weights, config)
        updated = interaction_step(tokens, weights.blocks[0], config)

        block = weights.blocks[0]
        expected_agents = tokens.agent_tokens.copy()
        for t in range(scene.n_steps):
            expected_agents[:, t] = ref_attention_block(
                config.variant.value, expected_agents[:, t], agent_poses(tokens, t),
                block.agent_sa,
            )
        expected_map = ref_attention_block(
            config.variant.value, tokens.map_tokens, tokens.map_poses, block.map_sa
        )
        for t in range(scene.n_steps):
            expected_agents[:, t] = ref_attention_block(
                config.variant.value, expected_agents[:, t], agent_poses(tokens, t),
                block.cross,
                kv_tokens=expected_map, kv_poses=tokens.map_poses,
            )
        assert updated.agent_tokens == pytest.approx(expected_agents, abs=1e-10)
        assert updated.map_tokens == pytest.approx(expected_map, abs=1e-10)


class TestTemporal:
    def test_single_step_is_self_map(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=6)
        tokens = np.random.default_rng(0).standard_normal((2, 1, config.d_model))
        out = temporal_step(tokens, weights.temporal, config)
        assert out.shape == tokens.shape

    def test_causality_is_bitwise(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=7)
        rng = np.random.default_rng(1)
        tokens = rng.standard_normal((2, 5, config.d_model))
        base = temporal_step(tokens, weights.temporal, config)
        perturbed = tokens.copy()
        perturbed[:, -1] += 10.0
        moved = temporal_step(perturbed, weights.temporal, config)
        assert np.array_equal(moved[:, :-1], base[:, :-1])
        assert not np.array_equal(moved[:, -1], base[:, -1])

    def test_matches_masked_scalar_reference(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=8)
        rng = np.random.default_rng(2)
        tokens = rng.standard_normal((2, 4, config.d_model))
        out = temporal_step(tokens, weights.temporal, config)
        pe = ref_sinusoidal_pe(4, config.d_model)
        for agent in range(2):
            sequence = tokens[agent] + pe
            expected = ref_attention_block(
                "plain", sequence, None, weights.temporal, causal=True
            )
            assert out[agent] == pytest.approx(expected, abs=1e-12)

    def test_position_encoding_matches_reference(self):
        assert pipeline._step_encoding(np.arange(6), 10) == pytest.approx(
            ref_sinusoidal_pe(6, 10), abs=1e-12
        )


class TestDecode:
    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    def test_non_finite_decoder_weight_raises(self, mode):
        # a NaN logit row once made every agent pick grid action 0
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=8)
        bad = weights.dec_w2.copy()
        bad[0, 0] = np.nan
        weights = replace(weights, dec_w2=bad)
        scene = small_scene(8)
        with pytest.raises(InvalidArgumentError, match="logits"):
            forward(scene, weights, config)
        with pytest.raises(InvalidArgumentError, match="logits"):
            rollout(scene, PipelinePolicy(weights, config, mode=mode), horizon=3)

    def test_zero_tokens_and_weights_give_uniform(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=9)
        weights = replace(weights, dec_w1=np.zeros_like(weights.dec_w1),
                          dec_w2=np.zeros_like(weights.dec_w2))
        tokens = np.zeros((2, 3, config.d_model))
        probs = decode_actions(tokens, weights, config).probabilities()
        assert probs == pytest.approx(1.0 / config.n_actions)

    def test_distribution_sums_to_one(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=10)
        tokens = np.random.default_rng(3).standard_normal((3, 2, config.d_model))
        probs = decode_actions(tokens, weights, config).probabilities()
        assert np.max(np.abs(probs.sum(axis=-1) - 1.0)) < 1e-9

    def test_largest_draw_stays_on_the_grid(self):
        class LargestDraw:
            def random(self, size):
                return np.full(size, np.nextafter(1.0, 0.0))

        distribution = ActionDistribution(np.random.default_rng(6).standard_normal((64, 81)))
        ends = np.cumsum(distribution.probabilities(), axis=-1)[:, -1]
        short = ends < np.nextafter(1.0, 0.0)
        assert short.any()   # rows whose rounded cumsum ends below the draw
        indices = distribution.sample_indices(LargestDraw())
        assert np.all(indices[short] == 80)
        assert np.all((0 <= indices) & (indices <= 80))

    def test_in_range_draws_are_unchanged(self):
        distribution = ActionDistribution(np.random.default_rng(7).standard_normal((64, 81)))
        draws = np.random.default_rng(8).random(64)
        cumulative = np.cumsum(distribution.probabilities(), axis=-1)
        unclamped = (draws[:, None] > cumulative).sum(axis=-1)
        assert np.all(unclamped <= 80)
        sampled = distribution.sample_indices(np.random.default_rng(8))
        assert np.array_equal(sampled, unclamped)

    def test_argmax_invariant_to_logit_shift(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal((2, 3, 81))
        base = ActionDistribution(logits).greedy_indices()
        shifted = ActionDistribution(logits + 12.5).greedy_indices()
        assert np.array_equal(base, shifted)

    def test_decode_matches_scalar_reference(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=11)
        rng = np.random.default_rng(5)
        tokens = rng.standard_normal((2, 2, config.d_model))
        logits = decode_actions(tokens, weights, config).logits
        for i in range(2):
            for t in range(2):
                hidden = [
                    math.tanh(v)
                    for v in ref_linear(tokens[i, t], weights.dec_w1)
                ]
                expected = ref_linear(hidden, weights.dec_w2)
                assert logits[i, t] == pytest.approx(expected, abs=1e-12)


class TestForward:
    def test_forward_shapes(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=12)
        scene = small_scene(12)
        distribution, final_tokens = forward(scene, weights, config)
        assert distribution.logits.shape == (3, 3, config.n_actions)
        assert final_tokens.shape == (3, 3, config.d_model)

    def test_full_forward_matches_scalar_reference(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=13)
        scene = small_scene(13, n_agents=3, n_steps=3)
        scene = Scene(scene.agent_states, scene.segments[:2], scene.dt)
        distribution, _ = forward(scene, weights, config)

        tokens = tokenize_scene(scene, weights, config)
        agents = tokens.agent_tokens.copy()
        block = weights.blocks[0]
        for t in range(scene.n_steps):
            agents[:, t] = ref_attention_block(
                config.variant.value, agents[:, t], agent_poses(tokens, t),
                block.agent_sa,
            )
        map_tokens = ref_attention_block(
            config.variant.value, tokens.map_tokens, tokens.map_poses, block.map_sa
        )
        for t in range(scene.n_steps):
            agents[:, t] = ref_attention_block(
                config.variant.value, agents[:, t], agent_poses(tokens, t),
                block.cross, kv_tokens=map_tokens, kv_poses=tokens.map_poses,
            )
        pe = ref_sinusoidal_pe(scene.n_steps, config.d_model)
        for i in range(scene.n_agents):
            agents[i] = ref_attention_block(
                "plain", agents[i] + pe, None, weights.temporal, causal=True
            )
        for i in range(scene.n_agents):
            for t in range(scene.n_steps):
                hidden = [
                    math.tanh(v)
                    for v in ref_linear(agents[i, t], weights.dec_w1)
                ]
                expected = ref_linear(hidden, weights.dec_w2)
                assert distribution.logits[i, t] == pytest.approx(expected, abs=1e-10)


class TestRollout:
    def test_zero_action_policy_goes_straight(self):
        scene = make_constant_velocity_scene(seed=14, n_steps=4)
        result = rollout(scene, ConstantActionPolicy(ZERO_ACTION), horizon=6)
        speeds = result.states[:, :, 3]
        assert np.all(speeds == scene.agent_states[:, -1:, 3])
        # heading fixed: each agent advances along a straight line
        for agent in range(scene.n_agents):
            yaw = scene.agent_states[agent, -1, 2]
            steps = np.diff(result.states[agent, :, :2], axis=0)
            expected = scene.agent_states[agent, -1, 3] * scene.dt * np.array(
                [math.cos(yaw), math.sin(yaw)]
            )
            assert steps == pytest.approx(np.tile(expected, (5, 1)), abs=1e-12)

    def test_greedy_rollout_is_deterministic(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=15)
        scene = small_scene(15, n_steps=4)
        first = rollout(scene, PipelinePolicy(weights, config), horizon=5)
        second = rollout(scene, PipelinePolicy(weights, config), horizon=5)
        assert np.array_equal(first.states, second.states)

    def test_a_recorded_rollout_keeps_counts_only(self):
        """Each record of a 64-step rollout is two ints, and the recorded
        run's states are bitwise those of an unrecorded one."""
        config = PipelineConfig()
        history = make_scene(seed=1, n_agents=4, n_steps=8)

        def states():
            policy = PipelinePolicy(PipelineWeights.seeded(config, seed=1), config)
            with pytest.warns(UserWarning, match="soft limit"):
                return rollout(history, policy, horizon=64).states

        with recording() as records:
            recorded_states = states()
        assert len(records) >= 64
        assert all(set(record) == {"qkv", "embedded"} for record in records)
        assert all(type(count) is int for record in records for count in record.values())
        assert np.array_equal(recorded_states, states())

    def test_replay_equality_is_exact(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=16)
        scene = small_scene(16, n_steps=4)
        result = rollout(scene, PipelinePolicy(weights, config), horizon=4)
        initial = [scene.state(i, scene.n_steps - 1) for i in range(scene.n_agents)]
        replayed = replay_actions(initial, result.actions, scene.dt)
        assert np.array_equal(replayed, result.states)

    @pytest.mark.parametrize("case", ["brake_to_standstill", "wrap_across_zero",
                                      "wrap_across_two_pi", "one_agent", "constant_action"])
    def test_vectorized_update_equals_replay_bitwise(self, case):
        segments = make_scene(seed=0).segments
        states = np.zeros((2, 2, 4))
        states[:, :, 3] = [[1.5, 1.3], [0.2, 0.1]]
        policy = ConstantActionPolicy(ControlAction(-4.0, 0.0))
        if case in ("wrap_across_zero", "wrap_across_two_pi"):
            states[:, :, 2] = 0.3 if case == "wrap_across_zero" else TWO_PI - 0.3
            policy = ConstantActionPolicy(ControlAction(
                1.0, -YAW_RATE_LIMIT if case == "wrap_across_zero" else YAW_RATE_LIMIT
            ))
        elif case == "one_agent":
            states = make_scene(seed=22, n_agents=2, n_steps=3).agent_states[:1]
            config = small_config()
            policy = PipelinePolicy(PipelineWeights.seeded(config, seed=22), config,
                                    mode="sample", seed=3)
        elif case == "constant_action":
            states = make_scene(seed=23, n_agents=5, n_steps=2).agent_states
            policy = ConstantActionPolicy(ControlAction(0.8, 0.35))
        scene = Scene(states, segments, 0.5)
        result = rollout(scene, policy, horizon=8)
        initial = [scene.state(i, scene.n_steps - 1) for i in range(scene.n_agents)]
        replayed = replay_actions(initial, result.actions, scene.dt)
        assert replayed.tobytes() == result.states.tobytes()
        yaw = result.states[:, :, 2]
        if case == "brake_to_standstill":
            assert np.all(result.states[:, 1:, 3] == 0.0)
        elif case == "wrap_across_zero":   # 0.3 - 0.5 wraps to 2*pi - 0.2
            assert np.all(yaw[:, 0] > TWO_PI - 0.3)
        elif case == "wrap_across_two_pi":
            assert np.all(yaw[:, 0] < 0.3)

    def test_soft_horizon_warning(self):
        scene = make_constant_velocity_scene(seed=17, n_steps=4)
        with pytest.warns(UserWarning, match="soft limit"):
            rollout(scene, ConstantActionPolicy(ZERO_ACTION), horizon=17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rollout(scene, ConstantActionPolicy(ZERO_ACTION), horizon=16)

    def test_sampled_rollout_reproducible_by_seed(self):
        config = small_config()
        weights = PipelineWeights.seeded(config, seed=18)
        scene = small_scene(18, n_steps=4)
        first = rollout(scene, PipelinePolicy(weights, config, mode="sample", seed=5),
                        horizon=4)
        second = rollout(scene, PipelinePolicy(weights, config, mode="sample", seed=5),
                         horizon=4)
        assert np.array_equal(first.states, second.states)

    def test_trajectory_csv_format(self, tmp_path):
        scene = make_constant_velocity_scene(seed=19, n_steps=3)
        result = rollout(scene, ConstantActionPolicy(ZERO_ACTION), horizon=2)
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, result)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "scene_id,agent_id,t,x,y,yaw,v"
        assert len(lines) == 1 + scene.n_agents * 2
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "0"
        assert float(first[3]) == result.states[0, 0, 0]


class FullRecomputePolicy:
    """The reference policy: a full forward pass over the history every step."""

    def __init__(self, weights, config, mode="greedy", seed=0):
        self.weights, self.config, self.mode = weights, config, mode
        self.rng = np.random.default_rng(seed)

    def actions(self, scene):
        distribution, _ = forward(scene, self.weights, self.config)
        last = ActionDistribution(distribution.logits[:, -1:, :])
        if self.mode == "greedy":
            indices = last.greedy_indices()[:, 0]
        else:
            indices = last.sample_indices(self.rng)[:, 0]
        return [self.config.grid.action(int(index)) for index in indices]


class RecordingPolicy:
    """Passes through to a policy and keeps every scene it was shown."""

    def __init__(self, policy):
        self.policy = policy
        self.scenes = []

    def actions(self, scene):
        self.scenes.append(scene)
        return self.policy.actions(scene)


def spy_on(monkeypatch, names, counts, outputs=None):
    """Count calls made through ``drope.pipeline.<name>``; keep their outputs."""
    for name in names:
        def spy(*args, _name=name, _real=getattr(pipeline, name), **kwargs):
            counts[_name] += 1
            out = _real(*args, **kwargs)
            if outputs is not None:
                outputs.setdefault(_name, []).append(out)
            return out

        monkeypatch.setattr(pipeline, name, spy)


def assert_newest_logits_match_forward(logits, scene, weights, config):
    """Equal to ``forward`` on the full history to 1e-12 of the largest logit."""
    full = forward(scene, weights, config)[0].logits[:, -1]
    assert logits.shape == full.shape
    assert np.max(np.abs(logits - full)) <= 1e-12 * np.max(np.abs(full))


class TestIncrementalDecoding:
    @pytest.mark.parametrize("mode", ["greedy", "sample"])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_matches_full_recompute(self, variant, mode, monkeypatch):
        config = small_config(variant, n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=30)
        scene = small_scene(30, n_agents=3, n_steps=2)
        counts, outputs = Counter(), {}
        spy_on(monkeypatch, ["decode_actions"], counts, outputs)
        policy = RecordingPolicy(PipelinePolicy(weights, config, mode=mode, seed=4))
        result = rollout(scene, policy, horizon=10)
        monkeypatch.undo()
        # one decode per step, each of the newest timestep only
        assert len(outputs["decode_actions"]) == len(policy.scenes) == 10
        for history, decoded in zip(policy.scenes, outputs["decode_actions"]):
            assert decoded.logits.shape[1] == 1
            assert_newest_logits_match_forward(decoded.logits[:, 0], history, weights, config)
        expected = rollout(scene, FullRecomputePolicy(weights, config, mode, seed=4), 10)
        assert result.actions == expected.actions
        assert np.array_equal(result.states, expected.states)

    def test_falls_back_to_a_full_pass_on_any_other_scene(self, monkeypatch):
        config = small_config(n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=31)
        scene_a = small_scene(31, n_agents=3, n_steps=3)
        scene_b = small_scene(32, n_agents=3, n_steps=5)

        def grown(n_new, segments=scene_a.segments, agents=slice(None)):
            """Scene A with its last states repeated ``n_new`` more times."""
            last = scene_a.agent_states[:, -1:]
            states = np.concatenate(
                [scene_a.agent_states, np.repeat(last, n_new, axis=1)], axis=1
            )
            return Scene(states[agents], segments, scene_a.dt)

        other_map = scene_a.segments[:-1] + scene_a.segments[:1]
        changed = grown(6, other_map)
        changed.agent_states[2, 0, 3] += 0.25
        # each cold case differs from the decoder's scene in one respect only;
        # the map is encoded when its segments are not those the weights keep
        calls = [
            (scene_a, True, True),                           # first call
            (grown(1), False, False),                        # one new timestep
            (grown(3), False, False),                        # two more at once
            (grown(4, list(scene_a.segments)), False, False),  # same segments, new list
            (scene_b, True, False),                          # an unrelated scene, same map
            (grown(4), True, False),                         # scene A again, after B
            (grown(4), False, False),                        # the same scene: nothing new
            (grown(5, other_map), True, True),               # one map segment differs
            (changed, True, False),                          # one prefix state differs
            (grown(7, other_map, slice(2)), True, False),    # fewer agents
            (grown(4), True, True),                          # the first map: one is kept
        ]
        policy = PipelinePolicy(weights, config)
        reference = FullRecomputePolicy(weights, config)
        for scene, cold, encodes_map in calls:
            decoder = policy._decoder
            counts, outputs = Counter(), {}
            spy_on(monkeypatch, ["_map_tokens", "_map_block", "decode_actions"], counts, outputs)
            actions = policy.actions(scene)
            monkeypatch.undo()
            assert (policy._decoder is not decoder) == cold
            assert counts["_map_tokens"] == int(encodes_map)
            assert counts["_map_block"] == config.n_blocks * int(encodes_map)
            # the kept distribution, which the same scene again does not decode
            assert_newest_logits_match_forward(
                policy._decoder.last.logits[:, -1], scene, weights, config
            )
            assert actions == reference.actions(scene)

    def test_a_repeated_scene_draws_again_from_the_kept_distribution(self, monkeypatch):
        config = small_config(n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=34)
        scene = small_scene(34, n_agents=4, n_steps=3)
        policy = PipelinePolicy(weights, config, mode="sample", seed=8)
        reference = FullRecomputePolicy(weights, config, mode="sample", seed=8)
        assert policy.actions(scene) == reference.actions(scene)
        expected = [reference.actions(scene) for _ in range(3)]
        decoder = policy._decoder
        counts = Counter()
        spy_on(monkeypatch, ["_map_tokens", "_agent_tokens", "decode_actions", "mhsa", "mhca"],
               counts)
        assert [policy.actions(scene) for _ in range(3)] == expected
        assert policy._decoder is decoder
        assert not counts

    def test_push_cost_is_flat_in_history(self, monkeypatch):
        config = small_config(n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=33)
        history = small_scene(33, n_agents=3, n_steps=3)
        policy = PipelinePolicy(weights, config)
        policy.actions(history)
        counts = Counter()
        spy_on(monkeypatch, ["mhsa", "mhca", "mhsa_causal", "tokenize_scene",
                             "interaction_step", "temporal_step"], counts)
        per_push = {}
        while history.n_steps < 40:
            history = history.with_appended_states(history.agent_states[:, -1])
            counts.clear()
            policy.actions(history)
            per_push[history.n_steps] = dict(counts)
        # per block one agent self-attention and one agent-to-map call, then
        # one temporal call for all agents
        assert per_push[4] == {"mhsa": 2, "mhca": 3}
        assert per_push[40] == per_push[4]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_several_new_steps_cost_the_calls_of_one(self, variant, monkeypatch):
        config = small_config(variant, n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=39)
        scene = small_scene(39, n_agents=3, n_steps=6)
        policy = PipelinePolicy(weights, config, mode="sample", seed=6)
        reference = FullRecomputePolicy(weights, config, mode="sample", seed=6)
        assert policy.actions(scene.prefix(2)) == reference.actions(scene.prefix(2))
        for n_steps in (3, 6):  # one new step, then three at once
            history, counts, outputs = scene.prefix(n_steps), Counter(), {}
            spy_on(monkeypatch, ["mhsa", "mhca", "mhsa_causal", "_map_block"], counts)
            spy_on(monkeypatch, ["decode_actions"], Counter(), outputs)
            actions = policy.actions(history)
            monkeypatch.undo()
            # per block one agent self-attention and one agent-to-map call over
            # every new step, then one temporal call for the newest
            assert counts == {"mhsa": 2, "mhca": 3}
            assert_newest_logits_match_forward(
                outputs["decode_actions"][0].logits[:, 0], history, weights, config
            )
            assert actions == reference.actions(history)

    def test_push_checks_a_fixed_set_of_arrays(self, monkeypatch):
        config = small_config(n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=35)
        history = small_scene(35, n_agents=3, n_steps=3)
        policy = PipelinePolicy(weights, config)
        policy.actions(history)
        checked = []
        real = attention._as_finite
        monkeypatch.setattr(attention, "_as_finite",
                            lambda name, arr, *a: checked.append(np.shape(arr)) or real(name, arr, *a))
        per_push, buffers = {}, {}
        while history.n_steps < 40:
            history = history.with_appended_states(history.agent_states[:, -1])
            checked.clear()
            policy.actions(history)
            per_push[history.n_steps] = list(checked)
            buffers[history.n_steps] = policy._decoder.cache
        assert per_push[4] and per_push[40] == per_push[4]
        # nothing the size of the 40-token cache, before or after the push
        assert not any({39, 40} & set(shape) for shape in per_push[40])
        # every buffer has room for CACHE_CHUNK_STEPS steps past those it is made
        # for: the first call's 3, then the 3 + chunk + 1 of the step that fills it
        chunk = pipeline.CACHE_CHUNK_STEPS
        assert all(buffers[n] is buffers[4] for n in range(4, 3 + chunk + 1))
        assert buffers[3 + chunk + 1] is not buffers[4]
        assert buffers[3 + chunk + 1].n_tokens == 4 + 2 * chunk

    @pytest.mark.parametrize("variant", list(Variant))
    def test_logits_match_forward_across_cache_chunks(self, variant, monkeypatch):
        config = small_config(variant, n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=36)
        scene = small_scene(36, n_agents=2, n_steps=2)
        counts, outputs = Counter(), {}
        spy_on(monkeypatch, ["decode_actions"], counts, outputs)
        policy = RecordingPolicy(PipelinePolicy(weights, config, mode="sample", seed=5))
        horizon = 2 * pipeline.CACHE_CHUNK_STEPS + 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rollout(scene, policy, horizon=horizon)
        monkeypatch.undo()
        assert counts["decode_actions"] == horizon
        # buffers of 2 + chunk, 3 + 2 * chunk and then 1.5 times the 4 + 2 * chunk steps
        chunk = pipeline.CACHE_CHUNK_STEPS
        assert policy.policy._decoder.cache.n_tokens == (4 + 2 * chunk) * 3 // 2
        for history, decoded in zip(policy.scenes, outputs["decode_actions"]):
            assert_newest_logits_match_forward(decoded.logits[:, 0], history, weights, config)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_k_samples_decode_as_one_batch_matching_forward(self, variant, monkeypatch):
        config = small_config(variant, n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=37)
        scene = small_scene(37, n_agents=3, n_steps=3)
        counts, outputs = Counter(), {}
        spy_on(monkeypatch, ["decode_actions", "_map_tokens", "_agent_tokens"], counts, outputs)
        policy = PipelinePolicy(weights, config, mode="sample", seed=4)
        results = rollout_samples(scene, policy, 6, 3)
        monkeypatch.undo()
        # one decoder for all samples, one batch per step, the prefix encoded once
        assert counts == {"decode_actions": 6, "_map_tokens": 1, "_agent_tokens": 6}
        assert outputs["_agent_tokens"][0].shape[:-1] == (3, 3)
        for step, decoded in enumerate(outputs["decode_actions"]):
            assert decoded.logits.shape == (3 * 3, 1, config.n_actions)
            for k, result in enumerate(results):
                history = Scene(np.concatenate([scene.agent_states, result.states[:, :step]],
                                               axis=1), scene.segments, scene.dt)
                assert_newest_logits_match_forward(
                    decoded.logits[3 * k:3 * (k + 1), 0], history, weights, config
                )
        for k, result in enumerate(results):
            single = rollout(scene, PipelinePolicy(weights, config, mode="sample", seed=4 + k), 6)
            assert np.array_equal(result.states, single.states)
            assert result.actions == single.actions

    @pytest.mark.parametrize("samples", [1, 3])
    @pytest.mark.parametrize("variant", list(Variant))
    def test_the_decoder_reads_only_the_cache_rows_it_filled(self, variant, samples,
                                                             monkeypatch):
        class FillingPolicy(PipelinePolicy):
            """After each step, NaN in every cache row from the history's length on."""

            def _batch_actions(self, scenes):
                actions = super()._batch_actions(scenes)
                cache, end = self._decoder.cache, scenes[0].n_steps
                cache.k[..., end:, :, :] = cache.v[..., end:, :, :] = np.nan
                return actions

        config = small_config(variant, n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=40)
        scene = small_scene(40, n_agents=3, n_steps=2)
        horizon = pipeline.CACHE_CHUNK_STEPS + 4    # the cache grows once on the way
        logits = []
        for policy_type in (PipelinePolicy, FillingPolicy):
            outputs = {}
            spy_on(monkeypatch, ["decode_actions"], Counter(), outputs)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                rollout_samples(scene, policy_type(weights, config, mode="sample", seed=7),
                                horizon, samples)
            monkeypatch.undo()
            logits.append([decoded.logits for decoded in outputs["decode_actions"]])
        assert len(logits[0]) == len(logits[1]) == horizon
        assert all(np.array_equal(a, b) for a, b in zip(*logits))

    def test_other_policies_are_asked_once_per_sample(self):
        scene = small_scene(38, n_agents=2, n_steps=2)
        policy = RecordingPolicy(ConstantActionPolicy(ZERO_ACTION))
        results = rollout_samples(scene, policy, 3, 2)
        assert len(policy.scenes) == 6
        assert policy.scenes[0] is policy.scenes[1] is scene
        assert np.array_equal(results[0].states, results[1].states)
        with pytest.raises(InvalidArgumentError, match="samples must be positive"):
            rollout_samples(scene, policy, 3, 0)

    def test_map_is_projected_once_per_rollout(self, monkeypatch):
        config = small_config(n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=34)
        history = small_scene(34, n_agents=3, n_steps=3)
        policy = PipelinePolicy(weights, config)
        policy.actions(history)
        map_kv = list(policy._decoder.map_kv)
        counts = Counter()
        spy_on(monkeypatch, ["_project"], counts)
        per_push = {}
        while history.n_steps < 40:
            history = history.with_appended_states(history.agent_states[:, -1])
            counts.clear()
            policy.actions(history)
            per_push[history.n_steps] = counts["_project"]
        assert len(policy._decoder.map_kv) == len(map_kv) == config.n_blocks
        assert all(new is old for new, old in zip(policy._decoder.map_kv, map_kv))
        # per block Q/K/V of the agent self-attention and the agents' map
        # queries, then the temporal Q/K/V: no map token is projected
        assert per_push[4] == 4 * config.n_blocks + 3
        assert per_push[40] == per_push[4]

    def test_cold_start_projects_each_bank_once(self, monkeypatch):
        config = small_config(n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=37)
        scene = small_scene(37, n_agents=3, n_steps=4)
        counts, outputs = Counter(), {}
        spy_on(monkeypatch, ["_project", "decode_actions"], counts, outputs)
        policy = PipelinePolicy(weights, config)
        policy.actions(scene)
        # per block the map's Q/K/V and cross K/V, the agents' Q/K/V and
        # cross Q; then the temporal Q/K/V, reused as the cache
        assert counts["_project"] == 9 * config.n_blocks + 3
        monkeypatch.undo()
        assert_newest_logits_match_forward(
            outputs["decode_actions"][0].logits[:, -1], scene, weights, config
        )

    @pytest.mark.parametrize("n_blocks", [2, 3])
    def test_cold_start_builds_each_pose_set_once(self, monkeypatch, n_blocks):
        config = small_config(n_blocks=n_blocks)
        weights = PipelineWeights.seeded(config, seed=38)
        scene = small_scene(38, n_agents=3, n_steps=4)
        built, phased = [], []
        real_init, real_phasors = PoseSet.__post_init__, attention._unit_phasors
        monkeypatch.setattr(PoseSet, "__post_init__",
                            lambda self: built.append(1) or real_init(self))
        monkeypatch.setattr(attention, "_unit_phasors",
                            lambda angles: phased.append(1) or real_phasors(angles))
        rollout(scene, PipelinePolicy(weights, config), 5)
        # the map's poses once, then each call's agent poses, each phased once for every block
        assert len(built) == len(phased) == 1 + 5


def weight_arrays(weights):
    """Every array of ``weights``, its blocks' and their pairwise encoders'."""
    subs = [weights.temporal] + [sub for block in weights.blocks for sub in vars(block).values()]
    holders = [weights] + subs + [sub.enc for sub in subs if sub.enc is not None]
    return [value for holder in holders for value in vars(holder).values()
            if isinstance(value, np.ndarray)]


def with_array(holder, old, new):
    """``holder`` rebuilt with its array ``old`` (by identity) replaced by ``new``
    in whichever block or encoder holds it."""
    if holder is old:
        return new
    if isinstance(holder, tuple):
        return tuple(with_array(item, old, new) for item in holder)
    if is_dataclass(holder):
        return replace(holder, **{f.name: with_array(getattr(holder, f.name), old, new)
                                  for f in fields(holder) if f.init})
    return holder


class TestKeptMap:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_a_new_policy_on_the_kept_map_starts_at_the_agents(self, variant, monkeypatch):
        config = small_config(variant, n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=40)
        rollout(small_scene(40, n_agents=3, n_steps=3), PipelinePolicy(weights, config), 2)
        # another scene on the same map segment objects
        scene = small_scene(41, n_agents=4, n_steps=3)
        for mode in ("greedy", "sample"):
            for samples in (1, 3):
                counts = Counter()
                spy_on(monkeypatch, ["_map_tokens", "_map_block"], counts)
                kept = rollout_samples(scene, PipelinePolicy(weights, config, mode=mode, seed=2),
                                       5, samples)
                monkeypatch.undo()
                assert not counts
                spy_on(monkeypatch, ["_map_tokens"], counts)
                fresh = rollout_samples(
                    scene, PipelinePolicy(replace(weights), config, mode=mode, seed=2), 5, samples
                )
                monkeypatch.undo()
                assert counts == {"_map_tokens": 1}
                for one, other in zip(kept, fresh, strict=True):
                    assert one.states.tobytes() == other.states.tobytes()
                    assert one.actions == other.actions

    def test_another_variant_segment_list_or_weights_encode_the_map(self, monkeypatch):
        config = small_config(n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=41)
        scene = small_scene(41)
        copied = Scene(scene.agent_states,
                       [MapSegment.from_points(seg.points) for seg in scene.segments], scene.dt)
        other_weights = replace(weights)
        calls = [
            (weights, config, scene, True),                       # nothing kept
            (weights, small_config(n_blocks=2), scene, False),    # an equal config
            (weights, small_config(Variant.ROPE, n_blocks=2), scene, True),  # another variant
            (weights, config, scene, True),                       # the first again: one is kept
            (weights, config, copied, True),                      # equal segments, new objects
            (weights, config, copied, False),                     # the copies, now kept
            (other_weights, config, copied, True),                # other weights, equal arrays
        ]
        for model, model_config, history, encodes_map in calls:
            counts = Counter()
            spy_on(monkeypatch, ["_map_tokens", "_map_block"], counts)
            policy = PipelinePolicy(model, model_config)
            policy.actions(history)
            monkeypatch.undo()
            assert counts["_map_tokens"] == int(encodes_map)
            assert counts["_map_block"] == config.n_blocks * int(encodes_map)
            assert_newest_logits_match_forward(
                policy._decoder.last.logits[:, -1], history, model, model_config
            )

    def test_weights_and_config_are_immutable(self):
        config = small_config(Variant.RPE, n_blocks=2)
        weights = PipelineWeights.seeded(config, seed=42)
        policy = PipelinePolicy(weights, config)
        policy.actions(small_scene(42))
        kept = [bank for kv in policy._decoder.map_kv for bank in (kv.k, kv.v)]
        arrays = weight_arrays(weights)
        assert len(arrays) == 6 + 6 * (3 * config.n_blocks + 1) + 7 * 3 * config.n_blocks
        for array in arrays + kept:
            with pytest.raises(ValueError, match="read-only"):
                array[(0,) * array.ndim] = 1.0
        # seeded arrays are kept as they are; a caller's become read-only copies
        assert all(new is old for new, old in zip(weight_arrays(replace(weights)), arrays))
        source = np.zeros_like(weights.dec_w1)
        zeroed = replace(weights, dec_w1=source)
        source[0, 0] = 1.0
        assert not zeroed.dec_w1.any() and not zeroed.dec_w1.flags.writeable
        for holder, name in ((config, "d_model"), (weights, "dec_w1"), (weights, "blocks"),
                             (weights.blocks[0], "cross"), (weights.temporal, "w_q")):
            with pytest.raises(FrozenInstanceError):
                setattr(holder, name, getattr(holder, name))


class TestRolloutDigests:
    """SHA-256 of a seeded 16-step sampled rollout's states, one per variant,
    as ``drope-bench rollout --mode sample --seed 1`` runs it by default."""

    DIGESTS = {
        Variant.PLAIN: "f54f709b4564df23f3c01d432c1fa69fe66df272ece0d530d682f8a89110ae84",
        Variant.RPE: "6979fd2b9ff00a7ae16b2a6249fc97e74b0b00c17087aeca846ab68d3ee8cd37",
        Variant.ROPE: "7f180132cc6f6a9a44cdc5597d95345a1bc91870d9c551fe82962c9566ff8193",
        Variant.DROPE_HBH: "c0c28e74fb015c791391a1534a379fd131a76df0c2fe0ebb13f37c126eb8665a",
        Variant.DROPE_IH: "2947d0227af248d0edf770e884a26b059641f1b8bb82e7243bd1f54ce2321700",
    }

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_states_are_bitwise_the_pinned_ones(self, variant):
        scene = make_scene(seed=1, n_agents=4, n_steps=24, dt=0.5)
        config = PipelineConfig(variant=variant)
        policy = PipelinePolicy(PipelineWeights.seeded(config, seed=1), config,
                                mode="sample", seed=1)
        states = rollout(scene.prefix(8), policy, 16).states
        assert hashlib.sha256(states.tobytes()).hexdigest() == self.DIGESTS[variant], (
            f"{variant.value} rollout states moved. A change meant to keep outputs bitwise "
            "has changed them; but a numpy or BLAS upgrade may legitimately move these "
            "digests, in which case check the states against the old build's and re-pin."
        )


class TestSeededWeights:
    #: SHA-256 over the shape and bytes of each array of ``weight_arrays``, per
    #: config: (without encoders, with). Only the pairwise-encoder variant draws
    #: differently, its encoders after each interaction sub-block; the others
    #: share a pin.
    DIGESTS = {
        "default": ("14254a62302e762be50fd067e9518ef49ba39a8c37ac6cb4c013fb1cf42bfbd9",
                    "fae74727f9699bea95debe06a5cf8ac62c280668e4b16ba5f1ba082540398d07"),
        "wide": ("588ceac5fb067ce2a581a5642ee005bd273e39eccaf8dc4ff61d6c675414951a",
                 "8a5567d3ad03c40fed062e67338ba70768d526ece8c1cb0d7e23904a64a9ed5e"),
    }
    CONFIGS = {
        "default": {},
        "wide": dict(d_model=12, n_heads=3, d_k=4, d_v=6, n_blocks=3),
    }

    @pytest.mark.parametrize("name", list(CONFIGS))
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_arrays_are_bitwise_the_pinned_ones(self, variant, name):
        """Guards the draw order: token weights, each interaction sub-block then
        its encoders, the temporal sub-block, the decoder's."""
        weights = PipelineWeights.seeded(PipelineConfig(variant=variant, **self.CONFIGS[name]),
                                         seed=5)
        digest = hashlib.sha256()
        for array in weight_arrays(weights):
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.DIGESTS[name][variant is Variant.RPE]

    @pytest.mark.parametrize("variant", [Variant.PLAIN, Variant.RPE], ids=lambda v: v.value)
    def test_a_model_is_read_only_views_of_one_read_only_buffer(self, variant):
        config = small_config(variant, n_blocks=2)
        arrays = weight_arrays(PipelineWeights.seeded(config, seed=3))
        base = arrays[0].base
        assert base.base is None and not base.flags.writeable
        assert all(array.base is base and not array.flags.writeable for array in arrays)
        assert base.size == sum(array.size for array in arrays)

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_every_array_is_read(self, variant):
        """Noise on any one seeded array moves the newest logits of a short rollout."""
        config = small_config(variant)
        weights = PipelineWeights.seeded(config, seed=1)
        scene = small_scene(1, n_agents=4)
        rng = np.random.default_rng(1)

        def newest_logits(model):
            policy = PipelinePolicy(model, config)
            rollout(scene, policy, 2)
            return policy._decoder.last.logits[:, -1]

        unperturbed = newest_logits(weights)
        for index, array in enumerate(weight_arrays(weights)):
            noisy = with_array(weights, array, array + rng.standard_normal(array.shape))
            assert not np.array_equal(newest_logits(noisy), unperturbed), index


class TestSceneRotationProperty:
    def test_angle_head_attention_invariant_under_scene_rotation(self):
        """Rotating the scene rigidly preserves the heading-head attention rows.

        The position-head rows are not asserted: the axis-split position
        embedding is translation-invariant but not rotation-invariant.
        """
        from drope.attention import PoseSet, QKVSet, Variant, mhsa
        from drope.rotary import FrequencySchedule

        rng = np.random.default_rng(20)
        qkv = QKVSet.random(5, 2, 2, 3, rng)
        poses = PoseSet.random(5, rng)
        sched = FrequencySchedule.default(2)
        c, s, about = np.cos(0.9), np.sin(0.9), np.array([3.0, -4.0])
        turned = PoseSet((poses.positions - about) @ np.array([[c, s], [-s, c]]) + about,
                         poses.headings + 0.9)
        # under an identity value bank each output row is that row's weights
        weighed = QKVSet(qkv.q, qkv.k, np.broadcast_to(np.eye(5)[:, None], (5, 2, 5)))
        base, rotated = (mhsa(weighed, moved, Variant.DROPE_HBH, sched=sched).per_head
                         for moved in (poses, turned))
        angle_heads = slice(1, None, 2)
        assert np.max(
            np.abs(rotated[:, angle_heads] - base[:, angle_heads])
        ) < 1e-8


class TestConfigValidation:
    def test_head_by_head_needs_two_heads(self):
        with pytest.raises(ConfigurationError):
            small_config(n_heads=1)

    @pytest.mark.parametrize("field", ["n_heads", "d_k", "d_v"])
    @pytest.mark.parametrize("value", [0, -4])
    def test_sizes_must_be_positive(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be a positive int"):
            small_config(Variant.PLAIN, **{field: value})

    def test_schedule_built_once_per_config(self):
        assert FrequencySchedule.default(4) is FrequencySchedule.default(4)

    def test_rpe_pipeline_runs(self):
        config = small_config(Variant.RPE)
        weights = PipelineWeights.seeded(config, seed=21)
        distribution, _ = forward(small_scene(21), weights, config)
        assert np.all(np.isfinite(distribution.logits))
