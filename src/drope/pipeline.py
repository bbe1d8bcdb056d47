"""Toy trajectory-generation pipeline on synthetic scenes.

Forward pass: tokenize the scene (tokens carry shape and velocity features
only, never absolute pose), run interaction blocks (agent self-attention per
timestep, map self-attention, then agent-to-map cross-attention, each an
attention sub-block with a residual two-layer feed-forward), add a sinusoidal
temporal encoding and run causal self-attention along each agent's token
sequence, and decode per-step logits over the discrete action grid. Time is
a batch axis: a block attends over all (T, A) agent tokens in one call per
sub-block, against map keys/values it projects once.

Rollout closes the loop: decode a distribution for the newest step, pick an
action (greedy or seeded sampling), advance all agents with one vectorized
kinematic update, repeat. ``PipelinePolicy`` decodes incrementally: the
interaction blocks treat each timestep on its own, the map never changes
during a rollout, and temporal attention is causal with a sinusoidal row per
step that does not depend on the sequence length. So the weights keep the
last map's keys/values, and each call encodes only the timesteps not yet seen
(on the first, all of them) in one batched pass, writes their temporal
keys/values into a preallocated cache that grows geometrically, and attends
from the newest step over it, giving the logits that tokenize_scene, the
interaction blocks, temporal_step and decode_actions give on the whole
history. K sampled rollouts are one rollout with K times the rows.
The attention sub-blocks compute ``tokens + FFN(W_o @ attention(tokens))``,
so a zero-weight FFN makes a block the identity whatever the projections.
Dense layers have no biases; the agent features carry a constant channel
instead.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .attention import (
    PoseSet,
    QKVSet,
    RPEEncoders,
    Variant,
    _encoder_shapes,
    mhca,
    mhsa,
    mhsa_causal,
)
from .errors import ConfigurationError, DimensionMismatchError, InvalidArgumentError, empty_array
from .kinematics import ActionGrid, ControlAction, advance_states, kinematic_step
from .rotary import _frozen, _seeded
from .scene import Scene

__all__ = [
    "PipelineConfig",
    "BlockWeights",
    "InteractionBlockWeights",
    "PipelineWeights",
    "SceneTokens",
    "ActionDistribution",
    "tokenize_scene",
    "interaction_step",
    "temporal_step",
    "decode_actions",
    "ConstantActionPolicy",
    "PipelinePolicy",
    "RolloutResult",
    "rollout",
    "rollout_samples",
    "replay_actions",
    "write_trajectory_csv",
    "AGENT_FEATURE_WIDTH",
    "FFN_HIDDEN",
    "ROLLOUT_SOFT_LIMIT_S",
]

AGENT_FEATURE_WIDTH = 2      # [speed, 1.0]
FFN_HIDDEN = 64              # hidden width of the sub-blocks' FFNs and the decoder
ROLLOUT_SOFT_LIMIT_S = 8.0   # longer horizons warn but proceed
CACHE_CHUNK_STEPS = 16       # the least number of steps the temporal K/V cache grows by


@dataclass(frozen=True)
class PipelineConfig:
    d_model: int = 64
    n_heads: int = 2
    d_k: int = 16                # rotary pairs per head; QK width 2*d_k
    d_v: int = 32
    n_blocks: int = 2
    variant: Variant = Variant.DROPE_HBH
    grid: ClassVar[ActionGrid] = ActionGrid.default()

    def __post_init__(self):
        if self.d_model <= 0 or self.d_model % 2 != 0:
            raise ConfigurationError(f"d_model must be a positive even int, got {self.d_model}")
        if self.n_blocks < 1:
            raise ConfigurationError("need at least one interaction block")
        for name in ("n_heads", "d_k", "d_v"):
            if (value := getattr(self, name)) <= 0:
                raise ConfigurationError(f"{name} must be a positive int, got {value}")
        if self.variant is Variant.DROPE_HBH and self.n_heads < 2:
            raise ConfigurationError("head-by-head integration needs at least 2 heads")

    @property
    def n_actions(self) -> int:
        return self.grid.n_actions


@dataclass(frozen=True, eq=False)
class BlockWeights:
    """Projections and feed-forward weights for one attention sub-block (read-only)."""

    w_q: np.ndarray    # (d_model, H, 2*d_k)
    w_k: np.ndarray    # (d_model, H, 2*d_k)
    w_v: np.ndarray    # (d_model, H, d_v)
    w_o: np.ndarray    # (H*d_v, d_model)
    ffn_w1: np.ndarray   # (d_model, FFN_HIDDEN)
    ffn_w2: np.ndarray   # (FFN_HIDDEN, d_model)
    enc: RPEEncoders | None   # pairwise-encoder variant's interaction sub-blocks only

    def __post_init__(self):
        for name in ("w_q", "w_k", "w_v", "w_o", "ffn_w1", "ffn_w2"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))


@dataclass(frozen=True)
class InteractionBlockWeights:
    agent_sa: BlockWeights
    map_sa: BlockWeights
    cross: BlockWeights


@dataclass(frozen=True, eq=False)
class PipelineWeights:
    """All learnable arrays of the pipeline, explicit, seed-reproducible and
    immutable (read-only arrays, see ``_frozen``; a tuple of blocks). A seeded
    model is one read-only buffer. ``_map`` keeps the config, segments,
    per-block map keys and values, and map poses that
    ``_IncrementalDecoder.for_map`` encoded last; a ``replace`` keeps none."""

    agent_w1: np.ndarray   # (AGENT_FEATURE_WIDTH, d_model)
    agent_w2: np.ndarray   # (d_model, d_model)
    map_point_w: np.ndarray  # (2, d_model), applied per local-frame point
    map_out_w: np.ndarray    # (d_model, d_model), after mean pooling
    blocks: tuple
    temporal: BlockWeights
    dec_w1: np.ndarray     # (d_model, FFN_HIDDEN)
    dec_w2: np.ndarray     # (FFN_HIDDEN, n_actions)
    _map: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        for name in ("agent_w1", "agent_w2", "map_point_w", "map_out_w", "dec_w1", "dec_w2"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        object.__setattr__(self, "blocks", tuple(self.blocks))

    @classmethod
    def seeded(cls, config: PipelineConfig, seed: int = 0) -> "PipelineWeights":
        """Every array drawn in turn into one buffer allocated up front, then made
        read-only: the token weights, each interaction sub-block (then, for the
        pairwise-encoder variant, its encoders), the temporal sub-block, the
        decoder's."""
        d, h, f, d_v = config.d_model, config.n_heads, FFN_HIDDEN, config.d_v
        sub = ((d, h, 2 * config.d_k),) * 2 + ((d, h, d_v), (h * d_v, d), (d, f), (f, d))
        enc = _encoder_shapes(config.d_k, d_v) if config.variant is Variant.RPE else ()
        ends = ((AGENT_FEATURE_WIDTH, d), (d, d), (2, d), (d, d), (d, f), (f, config.n_actions))
        n_subs, step = 3 * config.n_blocks, len(sub + enc)
        # sized before the shapes are listed, so a huge block count fails here at once
        size = sum(map(math.prod, ends + sub)) + n_subs * sum(map(math.prod, sub + enc))
        buffer = empty_array(size, "the model's weights")
        shapes = ends[:4] + (sub + enc) * n_subs + sub + ends[4:]   # in drawing order
        arrays = _seeded(np.random.default_rng(seed), buffer, shapes)
        subs = [BlockWeights(*arrays[i:i + 6],
                             enc=RPEEncoders(*arrays[i + 6:i + step]) if enc else None)
                for i in range(4, 4 + n_subs * step, step)]
        blocks = [InteractionBlockWeights(*subs[i:i + 3]) for i in range(0, n_subs, 3)]
        return cls(*arrays[:4], blocks, BlockWeights(*arrays[-8:-2], enc=None), *arrays[-2:])


@dataclass(eq=False)
class SceneTokens:
    """Pose-free token banks plus the stripped global poses."""

    agent_tokens: np.ndarray     # (n_agents, n_steps, d_model)
    map_tokens: np.ndarray       # (n_segments, d_model)
    agent_poses: PoseSet         # time-major: (n_steps, n_agents) poses
    map_poses: PoseSet


def tokenize_scene(scene: Scene, weights: PipelineWeights, config: PipelineConfig) -> SceneTokens:
    """Encode agents and map segments into pose-free feature tokens.

    Agent tokens see only speed (plus a constant channel); map tokens see
    only the anchor-frame shape. The global poses ride along separately for
    the attention embeddings.
    """
    _check_scene(scene)
    return SceneTokens(
        agent_tokens=_agent_tokens(scene.agent_states, weights),
        map_tokens=_map_tokens(scene, weights, config),
        agent_poses=_agent_poses(scene.agent_states.swapaxes(0, 1)),
        map_poses=scene.map_poses(),
    )


def _check_scene(scene: Scene) -> None:
    if scene.n_agents == 0 or scene.n_steps == 0 or not scene.segments:
        raise InvalidArgumentError("the scene needs agents, steps, and map segments")


def _map_tokens(scene: Scene, weights: PipelineWeights, config: PipelineConfig) -> np.ndarray:
    """(n_segments, d_model) map tokens."""
    map_tokens = np.empty((len(scene.segments), config.d_model))
    for index, segment in enumerate(scene.segments):
        point_feats = np.tanh(segment.local_shape @ weights.map_point_w)
        map_tokens[index] = point_feats.mean(axis=0) @ weights.map_out_w
    return map_tokens


def _agent_poses(states: np.ndarray) -> PoseSet:
    """The poses of [x, y, yaw, v] states of any leading shape."""
    return PoseSet(states[..., :2], states[..., 2])


def _agent_tokens(states: np.ndarray, weights: PipelineWeights) -> np.ndarray:
    """Agent tokens from [x, y, yaw, v] states of any leading shape; speed only."""
    speeds = states[..., 3]
    feats = np.stack([speeds, np.ones_like(speeds)], axis=-1)
    return np.tanh(feats @ weights.agent_w1) @ weights.agent_w2


def _project(tokens: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per-head projection of (..., d_model) tokens to (..., H, width)."""
    flat = tokens @ weights.reshape(weights.shape[0], -1)
    return flat.reshape(tokens.shape[:-1] + weights.shape[1:])


def _ffn(x: np.ndarray, bw: BlockWeights) -> np.ndarray:
    return np.tanh(x @ bw.ffn_w1) @ bw.ffn_w2


def _qkv(tokens: np.ndarray, bw: BlockWeights) -> QKVSet:
    """The sub-block's Q/K/V banks of (..., d_model) tokens, (..., H, width) each."""
    return QKVSet(*(_project(tokens, w) for w in (bw.w_q, bw.w_k, bw.w_v)))


def _self_block(tokens, poses, bw, config) -> np.ndarray:
    out = mhsa(_qkv(tokens, bw), poses, config.variant, enc=bw.enc)
    return tokens + _ffn(out.merged @ bw.w_o, bw)


def _map_block(map_tokens: np.ndarray, map_poses: PoseSet, block: InteractionBlockWeights,
               config: PipelineConfig):
    """One block's map self-attention: the new map tokens, and their
    cross-attention keys and values (the queries slot is never read)."""
    map_tokens = _self_block(map_tokens, map_poses, block.map_sa, config)
    keys = _project(map_tokens, block.cross.w_k)
    return map_tokens, QKVSet(keys, keys, _project(map_tokens, block.cross.w_v))


def _agent_interaction(agent_tokens, poses, map_kv: QKVSet, map_poses,
                       block: InteractionBlockWeights, config: PipelineConfig):
    """(..., A, d_model) agents through one block: self-attention, then to the map.

    ``map_kv`` holds the keys and values of the block's map tokens after its
    map self-attention; every leading index attends to the same map.
    """
    agent_tokens = _self_block(agent_tokens, poses, block.agent_sa, config)
    bw = block.cross
    queries = _project(agent_tokens, bw.w_q)
    # only the query bank of ``queries`` is read
    out = mhca(
        QKVSet(queries, queries, queries), map_kv, poses, map_poses, config.variant, enc=bw.enc
    )
    return agent_tokens + _ffn(out.merged @ bw.w_o, bw)


def interaction_step(
    tokens: SceneTokens, block: InteractionBlockWeights, config: PipelineConfig
) -> SceneTokens:
    """One interaction block: the map once, then the agents of all timesteps at once."""
    map_tokens, map_kv = _map_block(tokens.map_tokens, tokens.map_poses, block, config)
    agent_tokens = _agent_interaction(
        tokens.agent_tokens.swapaxes(0, 1), tokens.agent_poses, map_kv, tokens.map_poses,
        block, config,
    )
    return replace(tokens, agent_tokens=np.ascontiguousarray(agent_tokens.swapaxes(0, 1)),
                   map_tokens=map_tokens)


def _step_encoding(steps, d_model: int) -> np.ndarray:
    """Sinusoidal encoding rows of the given steps; each row depends on its step only."""
    scales = np.exp(-math.log(10000.0) * np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    angles = np.asarray(steps, dtype=np.float64)[:, None] * scales
    encoding = np.empty((angles.shape[0], d_model))
    encoding[:, 0::2] = np.sin(angles)
    encoding[:, 1::2] = np.cos(angles)
    return encoding


def temporal_step(agent_tokens: np.ndarray, bw: BlockWeights, config: PipelineConfig):
    """Causal self-attention along each agent's sequence of (n_agents, T, d_model)
    tokens, with the agents as the attention's batch axis.

    Output at step t depends only on inputs at steps <= t; masked positions
    are excluded before the softmax, so the guarantee is bitwise.
    """
    n_steps = agent_tokens.shape[1]
    encoded = agent_tokens + _step_encoding(np.arange(n_steps), config.d_model)[None]
    out = mhsa_causal(_qkv(encoded, bw))
    return encoded + _ffn(out.merged @ bw.w_o, bw)


@dataclass(eq=False)
class ActionDistribution:
    """Per-agent, per-step logits over the flat action grid."""

    logits: np.ndarray   # (n_agents, n_steps, n_actions)

    def probabilities(self) -> np.ndarray:
        peak = self.logits.max(axis=-1, keepdims=True)
        exp = np.exp(self.logits - peak)
        return exp / exp.sum(axis=-1, keepdims=True)

    def greedy_indices(self) -> np.ndarray:
        return self.logits.argmax(axis=-1)

    def sample_indices(self, rng) -> np.ndarray:
        probs = self.probabilities()
        flat = probs.reshape(-1, probs.shape[-1])
        draws = rng.random(flat.shape[0])
        cumulative = np.cumsum(flat, axis=-1)
        # a rounded cumsum can end below 1, under the largest draws
        indices = np.minimum((draws[:, None] > cumulative).sum(axis=-1), flat.shape[-1] - 1)
        return indices.reshape(probs.shape[:-1])


def decode_actions(agent_tokens: np.ndarray, weights: PipelineWeights,
                   config: PipelineConfig) -> ActionDistribution:
    """MLP from final agent tokens to action-grid logits; both must be finite."""
    if not np.isfinite(agent_tokens).all():
        raise InvalidArgumentError("agent tokens must be finite")
    logits = np.tanh(agent_tokens @ weights.dec_w1) @ weights.dec_w2
    if not np.isfinite(logits).all():
        raise InvalidArgumentError("decoder logits must be finite; check the decoder weights")
    return ActionDistribution(logits)


class ConstantActionPolicy:
    """Emits one fixed action for every agent at every step."""

    def __init__(self, action: ControlAction):
        self.action = action

    def actions(self, scene: Scene):
        return [self.action] * scene.n_agents


@dataclass
class _IncrementalDecoder:
    """What PipelinePolicy keeps to decode the next step of K histories of one map.

    Holds the map segments, per block the weights' kept cross-attention keys
    and values of the map tokens after its map self-attention, per history the
    states encoded so far (none in a fresh decoder; see ``_frozen``), the
    temporal keys and values of all K histories and their newest distribution.
    The temporal ``cache`` is preallocated, (K*n_agents, capacity, H, width)
    with history k's agents in the k-th run of rows and the keys also in the
    unread query slot; ``advance`` writes its steps in place, and
    ``_grown_cache`` sizes every buffer.
    """

    segments: tuple
    map_kv: tuple
    map_poses: PoseSet
    seen: tuple
    cache: QKVSet
    last: ActionDistribution | None = None

    @classmethod
    def for_map(cls, scenes: list, weights: PipelineWeights,
                config: PipelineConfig) -> "_IncrementalDecoder":
        """A decoder of the K ``scenes``' one map and agents that has encoded no timestep.

        The map's keys and values depend only on the immutable ``weights``, the
        config and the segments, so those the weights kept for a config equal
        to ``config`` and the scenes' segment objects are reused; else the map
        is encoded and kept in their place.
        """
        scene = scenes[0]
        _check_scene(scene)
        key = (config, tuple(scene.segments))   # segments compare by identity
        if weights._map is None or weights._map[:2] != key:
            map_tokens, map_poses = _map_tokens(scene, weights, config), scene.map_poses()
            map_kv = []
            for block in weights.blocks:
                map_tokens, block_kv = _map_block(map_tokens, map_poses, block, config)
                block_kv.k.flags.writeable = block_kv.v.flags.writeable = False
                map_kv.append(block_kv)
            object.__setattr__(weights, "_map", key + (tuple(map_kv), map_poses))
        _, segments, map_kv, map_poses = weights._map
        keys = np.zeros((len(scenes) * scene.n_agents, 0, config.n_heads, 2 * config.d_k))
        return cls(
            segments=segments,
            map_kv=map_kv,
            map_poses=map_poses,
            seen=(scene.agent_states[:, :0].copy(),) * len(scenes),
            cache=QKVSet(keys, keys, np.zeros(keys.shape[:-1] + (config.d_v,))),
        )

    def extends(self, scenes: list) -> bool:
        """Whether each of the K ``scenes`` has this decoder's map segments and
        agents and only appends timesteps, or none, to its states encoded so far.

        O(1) in the history when a scene's states share the read-only buffer
        of those encoded, since its rows are never written again; bitwise else.
        """
        return len(scenes) == len(self.seen) and all(
            tuple(scene.segments) == self.segments   # segments compare by identity
            and scene.n_agents == seen.shape[0]
            and scene.n_steps >= seen.shape[1]
            and (scene.agent_states.base is seen.base is not None
                 or np.array_equal(scene.agent_states[:, :seen.shape[1]], seen))
            for scene, seen in zip(scenes, self.seen)
        )

    def advance(self, scenes: list, weights: PipelineWeights,
                config: PipelineConfig) -> ActionDistribution:
        """Encode the new timesteps of the K ``scenes`` at once; decode the newest.

        The logits are (K*n_agents, 1, n_actions), history-major. With no new
        timestep this is the kept distribution. K histories that are one scene,
        as a rollout's samples are before their first step, go through the
        interaction blocks once, and their tokens are broadcast over K.
        """
        start, end = self.seen[0].shape[1], scenes[0].n_steps
        if end > start:
            distinct = scenes[:1] if all(scene is scenes[0] for scene in scenes) else scenes
            n_agents, n_new = scenes[0].n_agents, end - start
            # time-major new states of each distinct history, (k*new steps, n_agents, 4)
            states = np.empty((len(distinct), n_new, n_agents, 4))
            for index, scene in enumerate(distinct):
                states[index] = scene.agent_states[:, start:].swapaxes(0, 1)
            states = states.reshape(-1, n_agents, 4)
            tokens, poses = _agent_tokens(states, weights), _agent_poses(states)
            for block, map_kv in zip(weights.blocks, self.map_kv):
                tokens = _agent_interaction(tokens, poses, map_kv, self.map_poses, block, config)
            tokens = tokens.reshape(len(distinct), n_new, n_agents, -1).swapaxes(1, 2)
            if len(distinct) < len(scenes):
                tokens = np.broadcast_to(tokens, (len(scenes),) + tokens.shape[1:])
            encoded = (tokens.reshape(len(scenes) * n_agents, n_new, -1)
                       + _step_encoding(np.arange(start, end), config.d_model))
            bw = weights.temporal
            rows = _qkv(encoded, bw)
            if end > self.cache.n_tokens:
                self.cache = _grown_cache(self.cache, start, end)
            self.cache.k[:, start:end], self.cache.v[:, start:end] = rows.k, rows.v
            # the newest step is the last one, so the causal mask hides nothing
            query = rows.q[:, -1:]
            attended = mhca(QKVSet(query, query, query), self.cache.first(end), None, None,
                            Variant.PLAIN)
            self.last = decode_actions(encoded[:, -1:] + _ffn(attended.merged @ bw.w_o, bw),
                                       weights, config)
        self.seen = tuple(_frozen(scene.agent_states) for scene in scenes)
        return self.last


def _grown_cache(cache: QKVSet, n_kept: int, n_steps: int) -> QKVSet:
    """A buffer of ``n_steps`` plus half as many steps again, and at least
    ``CACHE_CHUNK_STEPS`` more, holding ``cache``'s first ``n_kept``: the
    buffer grows geometrically, so a rollout copies O(horizon) rows in all."""
    capacity = n_steps + max(n_steps // 2, CACHE_CHUNK_STEPS)
    keys = np.zeros(cache.k.shape[:1] + (capacity,) + cache.k.shape[2:])
    grown = QKVSet(keys, keys, np.zeros(keys.shape[:-1] + cache.v.shape[-1:]))
    grown.k[:, :n_kept], grown.v[:, :n_kept] = cache.k[:, :n_kept], cache.v[:, :n_kept]
    return grown


class PipelinePolicy:
    """Decodes the newest-step distribution and picks an action per agent.

    Every call runs one ``_IncrementalDecoder.advance``. On a growing history
    (the same map segments, the same agents, earlier states unchanged) it
    encodes only the new timesteps, and on the same history none; any other
    scene first gets a new decoder, which encodes its map unless the weights
    keep it (see ``for_map``). Either way the logits are those of the stages
    (``tokenize_scene``, every ``interaction_step``, ``temporal_step``,
    ``decode_actions``) on the full history, up to rounding. In
    ``rollout_samples`` one policy decodes K histories as one batch, and
    history k samples from ``Generator(seed + k)``.
    """

    def __init__(self, weights: PipelineWeights, config: PipelineConfig,
                 mode: str = "greedy", seed: int = 0):
        if mode not in ("greedy", "sample"):
            raise ConfigurationError(f"unknown policy mode {mode!r}")
        self.weights = weights
        self.config = config
        self.mode = mode
        self._seed = seed
        self._rngs = [np.random.default_rng(seed)]
        self._decoder: _IncrementalDecoder | None = None

    def actions(self, scene: Scene):
        return self._batch_actions([scene])[0]

    def _batch_actions(self, scenes: list) -> list:
        """Per-agent actions for each of K scenes of one map, agents and length."""
        # taken out while it changes, so a step that raises leaves no stale cache
        decoder, self._decoder = self._decoder, None
        if decoder is None or not decoder.extends(scenes):
            decoder = _IncrementalDecoder.for_map(scenes, self.weights, self.config)
        last = decoder.advance(scenes, self.weights, self.config)
        self._decoder = decoder
        n_agents = scenes[0].n_agents
        if self.mode == "greedy":
            indices = last.greedy_indices()[:, 0]
        else:
            self._rngs.extend(np.random.default_rng(self._seed + k)
                              for k in range(len(self._rngs), len(scenes)))
            indices = np.concatenate([
                ActionDistribution(logits).sample_indices(rng)
                for logits, rng in zip(last.logits.reshape(len(scenes), n_agents, -1), self._rngs)
            ])
        actions = [self.config.grid.action(int(index)) for index in indices]
        return [actions[k:k + n_agents] for k in range(0, len(actions), n_agents)]


@dataclass(eq=False)
class RolloutResult:
    """Predicted states (n_agents, horizon, 4) and the actions that produced them."""

    states: np.ndarray
    actions: list        # actions[agent][step] -> ControlAction
    dt: float

    def positions(self) -> np.ndarray:
        return self.states[:, :, :2]


def rollout(scene: Scene, policy, horizon: int) -> RolloutResult:
    """Autoregressive closed-loop rollout from the scene's last step: the
    one-sample case of ``rollout_samples``."""
    return rollout_samples(scene, policy, horizon, 1)[0]


def rollout_samples(scene: Scene, policy, horizon: int, samples: int) -> list[RolloutResult]:
    """``samples`` closed-loop rollouts from the scene's last step, run together.

    At each step the policy sees each history so far, all agents of all
    samples advance by one ``advance_states`` update, and the new states are
    appended before the next decision. A ``PipelinePolicy`` decodes the K
    histories as one batch, with the attention calls of one, and sample k
    draws from ``Generator(seed + k)``; any other policy's ``actions`` is
    asked once per history. Horizons beyond the soft 8 s limit warn but proceed.
    """
    if horizon < 1:
        raise InvalidArgumentError(f"horizon must be positive, got {horizon}")
    if samples < 1:
        raise InvalidArgumentError(f"samples must be positive, got {samples}")
    n_agents = scene.n_agents
    # allocated before the warning and any per-sample object, so a size that
    # cannot fit fails with one message
    states = empty_array((samples, n_agents, horizon, 4), "the rollout's state array")
    if horizon * scene.dt > ROLLOUT_SOFT_LIMIT_S + 1e-9:
        warnings.warn(
            f"horizon {horizon} steps at dt={scene.dt} s exceeds the "
            f"{ROLLOUT_SOFT_LIMIT_S} s soft limit; proceeding",
            stacklevel=2,
        )
    histories = [scene] * samples
    actions = [[[] for _ in range(n_agents)] for _ in range(samples)]
    # every sample's agents as rows of one (samples*n_agents, 4) array
    previous = np.concatenate([scene.agent_states[:, -1]] * samples)
    for step in range(horizon):
        if isinstance(policy, PipelinePolicy):
            step_actions = policy._batch_actions(histories)
        else:
            step_actions = [policy.actions(history) for history in histories]
        for sample_actions in step_actions:
            if len(sample_actions) != n_agents:
                raise DimensionMismatchError(
                    f"policy returned {len(sample_actions)} actions for {n_agents} agents"
                )
        controls = np.array(
            [(a.accel, a.yaw_rate) for sample_actions in step_actions for a in sample_actions]
        ).reshape(-1, 2)
        previous = advance_states(previous, controls, scene.dt)
        rows = previous.reshape(samples, n_agents, 4)
        states[:, :, step] = rows
        for per_agent, sample_actions in zip(actions, step_actions):
            for agent_actions, action in zip(per_agent, sample_actions):
                agent_actions.append(action)
        histories = [history.with_appended_states(row) for history, row in zip(histories, rows)]
    return [RolloutResult(states=sample_states, actions=per_agent, dt=scene.dt)
            for sample_states, per_agent in zip(states, actions)]


def replay_actions(initial_states, actions, dt: float) -> np.ndarray:
    """Cumulative kinematic replay of recorded actions; the rollout oracle."""
    n_agents = len(initial_states)
    horizon = len(actions[0])
    states = np.empty((n_agents, horizon, 4))
    for i in range(n_agents):
        state = initial_states[i]
        for t in range(horizon):
            state = kinematic_step(state, actions[i][t], dt)
            states[i, t] = state.as_array()
    return states


def write_trajectory_csv(path, result: RolloutResult) -> None:
    """CSV rows: scene_id, agent_id, t, x, y, yaw, v (shortest-roundtrip floats).

    A file holds one scene, so its ``scene_id`` column is always 0.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scene_id", "agent_id", "t", "x", "y", "yaw", "v"])
        n_agents, horizon, _ = result.states.shape
        for agent in range(n_agents):
            for t in range(horizon):
                x, y, yaw, v = (float(value) for value in result.states[agent, t])
                writer.writerow([0, agent, t, repr(x), repr(y), repr(yaw), repr(v)])
