"""Directional rotary position embedding: kernels, attention engines,
complexity ledgers, and a toy trajectory-generation pipeline."""

from .attention import (
    AttentionOutput,
    AttentionRecord,
    PoseSet,
    QKVSet,
    RPEEncoders,
    Variant,
    attention_backward,
    mhca,
    mhsa,
    mhsa_causal,
    recording,
)
from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    DropeError,
    InvalidArgumentError,
    VerificationError,
)
from .kinematics import (
    ActionGrid,
    AgentState,
    ControlAction,
    ZERO_ACTION,
    advance_states,
    kinematic_step,
    min_ade,
)
from .pipeline import (
    ActionDistribution,
    ConstantActionPolicy,
    PipelineConfig,
    PipelinePolicy,
    PipelineWeights,
    SceneTokens,
    decode_actions,
    forward,
    interaction_step,
    replay_actions,
    rollout,
    rollout_samples,
    temporal_step,
    tokenize_scene,
    write_trajectory_csv,
)
from .profiling import (
    FlopReport,
    MemoryReport,
    SweepPoint,
    check_sweep_trends,
    count_flops,
    count_input_memory,
    sweep,
    verify_memory_ledger,
)
from .rotary import (
    FrequencySchedule,
    drope_embed,
    heading_pair_angles,
    planar_pair_angles,
    rope_embed,
    rotate2d,
    rotate_pairs,
    wrap_angle,
)
from .scene import (
    MapSegment,
    Scene,
    load_scene,
    make_constant_velocity_scene,
    make_scene,
    save_scene,
    segment_polyline,
)
from .verification import (
    FAULT_ROPE_FREQS_IN_FANGLE,
    PropertyResult,
    VerificationConfig,
    run_verification,
)

__version__ = "0.1.0"
