"""Numerical property suite behind the verify command.

Each check is pure and seeded; the suite returns one result per property
with the worst observed error and its tolerance. A check is one call per
d_k or per variant over its whole trial bank, and every rotation goes
through ``rotate_pairs``, the kernel the engines run: the rotation
properties compare (trials, 2, 2) stacks of ``rotate2d``, the embedding
properties embed whole banks, and the engine properties stack their cases
on a batch axis, so each engine run is one ``mhsa`` call over all cases.
Row-wise dot products are stacked (n, 1, W) @ (n, W, 1) matmuls, which
round as a 1-D ``@`` does. The optional fault injection, the negative
control for the whole apparatus, turns heading pair l by heading * freqs[l],
which breaks exactly the angle-periodicity properties. Its mutants live here
only: ``rope_embed`` of the headings for the embedding checks and
``_FaultyPoseSet`` poses for the engine checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .attention import ROTARY_VARIANTS, PoseSet, QKVSet, Variant, mhsa, recording
from .errors import ConfigurationError, empty_array
from .rotary import (
    TWO_PI,
    FrequencySchedule,
    drope_embed,
    rope_embed,
    rotate2d,
    wrap_angle,
)

__all__ = [
    "FAULT_ROPE_FREQS_IN_FANGLE",
    "ROPE_GAP_MIN",
    "DROPE_GAP_MAX",
    "PropertyResult",
    "VerificationConfig",
    "periodicity_gaps",
    "run_verification",
]

FAULT_ROPE_FREQS_IN_FANGLE = "rope-freqs-in-fangle"

#: Thresholds on the operator gaps of ``periodicity_gaps`` at d_k = 8.
ROPE_GAP_MIN = 1e-3
DROPE_GAP_MAX = 1e-10
#: Random (q, k) pairs whose gaps the periodicity counterexample reports.
COUNTEREXAMPLE_SEEDS = 100


def periodicity_gaps(embed, q, k):
    """The three-heading test of an embedding ``embed(x, theta)`` of (..., W) vectors.

    The token pairs at headings (pi/2, 0) and (0, 3*pi/2) have equal wrapped
    relative angles. Returns their dot products q.A.k and q.B.k and the
    operator gap ||A - B||_2: 2 * max_l |sin(pi * f_l)| for pair frequencies
    f_l, so 0 up to rounding at the uniform frequency, whatever q and k are.
    """
    thetas = (math.pi / 2.0, 0.0, 3.0 * math.pi / 2.0)
    lhs = np.einsum("...i,...i->...", embed(q, thetas[0]), embed(k, thetas[1]))
    rhs = np.einsum("...i,...i->...", embed(q, thetas[1]), embed(k, thetas[2]))
    e0, e1, e2 = (embed(np.eye(q.shape[-1]), theta) for theta in thetas)
    return lhs, rhs, float(np.linalg.norm(e0 @ e1.T - e1 @ e2.T, 2))


@dataclass
class PropertyResult:
    name: str
    trials: int
    max_error: float
    tolerance: float
    passed: bool
    detail: str

    def __post_init__(self):
        self.trials = int(self.trials)
        self.max_error = float(self.max_error)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.passed)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass
class VerificationConfig:
    seed: int = 0
    trials: int = 1000
    d_k_values: tuple = (1, 2, 8, 32)
    fault_injection: str | None = None


class _FaultyPoseSet(PoseSet):
    """Poses whose heading pairs turn by heading * freqs[l] with the engine's
    schedule: the per-pair-frequency mutant of the engine checks."""

    def _heading_angles(self, n_pairs, sched):
        return self.headings[..., None] * sched.freqs[:n_pairs]


def _injects_fault(cfg: VerificationConfig) -> bool:
    """Whether ``cfg`` injects the fault; an unknown fault name is a ``ConfigurationError``."""
    if cfg.fault_injection not in (None, FAULT_ROPE_FREQS_IN_FANGLE):
        raise ConfigurationError(f"unknown fault injection {cfg.fault_injection!r}")
    return cfg.fault_injection is not None


def _heading_embed(cfg: VerificationConfig, sched: FrequencySchedule):
    """The heading embedding: ``drope_embed``, or under the fault ``rope_embed``."""
    if _injects_fault(cfg):
        return lambda x, theta: rope_embed(x, theta, sched)
    return drope_embed


def _shift_errors(d1: np.ndarray, d2: np.ndarray, q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """|d1 - d2| over sum_l |q_l| |k_l| for the 2D pairs l: a bound on both dot
    products that rotation keeps and, unlike a dot product, never near 0 by chance."""
    q_norms, k_norms = (np.hypot(x[..., 0::2], x[..., 1::2]) for x in (q, k))
    return np.abs(d1 - d2) / np.maximum(np.sum(q_norms * k_norms, axis=-1), 1e-30)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of matching rows of two (n, W) banks, as one stacked
    (n, 1, W) @ (n, W, 1) product, which rounds as ``a[i] @ b[i]`` does row by row."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _rel_errors(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per case of two (C, N, W) output stacks, max |a - b| over the larger max |.|."""
    def peak(x):
        return np.max(np.abs(x), axis=(-2, -1))

    return peak(a - b) / np.maximum(np.maximum(peak(a), peak(b)), 1e-30)


def _check_rotation_group_law(cfg: VerificationConfig) -> PropertyResult:
    rng = np.random.default_rng(cfg.seed + 1)
    tol = 1e-12
    # the trial count first becomes an array here; a size numpy cannot address fails at once
    a, b = empty_array((2, cfg.trials), "the rotation trial angles")
    for angles in (a, b):   # as rng.uniform(-100.0, 100.0, cfg.trials) draws them
        rng.random(out=angles)
        angles *= 200.0
        angles -= 100.0
    worst = float(np.max(np.abs(rotate2d(a) @ rotate2d(b) - rotate2d(a + b))))
    return PropertyResult(
        "rotation_group_law", cfg.trials, worst, tol, worst < tol,
        "R(a) @ R(b) == R(a+b) for |a|,|b| <= 100",
    )


def _check_transpose_inverse(cfg: VerificationConfig) -> PropertyResult:
    rng = np.random.default_rng(cfg.seed + 2)
    tol = 1e-12
    theta = rng.uniform(-100.0, 100.0, cfg.trials)
    worst = float(np.max(np.abs(rotate2d(theta).swapaxes(-2, -1) - rotate2d(-theta))))
    return PropertyResult(
        "rotation_transpose_inverse", cfg.trials, worst, tol, worst < tol,
        "R(a).T == R(-a)",
    )


def _check_norm_preservation(cfg: VerificationConfig) -> PropertyResult:
    rng = np.random.default_rng(cfg.seed + 3)
    tol = 1e-10
    worst = 0.0
    trials = 0
    for d_k in cfg.d_k_values:
        sched = FrequencySchedule.default(d_k)
        n = max(1, cfg.trials // len(cfg.d_k_values))
        x = rng.standard_normal((n, 2 * d_k))
        positions = rng.uniform(-100.0, 100.0, n)
        thetas = rng.uniform(0.0, TWO_PI, n)
        base = np.sqrt(_row_dots(x, x))
        for embedded in (rope_embed(x, positions, sched), drope_embed(x, thetas)):
            norms = np.sqrt(_row_dots(embedded, embedded))
            worst = max(worst, float(np.max(np.abs(norms - base) / base)))
        trials += n
    return PropertyResult(
        "embedding_norm_preservation", trials, worst, tol, worst < tol,
        "both embeddings preserve vector norms (relative)",
    )


def _check_position_shift_identity(cfg: VerificationConfig) -> PropertyResult:
    rng = np.random.default_rng(cfg.seed + 4)
    tol = 1e-8
    worst = 0.0
    trials = 0
    for d_k in cfg.d_k_values:
        sched = FrequencySchedule.default(d_k)
        n = max(1, cfg.trials // len(cfg.d_k_values))
        q = rng.standard_normal((n, 2 * d_k))
        k = rng.standard_normal((n, 2 * d_k))
        m_i = rng.uniform(-1000.0, 1000.0, n)
        m_j = rng.uniform(-1000.0, 1000.0, n)
        offset = rng.uniform(-500.0, 500.0, n)
        d1 = _row_dots(rope_embed(q, m_i, sched), rope_embed(k, m_j, sched))
        d2 = _row_dots(rope_embed(q, m_i + offset, sched), rope_embed(k, m_j + offset, sched))
        worst = max(worst, float(np.max(_shift_errors(d1, d2, q, k))))
        trials += n
    return PropertyResult(
        "position_shift_identity", trials, worst, tol, worst < tol,
        "QK dot products depend only on the relative scalar position",
    )


def _check_angle_shift_identity(cfg: VerificationConfig) -> PropertyResult:
    rng = np.random.default_rng(cfg.seed + 5)
    tol = 1e-8
    worst = 0.0
    trials = 0
    for d_k in cfg.d_k_values:
        embed = _heading_embed(cfg, FrequencySchedule.default(d_k))
        n = max(4, cfg.trials // len(cfg.d_k_values))
        q = rng.standard_normal((n, 2 * d_k))
        k = rng.standard_normal((n, 2 * d_k))
        theta_i = rng.uniform(0.0, TWO_PI, n)
        theta_j = rng.uniform(0.0, TWO_PI, n)
        delta = rng.uniform(0.0, TWO_PI, n)
        # force wrap-around pairs: every 4th trial pushes exactly one of the
        # two headings across 2*pi
        theta_i[::4] = 0.2
        theta_j[::4] = 5.9
        delta[::4] = 1.0
        # einsum, not _row_dots: the reported figures carry its rounding
        d1 = np.einsum("td,td->t", embed(q, theta_i), embed(k, theta_j))
        d2 = np.einsum(
            "td,td->t", embed(q, wrap_angle(theta_i + delta)), embed(k, wrap_angle(theta_j + delta))
        )
        worst = max(worst, float(np.max(_shift_errors(d1, d2, q, k))))
        trials += n
    return PropertyResult(
        "angle_shift_identity", trials, worst, tol, worst < tol,
        "heading-embedded dot products depend only on the wrapped relative angle",
    )


def _check_counterexample(cfg: VerificationConfig) -> PropertyResult:
    d_k = 8
    sched = FrequencySchedule.default(d_k)
    q, k = np.stack([
        np.random.default_rng(cfg.seed + 1000 + seed).standard_normal((2, 2 * d_k))
        for seed in range(COUNTEREXAMPLE_SEEDS)
    ], axis=1)
    rope_lhs, rope_rhs, rope_gap = periodicity_gaps(lambda x, t: rope_embed(x, t, sched), q, k)
    drope_lhs, drope_rhs, drope_gap = periodicity_gaps(_heading_embed(cfg, sched), q, k)
    rope_pairs = np.abs(rope_lhs - rope_rhs)
    return PropertyResult(
        "angle_periodicity_counterexample", COUNTEREXAMPLE_SEEDS, drope_gap, DROPE_GAP_MAX,
        rope_gap > ROPE_GAP_MIN and drope_gap < DROPE_GAP_MAX,
        f"operator gap ||A - B||_2: multi-frequency {rope_gap:.3e} (must exceed "
        f"{ROPE_GAP_MIN:g}), uniform-frequency {drope_gap:.3e}; random (q, k) pair "
        f"gaps: multi-frequency min {rope_pairs.min():.3e} median "
        f"{np.median(rope_pairs):.3e}, uniform-frequency max "
        f"{np.max(np.abs(drope_lhs - drope_rhs)):.3e}",
    )


def _engine_bank(cfg: VerificationConfig, salt: int, draw=lambda rng: ()):
    """The engine checks' cases as one bank: C cases of 6 tokens, 2 heads and
    d_k = d_v = 4 stacked on a leading axis, so one ``mhsa`` call runs them all.

    Each case's ``draw(rng)`` is taken right after its banks and poses, as
    drawing case by case takes it. Returns the (C, 6, ...) ``QKVSet``, the
    poses and the stacked draws. The poses are a ``_FaultyPoseSet`` under
    the fault, so a check builds its moved poses as ``type(poses)``.
    """
    rng = np.random.default_rng(cfg.seed + salt)
    n_cases = max(3, min(cfg.trials // 100, 20))

    def case():
        qkv, poses = QKVSet.random(6, 2, 4, 4, rng), PoseSet.random(6, rng)
        return qkv.q, qkv.k, qkv.v, poses.positions, poses.headings, draw(rng)

    q, k, v, positions, headings, draws = map(np.stack, zip(*(case() for _ in range(n_cases))))
    pose_type = _FaultyPoseSet if _injects_fault(cfg) else PoseSet
    return QKVSet(q, k, v), pose_type(positions, headings), draws


def _check_translation_invariance(cfg: VerificationConfig) -> PropertyResult:
    tol = 1e-8
    qkv, poses, shifts = _engine_bank(cfg, 6, lambda rng: rng.uniform(-100.0, 100.0, 2))
    moved = type(poses)(poses.positions + shifts[:, None, :], poses.headings)
    errors = np.array([
        _rel_errors(mhsa(qkv, poses, variant).merged, mhsa(qkv, moved, variant).merged)
        for variant in ROTARY_VARIANTS
    ])
    worst = float(np.max(errors))
    return PropertyResult(
        "engine_translation_invariance", errors.size, worst, tol, worst < tol,
        "rotary-variant outputs are unchanged by common translations",
    )


def _check_heading_shift_invariance(cfg: VerificationConfig) -> PropertyResult:
    tol = 1e-8
    qkv, poses, draws = _engine_bank(cfg, 7, lambda rng: rng.uniform(0.0, TWO_PI))
    wrap_shifts = TWO_PI - np.max(poses.headings, axis=-1) + 0.1
    shifts = np.stack([draws, np.full_like(draws, TWO_PI), wrap_shifts])[..., None]
    # the three shifts of every case as one (3, C, 6, ...) bank
    tiled = QKVSet(*(np.broadcast_to(bank, (3,) + bank.shape) for bank in (qkv.q, qkv.k, qkv.v)))
    moved = type(poses)(np.broadcast_to(poses.positions, (3,) + poses.positions.shape),
                        poses.headings + shifts)
    errors = np.array([
        _rel_errors(mhsa(qkv, poses, variant).merged, mhsa(tiled, moved, variant).merged)
        for variant in (Variant.DROPE_HBH, Variant.DROPE_IH)
    ])
    worst = float(np.max(errors))
    return PropertyResult(
        "engine_heading_shift_invariance", errors.size, worst, tol, worst < tol,
        "directional-variant outputs are unchanged by common heading shifts, "
        "including shifts that wrap individual headings across 0",
    )


def _check_rows_stochastic(cfg: VerificationConfig) -> PropertyResult:
    tol = 1e-9
    qkv, poses, _ = _engine_bank(cfg, 8)
    variants = [variant for variant in Variant if variant is not Variant.RPE]
    with recording() as records:
        for variant in variants:
            mhsa(qkv, poses, variant)
    alpha = np.stack([record.weights for record in records])
    worst = float(max(np.max(np.abs(alpha.sum(axis=-1) - 1.0)),
                      np.max(-alpha, initial=0.0), np.max(alpha - 1.0, initial=0.0)))
    return PropertyResult(
        "attention_rows_stochastic", len(variants) * len(qkv.q), worst, tol, worst < tol,
        "retained attention rows sum to 1 with entries in [0, 1]",
    )


def _check_permutation_equivariance(cfg: VerificationConfig) -> PropertyResult:
    tol = 1e-10
    qkv, poses, perms = _engine_bank(cfg, 9, lambda rng: rng.permutation(6))
    rows = (np.arange(len(perms))[:, None], perms)
    permuted_qkv = QKVSet(qkv.q[rows], qkv.k[rows], qkv.v[rows])
    permuted_poses = type(poses)(poses.positions[rows], poses.headings[rows])
    variants = (Variant.PLAIN, Variant.ROPE, Variant.DROPE_HBH, Variant.DROPE_IH)
    worst = max(
        float(np.max(np.abs(mhsa(permuted_qkv, permuted_poses, variant).merged
                            - mhsa(qkv, poses, variant).merged[rows])))
        for variant in variants
    )
    return PropertyResult(
        "permutation_equivariance", len(variants) * len(perms), worst, tol, worst < tol,
        "permuting tokens and poses permutes the output rows",
    )


_CHECKS = (
    _check_rotation_group_law,
    _check_transpose_inverse,
    _check_norm_preservation,
    _check_position_shift_identity,
    _check_angle_shift_identity,
    _check_counterexample,
    _check_translation_invariance,
    _check_heading_shift_invariance,
    _check_rows_stochastic,
    _check_permutation_equivariance,
)


def run_verification(cfg: VerificationConfig) -> list[PropertyResult]:
    """Run every property check; deterministic for a fixed configuration."""
    if cfg.trials < 1:
        raise ConfigurationError(f"trials must be positive, got {cfg.trials}")
    if not cfg.d_k_values:
        raise ConfigurationError(f"d_k_values must be non-empty, got {cfg.d_k_values!r}")
    _injects_fault(cfg)  # validate the fault name early
    return [check(cfg) for check in _CHECKS]
