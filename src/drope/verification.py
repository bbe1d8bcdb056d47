"""Numerical property suite behind the verify command.

Each check is pure and seeded; the suite returns one result per property
with the worst observed error and its tolerance. The optional fault
injection routes the multi-frequency schedule into the heading embedding,
which breaks exactly the angle-periodicity properties and serves as the
negative control for the whole apparatus.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .attention import PoseSet, QKVSet, Variant, mhsa, recording
from .errors import ConfigurationError, empty_array
from .rotary import (
    TWO_PI,
    FrequencySchedule,
    drope_embed,
    heading_pair_angles,
    rope_embed,
    rotate2d,
    rotate_pairs,
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
    detail: str = ""

    def __post_init__(self):
        self.trials = int(self.trials)
        self.max_error = float(self.max_error)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.passed)

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class VerificationConfig:
    seed: int = 0
    trials: int = 1000
    d_k_values: tuple = (1, 2, 8, 32)
    fault_injection: str | None = None

    def angle_freqs(self, sched: FrequencySchedule):
        if self.fault_injection is None:
            return None
        if self.fault_injection == FAULT_ROPE_FREQS_IN_FANGLE:
            return sched.freqs
        raise ConfigurationError(f"unknown fault injection {self.fault_injection!r}")


def _shift_errors(d1: np.ndarray, d2: np.ndarray, q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """|d1 - d2| over sum_l |q_l| |k_l| for the 2D pairs l: a bound on both dot
    products that rotation keeps and, unlike a dot product, never near 0 by chance."""
    q_norms, k_norms = (np.hypot(x[..., 0::2], x[..., 1::2]) for x in (q, k))
    return np.abs(d1 - d2) / np.maximum(np.sum(q_norms * k_norms, axis=-1), 1e-30)


def _rel_err_arrays(a: np.ndarray, b: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-30)
    return float(np.max(np.abs(a - b)) / scale)


def _check_rotation_group_law(cfg: VerificationConfig) -> PropertyResult:
    rng = np.random.default_rng(cfg.seed + 1)
    tol = 1e-12
    # the trial count first becomes an array here; a size numpy cannot address fails at once
    a, b = empty_array((2, cfg.trials), "the rotation trial angles")
    for angles in (a, b):   # as rng.uniform(-100.0, 100.0, cfg.trials) draws them
        rng.random(out=angles)
        angles *= 200.0
        angles -= 100.0
    worst = 0.0
    for ai, bi in zip(a, b):
        gap = np.max(np.abs(rotate2d(ai) @ rotate2d(bi) - rotate2d(ai + bi)))
        worst = max(worst, float(gap))
    return PropertyResult(
        "rotation_group_law", cfg.trials, worst, tol, worst < tol,
        "R(a) @ R(b) == R(a+b) for |a|,|b| <= 100",
    )


def _check_transpose_inverse(cfg: VerificationConfig) -> PropertyResult:
    rng = np.random.default_rng(cfg.seed + 2)
    tol = 1e-12
    worst = 0.0
    for theta in rng.uniform(-100.0, 100.0, cfg.trials):
        gap = np.max(np.abs(rotate2d(theta).T - rotate2d(-theta)))
        worst = max(worst, float(gap))
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
        for i in range(n):
            base = np.linalg.norm(x[i])
            roped = np.linalg.norm(rope_embed(x[i], positions[i], sched))
            droped = np.linalg.norm(drope_embed(x[i], thetas[i]))
            worst = max(worst, abs(roped - base) / base, abs(droped - base) / base)
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
        d1 = np.empty(n)
        d2 = np.empty(n)
        for t in range(n):
            d1[t] = rope_embed(q[t], m_i[t], sched) @ rope_embed(k[t], m_j[t], sched)
            d2[t] = (
                rope_embed(q[t], m_i[t] + offset[t], sched)
                @ rope_embed(k[t], m_j[t] + offset[t], sched)
            )
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
        sched = FrequencySchedule.default(d_k)
        freqs = cfg.angle_freqs(sched)
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
        d1 = np.einsum(
            "td,td->t",
            rotate_pairs(q, heading_pair_angles(theta_i, d_k, freqs)),
            rotate_pairs(k, heading_pair_angles(theta_j, d_k, freqs)),
        )
        d2 = np.einsum(
            "td,td->t",
            rotate_pairs(q, heading_pair_angles(wrap_angle(theta_i + delta), d_k, freqs)),
            rotate_pairs(k, heading_pair_angles(wrap_angle(theta_j + delta), d_k, freqs)),
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
    freqs = cfg.angle_freqs(sched)
    q, k = np.stack([
        np.random.default_rng(cfg.seed + 1000 + seed).standard_normal((2, 2 * d_k))
        for seed in range(COUNTEREXAMPLE_SEEDS)
    ], axis=1)
    rope_lhs, rope_rhs, rope_gap = periodicity_gaps(lambda x, t: rope_embed(x, t, sched), q, k)
    drope_lhs, drope_rhs, drope_gap = periodicity_gaps(lambda x, t: drope_embed(x, t, freqs), q, k)
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


@dataclass
class _EngineCase:
    qkv: QKVSet
    poses: PoseSet
    sched: FrequencySchedule


def _engine_cases(cfg: VerificationConfig, salt: int):
    rng = np.random.default_rng(cfg.seed + salt)
    n_cases = max(3, min(cfg.trials // 100, 20))
    d_k = 4
    for _ in range(n_cases):
        yield rng, _EngineCase(
            qkv=QKVSet.random(6, 2, d_k, 4, rng),
            poses=PoseSet.random(6, rng),
            sched=FrequencySchedule.default(d_k),
        )


def _run_engine(case: _EngineCase, variant, poses, cfg: VerificationConfig):
    return mhsa(
        case.qkv, poses, variant,
        sched=case.sched, angle_freqs=cfg.angle_freqs(case.sched),
    )


def _check_translation_invariance(cfg: VerificationConfig) -> PropertyResult:
    tol = 1e-8
    worst = 0.0
    trials = 0
    for variant in (Variant.ROPE, Variant.DROPE_HBH, Variant.DROPE_IH):
        for rng, case in _engine_cases(cfg, 6):
            base = _run_engine(case, variant, case.poses, cfg)
            shifted = case.poses.translated(*rng.uniform(-100.0, 100.0, 2))
            moved = _run_engine(case, variant, shifted, cfg)
            worst = max(worst, _rel_err_arrays(base.merged, moved.merged))
            trials += 1
    return PropertyResult(
        "engine_translation_invariance", trials, worst, tol, worst < tol,
        "rotary-variant outputs are unchanged by common translations",
    )


def _check_heading_shift_invariance(cfg: VerificationConfig) -> PropertyResult:
    tol = 1e-8
    worst = 0.0
    trials = 0
    for variant in (Variant.DROPE_HBH, Variant.DROPE_IH):
        for rng, case in _engine_cases(cfg, 7):
            base = _run_engine(case, variant, case.poses, cfg)
            wrap_shift = TWO_PI - float(np.max(case.poses.headings)) + 0.1
            for shift in (float(rng.uniform(0.0, TWO_PI)), TWO_PI, wrap_shift):
                moved = _run_engine(case, variant, case.poses.heading_shifted(shift), cfg)
                worst = max(worst, _rel_err_arrays(base.merged, moved.merged))
                trials += 1
    return PropertyResult(
        "engine_heading_shift_invariance", trials, worst, tol, worst < tol,
        "directional-variant outputs are unchanged by common heading shifts, "
        "including shifts that wrap individual headings across 0",
    )


def _check_rows_stochastic(cfg: VerificationConfig) -> PropertyResult:
    tol = 1e-9
    worst = 0.0
    trials = 0
    for variant in Variant:
        if variant is Variant.RPE:
            continue
        for _rng, case in _engine_cases(cfg, 8):
            with recording() as records:
                _run_engine(case, variant, case.poses, cfg)
            alpha = records[0].weights
            worst = max(worst, float(np.max(np.abs(alpha.sum(axis=-1) - 1.0))))
            in_range = float(max(np.max(-alpha, initial=0.0), np.max(alpha - 1.0, initial=0.0)))
            worst = max(worst, in_range)
            trials += 1
    return PropertyResult(
        "attention_rows_stochastic", trials, worst, tol, worst < tol,
        "retained attention rows sum to 1 with entries in [0, 1]",
    )


def _check_permutation_equivariance(cfg: VerificationConfig) -> PropertyResult:
    tol = 1e-10
    worst = 0.0
    trials = 0
    for variant in (Variant.PLAIN, Variant.ROPE, Variant.DROPE_HBH, Variant.DROPE_IH):
        for rng, case in _engine_cases(cfg, 9):
            base = _run_engine(case, variant, case.poses, cfg)
            perm = rng.permutation(case.qkv.n_tokens)
            permuted_qkv = QKVSet(case.qkv.q[perm], case.qkv.k[perm], case.qkv.v[perm])
            permuted_case = _EngineCase(permuted_qkv, case.poses.permuted(perm), case.sched)
            permuted = _run_engine(permuted_case, variant, permuted_case.poses, cfg)
            worst = max(worst, float(np.max(np.abs(permuted.merged - base.merged[perm]))))
            trials += 1
    return PropertyResult(
        "permutation_equivariance", trials, worst, tol, worst < tol,
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
    cfg.angle_freqs(FrequencySchedule.default(2))  # validate the fault name early
    return [check(cfg) for check in _CHECKS]
