"""Exact scalar-count and FLOP ledgers for the attention engines.

All counts are integers derived from closed forms; rerunning a count yields
the same integer. The conventions are fixed so the numbers are reproducible:

Memory (scalars a call materializes, each array whole; the arrays of one
category need not be live at the same time):
  * ``qkv_scalars``    = N*H*(2*(2*d_k) + d_v), the Q and K banks at width
    2*d_k plus the V bank. ``d_k`` counts 2D rotation pairs; the familiar
    symbolic form N*H*(2*d_k + d_v) uses d_k for the full QK width instead,
    and evaluates to the same integer.
  * ``pairwise_scalars`` = N^2*H*(2*d_k + d_v) for the pairwise-encoder
    variant (0 otherwise): the per-pair key and value tensors that an
    implementation materializing them holds, as autograd does in training.
    The engine streams them block by block and keeps neither, so this count
    is a prediction of that cost, not an engine measurement.
  * ``embedded_scalars`` = 2*N*H*(2*d_k) for the rotary variants when the
    rotated banks are materialized (the engines do materialize them); the
    in-place total reports 0 for this term.

FLOPs (one multiply, add, subtract, divide, or compare counts 1; sin, cos,
exp, and tanh count 1 each):
  * scores:       2 * Nq * Nk * H * (2*d_k)
  * weighted sum: 2 * Nq * Nk * H * d_v
  * rotary embed: 6 per 2D pair (4 multiplies, 2 adds), once per token for
    each embedded bank: 6 * (Nq + Nk) * H * d_k
  * pairwise encoders: the two relative-pose MLPs, of the engine's hidden
    width ``RPE_HIDDEN``, run once per token pair and are shared across
    heads; the per-head key/value adds are counted on top. A dense layer
    in->out costs 2*in*out, plus out for its bias, which every layer but the
    key encoder's second has. This is the cost of an
    implementation that forms each pair's key and value offsets. The engine
    forms none: per pair it runs the relative pose, both first layers and,
    per head, one RPE_HIDDEN-wide product for the score and one for the
    hidden sum, 4 + 16*RPE_HIDDEN + 4*H*RPE_HIDDEN + 2*H (1,036 at H=4,
    whatever d_k and d_v), plus about 2*H*RPE_HIDDEN*(2*d_k + d_v) per query
    row for the second layers.
  * ``full=True`` additionally counts the softmax (6 per score: max compare,
    subtract, exp, sum add, divide, scale multiply) and the rotation-angle
    transcendentals (3 per pair: multiply, sin, cos).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .attention import (
    PoseSet,
    QKVSet,
    ROTARY_VARIANTS,
    RPEEncoders,
    RPE_HIDDEN,
    Variant,
    _encoder_shapes,
    mhsa,
    recording,
)
from .errors import ConfigurationError, VerificationError
from .rotary import _shaped

__all__ = [
    "MemoryReport",
    "FlopReport",
    "count_input_memory",
    "verify_memory_ledger",
    "count_flops",
    "sweep",
    "check_sweep_trends",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
    "WIDTH_CONVENTION",
]

WIDTH_CONVENTION = (
    "d_k counts 2D rotation pairs; the QK width is 2*d_k. The symbolic "
    "N*H*(2*d_k + d_v) input count uses d_k for the QK width and equals "
    "N*H*(2*(2*d_k) + d_v) under the pair-count convention."
)

#: Counter limit: reports must fit in a signed 64-bit consumer.
_COUNTER_MAX = 2**63 - 1

REL_DESCRIPTOR_FLOPS = 4          # dx, dy, dtheta subtractions plus the wrap
ROTARY_FLOPS_PER_PAIR = 6         # 4 multiplies + 2 adds
ROTARY_ANGLE_FLOPS_PER_PAIR = 3   # multiply + sin + cos (full mode)
# softmax's arithmetic, not the engine's order, which divides outputs, not weights
SOFTMAX_FLOPS_PER_SCORE = 6       # compare, subtract, exp, add, divide, scale


def dense_flops(n_in: int, n_out: int) -> int:
    """Multiply-accumulate plus bias for one dense layer."""
    return 2 * n_in * n_out + n_out


def mlp_flops(n_in: int, n_hidden: int, n_out: int) -> int:
    """Two dense layers with a tanh on the hidden units."""
    return dense_flops(n_in, n_hidden) + n_hidden + dense_flops(n_hidden, n_out)


def _check_dims(**dims) -> None:
    for name, value in dims.items():
        if value is None:
            continue
        if int(value) != value or value < 1:
            raise ConfigurationError(f"{name} must be a positive integer, got {value}")


def _check_counter(total: int) -> None:
    if total > _COUNTER_MAX:
        raise OverflowError(f"scalar count {total} exceeds the 64-bit counter range")


@dataclass(frozen=True)
class MemoryReport:
    """Scalar-count ledger for one attention configuration."""

    variant: Variant
    n_tokens: int
    n_heads: int
    d_k: int
    d_v: int
    qkv_scalars: int
    pairwise_scalars: int
    embedded_scalars: int
    total_scalars: int
    total_scalars_in_place: int
    bytes_fp32: int
    bytes_fp64: int


@dataclass(frozen=True)
class FlopReport:
    """Deterministic FLOP count for one attention configuration."""

    variant: Variant
    n_tokens: int
    m_tokens: int
    n_heads: int
    d_k: int
    d_v: int
    flops_scores: int
    flops_weighted_sum: int
    flops_embedding: int
    flops_rpe_encoders: int
    flops_softmax: int
    total: int


def count_input_memory(
    variant: Variant, n_tokens: int, n_heads: int, d_k: int, d_v: int
) -> MemoryReport:
    """Closed-form scalar counts for the inputs and mandated intermediates."""
    _check_dims(n_tokens=n_tokens, n_heads=n_heads, d_k=d_k, d_v=d_v)
    width = 2 * d_k
    qkv = n_tokens * n_heads * (2 * width + d_v)
    pairwise = n_tokens**2 * n_heads * (width + d_v) if variant is Variant.RPE else 0
    embedded = 2 * n_tokens * n_heads * width if variant in ROTARY_VARIANTS else 0
    total = qkv + pairwise + embedded
    _check_counter(total)
    return MemoryReport(
        variant=variant,
        n_tokens=n_tokens,
        n_heads=n_heads,
        d_k=d_k,
        d_v=d_v,
        qkv_scalars=qkv,
        pairwise_scalars=pairwise,
        embedded_scalars=embedded,
        total_scalars=total,
        total_scalars_in_place=qkv + pairwise,
        bytes_fp32=4 * total,
        bytes_fp64=8 * total,
    )


def verify_memory_ledger(
    variant: Variant, n_tokens: int, n_heads: int, d_k: int, d_v: int
) -> MemoryReport:
    """Assert that the closed-form ``qkv`` and ``embedded`` counts match the
    scalar counts the engine records under its default settings. The counts
    depend on array sizes only, so one array of ones is both Q and K (each
    is still counted and rotated), the poses are zeros and the encoders are
    views of one read-only zeros buffer, which they keep without a copy."""
    predicted = count_input_memory(variant, n_tokens, n_heads, d_k, d_v)
    qk = np.ones((n_tokens, n_heads, 2 * d_k))
    qkv = QKVSet(qk, qk, np.ones((n_tokens, n_heads, d_v)))
    poses = PoseSet(np.zeros((n_tokens, 2)), np.zeros(n_tokens))
    enc = None
    if variant is Variant.RPE:
        shapes = _encoder_shapes(d_k, d_v)
        zeros = np.zeros(sum(map(math.prod, shapes)))
        zeros.flags.writeable = False
        enc = RPEEncoders(*_shaped(zeros, shapes))
    with recording() as records:
        mhsa(qkv, poses, variant, enc=enc)
    (measured,) = records
    expectation = {
        "qkv": predicted.qkv_scalars,
        "embedded": predicted.embedded_scalars,
    }
    if measured != expectation:
        raise VerificationError(
            f"{variant.value} N={n_tokens} H={n_heads}: predicted {expectation}, "
            f"measured {measured}"
        )
    return predicted


def count_flops(
    variant: Variant,
    n_tokens: int,
    m_tokens: int | None,
    n_heads: int,
    d_k: int,
    d_v: int,
    *,
    full: bool = False,
) -> FlopReport:
    """Deterministic FLOP count; ``m_tokens`` is the KV bank size (None = self)."""
    _check_dims(n_tokens=n_tokens, m_tokens=m_tokens, n_heads=n_heads, d_k=d_k, d_v=d_v)
    m = n_tokens if m_tokens is None else m_tokens
    width = 2 * d_k
    scores = 2 * n_tokens * m * n_heads * width
    weighted = 2 * n_tokens * m * n_heads * d_v

    embedding = 0
    if variant in ROTARY_VARIANTS:
        embedding = ROTARY_FLOPS_PER_PAIR * (n_tokens + m) * n_heads * d_k
        if full:
            embedding += ROTARY_ANGLE_FLOPS_PER_PAIR * (n_tokens + m) * n_heads * d_k

    rpe = 0
    if variant is Variant.RPE:
        per_pair = (
            mlp_flops(3, RPE_HIDDEN, width) - width    # no key-encoder output bias
            + mlp_flops(3, RPE_HIDDEN, d_v)
            + REL_DESCRIPTOR_FLOPS
        )
        rpe = n_tokens * m * per_pair + n_tokens * m * n_heads * (width + d_v)

    softmax = n_tokens * m * n_heads * SOFTMAX_FLOPS_PER_SCORE if full else 0
    total = scores + weighted + embedding + rpe + softmax
    _check_counter(total)
    return FlopReport(
        variant=variant,
        n_tokens=n_tokens,
        m_tokens=m,
        n_heads=n_heads,
        d_k=d_k,
        d_v=d_v,
        flops_scores=scores,
        flops_weighted_sum=weighted,
        flops_embedding=embedding,
        flops_rpe_encoders=rpe,
        flops_softmax=softmax,
        total=total,
    )


SWEEP_COLUMNS = (
    "variant", "n_tokens", "m_tokens", "n_heads", "d_k", "d_v",
    "qkv_scalars", "pairwise_scalars", "embedded_scalars",
    "total_scalars", "total_scalars_in_place", "bytes_fp32", "bytes_fp64",
    "flops_scores", "flops_weighted_sum", "flops_embedding",
    "flops_rpe_encoders", "flops_softmax", "flops_total",
)


def _sweep_row(point: tuple, variant: Variant) -> dict:
    n_tokens, n_heads, d_k, d_v = point
    mem = count_input_memory(variant, n_tokens, n_heads, d_k, d_v)
    flop = count_flops(variant, n_tokens, None, n_heads, d_k, d_v)
    row = {**vars(mem), "variant": variant.value, "m_tokens": flop.m_tokens}
    row.update((key, value) for key, value in vars(flop).items() if key.startswith("flops_"))
    row["flops_total"] = flop.total
    return row


def sweep(points, variants) -> list[dict]:
    """One ledger row per ((n_tokens, n_heads, d_k, d_v), variant), points outermost."""
    points = list(points)
    variants = list(variants)
    if not points or not variants:
        raise ConfigurationError("the sweep grid and variant list must be non-empty")
    return [_sweep_row(point, variant) for point in points for variant in variants]


def check_sweep_trends(rows) -> None:
    """Verify the scaling laws the ledger implies, on the rows that allow it.

    For the pairwise-encoder variant the pairwise term must scale exactly
    with N^2 and the pairwise/input ratio exactly linearly in N; the rotary
    variants must match the plain totals in in-place mode.
    """
    by_dims: dict[tuple, list[dict]] = {}
    for row in rows:
        if row["variant"] == Variant.RPE.value:
            key = (row["n_heads"], row["d_k"], row["d_v"])
            by_dims.setdefault(key, []).append(row)
    for group in by_dims.values():
        group = sorted(group, key=lambda r: r["n_tokens"])
        # exact ratios compared as integer cross-products; Fractions only name a miss
        for a, b in zip(group, group[1:]):
            (n_a, p_a), (n_b, p_b) = ((r["n_tokens"], r["pairwise_scalars"]) for r in (a, b))
            if p_b * n_a**2 != p_a * n_b**2:
                raise VerificationError(f"pairwise scalars scaled by {Fraction(p_b, p_a)}, "
                                        f"expected {Fraction(n_b, n_a) ** 2}")
        for row in group:
            n, d_k, d_v = row["n_tokens"], row["d_k"], row["d_v"]
            pairwise, qkv = row["pairwise_scalars"], row["qkv_scalars"]
            if pairwise * (4 * d_k + d_v) != qkv * n * (2 * d_k + d_v):
                raise VerificationError(
                    f"pairwise/input ratio {Fraction(pairwise, qkv)} differs from the "
                    f"linear-in-N form {Fraction(n * (2 * d_k + d_v), 4 * d_k + d_v)}"
                )

    plain_totals = {
        (r["n_tokens"], r["n_heads"], r["d_k"], r["d_v"]): r["total_scalars"]
        for r in rows
        if r["variant"] == Variant.PLAIN.value
    }
    for row in rows:
        if row["variant"] in (v.value for v in ROTARY_VARIANTS):
            key = (row["n_tokens"], row["n_heads"], row["d_k"], row["d_v"])
            if key in plain_totals and row["total_scalars_in_place"] != plain_totals[key]:
                raise VerificationError(
                    f"in-place rotary total {row['total_scalars_in_place']} differs "
                    f"from the plain total {plain_totals[key]} at {key}"
                )


def write_sweep_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows([row[column] for column in SWEEP_COLUMNS] for row in rows)
