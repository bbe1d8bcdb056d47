"""Multi-head attention engines over token banks.

Five scoring regimes share one softmax/weighted-sum core. Four of them
differ only in the per-pair rotation angles applied to the QK banks before
the dot products (none, positions, headings, or a mix of both); the fifth
adds a learned encoding of each pairwise relative pose to the key and value
vectors, which makes its time quadratic in the token count: the encoders'
hidden layers are evaluated once per token pair. It streams them block by
block and keeps no per-pair tensor whole, so its memory, like the others',
is linear in N; the memory ledger's pairwise count is what an implementation
that materializes the per-pair offset tensors holds.

Shapes: QK banks are (..., N, H, 2*d_k) with d_k rotation pairs per head,
value banks (..., N, H, d_v), positions (..., N, 2) and headings (..., N).
Leading axes are batch axes that a bank's poses share; query and key stacks
broadcast, so one key bank (a map, say) serves a (T, A) stack of queries.
Scores are scaled by 1/sqrt(d_k) with d_k the pair count. A ``PoseSet`` is
immutable and keeps the unit phasors of its last rotary setting, so calls
that share poses take cosines and sines once. Inside a ``recording()`` block
every call appends the scalar counts of the arrays it materialized, by
ledger category, so a recorded call keeps the memory of an unrecorded one.
A call's weights are its output under an identity value bank (key j's
values e_j) and a zero value encoder: each entry is one weight times 1 plus
exact zeros, divided by the row sum, so it is that weight bitwise.

Internally the core is head-major: the (..., N, H, W) banks are viewed as
(..., H, N, W) and walked in blocks of query rows, so scores take memory
linear in N. Per block the scores are one batched matmul giving
(..., H, B, M), exponentiated in place less each row's max; a second one
with the (..., H, M, d_v) values, divided by the row sums, fills one output
(only the pairwise regime divides the weights themselves); a causal block
reads only the keys up to its last row. Blocks are ``QUERY_BLOCK`` rows, but the
pairwise regime takes as many rows as fit a fixed count of token pairs, and
a block does all its pairwise work in one pass through the encoders' hidden
layers h_ij of its (..., B, M, 3) relative poses, forming no offset: a
score's q_i.off_ij is (q_i W2k').h_ij (a key bias would add one term to a
whole row, which the softmax removes, so there is none), and an output's
sum_j alpha_ij off_ij is (sum_j alpha_ij h_ij) W2v + b2v, each row of
weights summing to 1; zero encoders give exactly the plain result. The
heads share one encoder, so each score term and each hidden sum is one
product per query row over all heads, and a second layer runs once per row,
never per pair. The analytic backward walks the same query-row blocks of one
unstacked bank, so gradients take memory linear in N too.

A forward call splits its blocks over L lanes: lane l takes blocks l, l + L,
... (round robin, so causal blocks, whose cost grows with the row, balance).
The calling thread runs lane 0, and threads that live only for the call run
the rest. Each lane computes its scores into its own (..., H, B, M) slot,
which the calling thread allocates, so a lane beyond the first costs one
score block; each block's arithmetic is the one-lane arithmetic, so every L
gives the same bits. L is the number of blocks, at most this process's CPUs
and at most one per ``QUERY_BLOCK`` query rows, when BLAS was started with
one thread (as read from its thread-count variables at import); otherwise
BLAS threads already use the CPUs and L is 1. So a call of at most
``QUERY_BLOCK`` rows, as every rollout call is, starts no thread. A pairwise
lane beyond the first costs one pair block (relative poses, hidden layers and
score offsets) and one score block. The backward keeps one lane: lanes would
reorder its sums over blocks into dk and dv, and so change their bits.
"""

from __future__ import annotations

import contextlib
import copy
import enum
import math
import os
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, InvalidArgumentError
from .rotary import (
    TWO_PI,
    FrequencySchedule,
    _as_finite,
    _frozen,
    _seeded,
    _unit_phasors,
    planar_pair_angles,
    rotate_pairs,
    wrap_angle,
)

__all__ = [
    "Variant",
    "ROTARY_VARIANTS",
    "QKVSet",
    "PoseSet",
    "RPEEncoders",
    "AttentionOutput",
    "recording",
    "mhsa",
    "mhsa_causal",
    "mhca",
    "attention_backward",
]


class Variant(enum.Enum):
    """The five attention regimes.

    * ``plain``: standard attention, no pose information.
    * ``rpe``: learned pairwise key/value offsets, taken through the
      encoders' hidden layer in one pass per block of query rows, with the
      blocks split over the lanes of a large call; no pair's offset is
      formed, and each second layer runs once per query row.
    * ``rope``: the position embedding applied to the QK banks.
    * ``drope-hbh``: head-by-head integration, even heads encode positions and
      odd heads headings.
    * ``drope-ih``: intra-head integration, the first d_k // 2 rotation
      pairs of each QK vector encode the position and the other
      d_k - d_k // 2 the heading.
    """

    PLAIN = "plain"
    RPE = "rpe"
    ROPE = "rope"
    DROPE_HBH = "drope-hbh"
    DROPE_IH = "drope-ih"

    @classmethod
    def from_string(cls, name: str) -> "Variant":
        for variant in cls:
            if variant.value == name:
                return variant
        raise ConfigurationError(
            f"unknown variant {name!r}; expected one of "
            f"{[v.value for v in cls]}"
        )


#: Variants whose QK banks are rotated before the dot products.
ROTARY_VARIANTS = (Variant.ROPE, Variant.DROPE_HBH, Variant.DROPE_IH)

#: Query rows per score block: a call holds (..., H, QUERY_BLOCK, M) scores at once.
QUERY_BLOCK = 128

# Token pairs per pairwise-encoder block, so its temporaries have one size. A
# pair holds 3 + 2 * RPE_HIDDEN + H scalars whatever d_k and d_v (its relative
# pose, both hidden layers and its H score offsets), so a block is 1.7 MB at H=4.
_PAIR_BLOCK = 3072

# Lanes a forward call may split its query-row blocks over: this process's
# CPUs when BLAS was started with one thread (every one of its thread-count
# variables that is set reads 1), else 1, as BLAS threads take those CPUs.
_BLAS_THREADS = {os.environ.get(name) for name in
                 ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")} - {None}
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_LANES = _CPUS if _BLAS_THREADS == {"1"} else 1

#: Hidden width of both pairwise encoders; the FLOP ledger counts this width.
RPE_HIDDEN = 32


@dataclass(eq=False)
class QKVSet:
    """Query/key/value banks for N tokens and H heads.

    ``q`` and ``k`` have shape (..., N, H, 2*d_k), ``v`` has shape
    (..., N, H, d_v); the leading axes are batch axes. An array passed for
    more than one bank is checked once.
    """

    q: np.ndarray
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        q, k, v = self.q, self.k, self.v
        self.q = _as_finite("q bank", q)
        self.k = self.q if k is q else _as_finite("k bank", k)
        self.v = self.q if v is q else self.k if v is k else _as_finite("v bank", v)
        if self.q.ndim < 3:
            raise DimensionMismatchError("QKV banks must be (..., tokens, heads, width)")
        if self.q.shape != self.k.shape:
            raise DimensionMismatchError(
                f"q and k shapes differ: {self.q.shape} vs {self.k.shape}"
            )
        if self.v.shape[:-1] != self.q.shape[:-1]:
            raise DimensionMismatchError(
                f"v bank {self.v.shape} mismatches q bank {self.q.shape}"
            )
        if self.q.shape[-1] % 2 != 0 or self.q.shape[-1] == 0:
            raise DimensionMismatchError(
                f"QK width must be a positive even number, got {self.q.shape[-1]}"
            )

    @property
    def n_tokens(self) -> int:
        return self.q.shape[-3]

    @property
    def d_k(self) -> int:
        """Number of 2D rotation pairs per head (QK width is 2*d_k)."""
        return self.q.shape[-1] // 2

    @property
    def d_v(self) -> int:
        return self.v.shape[-1]

    def first(self, n: int) -> "QKVSet":
        """Views of the first ``n`` tokens of each bank, not checked again."""
        if not 1 <= n <= self.n_tokens:
            raise InvalidArgumentError(f"need 1..{self.n_tokens} tokens, got {n}")
        view = copy.copy(self)
        view.q, view.k, view.v = (bank[..., :n, :, :] for bank in (self.q, self.k, self.v))
        return view

    @classmethod
    def random(cls, n_tokens: int, n_heads: int, d_k: int, d_v: int, rng) -> "QKVSet":
        return cls(
            q=rng.standard_normal((n_tokens, n_heads, 2 * d_k)),
            k=rng.standard_normal((n_tokens, n_heads, 2 * d_k)),
            v=rng.standard_normal((n_tokens, n_heads, d_v)),
        )


@dataclass(frozen=True, eq=False)
class PoseSet:
    """Global 2D positions (..., N, 2) in meters, headings (..., N) in canonical
    radians; immutable, with read-only copies of both arrays and the unit
    phasors of its last rotary setting; compared and hashed by identity."""

    positions: np.ndarray
    headings: np.ndarray
    _phasors: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        positions = np.array(_as_finite("positions", self.positions))
        if positions.ndim < 2 or positions.shape[-1] != 2:
            raise DimensionMismatchError(
                f"positions must be (..., tokens, 2), got {positions.shape}"
            )
        headings = np.asarray(wrap_angle(_as_finite("headings", self.headings)))
        if headings.shape != positions.shape[:-1]:
            raise DimensionMismatchError(
                f"headings {headings.shape} mismatch positions {positions.shape}"
            )
        positions.flags.writeable = headings.flags.writeable = False
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "headings", headings)

    def pair_phasors(self, variant, d_k, sched) -> np.ndarray:
        """Read-only unit phasors of a rotary variant's d_k pairs per head:
        (..., N, 1, d_k) for rope and drope-ih, (..., N, 2, d_k) for drope-hbh
        (a row for its position heads, then one for its heading heads). The
        last setting's are kept; the schedule is compared by identity (its
        frequencies are read-only).
        """
        kept = self._phasors
        if kept is not None and kept[:2] == (variant, d_k) and kept[2] is sched:
            return kept[3]
        angles = np.empty(self.headings.shape + (2 if variant is Variant.DROPE_HBH else 1, d_k))
        if variant is Variant.DROPE_IH:
            split = d_k // 2
            angles[..., 0, :split] = planar_pair_angles(self.positions, split, sched.freqs)
            angles[..., 0, split:] = self._heading_angles(d_k - split, sched)
        else:
            angles[..., 0, :] = planar_pair_angles(self.positions, d_k, sched.freqs)
        if variant is Variant.DROPE_HBH:
            angles[..., 1, :] = self._heading_angles(d_k, sched)
        phasors = _unit_phasors(angles)
        phasors.flags.writeable = False
        object.__setattr__(self, "_phasors", (variant, d_k, sched, phasors))
        return phasors

    def _heading_angles(self, n_pairs, sched) -> np.ndarray:
        """Every heading pair turns by the heading: (..., N, 1), broadcast over
        the pairs. The negative control in ``drope.verification`` overrides
        this seam with per-pair frequencies."""
        return self.headings[..., None]

    @classmethod
    def random(cls, n_tokens: int, rng) -> "PoseSet":
        """Positions uniform in [-50, 50) m per axis, headings in [0, 2*pi)."""
        return cls(
            positions=rng.uniform(-50.0, 50.0, (n_tokens, 2)),
            headings=rng.uniform(0.0, 2.0 * math.pi, n_tokens),
        )


@dataclass(frozen=True, eq=False)
class RPEEncoders:
    """Two-layer tanh perceptrons mapping (dx, dy, dtheta) to QK/V offsets.

    The key encoder outputs the full QK width 2*d_k and has no second-layer
    bias (it would add one score to every key of a row); the value encoder
    outputs d_v. One encoder pair is shared across heads. Both second layers
    are linear, so the engine forms no offset: it reads each pair's two
    hidden layers (``hidden``) and applies a second layer once per query
    row, the key encoder's to the queries and the value encoder's to the
    weighted sums of hidden layers. Immutable, with read-only arrays (see
    ``_frozen``), so weights that keep an encoded map stay valid.
    """

    w1_k: np.ndarray
    b1_k: np.ndarray
    w2_k: np.ndarray
    w1_v: np.ndarray
    b1_v: np.ndarray
    w2_v: np.ndarray
    b2_v: np.ndarray

    def __post_init__(self):
        for name in ("w1_k", "b1_k", "w2_k", "w1_v", "b1_v", "w2_v", "b2_v"):
            object.__setattr__(self, name, _frozen(_as_finite(name, getattr(self, name))))
        for w1, b1, w2 in ((self.w1_k, self.b1_k, self.w2_k), (self.w1_v, self.b1_v, self.w2_v)):
            if w1.ndim != 2 or w1.shape[0] != 3:
                raise DimensionMismatchError("encoders take a 3-dim relative descriptor")
            if w2.ndim != 2 or w2.shape[0] != w1.shape[1]:
                raise DimensionMismatchError("encoder hidden widths are inconsistent")
            if b1.shape != w1.shape[1:]:
                raise DimensionMismatchError(
                    f"encoder bias {b1.shape} mismatches hidden width {w1.shape[1:]}")
        if self.b2_v.shape != self.w2_v.shape[1:]:
            raise DimensionMismatchError(f"value encoder bias {self.b2_v.shape} mismatches "
                                         f"its output width {self.w2_v.shape[1:]}")

    @property
    def key_width(self) -> int:
        return self.w2_k.shape[1]

    @property
    def value_width(self) -> int:
        return self.w2_v.shape[1]

    @cached_property
    def _first_layers(self) -> tuple:
        """``[w1_k | w1_v]`` and ``[b1_k | b1_v]``, read-only, joined once."""
        joined = (np.concatenate(pair, axis=-1)
                  for pair in ((self.w1_k, self.w1_v), (self.b1_k, self.b1_v)))
        return tuple(map(_frozen, joined))

    def hidden(self, rel) -> np.ndarray:
        """``tanh(rel @ [w1_k | w1_v] + [b1_k | b1_v])``: both encoders' hidden
        layers in one array, the key encoder's first, each sum written into
        its product."""
        w1, b1 = self._first_layers
        h = rel @ w1
        h += b1
        np.tanh(h, out=h)
        return h

    @classmethod
    def seeded(cls, d_k: int, d_v: int, seed: int = 0) -> "RPEEncoders":
        """Encoders of hidden width ``RPE_HIDDEN`` with seeded weights and zero
        biases, read-only views of one read-only buffer."""
        shapes = _encoder_shapes(d_k, d_v)
        buffer = np.empty(sum(map(math.prod, shapes)))
        return cls(*_seeded(np.random.default_rng(seed), buffer, shapes))


def _encoder_shapes(d_k: int, d_v: int) -> tuple:
    """The shapes of the seven ``RPEEncoders`` arrays, in field order."""
    return ((3, RPE_HIDDEN), (RPE_HIDDEN,), (RPE_HIDDEN, 2 * d_k),
            (3, RPE_HIDDEN), (RPE_HIDDEN,), (RPE_HIDDEN, d_v), (d_v,))


@dataclass(eq=False)
class AttentionOutput:
    """Per-head outputs and their concatenation."""

    per_head: np.ndarray          # (..., N, H, d_v)
    merged: np.ndarray            # (..., N, H * d_v)


_RECORDS: ContextVar[list | None] = ContextVar("drope_attention_records", default=None)


@contextlib.contextmanager
def recording():
    """Yield the list each attention call inside the block appends its counts
    to: ``{"qkv": ..., "embedded": ...}``, the scalars of the arrays it
    materialized per ledger category. A nested block records into itself only."""
    records: list[dict] = []
    token = _RECORDS.set(records)
    try:
        yield records
    finally:
        _RECORDS.reset(token)


def _block_weights(q_heads, k_heads, scale, s, e, causal=False, offset=None, out=None):
    """The (..., H, e - s, keys) exponentials of query rows [s, e) of the
    head-major banks less each row's max, and their row sums; the weights
    are alpha / sums.

    A causal block reads only keys [0, e); the block's score ``offset``
    (..., H, e - s, M) is added before the scale. With ``out``
    (..., H, >= e - s, M) the scores are computed into its leading rows.
    """
    keys = e if causal else k_heads.shape[-2]
    scores = np.matmul(q_heads[..., s:e, :], k_heads[..., :keys, :].swapaxes(-2, -1),
                       out=None if out is None else out[..., :e - s, :keys])
    if offset is not None:
        scores += offset
    scores *= scale
    if causal:    # only keys [s, e) can lie above the diagonal
        np.copyto(scores[..., s:], -np.inf, where=~np.tri(e - s, dtype=bool))
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    return scores, scores.sum(axis=-1, keepdims=True)


def _in_lanes(lanes, run_lane):
    """Run ``run_lane(0)`` .. ``run_lane(lanes - 1)``: lane 0 on the calling
    thread, the others on threads this call starts and joins. Returns once
    every lane has ended; an error in any lane is raised."""
    if lanes == 1:
        run_lane(0)
        return
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(lanes - 1, thread_name_prefix="drope-lane") as pool:
        futures = [pool.submit(run_lane, lane) for lane in range(1, lanes)]
        run_lane(0)
    for future in futures:
        future.result()


def _validate_variant(variant, q_bank, k_bank, v_bank, poses_q, poses_kv, sched, enc):
    """Check the banks, poses and settings of one attention call.

    Returns the frequency schedule: this is the one place that defaults a
    rotary variant's schedule.
    """
    n_heads, width = q_bank.shape[-2:]
    leading = zip(reversed(q_bank.shape[:-3]), reversed(k_bank.shape[:-3]))
    if k_bank.shape[-2:] != (n_heads, width) or any(a != b and 1 not in (a, b) for a, b in leading):
        raise DimensionMismatchError(
            f"key bank {k_bank.shape} mismatches query bank {q_bank.shape} "
            "in heads, width or leading axes that do not broadcast"
        )
    if k_bank.shape[-3] == 0 < q_bank.shape[-3]:
        raise DimensionMismatchError(f"{q_bank.shape[-3]} queries need at least one key")
    d_k = width // 2
    if variant is not Variant.PLAIN:
        if poses_q is None or poses_kv is None:
            raise ConfigurationError(f"variant {variant.value} requires poses")
        if (poses_q.headings.shape != q_bank.shape[:-2]
                or poses_kv.headings.shape != k_bank.shape[:-2]):
            raise DimensionMismatchError(
                f"poses {poses_q.headings.shape} and {poses_kv.headings.shape} for "
                f"query bank {q_bank.shape} and key bank {k_bank.shape}"
            )
    if variant is Variant.RPE:
        if enc is None:
            raise ConfigurationError("the rpe variant requires encoders")
        if enc.key_width != width:
            raise DimensionMismatchError(
                f"key encoder width {enc.key_width} mismatches QK width {width}"
            )
        if enc.value_width != v_bank.shape[-1]:
            raise DimensionMismatchError(f"value encoder width {enc.value_width} "
                                         f"mismatches value width {v_bank.shape[-1]}")
    if variant not in ROTARY_VARIANTS:
        return sched
    if sched is None:
        sched = FrequencySchedule.default(d_k)
    if sched.d_k != d_k:
        raise DimensionMismatchError(
            f"schedule has {sched.d_k} pairs but the banks have {d_k}"
        )
    if variant is Variant.DROPE_HBH and n_heads < 2:
        raise ConfigurationError("head-by-head integration needs at least 2 heads")
    return sched


def _rotated(variant, banks, poses, sched, undo=False):
    """Each QK bank turned by its poses' kept phasors in one ``rotate_pairs``
    call, or turned back by their conjugates with ``undo``. A drope-hbh bank
    of even H is viewed as (..., N, H // 2, 2, 2*d_k) head pairs, which its
    two phasor rows broadcast over; an odd H gathers one row per head."""
    turned = []
    for bank, bank_poses in zip(banks, poses):
        shape, n_heads = bank.shape, bank.shape[-2]
        phasors = bank_poses.pair_phasors(variant, shape[-1] // 2, sched)
        if variant is Variant.DROPE_HBH and n_heads % 2:
            phasors = phasors[..., np.arange(n_heads) % 2, :]
        elif variant is Variant.DROPE_HBH:
            bank = bank.reshape(shape[:-2] + (n_heads // 2, 2, shape[-1]))
            phasors = phasors[..., None, :, :]
        turned.append(rotate_pairs(bank, phasors.conj() if undo else phasors).reshape(shape))
    return turned


def _attend(
    variant, queries: QKVSet, keysvals: QKVSet, poses_q, poses_kv,
    *, sched=None, enc=None, causal=False,
) -> AttentionOutput:
    """The one attention core: Q from ``queries``, K and V from ``keysvals``."""
    q_bank, k_bank, v_bank = queries.q, keysvals.k, keysvals.v
    sched = _validate_variant(variant, q_bank, k_bank, v_bank, poses_q, poses_kv, sched, enc)
    n_heads, width = q_bank.shape[-2:]
    d_k = width // 2
    d_v = v_bank.shape[-1]
    n, m = q_bank.shape[-3], k_bank.shape[-3]
    lead = np.broadcast_shapes(q_bank.shape[:-3], k_bank.shape[:-3])

    q_hat, k_hat = q_bank, k_bank
    rows = max(1, _PAIR_BLOCK // max(m, 1)) if variant is Variant.RPE else QUERY_BLOCK
    key_hidden = enc.w1_k.shape[1] if variant is Variant.RPE else 0
    # lane l walks blocks l, l + L, ... (causal blocks grow with the row); at
    # most one lane per QUERY_BLOCK query rows, so a small pairwise call
    # starts no thread either
    lanes = max(1, min(-(-n // QUERY_BLOCK), -(-n // rows), _LANES))
    if variant in ROTARY_VARIANTS:
        q_hat, k_hat = _rotated(variant, (q_bank, k_bank), (poses_q, poses_kv), sched)

    q_heads, k_heads = q_hat.swapaxes(-3, -2), k_hat.swapaxes(-3, -2)
    v_heads = v_bank.swapaxes(-3, -2)
    scale = 1.0 / math.sqrt(d_k)
    per_head = np.empty(lead + (n, n_heads, d_v))
    # each lane computes its blocks' scores into its own one-block slot; a call
    # of one block lets matmul allocate them, which is cheaper for the small
    # calls of a rollout. Slots are separate arrays: one (L, ...) array would
    # raise glibc's mmap threshold to its size, and freed arrays up to that
    # size would then stay resident.
    slots = [None] * lanes
    if n > rows:
        slots = [np.empty(lead + (n_heads, rows, m)) for _ in range(lanes)]

    def run_lane(lane):
        for s in range(lane * rows, n, lanes * rows):
            e = min(s + rows, n)
            offset = None
            if variant is Variant.RPE:
                rel = np.empty(lead + (e - s, m, 3))
                rel[..., :2] = (poses_q.positions[..., s:e, None, :]
                                - poses_kv.positions[..., None, :, :])
                d_theta = poses_q.headings[..., s:e, None] - poses_kv.headings[..., None, :]
                # headings lie in [0, 2*pi), so one add of 2*pi wraps bitwise as
                # wrap_angle does, whose guard sets a sum that rounds up to 2*pi to 0
                np.add(d_theta, TWO_PI, out=d_theta, where=d_theta < 0)
                d_theta[d_theta == TWO_PI] = 0.0
                rel[..., 2] = d_theta
                hidden = enc.hidden(rel)
                del rel, d_theta
                # q_i . h_ij W2k = (q_i W2k') . h_ij for every head: one (H, hidden) @
                # (hidden, M) product per i
                offset = np.matmul(q_bank[..., s:e, :, :] @ enc.w2_k.T,
                                   hidden[..., :key_hidden].swapaxes(-2, -1)).swapaxes(-3, -2)
            alpha, sums = _block_weights(q_heads, k_heads, scale, s, e, causal, offset,
                                         slots[lane])
            del offset
            out = per_head[..., s:e, :, :]    # a row's d_v outputs divided, not its M weights
            np.divide(alpha @ v_heads[..., :alpha.shape[-1], :], sums, out=out.swapaxes(-3, -2))
            if variant is Variant.RPE:
                alpha /= sums
                # sum_j alpha_ij (h_ij W2v + b2v) = (sum_j alpha_ij h_ij) W2v + b2v, as each
                # row sums to 1: one (H, M) @ (M, hidden) product per i, then W2v
                out += np.matmul(alpha.swapaxes(-3, -2), hidden[..., key_hidden:]) @ enc.w2_v
                out += enc.b2_v
                del hidden    # the next block encodes with none of this one live

    _in_lanes(lanes, run_lane)
    records = _RECORDS.get()
    if records is not None:
        records.append({
            "qkv": q_bank.size + k_bank.size + v_bank.size,
            "embedded": 0 if q_hat is q_bank else q_hat.size + k_hat.size,
        })
    return AttentionOutput(per_head, per_head.reshape(per_head.shape[:-2] + (n_heads * d_v,)))


def mhsa(
    qkv: QKVSet, poses: PoseSet | None, variant: Variant,
    *, sched=None, enc=None,
) -> AttentionOutput:
    """Self-attention under any of the five variants.

    ``sched`` defaults to ``FrequencySchedule.default(d_k)`` for the rotary
    variants; ``enc`` is required for rpe. Heading pairs turn as ``poses``
    turn them (see ``PoseSet._heading_angles``). drope-ih gives the first
    d_k // 2 rotation pairs to the position.
    """
    return _attend(variant, qkv, qkv, poses, poses, sched=sched, enc=enc)


def mhsa_causal(qkv: QKVSet) -> AttentionOutput:
    """Plain self-attention, causal (diagonal included): token i attends to keys 0..i."""
    return _attend(Variant.PLAIN, qkv, qkv, None, None, causal=True)


def mhca(
    queries: QKVSet, keysvals: QKVSet, poses_q: PoseSet | None, poses_kv: PoseSet | None,
    variant: Variant,
    *, sched=None, enc=None,
) -> AttentionOutput:
    """Cross-attention: Q from the first bank, K and V from the second.

    The math and settings of ``mhsa``; used for the agent-to-map interaction
    and for the cached temporal step.
    """
    return _attend(variant, queries, keysvals, poses_q, poses_kv, sched=sched, enc=enc)


def attention_backward(
    variant: Variant,
    qkv: QKVSet,
    poses: PoseSet | None,
    upstream: np.ndarray,
):
    """Analytic gradients of the merged output w.r.t. the Q, K, V banks.

    ``upstream`` is the gradient w.r.t. the merged (N, H*d_v) output. Each
    query-row block's weights are recomputed as in the forward, writing the
    block's dq and summing into dk and dv. The rotary embeddings are linear,
    so their backward is the transposed (that is, negated) rotation. Returns
    (dq, dk, dv) with the bank shapes.
    """
    if variant is Variant.RPE:
        raise NotImplementedError("backward for the pairwise-encoder variant is not available")
    if qkv.q.ndim != 3:
        raise DimensionMismatchError(f"backward takes one (N, H, W) bank, got {qkv.q.shape}")
    n, n_heads, width = qkv.q.shape
    d_k, d_v = qkv.d_k, qkv.d_v
    upstream = _as_finite("upstream gradient", upstream)
    if upstream.shape != (n, n_heads * d_v):
        raise DimensionMismatchError(
            f"upstream gradient must be (N, H*d_v) = {(n, n_heads * d_v)}, "
            f"got {upstream.shape}"
        )
    sched = _validate_variant(variant, qkv.q, qkv.k, qkv.v, poses, poses, None, None)

    q_hat, k_hat = qkv.q, qkv.k
    if variant is not Variant.PLAIN:
        q_hat, k_hat = _rotated(variant, (q_hat, k_hat), (poses, poses), sched)

    scale = 1.0 / math.sqrt(d_k)
    q_heads, k_heads = q_hat.swapaxes(0, 1), k_hat.swapaxes(0, 1)    # (H, N, 2*d_k)
    v_heads = qkv.v.swapaxes(0, 1)
    d_out = upstream.reshape(n, n_heads, d_v).swapaxes(0, 1)
    dq_hat = np.empty((n_heads, n, width))
    dk_hat, dv = np.zeros((n_heads, n, width)), np.zeros((n_heads, n, d_v))
    for s in range(0, n, QUERY_BLOCK):
        e = min(s + QUERY_BLOCK, n)
        alpha, sums = _block_weights(q_heads, k_heads, scale, s, e)
        alpha /= sums
        dv += np.matmul(alpha.swapaxes(1, 2), d_out[:, s:e])
        d_scores = np.matmul(d_out[:, s:e], v_heads.swapaxes(1, 2))
        d_scores -= np.einsum("...ij,...ij->...i", d_scores, alpha)[..., None]
        d_scores *= alpha
        d_scores *= scale
        np.matmul(d_scores, k_heads, out=dq_hat[:, s:e])
        dk_hat += np.matmul(d_scores.swapaxes(1, 2), q_heads[:, s:e])
        del alpha, d_scores    # the next block starts with none of this block live
    dq, dk, dv = (grad.swapaxes(0, 1) for grad in (dq_hat, dk_hat, dv))
    if variant is not Variant.PLAIN:
        dq, dk = _rotated(variant, (dq, dk), (poses, poses), sched, undo=True)
    return dq, dk, dv
