import dataclasses
import hashlib
import multiprocessing
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import drope.attention as attention
import drope.verification as verification
from drope.attention import (
    AttentionRecord,
    PoseSet,
    QKVSet,
    ROTARY_VARIANTS,
    RPEEncoders,
    Variant,
    attention_backward,
    mhca,
    mhsa,
    mhsa_causal,
    recording,
)
from drope.errors import (
    ConfigurationError,
    DimensionMismatchError,
    InvalidArgumentError,
    VerificationError,
)
from drope.profiling import count_input_memory
from drope.rotary import TWO_PI, FrequencySchedule, rotate_pairs, wrap_angle

from oracles import ref_attention, ref_bank_angles

VARIANT_NAMES = {
    Variant.PLAIN: "plain",
    Variant.RPE: "rpe",
    Variant.ROPE: "rope",
    Variant.DROPE_HBH: "drope-hbh",
    Variant.DROPE_IH: "drope-ih",
}


def make_case(seed, n=3, h=2, d_k=2, d_v=3):
    rng = np.random.default_rng(seed)
    return QKVSet.random(n, h, d_k, d_v, rng), PoseSet.random(n, rng)


def recorded(engine, *args, **kwargs):
    """An engine call's output and the attention weights it recorded."""
    with recording() as records:
        out = engine(*args, **kwargs)
    (record,) = records
    return out, record.weights


def run_reference(variant, qkv, poses_q, poses_kv=None, enc=None, k=None, v=None):
    """The oracle's output; drope-ih's d_k // 2 position pairs become the
    oracle's scalar widths (2 * (d_k // 2), 2 * (d_k - d_k // 2))."""
    poses_kv = poses_q if poses_kv is None else poses_kv
    d_k = qkv.d_k
    split_pair = (2 * (d_k // 2), 2 * (d_k - d_k // 2)) if variant is Variant.DROPE_IH else None
    _, merged = ref_attention(
        VARIANT_NAMES[variant],
        qkv.q,
        qkv.k if k is None else k,
        qkv.v if v is None else v,
        poses_q.positions if poses_q is not None else None,
        poses_q.headings if poses_q is not None else None,
        poses_kv.positions if poses_kv is not None else None,
        poses_kv.headings if poses_kv is not None else None,
        enc=enc,
        split=split_pair,
    )
    return merged


@pytest.fixture
def lanes(monkeypatch):
    """``lanes(count)`` sets how many lanes a forward call may use, as a
    one-thread BLAS on ``count`` CPUs would."""
    return lambda count: monkeypatch.setattr(attention, "_LANES", count)


class TestPlain:
    def test_uniform_scores_average_values(self):
        # two tokens with identical keys and queries: alpha is 0.5 everywhere
        q = np.ones((2, 1, 4))
        k = np.ones((2, 1, 4))
        v = np.stack([np.full((1, 3), 2.0), np.full((1, 3), 4.0)])
        out, alpha = recorded(mhsa, QKVSet(q, k, v), None, Variant.PLAIN)
        assert alpha == pytest.approx(0.5)
        assert out.merged == pytest.approx(3.0)

    def test_single_token_passes_value_through(self):
        rng = np.random.default_rng(0)
        qkv = QKVSet.random(1, 2, 2, 3, rng)
        out, alpha = recorded(mhsa, qkv, None, Variant.PLAIN)
        assert alpha == pytest.approx(1.0)
        assert np.array_equal(out.per_head, qkv.v)

    def test_matches_scalar_reference(self):
        qkv, poses = make_case(1)
        out = mhsa(qkv, None, Variant.PLAIN)
        assert out.merged == pytest.approx(
            run_reference(Variant.PLAIN, qkv, None), abs=1e-12
        )

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            QKVSet(np.full((2, 1, 4), np.nan), np.zeros((2, 1, 4)), np.zeros((2, 1, 2)))

    @pytest.mark.parametrize("slots", ["qk", "kv", "qkv"])
    def test_rejects_a_non_finite_array_in_several_slots(self, slots):
        bad = np.zeros((2, 1, 4))
        bad[1, 0, 3] = np.inf
        banks = {name: bad if name in slots else np.zeros((2, 1, 4)) for name in "qkv"}
        with pytest.raises(InvalidArgumentError):
            QKVSet(**banks)

    def test_first_tokens_are_views_of_the_banks(self):
        keys = np.arange(24.0).reshape(4, 3, 2)
        bank = QKVSet(keys, keys, np.ones((4, 3, 5)))
        head = bank.first(3)
        assert head.n_tokens == 3 and head.d_v == 5
        for full, view in ((bank.q, head.q), (bank.k, head.k), (bank.v, head.v)):
            assert view.base is full or view.base is full.base
            assert np.shares_memory(view, full) and np.array_equal(view, full[:3])
        bank.k[2] = -1.0
        assert np.all(head.k[2] == -1.0)
        for n in (0, 5):
            with pytest.raises(InvalidArgumentError):
                bank.first(n)


class TestRPE:
    def test_zero_encoders_degenerate_to_plain_bitwise(self):
        qkv, poses = make_case(2)
        seeded = RPEEncoders.seeded(qkv.d_k, qkv.d_v)
        enc = RPEEncoders(**{name: np.zeros_like(w) for name, w in vars(seeded).items()})
        with_enc = mhsa(qkv, poses, Variant.RPE, enc=enc)
        plain = mhsa(qkv, None, Variant.PLAIN)
        assert np.array_equal(with_enc.merged, plain.merged)

    def test_identical_poses_shift_keys_and_values_by_constant(self):
        rng = np.random.default_rng(3)
        qkv = QKVSet.random(4, 2, 2, 3, rng)
        pose = PoseSet(np.tile([1.5, -2.0], (4, 1)), np.full(4, 0.7))
        enc = RPEEncoders.seeded(qkv.d_k, qkv.d_v, seed=5)
        out = mhsa(qkv, pose, Variant.RPE, enc=enc)
        # a zero relative pose makes each first layer tanh(b1)
        off_k = np.tanh(enc.b1_k) @ enc.w2_k
        off_v = np.tanh(enc.b1_v) @ enc.w2_v + enc.b2_v
        shifted = QKVSet(qkv.q, qkv.k + off_k, qkv.v + off_v)
        plain = mhsa(shifted, None, Variant.PLAIN)
        assert out.merged == pytest.approx(plain.merged, abs=1e-12)

    def test_matches_scalar_reference(self):
        qkv, poses = make_case(4)
        enc = RPEEncoders.seeded(qkv.d_k, qkv.d_v, seed=6)
        out = mhsa(qkv, poses, Variant.RPE, enc=enc)
        assert out.merged == pytest.approx(
            run_reference(Variant.RPE, qkv, poses, enc=enc), abs=1e-12
        )

    def test_materializes_pairwise_tensors(self):
        """The engine streams the per-pair tensors, so it records only the
        banks; the ledger counts the tensors a materializing call holds."""
        qkv, poses = make_case(5, n=4)
        enc = RPEEncoders.seeded(qkv.d_k, qkv.d_v)
        with recording() as records:
            mhsa(qkv, poses, Variant.RPE, enc=enc)
        n, h, w, d_v = 4, qkv.q.shape[-2], 2 * qkv.d_k, qkv.d_v
        assert records[0].counts == {"qkv": n * h * (2 * w + d_v), "embedded": 0}
        ledger = count_input_memory(Variant.RPE, n, h, qkv.d_k, d_v)
        assert ledger.pairwise_scalars == n * n * h * (w + d_v)

    @pytest.mark.parametrize("shape", [(6, 7, 3), (2, 6, 7, 3)])
    def test_hidden_is_both_first_layers_bitwise(self, shape):
        enc = RPEEncoders(**{
            **vars(RPEEncoders.seeded(4, 5, seed=9)),
            "b1_k": np.linspace(-1, 1, attention.RPE_HIDDEN),
            "b1_v": np.linspace(1, -1, attention.RPE_HIDDEN), "b2_v": np.linspace(-0.3, 0.3, 5),
        })
        rel = np.random.default_rng(10).uniform(-30.0, 30.0, shape)
        kept = rel.copy()
        expected = np.concatenate([np.tanh(rel @ enc.w1_k + enc.b1_k),
                                   np.tanh(rel @ enc.w1_v + enc.b1_v)], axis=-1)
        assert np.array_equal(enc.hidden(rel), expected)
        assert np.array_equal(rel, kept)

    @pytest.mark.parametrize("lead, n, blocks", [
        ((1,), 8, [(1, 8, 8)]),             # a tiny stacked call: one block
        ((), 64, [(48, 64), (16, 64)]),     # profile's N=64: blocks of 48 rows
    ])
    def test_relative_headings_wrap_bitwise_as_wrap_angle(self, monkeypatch, lead, n, blocks):
        """The engine wraps theta_q - theta_k with one add of 2*pi. Over edge
        headings (0, the largest below 2*pi, equal ones, one ulp apart, the
        smallest subnormal) and random ones, each block's wrapped differences
        are bitwise ``wrap_angle`` of them."""
        rng = np.random.default_rng(83)
        edges = [0.0, np.nextafter(TWO_PI, 0.0), 0.7, 0.7, 1.0, np.nextafter(1.0, 2.0), 5e-324]
        headings = np.concatenate([edges, rng.uniform(0.0, TWO_PI, n - len(edges))])
        qkv = QKVSet(*(bank.reshape(lead + bank.shape)
                       for bank in vars(QKVSet.random(n, 2, 2, 3, rng)).values()))
        poses = PoseSet(rng.uniform(-50.0, 50.0, lead + (n, 2)), headings.reshape(lead + (n,)))
        assert np.array_equal(poses.headings.reshape(-1), headings)
        seen, hidden = [], RPEEncoders.hidden

        def spy(enc, rel):
            seen.append(rel[..., 2].copy())
            return hidden(enc, rel)

        monkeypatch.setattr(RPEEncoders, "hidden", spy)
        mhsa(qkv, poses, Variant.RPE, enc=RPEEncoders.seeded(2, 3))
        assert [block.shape for block in seen] == blocks
        difference = poses.headings[..., :, None] - poses.headings[..., None, :]
        expected = wrap_angle(difference)
        assert np.concatenate(seen, axis=-2).tobytes() == expected.tobytes()
        # the guard's case occurs: a negative difference whose sum rounds up to 2*pi
        assert np.any((difference < 0) & (expected == 0.0))

    @pytest.mark.parametrize("engine", ["mhsa", "mhca"])
    @pytest.mark.parametrize("value_width", [5, 1])
    def test_value_encoder_width_must_match_the_value_bank(self, monkeypatch, engine,
                                                           value_width):
        """Checked before any offset is built: a width-1 encoder would
        otherwise broadcast its one column over every value column."""
        qkv, poses = make_case(12, n=4)

        def never(enc, rel):
            raise AssertionError("pairs encoded before the width check")

        enc = RPEEncoders.seeded(qkv.d_k, value_width)
        monkeypatch.setattr(RPEEncoders, "hidden", never)
        with pytest.raises(DimensionMismatchError,
                           match=f"value encoder width {value_width} mismatches value width 3"):
            if engine == "mhsa":
                mhsa(qkv, poses, Variant.RPE, enc=enc)
            else:
                mhca(qkv, qkv, poses, poses, Variant.RPE, enc=enc)

    def test_fields_are_frozen(self):
        """Pipeline weights keep the map their encoders encoded, so no
        encoder field can be reassigned."""
        enc = RPEEncoders.seeded(2, 3)
        for name in [f.name for f in dataclasses.fields(enc)] + ["hidden"]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(enc, name, getattr(enc, name))

    #: SHA-256 over the shape and bytes of each ``RPEEncoders.seeded`` array in
    #: field order, per (d_k, d_v, seed).
    SEEDED_DIGESTS = {
        (4, 8, 0): "2af8be53af0c6b1f4df652c9c88c8c2541d881fbec9a9a3ddb4b86637cc37235",
        (2, 3, 7): "5b0c2b440d17480c433c9c5b7da6594d215bd755142bffa64d9c76bb91a8280e",
        (16, 32, 12345): "0764ffdb9a3feb55bc78c138c54a839e0b246d01630490abba2aa61ee77a5bcc",
    }

    @pytest.mark.parametrize("d_k, d_v, seed", list(SEEDED_DIGESTS))
    def test_seeded_arrays_are_bitwise_the_pinned_ones(self, d_k, d_v, seed):
        enc = RPEEncoders.seeded(d_k, d_v, seed)
        digest = hashlib.sha256()
        for field in dataclasses.fields(enc):
            array = getattr(enc, field.name)
            digest.update(repr(array.shape).encode())
            digest.update(array.tobytes())
        assert digest.hexdigest() == self.SEEDED_DIGESTS[d_k, d_v, seed]

    @pytest.mark.parametrize("name, value", [
        ("b1_k", np.zeros(1)),
        ("b1_v", np.zeros((2, 4))),
        ("b2_v", np.zeros(4)),
        ("w1_k", np.zeros(3)),
        ("w2_v", np.zeros(8)),
    ])
    def test_mis_shaped_weights_rejected(self, name, value):
        weights = vars(RPEEncoders.seeded(2, 3))
        with pytest.raises(DimensionMismatchError):
            RPEEncoders(**{**weights, name: value})


class TestRope:
    def test_equal_positions_match_plain(self):
        rng = np.random.default_rng(7)
        qkv = QKVSet.random(3, 2, 2, 3, rng)
        poses = PoseSet(np.tile([4.0, -1.0], (3, 1)), rng.uniform(0, TWO_PI, 3))
        out = mhsa(qkv, poses, Variant.ROPE, sched=FrequencySchedule.default(qkv.d_k))
        plain = mhsa(qkv, None, Variant.PLAIN)
        assert out.merged == pytest.approx(plain.merged, abs=1e-12)

    def test_translation_invariance(self):
        qkv, poses = make_case(8)
        sched = FrequencySchedule.default(qkv.d_k)
        base = mhsa(qkv, poses, Variant.ROPE, sched=sched)
        moved = mhsa(qkv, PoseSet(poses.positions + [5.3, -2.1], poses.headings), Variant.ROPE,
                     sched=sched)
        scale = np.max(np.abs(base.merged))
        assert np.max(np.abs(base.merged - moved.merged)) / scale < 1e-8

    def test_matches_scalar_reference(self):
        qkv, poses = make_case(9)
        out = mhsa(qkv, poses, Variant.ROPE, sched=FrequencySchedule.default(qkv.d_k))
        assert out.merged == pytest.approx(
            run_reference(Variant.ROPE, qkv, poses), abs=1e-12
        )

    def test_headings_are_ignored_entirely(self):
        # the position-only variant never reads headings; that blind spot is
        # exactly what the directional variants add
        qkv, poses = make_case(28)
        sched = FrequencySchedule.default(qkv.d_k)
        base = mhsa(qkv, poses, Variant.ROPE, sched=sched)
        rehearsed = mhsa(
            qkv, PoseSet(poses.positions, poses.headings + 1.7), Variant.ROPE, sched=sched
        )
        assert np.array_equal(base.merged, rehearsed.merged)


class TestDropeHeadByHead:
    def test_identical_poses_match_plain(self):
        rng = np.random.default_rng(10)
        qkv = QKVSet.random(3, 2, 2, 3, rng)
        poses = PoseSet(np.tile([1.0, 2.0], (3, 1)), np.full(3, 1.1))
        out = mhsa(qkv, poses, Variant.DROPE_HBH, sched=FrequencySchedule.default(qkv.d_k))
        plain = mhsa(qkv, None, Variant.PLAIN)
        assert out.merged == pytest.approx(plain.merged, abs=1e-12)

    @pytest.mark.parametrize("shift", [0.9, TWO_PI, 5.5])
    def test_heading_shift_invariance(self, shift):
        qkv, poses = make_case(11)
        sched = FrequencySchedule.default(qkv.d_k)
        base = mhsa(qkv, poses, Variant.DROPE_HBH, sched=sched)
        moved = mhsa(qkv, PoseSet(poses.positions, poses.headings + shift), Variant.DROPE_HBH,
                     sched=sched)
        scale = np.max(np.abs(base.merged))
        assert np.max(np.abs(base.merged - moved.merged)) / scale < 1e-8

    def test_requires_two_heads(self):
        rng = np.random.default_rng(12)
        qkv = QKVSet.random(3, 1, 2, 3, rng)
        with pytest.raises(ConfigurationError):
            mhsa(qkv, PoseSet.random(3, rng), Variant.DROPE_HBH,
                 sched=FrequencySchedule.default(2))

    def test_matches_scalar_reference(self):
        qkv, poses = make_case(13)
        out = mhsa(qkv, poses, Variant.DROPE_HBH, sched=FrequencySchedule.default(qkv.d_k))
        assert out.merged == pytest.approx(
            run_reference(Variant.DROPE_HBH, qkv, poses), abs=1e-12
        )


class TestDropeIntraHead:
    def test_identical_poses_match_plain(self):
        rng = np.random.default_rng(15)
        qkv = QKVSet.random(4, 2, 2, 3, rng)
        poses = PoseSet(np.tile([-3.0, 0.5], (4, 1)), np.full(4, 2.2))
        out = mhsa(qkv, poses, Variant.DROPE_IH, sched=FrequencySchedule.default(qkv.d_k))
        plain = mhsa(qkv, None, Variant.PLAIN)
        assert out.merged == pytest.approx(plain.merged, abs=1e-12)

    @pytest.mark.parametrize("d_k", [3, 5])
    def test_default_split_at_odd_pair_count_matches_reference(self, d_k):
        qkv, poses = make_case(30 + d_k, n=4, d_k=d_k)
        out = mhsa(qkv, poses, Variant.DROPE_IH)
        assert out.merged == pytest.approx(
            run_reference(Variant.DROPE_IH, qkv, poses), abs=1e-12
        )

    @pytest.mark.parametrize("d_k", [1, 2, 3, 4])
    def test_default_split_is_half_the_pairs(self, d_k):
        qkv, poses = make_case(40 + d_k, n=4, d_k=d_k)
        out = mhsa(qkv, poses, Variant.DROPE_IH)
        _, expected = ref_attention(
            "drope-ih", qkv.q, qkv.k, qkv.v, poses.positions, poses.headings,
            poses.positions, poses.headings, split=(2 * (d_k // 2), 2 * (d_k - d_k // 2)),
        )
        assert out.merged == pytest.approx(expected, abs=1e-12)

    def test_matches_scalar_reference(self):
        qkv, poses = make_case(17, d_k=4)
        out = mhsa(qkv, poses, Variant.DROPE_IH, sched=FrequencySchedule.default(qkv.d_k))
        assert out.merged == pytest.approx(
            run_reference(Variant.DROPE_IH, qkv, poses), abs=1e-12
        )

    def test_heading_shift_invariance_with_wrap(self):
        qkv, poses = make_case(19, d_k=4)
        sched = FrequencySchedule.default(qkv.d_k)
        base = mhsa(qkv, poses, Variant.DROPE_IH, sched=sched)
        shift = TWO_PI - float(np.max(poses.headings)) + 0.05
        moved = mhsa(qkv, PoseSet(poses.positions, poses.headings + shift), Variant.DROPE_IH,
                     sched=sched)
        scale = np.max(np.abs(base.merged))
        assert np.max(np.abs(base.merged - moved.merged)) / scale < 1e-8


class TestCross:
    def test_self_degeneracy(self):
        qkv, poses = make_case(20)
        for variant in Variant:
            enc = (
                RPEEncoders.seeded(qkv.d_k, qkv.d_v, seed=1)
                if variant is Variant.RPE
                else None
            )
            crossed = mhca(qkv, qkv, poses, poses, variant, enc=enc)
            selfed = mhsa(qkv, poses, variant, enc=enc)
            assert np.array_equal(crossed.merged, selfed.merged), variant

    def test_single_kv_token_returns_its_value(self):
        rng = np.random.default_rng(21)
        queries = QKVSet.random(4, 2, 2, 3, rng)
        keysvals = QKVSet.random(1, 2, 2, 3, rng)
        out = mhca(queries, keysvals, None, None, Variant.PLAIN)
        for i in range(4):
            assert out.per_head[i] == pytest.approx(keysvals.v[0], abs=1e-15)

    def test_matches_scalar_reference_3x4(self):
        rng = np.random.default_rng(22)
        queries = QKVSet.random(3, 2, 2, 3, rng)
        keysvals = QKVSet.random(4, 2, 2, 3, rng)
        poses_q = PoseSet.random(3, rng)
        poses_kv = PoseSet.random(4, rng)
        out = mhca(queries, keysvals, poses_q, poses_kv, Variant.DROPE_HBH)
        _, merged = ref_attention(
            "drope-hbh", queries.q, keysvals.k, keysvals.v,
            poses_q.positions, poses_q.headings,
            poses_kv.positions, poses_kv.headings,
        )
        assert out.merged == pytest.approx(merged, abs=1e-12)

    def test_head_count_mismatch_rejected(self):
        rng = np.random.default_rng(33)
        queries = QKVSet.random(3, 2, 2, 3, rng)
        keysvals = QKVSet.random(4, 3, 2, 3, rng)
        with pytest.raises(DimensionMismatchError):
            mhca(queries, keysvals, None, None, Variant.PLAIN)

    def test_width_mismatch_rejected(self):
        rng = np.random.default_rng(23)
        queries = QKVSet.random(3, 2, 2, 3, rng)
        keysvals = QKVSet.random(4, 2, 3, 3, rng)
        with pytest.raises(DimensionMismatchError):
            mhca(queries, keysvals, None, None, Variant.PLAIN)


class TestStructuralProperties:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_permutation_equivariance(self, variant):
        rng = np.random.default_rng(24)
        qkv = QKVSet.random(5, 2, 2, 3, rng)
        poses = PoseSet.random(5, rng)
        enc = (
            RPEEncoders.seeded(qkv.d_k, qkv.d_v, seed=2)
            if variant is Variant.RPE
            else None
        )
        base = mhsa(qkv, poses, variant, enc=enc)
        perm = rng.permutation(5)
        permuted = mhsa(
            QKVSet(qkv.q[perm], qkv.k[perm], qkv.v[perm]),
            PoseSet(poses.positions[perm], poses.headings[perm]),
            variant,
            enc=enc,
        )
        assert np.max(np.abs(permuted.merged - base.merged[perm])) < 1e-10

    @pytest.mark.parametrize("variant", list(Variant))
    def test_alpha_rows_sum_to_one(self, variant):
        rng = np.random.default_rng(25)
        qkv = QKVSet.random(4, 2, 2, 3, rng)
        poses = PoseSet.random(4, rng)
        enc = (
            RPEEncoders.seeded(qkv.d_k, qkv.d_v, seed=3)
            if variant is Variant.RPE
            else None
        )
        _, alpha = recorded(mhsa, qkv, poses, variant, enc=enc)
        assert np.max(np.abs(alpha.sum(axis=-1) - 1.0)) < 1e-9
        assert np.all(alpha >= 0.0) and np.all(alpha <= 1.0)

    @pytest.mark.parametrize("variant", ROTARY_VARIANTS)
    def test_default_schedule_is_bitwise_the_default(self, variant):
        qkv, poses = make_case(34, d_k=4)
        given = mhsa(qkv, poses, variant, sched=FrequencySchedule.default(qkv.d_k))
        defaulted = mhsa(qkv, poses, variant, sched=None)
        assert np.array_equal(given.merged, defaulted.merged)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_rotary_calls_rotate_each_bank_once(self, variant, monkeypatch):
        qkv, poses = make_case(35, n=4, d_k=4)
        enc = RPEEncoders.seeded(qkv.d_k, qkv.d_v) if variant is Variant.RPE else None
        calls = []
        real = attention.rotate_pairs
        monkeypatch.setattr(attention, "rotate_pairs",
                            lambda *args: calls.append(1) or real(*args))
        per_call = 2 if variant in ROTARY_VARIANTS else 0
        mhsa(qkv, poses, variant, enc=enc)
        assert len(calls) == per_call
        mhca(qkv, qkv, poses, poses, variant, enc=enc)
        assert len(calls) == 2 * per_call
        mhsa_causal(qkv)
        assert len(calls) == 2 * per_call

    def test_causal_rows_are_whole_across_query_blocks(self, monkeypatch):
        monkeypatch.setattr(attention, "QUERY_BLOCK", 128)
        n = 300
        qkv = QKVSet.random(n, 2, 2, 3, np.random.default_rng(30))
        _, alpha = recorded(mhsa_causal, qkv)
        assert alpha.shape == (n, 2, n)
        assert np.max(np.abs(alpha.sum(axis=-1) - 1.0)) < 1e-12
        lower = np.tri(n, dtype=bool)
        heads_first = alpha.transpose(1, 0, 2)
        # the first row of each block weighs every key of the blocks before it
        assert np.all(heads_first[:, ~lower] == 0.0) and np.all(heads_first[:, lower] > 0.0)

    def test_causal_mask_blocks_future(self):
        rng = np.random.default_rng(27)
        qkv = QKVSet.random(4, 1, 2, 2, rng)
        _, alpha = recorded(mhsa_causal, qkv)
        upper = np.triu(np.ones((4, 4), dtype=bool), k=1)
        assert np.all(alpha[:, 0][upper] == 0.0)


class TestRecording:
    """The one observation point: ``recording()`` and its ``AttentionRecord``s."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_nothing_is_recorded_outside_a_block(self, variant, monkeypatch):
        qkv, poses = make_case(26, d_k=4)
        enc = RPEEncoders.seeded(qkv.d_k, qkv.d_v) if variant is Variant.RPE else None
        built = []
        monkeypatch.setattr(attention, "AttentionRecord",
                            lambda *args: built.append(args) or AttentionRecord(*args))
        outside = mhsa(qkv, poses, variant, enc=enc)
        assert attention._RECORDS.get() is None and not built
        assert not hasattr(outside, "alpha")
        with recording() as records:
            inside = mhsa(qkv, poses, variant, enc=enc)
        mhsa(qkv, poses, variant, enc=enc)
        assert attention._RECORDS.get() is None and len(built) == 1
        assert len(records) == 1 and isinstance(records[0], AttentionRecord)
        assert np.array_equal(inside.per_head, outside.per_head)
        assert np.array_equal(inside.merged, outside.merged)

    def test_a_nested_block_records_into_itself_only(self):
        qkv, poses = make_case(27)
        with recording() as outer:
            mhsa(qkv, poses, Variant.ROPE)
            with recording() as inner:
                mhsa_causal(qkv)
                mhca(qkv, qkv, None, None, Variant.PLAIN)
            mhsa(qkv, poses, Variant.DROPE_HBH)
        assert len(outer) == 2 and len(inner) == 2
        assert outer[0].counts["embedded"] > 0 and inner[0].counts["embedded"] == 0

    def test_an_exception_resets_the_context(self):
        qkv, poses = make_case(28)
        with recording() as outer:
            with pytest.raises(ConfigurationError):
                with recording() as inner:
                    mhsa(qkv, None, Variant.PLAIN)
                    mhsa(qkv, None, Variant.ROPE)   # needs poses: raises
            mhsa(qkv, None, Variant.PLAIN)
        with pytest.raises(ConfigurationError):
            with recording():
                raise ConfigurationError("raised inside the block")
        assert attention._RECORDS.get() is None
        mhsa(qkv, None, Variant.PLAIN)
        assert len(inner) == 1 and len(outer) == 1

    def test_mhca_and_mhsa_causal_record_once_each(self):
        rng = np.random.default_rng(29)
        t, n, m, h, d_k, d_v = 3, 4, 5, 2, 2, 3
        queries = QKVSet(*(rng.standard_normal((t, n, h, w)) for w in (2 * d_k, 2 * d_k, d_v)))
        keysvals = QKVSet.random(m, h, d_k, d_v, rng)
        with recording() as records:
            mhca(queries, keysvals, None, None, Variant.PLAIN)
        (record,) = records
        assert record.weights.shape == (t, n, h, m)
        assert record.counts == {
            "qkv": t * n * h * 2 * d_k + m * h * (2 * d_k + d_v), "embedded": 0,
        }
        with recording() as records:
            mhsa_causal(queries)
        (record,) = records
        assert record.weights.shape == (t, n, h, n)
        assert record.counts["qkv"] == t * n * h * (4 * d_k + d_v)


class TestBatchAxes:
    """Leading batch axes: one stacked call equals its per-slice calls."""

    T, N, M, H, D_K, D_V = 3, 4, 5, 2, 2, 3

    def stack(self, seed, lead, n):
        rng = np.random.default_rng(seed)
        qkv = QKVSet(
            rng.standard_normal(lead + (n, self.H, 2 * self.D_K)),
            rng.standard_normal(lead + (n, self.H, 2 * self.D_K)),
            rng.standard_normal(lead + (n, self.H, self.D_V)),
        )
        poses = PoseSet(rng.uniform(-50.0, 50.0, lead + (n, 2)),
                        rng.uniform(0.0, TWO_PI, lead + (n,)))
        return qkv, poses

    @staticmethod
    def part(qkv, poses, t):
        return QKVSet(qkv.q[t], qkv.k[t], qkv.v[t]), PoseSet(poses.positions[t], poses.headings[t])

    def enc(self, variant):
        return RPEEncoders.seeded(self.D_K, self.D_V, seed=5) if variant is Variant.RPE else None

    @staticmethod
    def assert_stacks(stacked, slices):
        expected = np.stack(slices)
        assert stacked.shape == expected.shape
        assert np.max(np.abs(stacked - expected)) <= 1e-12 * np.max(np.abs(expected))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_mhsa_stack_equals_slices(self, variant):
        qkv, poses = self.stack(50, (self.T,), self.N)
        out, alpha = recorded(mhsa, qkv, poses, variant, enc=self.enc(variant))
        parts = [
            recorded(mhsa, *self.part(qkv, poses, t), variant, enc=self.enc(variant))
            for t in range(self.T)
        ]
        self.assert_stacks(out.merged, [part.merged for part, _ in parts])
        self.assert_stacks(alpha, [part_alpha for _, part_alpha in parts])
        assert alpha.shape == (self.T, self.N, self.H, self.N)

    def test_stacked_rpe_mhca_records_every_pair(self):
        queries, poses_q = self.stack(53, (self.T,), self.N)
        keysvals, poses_kv = self.stack(54, (), self.M)
        empty, poses_empty = self.stack(55, (self.T,), 0)
        enc = self.enc(Variant.RPE)
        with recording() as records:
            mhca(queries, keysvals, poses_q, poses_kv, Variant.RPE, enc=enc)
            mhca(empty, keysvals, poses_empty, poses_kv, Variant.RPE, enc=enc)
        keys = self.M * self.H * (2 * self.D_K + self.D_V)
        assert records[0].counts == {
            "qkv": self.T * self.N * self.H * 2 * self.D_K + keys, "embedded": 0,
        }
        assert records[0].weights.shape == (self.T, self.N, self.H, self.M)
        assert records[1].counts == {"qkv": keys, "embedded": 0}

    @pytest.mark.parametrize("variant", list(Variant))
    def test_mhca_stacked_queries_share_one_key_bank(self, variant):
        queries, poses_q = self.stack(51, (self.T,), self.N)
        keysvals, poses_kv = self.stack(52, (), self.M)
        out, alpha = recorded(mhca, queries, keysvals, poses_q, poses_kv, variant,
                              enc=self.enc(variant))
        parts = []
        for t in range(self.T):
            queries_t, poses_t = self.part(queries, poses_q, t)
            parts.append(recorded(mhca, queries_t, keysvals, poses_t, poses_kv, variant,
                                  enc=self.enc(variant)))
        self.assert_stacks(out.merged, [part.merged for part, _ in parts])
        self.assert_stacks(alpha, [part_alpha for _, part_alpha in parts])
        assert alpha.shape == (self.T, self.N, self.H, self.M)

    def test_mhsa_causal_stack_equals_slices(self):
        qkv, poses = self.stack(53, (self.T,), self.N)
        out, alpha = recorded(mhsa_causal, qkv)
        parts = [recorded(mhsa_causal, self.part(qkv, poses, t)[0]) for t in range(self.T)]
        self.assert_stacks(out.merged, [part.merged for part, _ in parts])
        self.assert_stacks(alpha, [part_alpha for _, part_alpha in parts])
        assert alpha.shape == (self.T, self.N, self.H, self.N)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_unbroadcastable_stacks_rejected(self, variant):
        queries, poses_q = self.stack(54, (3,), self.N)
        keysvals, poses_kv = self.stack(55, (2,), self.M)
        with pytest.raises(DimensionMismatchError):
            mhca(queries, keysvals, poses_q, poses_kv, variant, enc=self.enc(variant))

    @pytest.mark.parametrize("variant", [v for v in Variant if v is not Variant.PLAIN])
    @pytest.mark.parametrize("lead", [(), (2,), (1, 3)])
    def test_poses_with_other_leading_axes_rejected(self, variant, lead):
        qkv, _ = self.stack(56, (self.T,), self.N)
        _, poses = self.stack(57, lead, self.N)
        with pytest.raises(DimensionMismatchError):
            mhsa(qkv, poses, variant, enc=self.enc(variant))


class TestPoseSet:
    def test_fields_and_arrays_are_read_only(self):
        poses = PoseSet(np.zeros((3, 2)), np.zeros(3))
        for name in ("positions", "headings"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(poses, name, np.ones(3))
            with pytest.raises(ValueError):
                getattr(poses, name)[0] = 1.0

    def test_copies_the_callers_arrays(self):
        positions, headings = np.zeros((3, 2)), np.zeros(3)
        poses = PoseSet(positions, headings)
        positions[0, 0] = headings[0] = 5.0
        assert not poses.positions.any() and not poses.headings.any()

    def test_compares_and_hashes_by_identity(self):
        poses = PoseSet(np.zeros((3, 2)), np.zeros(3))
        twin = PoseSet(poses.positions, poses.headings)
        assert poses == poses and poses != twin
        assert len({poses, twin, poses}) == 2

    def test_kept_phasors_equal_fresh_ones_for_every_setting(self):
        rng = np.random.default_rng(61)
        positions, headings = rng.uniform(-9.0, 9.0, (2, 5, 2)), rng.uniform(0.0, TWO_PI, (2, 5))
        poses = PoseSet(positions, headings)
        freqs = np.linspace(0.5, 1.5, 4)
        choices = {
            "variant": (Variant.DROPE_HBH, Variant.DROPE_IH, Variant.ROPE),
            "sched": (FrequencySchedule.default(4), FrequencySchedule(4, freqs)),
        }
        base = {name: values[0] for name, values in choices.items()}
        # per variant, change one setting at a time and change it back
        walk = [
            {**base, "variant": variant, **change}
            for variant in choices["variant"]
            for name, values in choices.items()
            for value in values[1:]
            for change in ({name: value}, {})
        ]
        for setting in walk:
            rows = 2 if setting["variant"] is Variant.DROPE_HBH else 1
            for _ in range(2):
                kept = poses.pair_phasors(d_k=4, **setting)
                fresh = PoseSet(positions, headings).pair_phasors(d_k=4, **setting)
                assert kept.shape == (2, 5, rows, 4) and kept.dtype == np.complex128
                assert np.array_equal(kept, fresh)
                assert not kept.flags.writeable

    @pytest.mark.parametrize("variant", ROTARY_VARIANTS)
    @pytest.mark.parametrize("n_heads", [2, 3, 4])
    @pytest.mark.parametrize("fault", [False, True], ids=["real", "angle-freqs"])
    def test_each_bank_turns_bitwise_by_its_oracle_angles(self, variant, n_heads, fault):
        """The fault cases run the negative control's poses of the verify suite."""
        rng = np.random.default_rng(63)
        d_k, lead = 5, (2, 3)
        pose_type = verification._FaultyPoseSet if fault else PoseSet
        poses = pose_type(rng.uniform(-40.0, 40.0, lead + (2,)), rng.uniform(-7.0, 7.0, lead))
        banks = [rng.standard_normal(lead + (n_heads, 2 * d_k)) for _ in range(2)]
        sched = FrequencySchedule.default(d_k)
        angle_freqs = sched.freqs if fault else None
        split = (2 * (d_k // 2), 2 * (d_k - d_k // 2)) if variant is Variant.DROPE_IH else None
        angles = np.array([[[
            ref_bank_angles(VARIANT_NAMES[variant], poses.positions[b, i], poses.headings[b, i],
                            head, d_k, sched.freqs, split, angle_freqs)
            for head in range(n_heads)] for i in range(lead[1])] for b in range(lead[0])])
        for undo, signed in ((False, angles), (True, -angles)):
            turned = attention._rotated(variant, banks, (poses, poses), sched, undo)
            for bank, got in zip(banks, turned):
                assert got.shape == bank.shape
                assert np.array_equal(got, rotate_pairs(bank, signed))
        kept = poses.pair_phasors(variant, d_k, sched)
        with pytest.raises(ValueError):
            kept[...] = 1.0

    def test_self_attention_computes_its_angles_once(self, monkeypatch):
        qkv, poses = make_case(62, n=4, d_k=2)
        calls = []
        real = attention.planar_pair_angles
        monkeypatch.setattr(attention, "planar_pair_angles",
                            lambda *args: calls.append(1) or real(*args))
        sched = FrequencySchedule.default(2)
        first = mhsa(qkv, poses, Variant.DROPE_HBH, sched=sched)
        again = mhsa(qkv, poses, Variant.DROPE_HBH, sched=sched)
        assert len(calls) == 1
        assert np.array_equal(first.merged, again.merged)
        fresh_poses = PoseSet(poses.positions, poses.headings)
        assert np.array_equal(
            mhsa(qkv, fresh_poses, Variant.DROPE_HBH, sched=sched).merged, first.merged)


class TestExhaustiveOracleGrid:
    """Every variant against the scalar reference on a small seeded grid."""

    @pytest.mark.parametrize("variant", list(Variant))
    def test_grid(self, variant):
        seed = 0
        for n in (1, 2, 4):
            for h in (1, 2):
                if variant is Variant.DROPE_HBH and h < 2:
                    continue
                for d_k in (1, 2, 4):
                    seed += 1
                    rng = np.random.default_rng(seed)
                    qkv = QKVSet.random(n, h, d_k, 3, rng)
                    poses = PoseSet.random(n, rng)
                    enc = (
                        RPEEncoders.seeded(d_k, 3, seed=seed)
                        if variant is Variant.RPE
                        else None
                    )
                    out = mhsa(qkv, poses, variant, enc=enc)
                    expected = run_reference(variant, qkv, poses, enc=enc)
                    assert out.merged == pytest.approx(expected, abs=1e-12), (
                        variant, n, h, d_k,
                    )


class TestBlockedSizes:
    """First and last query rows against the scalar reference at sizes where
    the batched products run over several BLAS blocks."""

    N, H, D_K, D_V = 300, 4, 32, 64

    def banks(self, seed, n):
        rng = np.random.default_rng(seed)
        return QKVSet.random(n, self.H, self.D_K, self.D_V, rng), PoseSet.random(n, rng)

    @staticmethod
    def rows(poses, idx):
        return PoseSet(poses.positions[idx], poses.headings[idx])

    def check_rows(self, variant, merged, queries, keysvals, poses_q, poses_kv):
        idx = [0, queries.n_tokens - 1]
        expected = run_reference(
            variant, QKVSet(queries.q[idx], queries.k[idx], queries.v[idx]),
            self.rows(poses_q, idx), poses_kv, k=keysvals.k, v=keysvals.v,
        )
        assert merged[idx] == pytest.approx(expected, abs=1e-12), variant

    @pytest.mark.parametrize(
        "variant", [Variant.PLAIN, Variant.ROPE, Variant.DROPE_HBH, Variant.DROPE_IH]
    )
    def test_mhsa_rows(self, variant):
        qkv, poses = self.banks(40, self.N)
        out = mhsa(qkv, poses, variant)
        self.check_rows(variant, out.merged, qkv, qkv, poses, poses)

    def test_mhca_rows(self):
        queries, poses_q = self.banks(41, self.N)
        keysvals, poses_kv = self.banks(42, 128)
        out = mhca(queries, keysvals, poses_q, poses_kv, Variant.DROPE_HBH)
        self.check_rows(Variant.DROPE_HBH, out.merged, queries, keysvals, poses_q, poses_kv)

    def test_rpe_row(self):
        qkv, poses = self.banks(43, 96)
        enc = RPEEncoders.seeded(self.D_K, self.D_V, seed=7)
        out = mhsa(qkv, poses, Variant.RPE, enc=enc)
        expected = run_reference(
            Variant.RPE, QKVSet(qkv.q[-1:], qkv.k[-1:], qkv.v[-1:]),
            self.rows(poses, [-1]), poses, enc=enc, k=qkv.k, v=qkv.v,
        )
        assert out.merged[-1:] == pytest.approx(expected, abs=1e-12)

    def test_causal_rows_and_alpha(self):
        qkv, _ = self.banks(44, self.N)
        out, alpha = recorded(mhsa_causal, qkv)
        # row 0 sees only key 0; the last row sees every key, unmasked
        _, first = ref_attention("plain", qkv.q[:1], qkv.k[:1], qkv.v[:1])
        _, last = ref_attention("plain", qkv.q[-1:], qkv.k, qkv.v)
        assert out.merged[:1] == pytest.approx(first, abs=1e-12)
        assert out.merged[-1:] == pytest.approx(last, abs=1e-12)
        assert alpha.shape == (self.N, self.H, self.N)
        upper = np.triu(np.ones((self.N, self.N), dtype=bool), k=1)
        assert np.all(alpha.transpose(1, 0, 2)[:, upper] == 0.0)
        assert np.max(np.abs(alpha.sum(axis=-1) - 1.0)) < 1e-12


class TestQueryBlocks:
    """The core walks query rows in blocks of ``QUERY_BLOCK``; a block of at
    least N rows is the dense path. Blocks of 128 over 1024 rows give the
    dense products bitwise. A 300-row bank has a 44-row tail, and BLAS may
    round a product of other row counts in another order, so there the
    blocks match the dense path within 1e-12 of the largest output."""

    H, D_K, D_V = 2, 8, 8

    def banks(self, seed, n, lead=(), widths=None):
        d_k, d_v = widths or (self.D_K, self.D_V)
        rng = np.random.default_rng(seed)
        qkv = QKVSet(*(rng.standard_normal(lead + (n, self.H, w))
                       for w in (2 * d_k, 2 * d_k, d_v)))
        poses = PoseSet(rng.uniform(-50.0, 50.0, lead + (n, 2)),
                        rng.uniform(0.0, TWO_PI, lead + (n,)))
        return qkv, poses

    def kwargs(self, variant):
        return ({"enc": RPEEncoders.seeded(self.D_K, self.D_V, seed=8)}
                if variant is Variant.RPE else {})

    @staticmethod
    def dense(monkeypatch, engine, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(attention, "QUERY_BLOCK", 1 << 30)
            patch.setattr(attention, "_PAIR_BLOCK", 1 << 30)
            return engine(*args, **kwargs).merged

    @staticmethod
    def assert_matches(blocked, dense, bitwise):
        if bitwise:
            assert np.array_equal(blocked, dense)
        else:
            assert np.max(np.abs(blocked - dense)) <= 1e-12 * np.max(np.abs(dense))

    # at 1024 tokens the dense path's whole (N, N, RPE_HIDDEN) encoder activations take 256 MiB
    @pytest.mark.parametrize("variant, n", [(v, n) for v in Variant for n in (300, 1024)
                                            if v is not Variant.RPE or n == 300])
    def test_mhsa_and_mhca_match_the_dense_path(self, monkeypatch, variant, n):
        bitwise = n % attention.QUERY_BLOCK == 0 and variant is not Variant.RPE
        qkv, poses = self.banks(60, n)
        keysvals, poses_kv = self.banks(61, 200)
        kw = self.kwargs(variant)
        self.assert_matches(mhsa(qkv, poses, variant, **kw).merged,
                            self.dense(monkeypatch, mhsa, qkv, poses, variant, **kw), bitwise)
        self.assert_matches(
            mhca(qkv, keysvals, poses, poses_kv, variant, **kw).merged,
            self.dense(monkeypatch, mhca, qkv, keysvals, poses, poses_kv, variant, **kw), bitwise,
        )

    @pytest.mark.parametrize("variant", list(Variant))
    def test_recording_changes_no_output_bit(self, variant):
        qkv, poses = self.banks(64, 300)
        kw = self.kwargs(variant)
        engines = [(mhsa, (qkv, poses, variant)), (mhca, (qkv, qkv, poses, poses, variant))]
        if variant is Variant.PLAIN:
            engines.append((mhsa_causal, (qkv,)))
        for engine, args in engines:
            plain_call = engine(*args, **kw)
            with recording():
                recorded_call = engine(*args, **kw)
            assert np.array_equal(recorded_call.per_head, plain_call.per_head)

    @pytest.mark.parametrize("n", [300, 1024])
    def test_mhsa_causal_matches_the_dense_path(self, monkeypatch, n):
        qkv, _ = self.banks(62, n)
        self.assert_matches(mhsa_causal(qkv).merged, self.dense(monkeypatch, mhsa_causal, qkv),
                            bitwise=False)

    def test_a_stack_equals_its_slices(self):
        qkv, poses = self.banks(63, 300, lead=(2,))
        stacked = mhsa(qkv, poses, Variant.DROPE_HBH).merged
        stacked_causal = mhsa_causal(qkv).merged
        for t in range(2):
            part = QKVSet(qkv.q[t], qkv.k[t], qkv.v[t])
            expected = mhsa(part, PoseSet(poses.positions[t], poses.headings[t]),
                            Variant.DROPE_HBH).merged
            self.assert_matches(stacked[t], expected, bitwise=False)
            self.assert_matches(stacked_causal[t], mhsa_causal(part).merged, bitwise=False)

    @pytest.mark.parametrize("variant", [None] + list(Variant))
    def test_recording_changes_no_output_bit(self, variant):
        qkv, poses = self.banks(68, 300)
        engine, args = (mhsa_causal, (qkv,)) if variant is None else (mhsa, (qkv, poses, variant))
        out, alpha = recorded(engine, *args, **self.kwargs(variant))
        assert np.array_equal(out.merged, engine(*args, **self.kwargs(variant)).merged)
        assert alpha.shape == (300, self.H, 300)
        assert np.max(np.abs(alpha.sum(axis=-1) - 1.0)) < 1e-12

    @pytest.mark.parametrize("variant", list(Variant))
    def test_no_queries_give_an_empty_output(self, variant):
        queries, poses_q = self.banks(66, 0)
        keysvals, poses_kv = self.banks(67, 5)
        out = mhca(queries, keysvals, poses_q, poses_kv, variant, **self.kwargs(variant))
        assert out.merged.shape == (0, self.H * self.D_V)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_queries_need_at_least_one_key(self, variant):
        queries, poses_q = self.banks(66, 5)
        keysvals, poses_kv = self.banks(67, 0)
        with pytest.raises(DimensionMismatchError, match="at least one key"):
            mhca(queries, keysvals, poses_q, poses_kv, variant, **self.kwargs(variant))

    ROWS = [0, 127, 128, 255, 256, 299]

    @pytest.mark.parametrize("variant", [Variant.PLAIN, Variant.DROPE_HBH, Variant.DROPE_IH])
    def test_rows_at_block_edges_match_the_oracle(self, variant):
        qkv, poses = self.banks(64, 300)
        out = mhsa(qkv, poses, variant)
        expected = run_reference(
            variant, QKVSet(qkv.q[self.ROWS], qkv.k[self.ROWS], qkv.v[self.ROWS]),
            PoseSet(poses.positions[self.ROWS], poses.headings[self.ROWS]), poses,
            k=qkv.k, v=qkv.v,
        )
        assert out.merged[self.ROWS] == pytest.approx(expected, abs=1e-12)

    def test_causal_rows_at_block_edges_match_the_masked_oracle(self):
        qkv, _ = self.banks(65, 300)
        out = mhsa_causal(qkv)
        for row in self.ROWS:
            keys = slice(0, row + 1)    # the causal mask: keys after the row are left out
            _, expected = ref_attention("plain", qkv.q[row:row + 1], qkv.k[keys], qkv.v[keys])
            assert out.merged[row] == pytest.approx(expected[0], abs=1e-12), row


class TestMemoryLinearInN:
    """The paper's space claim: the rotary engines hold scores for one block
    of query rows, so their peak grows linearly in N. The pairwise encoder
    streams its (N, N) offsets block by block, so its peak does not grow
    quadratically either; its time does."""

    H, D_K, D_V = 4, 8, 16

    def peak(self, engine, variant, n, widths=None):
        h, d_k, d_v = widths or (self.H, self.D_K, self.D_V)
        rng = np.random.default_rng(n)
        qkv = QKVSet.random(n, h, d_k, d_v, rng)
        poses = PoseSet.random(n, rng)
        kwargs = {"enc": RPEEncoders.seeded(d_k, d_v)} if variant is Variant.RPE else {}
        upstream = rng.standard_normal((n, h * d_v))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            if engine is mhsa_causal:
                engine(qkv)
            elif engine is attention_backward:
                engine(variant, qkv, poses, upstream)
            else:
                engine(qkv, poses, variant, **kwargs)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("engine", [mhsa, mhsa_causal, attention_backward])
    def test_rotary_and_causal_peaks_are_linear(self, engine):
        ratio = self.peak(engine, Variant.DROPE_HBH, 2048) / self.peak(engine, Variant.DROPE_HBH,
                                                                        1024)
        assert ratio <= 2.5, ratio

    @pytest.mark.parametrize("engine", [mhsa, mhsa_causal])    # the backward keeps one lane
    def test_rotary_and_causal_peaks_are_linear_in_two_lanes(self, lanes, engine):
        lanes(2)
        mhsa(*make_case(0, n=2 * attention.QUERY_BLOCK), Variant.PLAIN)    # warm-up
        self.test_rotary_and_causal_peaks_are_linear(engine)

    def test_a_second_lane_costs_one_score_block(self, lanes):
        """Each lane computes its scores into its own (H, QUERY_BLOCK, N)
        slot, so a second lane adds one block and its small per-block
        temporaries."""
        h, d_k, d_v, n = 4, 32, 64, 1024
        peaks = []
        for count in (1, 2):
            lanes(count)
            mhsa(*make_case(0, n=2 * attention.QUERY_BLOCK), Variant.PLAIN)    # warm-up
            peaks.append(self.peak(mhsa, Variant.DROPE_HBH, n, (h, d_k, d_v)))
        block = 8 * h * attention.QUERY_BLOCK * n
        assert peaks[1] <= peaks[0] + block + 2**20, (peaks, block)

    @pytest.mark.parametrize("n", [64, 128])
    def test_pairwise_tensors_are_live_one_at_a_time(self, n):
        """Key and value offsets together are the ledger's pairwise bytes; a
        call that streams them peaks well below their sum."""
        ledger = count_input_memory(Variant.RPE, n, self.H, self.D_K, self.D_V)
        ratio = self.peak(mhsa, Variant.RPE, n) / (8 * ledger.pairwise_scalars)
        assert ratio <= 0.85, ratio

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("n", [64, 256, 512])
    def test_pairwise_peak_is_plain_plus_a_pair_block_per_lane(self, lanes, n, count):
        """Beside what plain attention holds, each lane of a pairwise call
        holds one pair block: its relative poses, both encoders' hidden
        layers and its score offsets, about 1.7 MiB at these widths."""
        h, d_k, d_v = 4, 32, 64
        lanes(count)
        mhsa(*make_case(0, n=2 * attention.QUERY_BLOCK), Variant.PLAIN)    # warm-up
        used = min(count, -(-n // attention.QUERY_BLOCK))
        block = 8 * attention._PAIR_BLOCK * (3 + 2 * attention.RPE_HIDDEN + h)
        plain = self.peak(mhsa, Variant.PLAIN, n, (h, d_k, d_v))
        peak = self.peak(mhsa, Variant.RPE, n, (h, d_k, d_v))
        assert peak <= plain + used * block, (peak, plain, block)

    def test_pairwise_peak_does_not_grow_with_n(self, lanes):
        """A one-lane call holds only block-sized arrays (a pair block, its
        score offsets and one score block), so its peak grows by at most
        1 MiB from N=64 to N=256; whole (N, M, 3) poses would add 1.8 MiB."""
        lanes(1)
        peaks = [self.peak(mhsa, Variant.RPE, n, (4, 32, 64)) for n in (64, 256)]
        assert peaks[1] - peaks[0] <= 2**20, peaks

    def test_a_pair_block_releases_its_encoder_output(self):
        """At the profile grid's largest pairwise point (one lane, as N is at
        most ``QUERY_BLOCK``) a call peaks at one pair block plus 2 MiB: a
        block's hidden layers are released before the next block encodes,
        so two blocks' are never live."""
        h, d_k, d_v, n = 4, 128, 64, 64
        block = 8 * (attention._PAIR_BLOCK // n) * n * (3 + 2 * attention.RPE_HIDDEN + h)
        peak = self.peak(mhsa, Variant.RPE, n, (h, d_k, d_v))
        assert peak <= block + 2 * 2**20, (peak, block)

    def test_a_pair_block_does_not_grow_with_d_k(self, lanes):
        """No block applies an encoder's second layer per pair, so no pair
        holds a 2*d_k-wide key offset: a one-lane call's peak at d_k=128
        is its peak at d_k=32."""
        lanes(1)
        peaks = [self.peak(mhsa, Variant.RPE, 64, (4, d_k, 64)) for d_k in (32, 128)]
        assert abs(peaks[1] - peaks[0]) <= 64 * 2**10, peaks

    def test_a_second_lane_costs_one_pair_block(self, lanes):
        """A second lane adds one pair block of encoder temporaries, its
        score offsets and one score slot: about 1.7 MiB at these widths."""
        peaks = []
        for count in (1, 2):
            lanes(count)
            mhsa(*make_case(0, n=2 * attention.QUERY_BLOCK), Variant.PLAIN)    # warm-up
            peaks.append(self.peak(mhsa, Variant.RPE, 256, (4, 32, 64)))
        assert peaks[1] <= peaks[0] + 2 * 2**20, peaks


class TestPairBlocks:
    """The pairwise regime walks blocks of as many query rows as fit
    ``_PAIR_BLOCK`` token pairs, at least one, each block building its own
    relative poses, score offsets and value offsets."""

    H, D_K, D_V = 2, 4, 3

    def banks(self, seed, n, lead=()):
        rng = np.random.default_rng(seed)
        qkv = QKVSet(*(rng.standard_normal(lead + (n, self.H, w))
                       for w in (2 * self.D_K, 2 * self.D_K, self.D_V)))
        poses = PoseSet(rng.uniform(-50.0, 50.0, lead + (n, 2)),
                        rng.uniform(0.0, TWO_PI, lead + (n,)))
        return qkv, poses

    def enc(self):
        return RPEEncoders.seeded(self.D_K, self.D_V, seed=70)

    def assert_rows_match_the_oracle(self, rows, n, m):
        queries, poses_q = self.banks(71, n)
        keysvals, poses_kv = self.banks(72, m)
        out = mhca(queries, keysvals, poses_q, poses_kv, Variant.RPE, enc=self.enc())
        expected = run_reference(
            Variant.RPE, QKVSet(queries.q[rows], queries.k[rows], queries.v[rows]),
            PoseSet(poses_q.positions[rows], poses_q.headings[rows]), poses_kv,
            enc=self.enc(), k=keysvals.k, v=keysvals.v,
        )
        assert out.merged[rows] == pytest.approx(expected, abs=1e-12)

    def test_rows_at_block_edges_match_the_oracle(self):
        m = 90
        rows = attention._PAIR_BLOCK // m
        n = 4 * rows + rows // 2
        self.assert_rows_match_the_oracle(
            [0, rows - 1, rows, 2 * rows - 1, 2 * rows, n - 1], n, m)

    def test_one_key_matches_the_oracle(self):
        self.assert_rows_match_the_oracle(list(range(5)), 5, 1)

    def test_more_keys_than_the_pair_bound_take_a_row_per_block(self, monkeypatch):
        # a bound of 16 pairs keeps the scalar oracle fast over 20 keys
        monkeypatch.setattr(attention, "_PAIR_BLOCK", 16)
        self.assert_rows_match_the_oracle(list(range(3)), 3, 20)

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("engine", ["mhsa", "mhca"])
    def test_nonzero_encoder_biases_match_the_oracle(self, lanes, monkeypatch, engine, count):
        """With every encoder bias nonzero, a stacked call matches the
        oracle, which adds them to each pair's hidden layers and value
        offsets; the engine takes b2_v once per output row."""
        lanes(count)
        # blocks of at most 2 rows and a lane per 4 rows keep the scalar oracle fast
        monkeypatch.setattr(attention, "QUERY_BLOCK", 4)
        monkeypatch.setattr(attention, "_PAIR_BLOCK", 16)
        rng = np.random.default_rng(77)
        enc = RPEEncoders(**{name: w + rng.uniform(-1.0, 1.0, w.shape) if w.ndim == 1 else w
                             for name, w in vars(self.enc()).items()})
        queries, poses_q = self.banks(78, 10, lead=(2,))
        if engine == "mhsa":
            keysvals, poses_kv = queries, poses_q
            out = mhsa(queries, poses_q, Variant.RPE, enc=enc)
        else:
            keysvals, poses_kv = self.banks(79, 7, lead=(2,))
            out = mhca(queries, keysvals, poses_q, poses_kv, Variant.RPE, enc=enc)
        for t in range(2):
            expected = run_reference(
                Variant.RPE, QKVSet(queries.q[t], queries.k[t], queries.v[t]),
                PoseSet(poses_q.positions[t], poses_q.headings[t]),
                PoseSet(poses_kv.positions[t], poses_kv.headings[t]),
                enc=enc, k=keysvals.k[t], v=keysvals.v[t],
            )
            assert out.merged[t] == pytest.approx(expected, abs=1e-12)

    def test_a_query_stack_equals_its_slices_bitwise(self):
        queries, poses_q = self.banks(73, 20, lead=(3,))
        keysvals, poses_kv = self.banks(74, 300)
        out, alpha = recorded(mhca, queries, keysvals, poses_q, poses_kv, Variant.RPE,
                              enc=self.enc())
        for t in range(3):
            part, part_alpha = recorded(
                mhca, QKVSet(queries.q[t], queries.k[t], queries.v[t]), keysvals,
                PoseSet(poses_q.positions[t], poses_q.headings[t]), poses_kv, Variant.RPE,
                enc=self.enc(),
            )
            assert np.array_equal(out.merged[t], part.merged)
            assert np.array_equal(alpha[t], part_alpha)

    def test_records_every_pair_and_the_unblocked_weights(self, monkeypatch):
        """At this shape BLAS rounds each score alike for any row count, so
        the blocked weights are bitwise those of one block."""
        n, m = 100, 90
        queries, poses_q = self.banks(75, n)
        keysvals, poses_kv = self.banks(76, m)
        args = (queries, keysvals, poses_q, poses_kv, Variant.RPE)
        with recording() as records:
            mhca(*args, enc=self.enc())
        monkeypatch.setattr(attention, "_PAIR_BLOCK", 1 << 30)
        _, unblocked = recorded(mhca, *args, enc=self.enc())
        (record,) = records
        assert record.counts == {
            "qkv": n * self.H * 2 * self.D_K + m * self.H * (2 * self.D_K + self.D_V),
            "embedded": 0,
        }
        assert record.weights.shape == (n, self.H, m)
        assert np.array_equal(record.weights, unblocked)


class TestLanes:
    """A forward call splits its query-row blocks over lanes, lane l taking
    blocks l, l + L, ...; each block's arithmetic is that of one lane, so
    every lane count gives the same bits. A pairwise block encodes, scores
    and sums in one pass."""

    H, D_K, D_V = TestQueryBlocks.H, TestQueryBlocks.D_K, TestQueryBlocks.D_V
    VARIANTS = [Variant.PLAIN, Variant.ROPE, Variant.DROPE_HBH, Variant.DROPE_IH]
    # the pairwise regime's (d_k, d_v): key encoder outputs wider than the
    # value encoder's, and narrower
    RPE_WIDTHS = {"keys-wider": (8, 3), "values-wider": (2, 16)}
    CASES = [pytest.param(v, n, None, id=f"{v.value}-{n}")
             for v in VARIANTS for n in (129, 300, 1024)] + [
        pytest.param(Variant.RPE, n, widths, id=f"rpe-{name}-{n}")
        for name, widths in RPE_WIDTHS.items() for n in (129, 300)]
    banks = TestQueryBlocks.banks

    def calls(self, variant, n, lead, widths=None):
        qkv, poses = self.banks(80, n, lead, widths)
        keysvals, poses_kv = self.banks(81, 200, (), widths)
        kw = {"enc": RPEEncoders.seeded(*widths, seed=9)} if variant is Variant.RPE else {}
        calls = [(mhsa, (qkv, poses, variant), kw),
                 (mhca, (qkv, keysvals, poses, poses_kv, variant), kw)]
        if variant is Variant.PLAIN:
            calls.append((mhsa_causal, (qkv,), {}))
        return calls

    @pytest.mark.parametrize("lead", [(), (2,)], ids=["bank", "stack"])
    @pytest.mark.parametrize("variant, n, widths", CASES)
    def test_every_lane_count_gives_the_same_bits(self, lanes, variant, n, widths, lead):
        calls = self.calls(variant, n, lead, widths)
        results = {}
        for count in (1, 2, 3):
            lanes(count)
            results[count] = []
            for engine, args, kw in calls:
                with recording() as records:
                    rec_out = engine(*args, **kw)
                (record,) = records
                results[count].append((engine(*args, **kw).per_head, rec_out.per_head,
                                       record.weights, record.counts))
        for count in (2, 3):
            for got, expected in zip(results[count], results[1]):
                for array, array1 in zip(got[:3], expected[:3]):
                    assert np.array_equal(array, array1)
                assert got[3] == expected[3]

    def test_a_single_block_and_the_pairwise_regime_start_no_thread(self, lanes, monkeypatch):
        """A call of at most QUERY_BLOCK query rows runs on the calling
        thread, pairwise ones too (the ledger check's size class), and so does
        the backward; a pairwise call of 3 * QUERY_BLOCK rows starts L - 1."""
        lanes(2)
        started, start = [], threading.Thread.start

        def spy(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", spy)
        qkv, poses = self.banks(82, attention.QUERY_BLOCK)
        keysvals, poses_kv = self.banks(88, 3 * attention.QUERY_BLOCK)
        for variant in Variant:
            kw = {"enc": RPEEncoders.seeded(self.D_K, self.D_V)} if variant is Variant.RPE else {}
            mhsa(qkv, poses, variant, **kw)
            mhca(qkv, keysvals, poses, poses_kv, variant, **kw)
        attention_backward(Variant.PLAIN, keysvals, None,
                           np.ones((keysvals.n_tokens, self.H * self.D_V)))
        assert started == []
        mhsa(keysvals, poses_kv, Variant.RPE, enc=RPEEncoders.seeded(self.D_K, self.D_V))
        assert len(started) == 1

    @pytest.mark.parametrize("count", [2, 3])
    def test_no_lane_thread_outlives_its_call(self, lanes, count):
        lanes(count)
        threads = threading.active_count()
        qkv, poses = self.banks(87, 3 * attention.QUERY_BLOCK)
        mhsa(qkv, poses, Variant.DROPE_HBH)
        assert threading.active_count() == threads

    @pytest.mark.parametrize("blas, expected", [
        ({}, "1"),
        ({"OPENBLAS_NUM_THREADS": "1"}, str(len(os.sched_getaffinity(0)))),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, "1"),
    ], ids=["unset", "one-thread", "mixed"])
    def test_lanes_follow_the_blas_thread_count(self, blas, expected):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
        src = str(Path(attention.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        env.update(blas)
        done = subprocess.run(
            [sys.executable, "-c", "import drope.attention as a; print(a._LANES)"],
            env=env, capture_output=True, text=True, timeout=60, check=True)
        assert done.stdout.strip() == expected

    def test_many_lanes_with_rapid_thread_switches_give_the_same_bits(self, lanes):
        """More lanes than CPUs, switching threads every microsecond: a lane
        that wrote another's rows or slot would change the output."""
        qkv, poses = self.banks(85, 1024)
        lanes(1)
        expected = mhsa(qkv, poses, Variant.DROPE_HBH).per_head
        lanes(2 * len(os.sched_getaffinity(0)) + 1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                assert np.array_equal(mhsa(qkv, poses, Variant.DROPE_HBH).per_head, expected)
        finally:
            sys.setswitchinterval(interval)

    def test_a_forked_child_gives_the_same_bits(self, lanes):
        lanes(2)
        qkv, poses = self.banks(86, 3 * attention.QUERY_BLOCK)
        expected = mhsa(qkv, poses, Variant.ROPE).per_head

        def child():
            same = np.array_equal(mhsa(qkv, poses, Variant.ROPE).per_head, expected)
            os._exit(0 if same else 1)

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        process.join(60)
        if process.is_alive():
            process.kill()
        assert process.exitcode == 0

    def failing_blocks(self, monkeypatch, fail_at, slow_at=None):
        """Patch the block kernel to raise at row ``fail_at`` and to sleep at
        ``slow_at``; returns the list of blocks still inside it."""
        inside, kernel = [], attention._block_weights

        def patched(q_heads, k_heads, scale, s, e, *args):
            inside.append(s)
            try:
                if s == slow_at:
                    time.sleep(0.2)
                if s == fail_at:
                    raise RuntimeError(f"block {s}")
                return kernel(q_heads, k_heads, scale, s, e, *args)
            finally:
                inside.remove(s)

        monkeypatch.setattr(attention, "_block_weights", patched)
        return inside

    @pytest.mark.parametrize("engine", ["mhsa", "mhca"])
    @pytest.mark.parametrize("fail_lane, slow_lane", [(1, None), (0, 1), (1, 0)],
                             ids=["lane-1", "lane-0-while-lane-1-runs",
                                  "lane-1-while-lane-0-runs"])
    def test_an_encoder_error_in_either_lane_is_raised_after_every_lane_ends(
            self, lanes, monkeypatch, fail_lane, slow_lane, engine):
        """An error in one lane's pairwise encoder is raised once no lane is
        still inside an encoder."""
        lanes(2)
        caller, inside, slept = threading.current_thread(), [], []
        encode = RPEEncoders.hidden

        def patched(enc, rel):
            lane = 0 if threading.current_thread() is caller else 1
            inside.append(lane)
            try:
                if lane == slow_lane and not slept:
                    slept.append(lane)
                    time.sleep(0.2)
                if lane == fail_lane:
                    raise RuntimeError(f"lane {lane}")
                return encode(enc, rel)
            finally:
                inside.remove(lane)

        monkeypatch.setattr(RPEEncoders, "hidden", patched)
        qkv, poses = self.banks(89, 3 * attention.QUERY_BLOCK)
        enc = RPEEncoders.seeded(self.D_K, self.D_V)
        with pytest.raises(RuntimeError, match=f"lane {fail_lane}"):
            if engine == "mhsa":
                mhsa(qkv, poses, Variant.RPE, enc=enc)
            else:
                mhca(qkv, qkv, poses, poses, Variant.RPE, enc=enc)
        assert inside == []

    @pytest.mark.parametrize("fail_at, slow_at", [(128, None), (0, 128), (128, 0)],
                             ids=["lane-1", "lane-0-while-lane-1-runs",
                                  "lane-1-while-lane-0-runs"])
    def test_a_lane_error_is_raised_after_every_lane_ends(self, lanes, monkeypatch,
                                                          fail_at, slow_at):
        lanes(2)
        inside = self.failing_blocks(monkeypatch, fail_at, slow_at)
        qkv, poses = self.banks(84, 4 * attention.QUERY_BLOCK)
        with pytest.raises(RuntimeError, match=f"block {fail_at}"):
            mhsa(qkv, poses, Variant.DROPE_HBH)
        assert inside == []
