import tracemalloc

import numpy as np
import pytest

import drope.attention as attention
from drope.attention import (
    PoseSet,
    QKVSet,
    Variant,
    attention_backward,
    mhsa,
)
from drope.errors import DimensionMismatchError

from oracles import fd_gradient

ROTARY = (Variant.ROPE, Variant.DROPE_HBH, Variant.DROPE_IH)


def scalar_loss(variant, q, k, v, poses, probe):
    """Probe-weighted sum of the merged output; the scalar for FD checks."""
    qkv = QKVSet(q, k, v)
    out = mhsa(qkv, poses, variant)
    return float(np.sum(out.merged * probe))


def check_gradients(variant, n, h, d_k, d_v, seed, monkeypatch=None):
    """FD-check the analytic gradients; with ``monkeypatch`` the backward walks
    query blocks of 2 rows and must also match its one-block result."""
    rng = np.random.default_rng(seed)
    qkv = QKVSet.random(n, h, d_k, d_v, rng)
    poses = PoseSet(rng.uniform(-5.0, 5.0, (n, 2)), rng.uniform(0.0, 2.0 * np.pi, n))
    probe = rng.standard_normal((n, h * d_v))
    dq, dk, dv = attention_backward(variant, qkv, poses, probe)
    if monkeypatch is not None:
        with monkeypatch.context() as patch:
            patch.setattr(attention, "QUERY_BLOCK", 2)
            blocked = attention_backward(variant, qkv, poses, probe)
        for one_block, grad in zip((dq, dk, dv), blocked):
            assert np.max(np.abs(grad - one_block)) <= 1e-12 * np.max(np.abs(one_block))
        dq, dk, dv = blocked

    for name, analytic, bank in (("q", dq, "q"), ("k", dk, "k"), ("v", dv, "v")):
        def loss(x, bank=bank):
            banks = {"q": qkv.q, "k": qkv.k, "v": qkv.v}
            banks[bank] = x
            return scalar_loss(variant, banks["q"], banks["k"], banks["v"], poses, probe)

        numeric = fd_gradient(loss, getattr(qkv, bank).copy(), h=1e-5)
        gap = np.abs(analytic - numeric)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0e-4)
        worst = float(np.max(gap / scale))
        assert worst < 1e-4, f"{variant} {name}: relative gap {worst:.2e}"


class TestBackward:
    def test_zero_upstream_gives_zero_gradients(self):
        rng = np.random.default_rng(0)
        qkv = QKVSet.random(3, 2, 2, 2, rng)
        poses = PoseSet.random(3, rng)
        dq, dk, dv = attention_backward(
            Variant.DROPE_HBH, qkv, poses, np.zeros((3, 4))
        )
        assert not dq.any() and not dk.any() and not dv.any()

    def test_plain_minimal_case(self):
        check_gradients(Variant.PLAIN, n=2, h=1, d_k=1, d_v=1, seed=1)

    def test_drope_hbh_three_tokens(self):
        check_gradients(Variant.DROPE_HBH, n=3, h=2, d_k=2, d_v=2, seed=2)

    def test_rope(self):
        check_gradients(Variant.ROPE, n=3, h=1, d_k=2, d_v=2, seed=3)

    def test_drope_ih(self):
        check_gradients(Variant.DROPE_IH, n=3, h=1, d_k=2, d_v=2, seed=4)

    @pytest.mark.parametrize("variant", [Variant.PLAIN, *ROTARY])
    def test_blocks_of_two_rows_match_one_block(self, monkeypatch, variant):
        check_gradients(variant, n=7, h=2, d_k=2, d_v=3, seed=11, monkeypatch=monkeypatch)

    def test_empty_bank_gives_empty_gradients(self):
        rng = np.random.default_rng(12)
        qkv = QKVSet.random(0, 2, 2, 3, rng)
        grads = attention_backward(Variant.DROPE_HBH, qkv, PoseSet.random(0, rng),
                                   np.zeros((0, 6)))
        assert [g.shape for g in grads] == [(0, 2, 4), (0, 2, 4), (0, 2, 3)]

    def test_rpe_not_implemented(self):
        rng = np.random.default_rng(5)
        qkv = QKVSet.random(2, 1, 1, 1, rng)
        with pytest.raises(NotImplementedError):
            attention_backward(Variant.RPE, qkv, PoseSet.random(2, rng), np.zeros((2, 1)))

    def test_upstream_shape_checked(self):
        rng = np.random.default_rng(6)
        qkv = QKVSet.random(2, 1, 1, 1, rng)
        with pytest.raises(DimensionMismatchError):
            attention_backward(Variant.PLAIN, qkv, None, np.zeros((2, 2)))

    def test_gradient_is_linear_in_upstream(self):
        rng = np.random.default_rng(7)
        qkv = QKVSet.random(3, 2, 2, 2, rng)
        poses = PoseSet.random(3, rng)
        g1 = rng.standard_normal((3, 4))
        g2 = rng.standard_normal((3, 4))
        dq1, _, _ = attention_backward(Variant.ROPE, qkv, poses, g1)
        dq2, _, _ = attention_backward(Variant.ROPE, qkv, poses, g2)
        dq_sum, _, _ = attention_backward(Variant.ROPE, qkv, poses, g1 + g2)
        assert dq_sum == pytest.approx(dq1 + dq2, abs=1e-12)

    def test_a_call_holds_two_score_blocks(self):
        """One plain call at N=1024 (H=4, QK and value widths 64) peaks at its
        three head-major gradient banks (6 MiB), one gradient-sized matmul
        temporary (2 MiB) and two (H, QUERY_BLOCK, N) score blocks (8 MiB),
        plus 1 MiB."""
        assert attention.QUERY_BLOCK == 128
        rng = np.random.default_rng(8)
        qkv = QKVSet.random(1024, 4, 32, 64, rng)
        upstream = rng.standard_normal((1024, 4 * 64))
        tracemalloc.start()
        try:
            attention_backward(Variant.PLAIN, qkv, None, upstream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 17 * 2**20, peak / 2**20
