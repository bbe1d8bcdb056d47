import itertools
import math

import numpy as np
import pytest

import drope.rotary as rotary
import drope.verification as verification
from drope.errors import ConfigurationError
from drope.attention import PoseSet, QKVSet, Variant, mhsa
from drope.rotary import FrequencySchedule, drope_embed, rope_embed, rotate_pairs
from drope.verification import (
    DROPE_GAP_MAX,
    FAULT_ROPE_FREQS_IN_FANGLE,
    ROPE_GAP_MIN,
    VerificationConfig,
    periodicity_gaps,
    run_verification,
)

from oracles import ref_attention, ref_default_freqs, ref_embed


@pytest.mark.parametrize("settings", [
    {"trials": 0},
    {"d_k_values": ()},
])
def test_settings_that_would_run_no_trials_are_rejected(settings):
    with pytest.raises(ConfigurationError):
        run_verification(VerificationConfig(**settings))


def test_smallest_accepted_settings_run_every_property():
    results = run_verification(
        VerificationConfig(trials=1, d_k_values=(2,))
    )
    assert all(result.trials >= 1 for result in results)


def test_shift_identity_holds_where_the_dot_product_is_near_zero():
    # this seed draws a nearly orthogonal (q, k) pair: an error taken
    # relative to the dot product itself read 1.7e-8 against 1e-8
    results = run_verification(VerificationConfig(seed=2052635727))
    by_name = {result.name: result for result in results}
    for name in ("position_shift_identity", "angle_shift_identity"):
        assert by_name[name].passed
        assert by_name[name].max_error < 1e-11
        assert by_name[name].tolerance == 1e-8


def test_a_wrong_frequency_in_the_position_shift_fails(monkeypatch):
    real = verification.rope_embed
    calls = itertools.count()

    def mutant(x, m, sched):
        # each trial embeds q, k, shifted q, shifted k: detune the last
        if next(calls) % 4 == 3:
            sched = FrequencySchedule(sched.d_k, sched.freqs * (1.0 + 1e-7))
        return real(x, m, sched)

    monkeypatch.setattr(verification, "rope_embed", mutant)
    result = verification._check_position_shift_identity(VerificationConfig(trials=200))
    assert not result.passed


def test_row_dots_equal_per_row_products_bitwise():
    # the shift identities and norm preservation report figures of 1-D products
    rng = np.random.default_rng(40)
    for width in (2, 16, 64):
        a, b = rng.standard_normal((2, 50, width))
        assert np.array_equal(verification._row_dots(a, b), [a[i] @ b[i] for i in range(50)])
        assert np.array_equal(np.sqrt(verification._row_dots(a, a)),
                              [np.linalg.norm(row) for row in a])


def failed_properties(cfg):
    return [result.name for result in run_verification(cfg) if not result.passed]


@pytest.mark.parametrize("mutant, failed", [
    # phasors of modulus 1 + 1e-9: R(a) @ R(b) grows twice as much as R(a + b)
    (lambda real, x, angles: real(x, angles) * (1.0 + 1e-9), "rotation_group_law"),
    # sin(|a|): an odd sine is what makes R(a).T equal R(-a)
    (lambda real, x, angles: real(x, np.abs(angles)), "rotation_transpose_inverse"),
], ids=["scaled-phasors", "even-sine"])
def test_the_rotation_checks_run_through_the_engines_kernel(monkeypatch, mutant, failed):
    real = rotary.rotate_pairs
    monkeypatch.setattr(rotary, "rotate_pairs", lambda x, angles: mutant(real, x, angles))
    assert failed in failed_properties(VerificationConfig(trials=50))


def test_seed_sweep_passes_and_the_fault_fails_exactly_the_heading_properties():
    heading_properties = [
        "angle_shift_identity", "angle_periodicity_counterexample",
        "engine_heading_shift_invariance",
    ]
    for seed in range(20):
        assert failed_properties(VerificationConfig(seed=seed)) == []
        faulty = VerificationConfig(seed=seed, fault_injection=FAULT_ROPE_FREQS_IN_FANGLE)
        assert failed_properties(faulty) == heading_properties


def test_periodicity_checks_the_operators_not_a_random_pair():
    # one of this seed's 100 random pairs gives a multi-frequency gap of
    # 3.3e-4, below ROPE_GAP_MIN, though the operators differ by 1.676
    result = verification._check_counterexample(VerificationConfig(seed=842892897))
    assert result.passed and result.trials == 100
    assert result.max_error < 1e-15 and result.tolerance == 1e-10
    assert "multi-frequency 1.676e+00" in result.detail
    assert "min 3.344e-04" in result.detail


def test_periodicity_operator_gap_has_its_closed_form():
    freqs = FrequencySchedule.default(8).freqs
    closed_form = 2.0 * max(abs(math.sin(math.pi * f)) for f in freqs)
    result = verification._check_counterexample(VerificationConfig())
    assert f"multi-frequency {closed_form:.3e}" in result.detail
    faulty = verification._check_counterexample(
        VerificationConfig(fault_injection=FAULT_ROPE_FREQS_IN_FANGLE)
    )
    assert not faulty.passed
    assert faulty.max_error == pytest.approx(closed_form, rel=1e-12)
    assert np.isclose(closed_form, 1.676, atol=1e-3)


@pytest.mark.parametrize("variant", [Variant.DROPE_HBH, Variant.DROPE_IH])
def test_fault_mutants_turn_heading_pair_l_by_heading_times_freq_l(variant):
    """Under the fault the embedding is ``rope_embed`` of the headings, and
    the engine's poses turn their heading pairs as the oracle with the
    schedule's frequencies does; without it, the checks run the real rule."""
    rng = np.random.default_rng(45)
    sched = FrequencySchedule.default(4)
    x, theta = rng.standard_normal((5, 8)), rng.uniform(0.0, 2.0 * math.pi, 5)
    faulty = VerificationConfig(fault_injection=FAULT_ROPE_FREQS_IN_FANGLE)
    embed = verification._heading_embed(faulty, sched)
    assert np.array_equal(embed(x, theta), rotate_pairs(x, theta[:, None] * sched.freqs))
    assert verification._heading_embed(VerificationConfig(), sched) is drope_embed

    qkv = QKVSet.random(5, 2, 4, 3, rng)
    positions, headings = rng.uniform(-9.0, 9.0, (5, 2)), rng.uniform(0.0, 2.0 * math.pi, 5)
    out = mhsa(qkv, verification._FaultyPoseSet(positions, headings), variant)
    _, expected = ref_attention(
        variant.value, qkv.q, qkv.k, qkv.v, positions, headings, positions, headings,
        split=(4, 4), angle_freqs=sched.freqs,
    )
    assert out.merged == pytest.approx(expected, abs=1e-12)
    real = mhsa(qkv, PoseSet(positions, headings), variant)
    assert not np.allclose(out.merged, real.merged)


def pair_and_operator_gaps(d_k, q, k):
    """|q.A.k - q.B.k| and ||A - B||_2 of ``periodicity_gaps`` for the
    multi-frequency and the uniform-frequency embedding."""
    sched = FrequencySchedule.default(d_k)
    rope_lhs, rope_rhs, rope_op = periodicity_gaps(lambda x, t: rope_embed(x, t, sched), q, k)
    drope_lhs, drope_rhs, drope_op = periodicity_gaps(drope_embed, q, k)
    return abs(rope_lhs - rope_rhs), abs(drope_lhs - drope_rhs), rope_op, drope_op


class TestCounterexample:
    def test_all_ones_case(self):
        # fixed vectors make the gap a closed-form quantity
        rope_gap, drope_gap, rope_op, drope_op = pair_and_operator_gaps(2, np.ones(4), np.ones(4))
        freq = 0.01
        expected_gap = abs(
            2 * math.cos(math.pi / 2 * freq) - 2 * math.cos(3 * math.pi / 2 * freq)
        )
        assert rope_gap == pytest.approx(expected_gap, rel=1e-12)
        assert rope_gap > 1e-3
        assert drope_gap < 1e-10
        assert rope_op > ROPE_GAP_MIN and drope_op < DROPE_GAP_MAX

    def test_many_seeds_at_d_k_eight(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            q, k = rng.standard_normal(16), rng.standard_normal(16)
            rope_gap, drope_gap, rope_op, drope_op = pair_and_operator_gaps(8, q, k)
            assert rope_gap > 1e-3
            assert drope_gap < 1e-10
            assert rope_op > ROPE_GAP_MIN and drope_op < DROPE_GAP_MAX

    def test_operator_gaps_hold_for_vectors_that_hide_the_gap(self):
        # a zero query makes both dot products 0; the operators still differ
        rope_gap, drope_gap, rope_op, drope_op = pair_and_operator_gaps(
            4, np.zeros(8), np.ones(8))
        assert rope_gap == 0.0 and drope_gap == 0.0
        assert rope_op > ROPE_GAP_MIN and drope_op < DROPE_GAP_MAX

    def test_operator_gaps_match_the_closed_form(self):
        sched = FrequencySchedule.default(8)
        rng = np.random.default_rng(32)
        q, k = rng.standard_normal((2, 5, 16))

        def rope(x, t):
            return rope_embed(x, t, sched)

        lhs, rhs, rope_gap = periodicity_gaps(rope, q, k)
        assert lhs.shape == rhs.shape == (5,)
        for i in range(5):
            single_lhs, single_rhs, _ = periodicity_gaps(rope, q[i], k[i])
            assert single_lhs == pytest.approx(lhs[i], abs=1e-12)
            assert single_rhs == pytest.approx(rhs[i], abs=1e-12)
        closed_form = 2.0 * np.max(np.abs(np.sin(math.pi * sched.freqs)))
        assert rope_gap == pytest.approx(closed_form, rel=1e-12)
        assert periodicity_gaps(drope_embed, q, k)[2] < 1e-15

    def test_single_pair_degenerates(self):
        # documented degenerate case: one pair at unit frequency has no gap,
        # which is why the verify check runs at d_k = 8
        rng = np.random.default_rng(0)
        q, k = rng.standard_normal(2), rng.standard_normal(2)
        sched = FrequencySchedule.default(1)
        lhs = rope_embed(q, math.pi / 2, sched) @ rope_embed(k, 0.0, sched)
        rhs = rope_embed(q, 0.0, sched) @ rope_embed(k, 3 * math.pi / 2, sched)
        assert abs(lhs - rhs) < 1e-10

    def test_dot_products_match_direct_embedding(self):
        rng = np.random.default_rng(31)
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        sched = FrequencySchedule.default(4)
        rope_lhs = periodicity_gaps(lambda x, t: rope_embed(x, t, sched), q, k)[0]
        freqs = ref_default_freqs(4)
        lhs = np.dot(
            ref_embed(q, [math.pi / 2 * f for f in freqs]),
            ref_embed(k, [0.0 * f for f in freqs]),
        )
        assert rope_lhs == pytest.approx(lhs, abs=1e-12)
        _, _, rope_op, drope_op = pair_and_operator_gaps(4, q, k)
        assert rope_op > ROPE_GAP_MIN and drope_op < DROPE_GAP_MAX
