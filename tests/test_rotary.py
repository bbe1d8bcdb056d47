import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drope.verification as verification
from drope.errors import (
    ConfigurationError,
    DimensionMismatchError,
    InvalidArgumentError,
)
from drope.rotary import (
    TWO_PI,
    FrequencySchedule,
    _unit_phasors,
    drope_embed,
    planar_pair_angles,
    rope_embed,
    rotate2d,
    rotate_pairs,
    wrap_angle,
)
from drope.verification import FAULT_ROPE_FREQS_IN_FANGLE, VerificationConfig

from oracles import ref_default_freqs, ref_embed, ref_matmul2, ref_planar_angles, ref_rotate

angles_st = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False)


class TestWrapAngle:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_always_canonical(self, theta):
        wrapped = wrap_angle(theta)
        assert 0.0 <= wrapped < TWO_PI

    def test_negative_lands_high(self):
        assert wrap_angle(-1e-3) == pytest.approx(TWO_PI - 1e-3, abs=1e-15)

    def test_array_input(self):
        wrapped = wrap_angle(np.array([-0.1, 0.0, TWO_PI, 7.0]))
        assert np.all((wrapped >= 0.0) & (wrapped < TWO_PI))

    def test_relative_angle_quarter_turns(self):
        # the three-heading setup: pi/2 - 0 and 0 - 3*pi/2 wrap to the same angle
        assert wrap_angle(math.pi / 2 - 0.0) == pytest.approx(math.pi / 2)
        assert wrap_angle(0.0 - 3 * math.pi / 2) == pytest.approx(math.pi / 2)

    def test_relative_angle_self_is_zero(self):
        assert wrap_angle(1.234 - 1.234) == 0.0


class TestFrequencySchedule:
    def test_default_matches_reference(self):
        for d_k in (1, 2, 5, 8, 32):
            sched = FrequencySchedule.default(d_k)
            assert sched.freqs == pytest.approx(ref_default_freqs(d_k), rel=0, abs=0)

    def test_first_frequency_is_exactly_one(self):
        assert FrequencySchedule.default(7).freqs[0] == 1.0

    def test_half_dim_two_gives_exactly_one_hundredth(self):
        assert FrequencySchedule.default(2).freqs[1] == 0.01

    def test_keeps_a_read_only_copy(self):
        freqs = np.array([1.0, 0.5])
        sched = FrequencySchedule(2, freqs)
        freqs[1] = 0.25
        assert sched.freqs[1] == 0.5
        with pytest.raises(ValueError):
            sched.freqs[0] = 2.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigurationError):
            FrequencySchedule.default(0)
        FrequencySchedule.default(4)
        with pytest.raises(TypeError):    # the shared int schedule is not returned
            FrequencySchedule.default(4.0)
        with pytest.raises(DimensionMismatchError):
            FrequencySchedule(2, np.array([1.0]))
        with pytest.raises(InvalidArgumentError):
            FrequencySchedule(2, np.array([1.0, -0.5]))


class TestRotate2d:
    def test_zero_is_identity(self):
        assert np.array_equal(rotate2d(0.0), np.eye(2))

    def test_quarter_turn(self):
        assert rotate2d(math.pi / 2) @ np.array([1.0, 0.0]) == pytest.approx(
            [0.0, 1.0], abs=1e-15
        )

    def test_group_law_fixed_pair_against_oracle(self):
        a, b = 0.7, -2.3
        product = rotate2d(a) @ rotate2d(b)
        assert np.max(np.abs(product - ref_matmul2(ref_rotate(a), ref_rotate(b)))) < 1e-12
        assert np.max(np.abs(product - ref_rotate(a + b))) < 1e-12

    def test_group_law_thousand_random_pairs(self):
        rng = np.random.default_rng(7)
        pairs = rng.uniform(-100.0, 100.0, (1000, 2))
        worst = max(
            float(np.max(np.abs(rotate2d(a) @ rotate2d(b) - rotate2d(a + b))))
            for a, b in pairs
        )
        assert worst < 1e-12

    @given(angles_st)
    @settings(max_examples=200)
    def test_transpose_is_inverse(self, theta):
        assert np.max(np.abs(rotate2d(theta).T - rotate2d(-theta))) < 1e-12

    def test_determinant_one_and_orthogonal(self):
        m = rotate2d(1.3)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(m.T @ m - np.eye(2))) < 1e-15

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidArgumentError):
            rotate2d(float("inf"))

    def test_angle_banks_give_stacked_matrices(self):
        thetas = np.random.default_rng(10).uniform(-100.0, 100.0, (4, 3))
        stacked = rotate2d(thetas)
        assert stacked.shape == (4, 3, 2, 2)
        for index in np.ndindex(thetas.shape):
            assert np.array_equal(stacked[index], rotate2d(thetas[index]))
        with pytest.raises(InvalidArgumentError):
            rotate2d(np.array([0.5, np.nan]))

    def test_columns_are_the_basis_pairs_turned_by_rotate_pairs(self):
        theta = 0.83
        matrix = rotate2d(theta)
        assert np.array_equal(matrix[:, 0], rotate_pairs(np.array([1.0, 0.0]), theta))
        assert np.array_equal(matrix[:, 1], rotate_pairs(np.array([0.0, 1.0]), theta))


class TestRotatePairs:
    """The one rotation kernel against the scalar oracle, row by row."""

    @staticmethod
    def assert_matches_oracle(x, angles):
        out = rotate_pairs(x, angles)
        assert out.shape == x.shape
        rows = x.reshape(-1, x.shape[-1])
        row_angles = np.broadcast_to(angles, x.shape[:-1] + (x.shape[-1] // 2,))
        for row, got, ang in zip(rows, out.reshape(rows.shape),
                                 row_angles.reshape(-1, row_angles.shape[-1])):
            expected = np.array(ref_embed(row, ang))
            assert np.max(np.abs(got - expected)) <= 1e-15 * np.linalg.norm(row)
        return out

    def test_flat_vectors_and_banks_match_the_oracle(self):
        rng = np.random.default_rng(20)
        for shape in ((2,), (16,), (7, 12)):
            x = rng.standard_normal(shape) * 30.0
            self.assert_matches_oracle(x, rng.uniform(-60.0, 60.0, shape[:-1] + (shape[-1] // 2,)))

    def test_strided_and_read_only_banks_match_the_oracle(self):
        rng = np.random.default_rng(21)
        wide = rng.standard_normal((5, 3, 16))
        strided = wide[..., ::2]
        assert strided.strides[-1] != strided.itemsize
        self.assert_matches_oracle(strided, rng.uniform(-9.0, 9.0, (5, 3, 4)))
        read_only = rng.standard_normal((5, 3, 8))
        read_only.flags.writeable = False
        self.assert_matches_oracle(read_only, rng.uniform(-9.0, 9.0, (5, 3, 4)))
        transposed = rng.standard_normal((3, 5, 8)).swapaxes(0, 1)
        self.assert_matches_oracle(transposed, rng.uniform(-9.0, 9.0, (5, 3, 4)))
        broadcast = np.broadcast_to(rng.standard_normal(8), (5, 3, 8))
        self.assert_matches_oracle(broadcast, rng.uniform(-9.0, 9.0, (5, 3, 4)))

    def test_stacked_bank_with_head_broadcast_angles_matches_the_oracle(self):
        rng = np.random.default_rng(22)
        t, a, h, d_k = 3, 4, 2, 4
        x = rng.standard_normal((t, a, h, 2 * d_k))
        angles = rng.uniform(-50.0, 50.0, (t, a, 1, d_k))
        out = self.assert_matches_oracle(x, angles)
        for head in range(h):
            assert np.array_equal(out[:, :, head], rotate_pairs(x[:, :, head], angles[:, :, 0]))

    def test_never_writes_the_callers_array(self):
        rng = np.random.default_rng(23)
        x = rng.standard_normal((4, 2, 8))
        angles = rng.uniform(0.0, TWO_PI, (4, 2, 4))
        before, angles_before = x.copy(), angles.copy()
        out = rotate_pairs(x, angles)
        assert np.array_equal(x, before) and np.array_equal(angles, angles_before)
        assert not np.shares_memory(out, x)

    def test_zero_angles_return_x_bitwise(self):
        x = np.random.default_rng(24).standard_normal((3, 2, 10))
        assert np.array_equal(rotate_pairs(x, np.zeros((3, 2, 5))), x)
        assert np.array_equal(rotate_pairs(x, 0.0), x)

    def test_negated_angles_undo_the_rotation(self):
        rng = np.random.default_rng(25)
        x = rng.standard_normal((50, 16))
        angles = rng.uniform(-60.0, 60.0, (50, 8))
        back = rotate_pairs(rotate_pairs(x, angles), -angles)
        assert np.all(np.max(np.abs(back - x), axis=-1) <= 1e-15 * np.linalg.norm(x, axis=-1))

    def test_phasors_rotate_bitwise_as_their_angles(self):
        rng = np.random.default_rng(26)
        x = rng.standard_normal((6, 3, 16)) * 30.0
        for angles in (rng.uniform(-60.0, 60.0, (6, 3, 8)), rng.uniform(-60.0, 60.0, (6, 1, 8))):
            phasors = _unit_phasors(angles)
            assert phasors.dtype == np.complex128 and phasors.shape == angles.shape
            assert np.array_equal(rotate_pairs(x, phasors), rotate_pairs(x, angles))

    def test_conjugate_phasors_undo_bitwise_as_negated_angles(self):
        rng = np.random.default_rng(27)
        angles = rng.uniform(-100.0, 100.0, (2500, 4))    # 10**4 draws
        x = rng.standard_normal((2500, 8))
        undone = rotate_pairs(x, _unit_phasors(angles).conj())
        assert np.array_equal(undone, rotate_pairs(x, -angles))

    MISMATCHED = [
        ((4,), (3,)),          # pair count differs
        ((2,), (3,)),          # a single pair cannot broadcast up to three
        ((2, 4), (3, 2)),      # leading axes differ
        ((4,), (2, 2)),        # angles would add a leading axis to the output
    ]

    @pytest.mark.parametrize("x_shape, angle_shape", MISMATCHED)
    def test_mismatched_angles_name_both_shapes(self, x_shape, angle_shape):
        with pytest.raises(DimensionMismatchError) as err:
            rotate_pairs(np.ones(x_shape), np.ones(angle_shape))
        assert str(angle_shape) in str(err.value) and str(x_shape) in str(err.value)

    @pytest.mark.parametrize("x_shape, angle_shape", MISMATCHED)
    def test_mismatched_phasors_name_both_shapes(self, x_shape, angle_shape):
        with pytest.raises(DimensionMismatchError) as err:
            rotate_pairs(np.ones(x_shape), np.ones(angle_shape, dtype=np.complex128))
        assert str(angle_shape) in str(err.value) and str(x_shape) in str(err.value)

    def test_embeddings_reject_mismatched_shapes_with_one_error(self):
        sched = FrequencySchedule.default(4)
        for bad in (lambda: rope_embed(1.0, 1.0, sched), lambda: drope_embed(1.0, 1.0),
                    lambda: rotate_pairs(1.0, 0.0)):
            with pytest.raises(DimensionMismatchError):
                bad()


class TestEmbeddingBanks:
    """One position or heading per vector of a bank, as the verify suite calls them."""

    rng = np.random.default_rng(12)
    x = rng.standard_normal((6, 8))
    values = rng.uniform(-100.0, 100.0, 6)

    @pytest.mark.parametrize("embed", [
        lambda x, m: rope_embed(x, m, FrequencySchedule.default(4)),
        drope_embed,
    ], ids=["rope", "drope"])
    def test_bank_calls_equal_per_row_calls_bitwise(self, embed):
        bank = embed(self.x, self.values)
        rows = np.stack([embed(row, value) for row, value in zip(self.x, self.values)])
        assert np.array_equal(bank, rows)
        stacked = embed(self.x.reshape(2, 3, 8), self.values.reshape(2, 3))
        assert np.array_equal(stacked.reshape(6, 8), rows)

    @pytest.mark.parametrize("embed", [
        lambda x, m: rope_embed(x, m, FrequencySchedule.default(4)), drope_embed,
    ], ids=["rope", "drope"])
    def test_bank_errors_are_package_errors(self, embed):
        bad = self.values.copy()
        bad[3] = np.inf
        with pytest.raises(InvalidArgumentError):
            embed(self.x, bad)
        for shape in ((5,), (6, 1), (2, 3)):
            with pytest.raises(DimensionMismatchError):
                embed(self.x, np.ones(shape))


class TestRopeEmbed:
    def test_zero_position_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(8)
        assert np.array_equal(rope_embed(x, 0.0, FrequencySchedule.default(4)), x)

    def test_pairwise_frequencies_at_unit_position(self):
        # d_k = 2: pair 0 turns by 1 rad, pair 1 by 0.01 rad
        sched = FrequencySchedule.default(2)
        x = np.array([1.0, 0.0, 0.0, 1.0])
        out = rope_embed(x, 1.0, sched)
        assert out[:2] == pytest.approx([math.cos(1.0), math.sin(1.0)], abs=1e-15)
        assert out[2:] == pytest.approx([-math.sin(0.01), math.cos(0.01)], abs=1e-15)

    def test_single_pair_reduces_to_plane_rotation(self):
        out = rope_embed(np.array([1.0, 0.0]), math.pi / 2, FrequencySchedule.default(1))
        assert out == pytest.approx([0.0, 1.0], abs=1e-15)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(3)
        for d_k in (1, 3, 8):
            sched = FrequencySchedule.default(d_k)
            x = rng.standard_normal(2 * d_k)
            m = float(rng.uniform(-50, 50))
            expected = ref_embed(x, [m * f for f in ref_default_freqs(d_k)])
            assert rope_embed(x, m, sched) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            rope_embed(np.zeros(6), 1.0, FrequencySchedule.default(4))

    def test_non_finite_position(self):
        with pytest.raises(InvalidArgumentError):
            rope_embed(np.zeros(4), float("nan"), FrequencySchedule.default(2))

    @given(st.integers(1, 6), angles_st, st.data())
    @settings(max_examples=100)
    def test_norm_preserved(self, d_k, m, data):
        x = np.asarray(
            data.draw(
                st.lists(
                    st.floats(min_value=-10, max_value=10),
                    min_size=2 * d_k, max_size=2 * d_k,
                )
            )
        )
        out = rope_embed(x, m, FrequencySchedule.default(d_k))
        assert np.linalg.norm(out) == pytest.approx(
            np.linalg.norm(x), rel=1e-10, abs=1e-12
        )

    def test_common_offset_leaves_dot_products_unchanged(self):
        rng = np.random.default_rng(11)
        sched = FrequencySchedule.default(4)
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        base = rope_embed(q, 3.7, sched) @ rope_embed(k, -1.2, sched)
        moved = rope_embed(q, 3.7 + 55.0, sched) @ rope_embed(k, -1.2 + 55.0, sched)
        assert abs(base - moved) / abs(base) < 1e-8


class TestDropeEmbed:
    def test_zero_angle_is_identity(self):
        x = np.arange(6.0)
        assert np.array_equal(drope_embed(x, 0.0), x)

    def test_periodicity_near_wrap(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(8)
        eps = 1e-3
        near = drope_embed(x, TWO_PI - eps)
        below = drope_embed(x, -eps)
        assert np.max(np.abs(near - below)) < 1e-12

    def test_single_pair_equals_unit_frequency_position_embed(self):
        rng = np.random.default_rng(2)
        sched = FrequencySchedule(1, np.array([1.0]))
        for _ in range(20):
            x = rng.standard_normal(2)
            theta = float(rng.uniform(0, TWO_PI))
            assert drope_embed(x, theta) == pytest.approx(
                rope_embed(x, theta, sched), abs=1e-15
            )

    def test_odd_length_rejected(self):
        with pytest.raises(DimensionMismatchError):
            drope_embed(np.zeros(5), 1.0)

    def test_norm_preserved(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(10)
        out = drope_embed(x, 2.5)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x), rel=1e-12)

    def test_relative_angle_identity_with_wrap(self):
        rng = np.random.default_rng(5)
        q, k = rng.standard_normal(8), rng.standard_normal(8)
        theta_i, theta_j, delta = 0.3, 5.9, 1.0  # delta wraps theta_j only
        base = drope_embed(q, theta_i) @ drope_embed(k, theta_j)
        moved = drope_embed(q, wrap_angle(theta_i + delta)) @ drope_embed(
            k, wrap_angle(theta_j + delta)
        )
        assert abs(base - moved) / abs(base) < 1e-8

    def test_bank_angles_match_single_embeddings(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((5, 8))
        thetas = rng.uniform(0.0, TWO_PI, 5)
        bank = rotate_pairs(x, thetas[:, None])
        rows = np.stack([drope_embed(x[i], thetas[i]) for i in range(5)])
        assert np.array_equal(bank, rows)

    def test_fault_frequencies_change_the_result(self):
        """The verify suite's per-pair-frequency mutant differs from the real rule."""
        rng = np.random.default_rng(6)
        x = rng.standard_normal(8)
        faulty = VerificationConfig(fault_injection=FAULT_ROPE_FREQS_IN_FANGLE)
        mutant = verification._heading_embed(faulty, FrequencySchedule.default(4))
        assert not np.allclose(drope_embed(x, 1.0), mutant(x, 1.0))


class TestPlanarEmbedding:
    def test_angles_match_reference(self):
        freqs = ref_default_freqs(5)
        pos = np.array([3.0, -2.0])
        assert planar_pair_angles(pos, 5, np.array(freqs)) == pytest.approx(
            ref_planar_angles(pos, 5, freqs)
        )

    def test_embed_matches_reference(self):
        rng = np.random.default_rng(8)
        sched = FrequencySchedule.default(4)
        x = rng.standard_normal(8)
        pos = np.array([1.5, -4.0])
        expected = ref_embed(x, ref_planar_angles(pos, 4, list(sched.freqs)))
        out = rotate_pairs(x, planar_pair_angles(pos, sched.d_k, sched.freqs))
        assert out == pytest.approx(expected, abs=1e-12)

    def test_translation_invariant_dot_products(self):
        rng = np.random.default_rng(9)
        sched = FrequencySchedule.default(6)
        q, k = rng.standard_normal(12), rng.standard_normal(12)
        p1, p2 = np.array([2.0, 3.0]), np.array([-1.0, 7.5])
        shift = np.array([5.3, -2.1])

        def embed(x, position):
            return rotate_pairs(x, planar_pair_angles(position, sched.d_k, sched.freqs))

        base = embed(q, p1) @ embed(k, p2)
        moved = embed(q, p1 + shift) @ embed(k, p2 + shift)
        assert abs(base - moved) / abs(base) < 1e-8
