import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drope.errors import DimensionMismatchError, InvalidArgumentError
from drope.kinematics import (
    ACCEL_LIMIT,
    YAW_RATE_LIMIT,
    ActionGrid,
    AgentState,
    ControlAction,
    ZERO_ACTION,
    advance_states,
    kinematic_step,
    min_ade,
)
from drope.rotary import TWO_PI
from drope.scene import Scene

action_st = st.tuples(
    st.floats(min_value=-ACCEL_LIMIT, max_value=ACCEL_LIMIT),
    st.floats(min_value=-YAW_RATE_LIMIT, max_value=YAW_RATE_LIMIT),
)


class TestKinematicStep:
    def test_straight_line(self):
        state = kinematic_step(AgentState(0, 0, 0, 1.0), ZERO_ACTION, 0.5)
        assert (state.x, state.y, state.yaw, state.v) == (0.5, 0.0, 0.0, 1.0)

    def test_turn_in_place(self):
        state = kinematic_step(AgentState(2.0, 3.0, 0.0, 0.0), ControlAction(0.0, 0.8), 0.5)
        assert (state.x, state.y) == (2.0, 3.0)
        assert state.yaw == pytest.approx(0.4)
        assert state.v == 0.0

    def test_semi_implicit_update_order(self):
        # heading advances before the position integrates
        state = kinematic_step(
            AgentState(0, 0, 0, 1.0), ControlAction(0.0, math.pi / 2), 0.5
        )
        assert state.yaw == pytest.approx(math.pi / 4)
        assert state.x == pytest.approx(0.5 * math.cos(math.pi / 4))
        assert state.y == pytest.approx(0.5 * math.sin(math.pi / 4))

    def test_speed_clamped_at_zero(self):
        state = kinematic_step(AgentState(0, 0, 0, 0.5), ControlAction(-4.0, 0.0), 0.5)
        assert state.v == 0.0

    @given(st.lists(action_st, min_size=1, max_size=30))
    @settings(max_examples=100)
    def test_speed_never_negative(self, actions):
        state = AgentState(0.0, 0.0, 0.0, 1.0)
        for accel, yaw_rate in actions:
            state = kinematic_step(state, ControlAction(accel, yaw_rate), 0.5)
            assert state.v >= 0.0
            assert 0.0 <= state.yaw < 2 * math.pi

    def test_invalid_dt(self):
        with pytest.raises(InvalidArgumentError):
            kinematic_step(AgentState(0, 0, 0, 0), ZERO_ACTION, 0.0)

    def test_non_finite_state_rejected(self):
        with pytest.raises(InvalidArgumentError):
            AgentState(float("inf"), 0, 0, 0)

    def test_action_bounds_enforced(self):
        # grid actions respect the limits by construction
        grid = ActionGrid.default()
        assert max(map(abs, grid.accel_centers)) == ACCEL_LIMIT
        assert max(map(abs, grid.yaw_rate_centers)) == YAW_RATE_LIMIT
        with pytest.raises(InvalidArgumentError):
            ControlAction(float("nan"), 0.0)


_yaw_st = st.sampled_from([0.0, 1e-9, TWO_PI - 1e-9, math.nextafter(TWO_PI, 0.0)]) | st.floats(
    min_value=0.0, max_value=TWO_PI, exclude_max=True)
_state_st = st.tuples(
    st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), _yaw_st, st.just(0.0) | st.floats(0.0, 30.0))


@st.composite
def _batches(draw):
    """(states, controls) with one or two leading axes and a positive dt."""
    shape = draw(st.sampled_from([(1,), (4,), (2, 3)]))
    n_rows = math.prod(shape)
    states = draw(st.lists(_state_st, min_size=n_rows, max_size=n_rows))
    controls = draw(st.lists(action_st, min_size=n_rows, max_size=n_rows))
    dt = draw(st.sampled_from([0.1, 0.5, 2.0]) | st.floats(1e-3, 5.0))
    return np.array(states).reshape(shape + (4,)), np.array(controls).reshape(shape + (2,)), dt


class TestAdvanceStates:
    @given(_batches())
    @settings(max_examples=200)
    @example((np.array([[1.0, 2.0, 0.3, 0.0]]), np.array([[-4.0, 0.0]]), 0.5))   # standstill
    @example((np.array([[0.0, 0.0, 1e-9, 3.0]]), np.array([[0.0, -1.0]]), 0.5))  # across 0
    @example((np.array([[0.0, 0.0, TWO_PI - 1e-9, 3.0]]), np.array([[0.0, 1.0]]), 0.5))  # across 2*pi
    def test_equals_kinematic_step_row_by_row(self, batch):
        states, controls, dt = batch
        advanced = advance_states(states, controls, dt)
        assert advanced.shape == states.shape
        for index in np.ndindex(states.shape[:-1]):
            expected = kinematic_step(
                AgentState.from_array(states[index]), ControlAction(*controls[index]), dt
            ).as_array()
            assert advanced[index].tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dt", [0.0, -0.5, float("nan"), float("inf")])
    def test_rejects_dt_as_kinematic_step_does(self, dt):
        with pytest.raises(InvalidArgumentError) as scalar:
            kinematic_step(AgentState(0, 0, 0, 1.0), ZERO_ACTION, dt)
        with pytest.raises(InvalidArgumentError) as array:
            advance_states(np.array([[0.0, 0.0, 0.0, 1.0]]), np.zeros((1, 2)), dt)
        with pytest.raises(InvalidArgumentError) as scene:
            Scene(np.zeros((2, 1, 4)), [], dt)
        assert str(array.value) == str(scalar.value) == str(scene.value)

    def test_string_dt_is_not_a_number(self):
        for check in (lambda: kinematic_step(AgentState(0, 0, 0, 1.0), ZERO_ACTION, "0.5"),
                      lambda: advance_states(np.zeros((1, 4)), np.zeros((1, 2)), "0.5"),
                      lambda: Scene(np.zeros((2, 1, 4)), [], "0.5")):
            with pytest.raises(TypeError):
                check()


class TestActionGrid:
    def test_default_shape_and_zero_bin(self):
        grid = ActionGrid.default()
        assert grid.n_actions == 81
        # the middle bin of both 9-bin axes
        zero = grid.action(4 * grid.n_yaw + 4)
        assert zero.accel == 0.0 and zero.yaw_rate == 0.0

    def test_index_layout(self):
        grid = ActionGrid.default()
        action = grid.action(2 * grid.n_yaw + 5)
        assert action.accel == grid.accel_centers[2]
        assert action.yaw_rate == grid.yaw_rate_centers[5]

    def test_out_of_range_index(self):
        with pytest.raises(InvalidArgumentError):
            ActionGrid.default().action(81)

    def test_actions_are_shared_and_unchanged(self):
        grid = ActionGrid(tuple(np.linspace(-ACCEL_LIMIT, ACCEL_LIMIT, 5)),
                          tuple(np.linspace(-YAW_RATE_LIMIT, YAW_RATE_LIMIT, 3)))
        for index in range(grid.n_actions):
            action = grid.action(index)
            assert action is grid.action(index)
            assert action == ControlAction(
                grid.accel_centers[index // grid.n_yaw],
                grid.yaw_rate_centers[index % grid.n_yaw],
            )
        for index in (-1, grid.n_actions):
            with pytest.raises(InvalidArgumentError):
                grid.action(index)

    def test_centers_span_limits(self):
        grid = ActionGrid.default()
        assert grid.accel_centers[0] == -ACCEL_LIMIT
        assert grid.accel_centers[-1] == ACCEL_LIMIT
        assert grid.yaw_rate_centers[0] == -YAW_RATE_LIMIT


class TestMinAde:
    def test_exact_match_is_zero(self):
        truth = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert min_ade(truth, truth) == 0.0

    def test_constant_offset_three_four_five(self):
        truth = np.zeros((4, 2))
        offset = truth + np.array([3.0, 4.0])
        assert min_ade(offset, truth) == pytest.approx(5.0)

    def test_min_over_samples(self):
        truth = np.zeros((4, 2))
        exact = truth.copy()
        offset = truth + np.array([3.0, 4.0])
        assert min_ade(np.stack([offset, exact]), truth) == 0.0

    def test_horizon_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            min_ade(np.zeros((3, 2)), np.zeros((4, 2)))
