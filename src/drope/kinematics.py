"""Unicycle kinematics, bounded control actions, and displacement metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, InvalidArgumentError
from .rotary import wrap_angle

__all__ = [
    "ACCEL_LIMIT",
    "YAW_RATE_LIMIT",
    "AgentState",
    "ControlAction",
    "ZERO_ACTION",
    "ActionGrid",
    "kinematic_step",
    "advance_states",
    "min_ade",
]

ACCEL_LIMIT = 4.0      # m/s^2
YAW_RATE_LIMIT = 1.0   # rad/s


@dataclass(frozen=True)
class AgentState:
    """Planar state: position (m), heading (canonical rad), speed (m/s >= 0)."""

    x: float
    y: float
    yaw: float
    v: float

    def __post_init__(self):
        for name in ("x", "y", "yaw", "v"):
            if not math.isfinite(float(getattr(self, name))):
                raise InvalidArgumentError(f"state field {name} must be finite")
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "y", float(self.y))
        object.__setattr__(self, "yaw", wrap_angle(float(self.yaw)))
        if self.v < 0.0:
            raise InvalidArgumentError(f"speed must be non-negative, got {self.v}")
        object.__setattr__(self, "v", float(self.v))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.yaw, self.v])

    @classmethod
    def from_array(cls, arr) -> "AgentState":
        x, y, yaw, v = (float(value) for value in arr)
        return cls(x, y, yaw, v)


@dataclass(frozen=True)
class ControlAction:
    """Acceleration (m/s^2) and yaw rate (rad/s).

    Magnitude bounds are configuration-level: actions decoded from an
    ActionGrid respect that grid's limits by construction.
    """

    accel: float
    yaw_rate: float

    def __post_init__(self):
        accel, yaw_rate = float(self.accel), float(self.yaw_rate)
        if not (math.isfinite(accel) and math.isfinite(yaw_rate)):
            raise InvalidArgumentError("control action must be finite")
        object.__setattr__(self, "accel", accel)
        object.__setattr__(self, "yaw_rate", yaw_rate)


ZERO_ACTION = ControlAction(0.0, 0.0)


@dataclass(frozen=True)
class ActionGrid:
    """Discrete (accel, yaw rate) bins; odd counts put an exact zero bin in both axes.

    Flat indices enumerate accel bins in the outer loop:
    ``index = accel_index * n_yaw + yaw_index``.
    """

    accel_centers: tuple
    yaw_rate_centers: tuple

    @classmethod
    def default(cls) -> "ActionGrid":
        """The pipeline's 9 x 9 grid, spanning +-ACCEL_LIMIT and +-YAW_RATE_LIMIT."""
        return cls(
            accel_centers=tuple(np.linspace(-ACCEL_LIMIT, ACCEL_LIMIT, 9)),
            yaw_rate_centers=tuple(np.linspace(-YAW_RATE_LIMIT, YAW_RATE_LIMIT, 9)),
        )

    @property
    def n_accel(self) -> int:
        return len(self.accel_centers)

    @property
    def n_yaw(self) -> int:
        return len(self.yaw_rate_centers)

    @property
    def n_actions(self) -> int:
        return self.n_accel * self.n_yaw

    @cached_property
    def _actions(self) -> tuple:
        return tuple(
            ControlAction(accel, yaw_rate)
            for accel in self.accel_centers
            for yaw_rate in self.yaw_rate_centers
        )

    def action(self, index: int) -> ControlAction:
        """The action of a flat index; one shared instance per index."""
        if not 0 <= index < self.n_actions:
            raise InvalidArgumentError(f"action index {index} out of range")
        return self._actions[index]


def _checked_dt(dt) -> float:
    """``dt`` as a float; a string is a ``TypeError``, not a number."""
    if not (math.isfinite(dt) and dt > 0.0):
        raise InvalidArgumentError(f"dt must be a positive finite number, got {dt}")
    return float(dt)


def kinematic_step(state: AgentState, action: ControlAction, dt: float) -> AgentState:
    """Semi-implicit unicycle update: speed and heading first, then position.

    The scalar reference of ``advance_states``.
    """
    dt = _checked_dt(dt)
    v = max(0.0, state.v + action.accel * dt)
    yaw = wrap_angle(state.yaw + action.yaw_rate * dt)
    x = state.x + v * math.cos(yaw) * dt
    y = state.y + v * math.sin(yaw) * dt
    return AgentState(x, y, yaw, v)


def advance_states(states, controls, dt: float) -> np.ndarray:
    """``kinematic_step`` on arrays: (..., 4) [x, y, yaw, v] states under (...,
    2) [accel, yaw rate] controls, bitwise equal to it on each row."""
    dt = _checked_dt(dt)
    states = np.asarray(states, dtype=np.float64)
    controls = np.asarray(controls, dtype=np.float64)
    v = states[..., 3] + controls[..., 0] * dt
    v = np.where(v > 0.0, v, 0.0)   # max(0.0, v), as kinematic_step takes it
    yaw = wrap_angle(states[..., 2] + controls[..., 1] * dt)
    return np.stack(
        [states[..., 0] + v * np.cos(yaw) * dt, states[..., 1] + v * np.sin(yaw) * dt, yaw, v],
        axis=-1,
    )


def min_ade(samples, truth) -> float:
    """Minimum over samples of the mean Euclidean displacement per step.

    ``samples`` is (K, T, 2) or a single (T, 2) trajectory; ``truth`` is (T, 2).
    """
    samples = np.asarray(samples, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if samples.ndim == 2:
        samples = samples[None]
    if samples.ndim != 3 or samples.shape[-1] != 2 or truth.shape != samples.shape[1:]:
        raise DimensionMismatchError(
            f"sample horizon {samples.shape} mismatches truth {truth.shape}"
        )
    displacement = np.sqrt(np.sum((samples - truth) ** 2, axis=-1))
    return float(displacement.mean(axis=-1).min())
