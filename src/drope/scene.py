"""Synthetic driving scenes: agent tracks, segmented map polylines, JSON I/O.

A scene holds ``n_agents`` state tracks sampled at ``dt`` seconds (default
0.5 s, i.e. 2 Hz) and a set of map segments. Synthetic polylines have
evenly spaced points at most ``POLYLINE_SPACING`` meters apart, and long
polylines are split into segments of at most ``MAX_SEGMENT_LENGTH`` meters
of arc. Each segment is anchored at its middle point with the heading
toward the next point, and stores its shape re-expressed in that anchor
frame so the shape carries no absolute pose. Single-point segments (stop
signs) get heading 0.

Scene files are JSON::

    {
      "dt": 0.5,
      "agents": [{"states": [[x, y, yaw, v], ...]}, ...],
      "map": [{"points": [[x, y], ...]}, ...]
    }
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .attention import PoseSet
from .errors import ConfigurationError, DimensionMismatchError, InvalidArgumentError, empty_array
from .kinematics import ACCEL_LIMIT, YAW_RATE_LIMIT, AgentState, _checked_dt, advance_states
from .rotary import wrap_angle

__all__ = [
    "MAX_SEGMENT_LENGTH",
    "POLYLINE_SPACING",
    "DEFAULT_DT",
    "MapSegment",
    "Scene",
    "polyline_arc_length",
    "segment_polyline",
    "make_straight_polyline",
    "make_arc_polyline",
    "make_scene",
    "make_constant_velocity_scene",
    "save_scene",
    "load_scene",
    "scene_to_dict",
    "scene_from_dict",
]

MAX_SEGMENT_LENGTH = 25.0   # most meters of arc in a map segment
POLYLINE_SPACING = 5.0      # most meters between the points of a synthetic polyline
DEFAULT_DT = 0.5            # seconds (2 Hz)
ACTION_SCALE = 0.3          # random scenes: action std as a fraction of its limit
TRACK_CHUNK_STEPS = 16      # the least number of steps an appended track grows by


def polyline_arc_length(points) -> float:
    points = np.asarray(points, dtype=np.float64)
    if len(points) < 2:
        return 0.0
    return float(np.sum(np.linalg.norm(np.diff(points, axis=0), axis=1)))


@dataclass(frozen=True, eq=False)
class MapSegment:
    """A short polyline with an anchor pose and its anchor-frame shape; immutable,
    with read-only copies of its arrays, and compared and hashed by identity."""

    points: np.ndarray        # (P, 2) global coordinates
    anchor_xy: np.ndarray     # (2,)
    anchor_heading: float     # canonical; 0.0 for single-point segments
    local_shape: np.ndarray   # (P, 2); the anchor maps to the origin, heading 0

    def __post_init__(self):
        # read-only copies: a decoder that matched this segment by identity keeps its map
        for name in ("points", "anchor_xy", "local_shape"):
            array = np.array(getattr(self, name), dtype=np.float64)
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def from_points(cls, points):
        points = np.asarray(points, dtype=np.float64)
        if points.ndim != 2 or points.shape[1] != 2 or len(points) == 0:
            raise InvalidArgumentError(f"segment points must be (P, 2), got {points.shape}")
        if not np.all(np.isfinite(points)):
            raise InvalidArgumentError("segment points must be finite")
        if polyline_arc_length(points) > MAX_SEGMENT_LENGTH + 1e-9:
            raise InvalidArgumentError(
                f"segment arc length {polyline_arc_length(points):.3f} exceeds "
                f"{MAX_SEGMENT_LENGTH} m; split the polyline first"
            )
        mid = (len(points) - 1) // 2
        if len(points) == 1:
            heading = 0.0
        else:
            step = points[mid + 1] - points[mid]
            heading = wrap_angle(math.atan2(step[1], step[0]))
        anchor = points[mid]
        c, s = math.cos(heading), math.sin(heading)
        rel = points - anchor
        local = np.column_stack([c * rel[:, 0] + s * rel[:, 1],
                                 -s * rel[:, 0] + c * rel[:, 1]])
        return cls(points=points, anchor_xy=anchor, anchor_heading=heading,
                   local_shape=local)


def segment_polyline(points):
    """Split a polyline into segments of arc length at most ``MAX_SEGMENT_LENGTH``.

    Cut points are interpolated exactly on the polyline, so consecutive
    segments share their boundary point and jointly cover the input.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != 2 or len(points) == 0:
        raise InvalidArgumentError(f"polyline must be (P, 2), got {points.shape}")
    if len(points) == 1:
        return [MapSegment.from_points(points)]

    segments = []
    current = [points[0]]
    used = 0.0
    for start, end in zip(points[:-1], points[1:]):
        cursor = start
        remaining = float(np.linalg.norm(end - cursor))
        while used + remaining > MAX_SEGMENT_LENGTH + 1e-12:
            fraction = (MAX_SEGMENT_LENGTH - used) / remaining
            cut = cursor + fraction * (end - cursor)
            current.append(cut)
            segments.append(np.array(current))
            current = [cut]
            used = 0.0
            cursor = cut
            remaining = float(np.linalg.norm(end - cursor))
        current.append(end)
        used += remaining
    if len(current) >= 2:
        segments.append(np.array(current))
    return [MapSegment.from_points(seg) for seg in segments]


def _checked_states(states: np.ndarray) -> np.ndarray:
    """``states`` (..., 4), finite with non-negative speeds, headings wrapped in place."""
    if not np.isfinite(states).all():
        raise InvalidArgumentError("agent states must be finite")
    if (states[..., 3] < 0.0).any():
        raise InvalidArgumentError("agent speeds must be non-negative")
    states[..., 2] = wrap_angle(states[..., 2])
    return states


class _Track:
    """An append-only (n_agents, capacity, 4) state buffer shared by the scenes
    of one history: rows [0, filled) are read-only and never written again."""

    def __init__(self, states: np.ndarray):
        n_agents, n_steps, _ = states.shape
        self.array = empty_array((n_agents, n_steps + max(n_steps, TRACK_CHUNK_STEPS), 4),
                                 "an agent track array")
        self.array[:, :n_steps] = states
        self.array.flags.writeable = False
        self.filled = n_steps

    def append(self, row: np.ndarray) -> np.ndarray:
        """Write ``row`` after the filled rows; return a read-only view of them all."""
        self.array.flags.writeable = True
        self.array[:, self.filled] = row
        self.array.flags.writeable = False
        self.filled += 1
        return self.array[:, :self.filled]


@dataclass(eq=False)
class Scene:
    """Agent tracks (n_agents, n_steps, 4) as [x, y, yaw, v], plus map segments.

    A constructed scene holds its own checked copy of the states. A scene made
    by ``with_appended_states`` holds a read-only view of a track that the
    scenes of its history share, so that one append copies one row.
    """

    agent_states: np.ndarray
    segments: list
    dt: float = DEFAULT_DT

    def __post_init__(self):
        # a copy, never the caller's array: the headings are wrapped in place below
        states = np.array(self.agent_states, dtype=np.float64)
        if states.ndim != 3 or states.shape[-1] != 4:
            raise InvalidArgumentError(
                f"agent states must be (n_agents, n_steps, 4), got {states.shape}"
            )
        self.agent_states = _checked_states(states)
        self._track = None
        _checked_dt(self.dt)   # unstored: an int dt is kept, and reported, as given

    @property
    def n_agents(self) -> int:
        return self.agent_states.shape[0]

    @property
    def n_steps(self) -> int:
        return self.agent_states.shape[1]

    def state(self, agent: int, step: int) -> AgentState:
        return AgentState.from_array(self.agent_states[agent, step])

    def map_poses(self) -> PoseSet:
        if not self.segments:
            raise InvalidArgumentError("the scene has no map segments")
        return PoseSet(
            positions=np.array([seg.anchor_xy for seg in self.segments]),
            headings=np.array([seg.anchor_heading for seg in self.segments]),
        )

    def prefix(self, n_steps: int) -> "Scene":
        if not 1 <= n_steps <= self.n_steps:
            raise InvalidArgumentError(
                f"prefix length {n_steps} outside 1..{self.n_steps}"
            )
        return Scene(self.agent_states[:, :n_steps], self.segments, self.dt)

    def with_appended_states(self, states) -> "Scene":
        """A new scene with one more timestep of (n_agents, 4) states.

        Only the new row is checked and wrapped. It is written in place into
        this scene's track when this scene ends it, else into a new track,
        sized to at least twice the history.
        """
        row = np.array(states, dtype=np.float64)
        if row.shape != (self.n_agents, 4):
            raise DimensionMismatchError(
                f"appended states {row.shape} must be (n_agents, 4) = {(self.n_agents, 4)}"
            )
        _checked_states(row)
        track = self._track
        if (track is None or track.filled != self.n_steps
                or track.filled == track.array.shape[1]
                or self.agent_states.base is not track.array):
            track = _Track(self.agent_states)
        grown = copy.copy(self)
        grown.agent_states, grown._track = track.append(row), track
        return grown


def make_straight_polyline(start, heading: float, length: float):
    n_points = max(2, int(math.ceil(length / POLYLINE_SPACING)) + 1)
    distances = np.linspace(0.0, length, n_points)
    direction = np.array([math.cos(heading), math.sin(heading)])
    return np.asarray(start, dtype=np.float64) + distances[:, None] * direction[None, :]


def make_arc_polyline(center, radius: float, start_angle: float, span: float):
    arc = abs(span) * radius
    n_points = max(2, int(math.ceil(arc / POLYLINE_SPACING)) + 1)
    angles = start_angle + np.linspace(0.0, span, n_points)
    return np.asarray(center, dtype=np.float64) + radius * np.column_stack(
        [np.cos(angles), np.sin(angles)]
    )


@lru_cache(maxsize=1)
def _default_map() -> tuple:
    """The synthetic scenes' segments, built once per process: segments are
    immutable, so every scene can hold the same ones."""
    polylines = [
        make_straight_polyline((-40.0, 0.0), 0.0, 80.0),
        make_straight_polyline((-40.0, 3.5), 0.0, 80.0),
        make_arc_polyline((40.0, 30.0), 30.0, -math.pi / 2.0, math.pi / 2.0),
    ]
    segments = []
    for polyline in polylines:
        segments.extend(segment_polyline(polyline))
    # a stop sign: a single-point segment with heading 0
    segments.append(MapSegment.from_points(np.array([[35.0, -2.0]])))
    return tuple(segments)


def _initial_states(rng, n_agents: int, n_steps: int, x_high: float, yaw_std: float,
                    v_range: tuple) -> np.ndarray:
    """A track array whose first step holds per-agent draws near the lanes."""
    # allocated before any draw, so a size that cannot fit fails at once
    states = empty_array((n_agents, n_steps, 4), "an agent track array")
    for agent in range(n_agents):
        states[agent, 0] = (rng.uniform(-35.0, x_high), rng.uniform(-1.0, 4.5),
                            wrap_angle(rng.normal(0.0, yaw_std)), rng.uniform(*v_range))
    return states


def _rolled_scene(states: np.ndarray, controls: np.ndarray, dt: float) -> Scene:
    """Fill the tracks after their first step with ``advance_states`` under
    (n_agents, n_steps - 1, 2) controls, so stored tracks replay exactly."""
    for t in range(states.shape[1] - 1):
        states[:, t + 1] = advance_states(states[:, t], controls[:, t], dt)
    return Scene(states, list(_default_map()), dt)


def make_scene(seed: int = 0, n_agents: int = 4, n_steps: int = 12,
               dt: float = DEFAULT_DT) -> Scene:
    """A random scene: agents near straight and curved lanes, bounded actions."""
    if not 2 <= n_agents <= 8:
        raise ConfigurationError(f"n_agents must be in 2..8, got {n_agents}")
    if n_steps < 2:
        raise ConfigurationError(f"need at least 2 steps, got {n_steps}")
    rng = np.random.default_rng(seed)
    states = _initial_states(rng, n_agents, n_steps, x_high=25.0, yaw_std=0.2, v_range=(3.0, 12.0))
    limits = np.array([ACCEL_LIMIT, YAW_RATE_LIMIT])
    controls = rng.normal(0.0, ACTION_SCALE * limits, (n_agents, n_steps - 1, 2))
    return _rolled_scene(states, np.clip(controls, -limits, limits), dt)


def make_constant_velocity_scene(
    seed: int = 0, n_agents: int = 3, n_steps: int = 20, dt: float = DEFAULT_DT
) -> Scene:
    """Agents coasting at constant speed; tracks are exact zero-action rollouts."""
    if not 2 <= n_agents <= 8:
        raise ConfigurationError(f"n_agents must be in 2..8, got {n_agents}")
    if n_steps < 1:
        raise ConfigurationError(f"need at least 1 step, got {n_steps}")
    rng = np.random.default_rng(seed)
    states = _initial_states(rng, n_agents, n_steps, x_high=5.0, yaw_std=0.3, v_range=(4.0, 10.0))
    return _rolled_scene(states, np.zeros((n_agents, n_steps - 1, 2)), dt)


def scene_to_dict(scene: Scene) -> dict:
    return {
        "dt": scene.dt,
        "agents": [{"states": agent.tolist()} for agent in scene.agent_states],
        "map": [{"points": seg.points.tolist()} for seg in scene.segments],
    }


def _numbers(value, name: str):
    """``value`` if it is a JSON number or nested lists of them, else a ``ConfigurationError``."""
    pending = [value]
    while pending:
        item = pending.pop()
        if isinstance(item, list):
            pending += item
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ConfigurationError(f"{name!r} must hold JSON numbers, got {item!r}")
    return value


def scene_from_dict(payload: dict) -> Scene:
    try:
        dt = float(_numbers(payload["dt"], "dt"))
        states = np.array([_numbers(agent["states"], "states") for agent in payload["agents"]],
                          dtype=np.float64)
        segments = [MapSegment.from_points(_numbers(entry["points"], "points"))
                    for entry in payload["map"]]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigurationError(f"malformed scene payload: {exc}") from exc
    return Scene(states, segments, dt)


def save_scene(scene: Scene, path) -> None:
    _write_json(path, scene_to_dict(scene))


def _read_json(path, what: str):
    """The JSON value in the ``what`` file at ``path``; a missing file is an ``OSError``."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:    # NUL in the path, not UTF-8 or JSON, or too deep
        raise ConfigurationError(f"{what} {path!r} is not readable JSON: {exc}") from exc


def _write_json(path, payload) -> None:
    """``payload`` as two-space-indented JSON and a newline, in one write."""
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


def load_scene(path) -> Scene:
    return scene_from_dict(_read_json(path, "scene file"))
