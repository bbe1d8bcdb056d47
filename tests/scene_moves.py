"""A test-side scene mover, built from the package's public constructors."""

import numpy as np

from drope.scene import MapSegment, Scene


def translated(scene: Scene, dx: float, dy: float) -> Scene:
    """``scene`` with every agent position and map point moved by (dx, dy)."""
    states = scene.agent_states.copy()
    states[:, :, 0] += dx
    states[:, :, 1] += dy
    segments = [MapSegment.from_points(seg.points + np.array([dx, dy])) for seg in scene.segments]
    return Scene(states, segments, scene.dt)
