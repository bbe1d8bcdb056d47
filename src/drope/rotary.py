"""Rotation kernels and the two rotary embedding maps.

All angles are radians; canonical angles live in [0, 2*pi). A vector of
length 2*p is treated as p complex pairs x[2l] + i*x[2l+1], each turned by
one multiply with its unit phasor e^{i*angle}. ``rotate_pairs`` takes real
angles or kept complex phasors; ``_unit_phasors`` is the one place that takes
cosines and sines. ``rotate2d`` is the matrix form of ``rotate_pairs``, the
basis pairs (1, 0) and (0, 1) turned by it.

Two embeddings are provided, each taking one position or heading per vector
(an array broadcasting against ``x.shape[:-1]``, or a scalar for all):

* ``rope_embed`` rotates pair l by ``m * freqs[l]`` for a scalar position m,
  so relative positions appear implicitly in QK dot products.
* ``drope_embed`` rotates every pair by the same heading angle, which keeps
  the dot product a function of the wrapped relative angle only. It takes no
  frequencies; verify's negative control applies ``rope_embed`` to headings.

``planar_pair_angles`` gives the per-pair angles of 2D positions for
``rotate_pairs``: the pair axis splits into two halves, the first encoding x
and the second encoding y, each half consuming the leading entries of the
frequency schedule. A heading needs no per-pair angles: it is one angle
with a trailing axis of 1, which ``rotate_pairs`` broadcasts over the pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .errors import ConfigurationError, DimensionMismatchError, InvalidArgumentError, empty_array

__all__ = [
    "TWO_PI",
    "FrequencySchedule",
    "wrap_angle",
    "rotate2d",
    "rotate_pairs",
    "rope_embed",
    "drope_embed",
    "planar_pair_angles",
]

TWO_PI = 2.0 * math.pi


def wrap_angle(theta):
    """Wrap angles into [0, 2*pi) with floored-modulo semantics.

    Works on scalars and arrays; negative inputs land in the upper part of
    the range, so ``wrap_angle(-eps) == 2*pi - eps``.
    """
    wrapped = np.mod(theta, TWO_PI)
    # adding 2*pi to a tiny negative remainder can round up to exactly 2*pi
    wrapped = np.where(wrapped >= TWO_PI, 0.0, wrapped)
    if np.ndim(theta) == 0:
        return float(wrapped)
    return wrapped


def _as_finite(name: str, arr) -> np.ndarray:
    """``arr`` as a float64 array; a non-finite entry is an ``InvalidArgumentError``."""
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} must be finite")
    return arr


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` itself when it is a read-only view of a read-only buffer, never
    written again (seeded weights, a track's rows); else a read-only copy."""
    base = array.base
    if array.flags.writeable or base is None or base.flags.writeable:
        array = array.copy()
        array.flags.writeable = False
    return array


def _shaped(flat: np.ndarray, shapes) -> list:
    """Consecutive views of the 1-D ``flat`` with the given shapes."""
    ends = list(accumulate(math.prod(shape) for shape in shapes))
    return [part.reshape(shape) for shape, part in zip(shapes, np.split(flat, ends[:-1]))]


def _seeded(rng, buffer: np.ndarray, shapes) -> list:
    """The 1-D ``buffer`` filled in turn with arrays of the given shapes (a
    matrix with N(0, 1/rows) draws, a 1-D bias with zeros), then made
    read-only; the arrays' read-only views."""
    for out in _shaped(buffer, shapes):
        if out.ndim == 1:
            out.fill(0.0)
        else:
            np.divide(rng.standard_normal(out=out), math.sqrt(out.shape[0]), out=out)
    buffer.flags.writeable = False   # so the views taken from here on are read-only
    return _shaped(buffer, shapes)


@dataclass(frozen=True, eq=False)
class FrequencySchedule:
    """Per-pair rotation frequencies for the position embedding.

    ``d_k`` is the number of 2D pairs. The default schedule is
    ``freqs[l] = 10000 ** (-l / d_k)``; ``freqs[0]`` is exactly 1. ``freqs``
    is a read-only copy, so one schedule always holds the same values.
    """

    d_k: int
    freqs: np.ndarray

    def __post_init__(self):
        if self.d_k < 1:
            raise ConfigurationError(f"d_k must be a positive integer, got {self.d_k}")
        freqs = np.array(self.freqs, dtype=np.float64)
        if freqs.shape != (self.d_k,):
            raise DimensionMismatchError(
                f"expected {self.d_k} frequencies, got shape {freqs.shape}"
            )
        if not np.all(np.isfinite(freqs)) or np.any(freqs <= 0.0):
            raise InvalidArgumentError("frequencies must be finite and positive")
        freqs.flags.writeable = False
        object.__setattr__(self, "freqs", freqs)

    @classmethod
    @lru_cache(maxsize=16, typed=True)
    def default(cls, d_k: int) -> "FrequencySchedule":
        """The shared schedule of ``d_k`` pairs: one object per ``d_k``, so a
        pose set's kept phasors, keyed on the schedule's identity, are reused."""
        freqs = empty_array(d_k, "a frequency schedule")
        for l in range(d_k):
            # scalar pow keeps the values bitwise equal to the closed form
            freqs[l] = 10000.0 ** (-l / d_k)
        return cls(d_k, freqs)


def rotate2d(theta) -> np.ndarray:
    """Counterclockwise rotation matrices [[c, -s], [s, c]], (..., 2, 2) for angles (...).

    The columns are the basis pairs turned by ``rotate_pairs``, so the matrices
    hold exactly its cosines and sines. Canonicalization is not required.
    """
    theta = _as_finite("angle", theta)
    basis = np.broadcast_to(np.eye(2), theta.shape + (2, 2))
    return rotate_pairs(basis, theta[..., None, None]).swapaxes(-2, -1)


def _unit_phasors(angles) -> np.ndarray:
    """The unit phasors e^{i*angle} of real ``angles``, complex128 of their shape."""
    phasors = np.empty(np.shape(angles), dtype=np.complex128)
    np.cos(angles, out=phasors.real)
    np.sin(angles, out=phasors.imag)
    return phasors


def rotate_pairs(x, angles) -> np.ndarray:
    """Rotate each consecutive 2D pair along the last axis of ``x``.

    ``x`` has shape (..., 2*p), and so has the output; ``angles`` must
    broadcast to (..., p), as real angles or complex unit phasors. ``x`` is
    never written; pair norms hold up to rounding.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] % 2 != 0:
        raise DimensionMismatchError(f"pair vector length must be even, got shape {x.shape}")
    angles = np.asarray(angles)
    phasors = angles if angles.dtype.kind == "c" else _unit_phasors(angles)
    pairs = (x if x.strides[-1] == x.itemsize else x.copy()).view(np.complex128)
    try:
        return np.multiply(pairs, phasors, out=np.empty(pairs.shape, complex)).view(np.float64)
    except ValueError:
        raise DimensionMismatchError(
            f"angles {angles.shape} do not broadcast to the pairs {pairs.shape} of x {x.shape}"
        ) from None


def rope_embed(x, m, sched: FrequencySchedule) -> np.ndarray:
    """Embed scalar positions ``m``, one per vector, by rotating pair l of ``x``
    by ``m * freqs[l]``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != (2 * sched.d_k,):
        raise DimensionMismatchError(
            f"vector shape {x.shape} does not end in 2*d_k = {2 * sched.d_k}"
        )
    return rotate_pairs(x, _as_finite("position", m)[..., None] * sched.freqs)


def drope_embed(x, theta) -> np.ndarray:
    """Embed headings ``theta``, one per vector, by rotating every 2D pair of a
    vector of ``x`` by its heading."""
    return rotate_pairs(x, _as_finite("heading", theta)[..., None])


def planar_pair_angles(positions, n_pairs: int, freqs) -> np.ndarray:
    """Per-pair rotation angles encoding 2D positions across ``n_pairs`` pairs.

    The first ceil(n_pairs / 2) pairs encode the x coordinate and the rest
    encode y; both axes consume the leading entries of ``freqs`` so they get
    identical frequency treatment.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.shape[-1] != 2:
        raise DimensionMismatchError(
            f"positions must have a trailing axis of size 2, got {positions.shape}"
        )
    freqs = np.asarray(freqs, dtype=np.float64)
    h1 = (n_pairs + 1) // 2
    if freqs.shape[-1] < h1:
        raise DimensionMismatchError(
            f"need at least {h1} frequencies for {n_pairs} pairs, got {freqs.shape[-1]}"
        )
    angles = np.empty(positions.shape[:-1] + (n_pairs,), dtype=np.float64)
    angles[..., :h1] = positions[..., :1] * freqs[:h1]
    angles[..., h1:] = positions[..., 1:2] * freqs[: n_pairs - h1]
    return angles

