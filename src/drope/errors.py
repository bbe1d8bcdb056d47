"""Exception types shared across the package, and the allocation of arrays
whose sizes come from a configuration."""

import numpy as np


class DropeError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(DropeError, ValueError):
    """An argument is non-finite, out of range, or otherwise unusable."""


class DimensionMismatchError(DropeError, ValueError):
    """Array shapes disagree with the configured dimensions."""


class ConfigurationError(DropeError, ValueError):
    """A variant or run configuration is self-inconsistent."""


class VerificationError(DropeError, AssertionError):
    """A numerical property that must hold was violated."""


def empty_array(shape, what: str) -> np.ndarray:
    """``np.empty(shape)``, with a shape numpy cannot address as a ``ConfigurationError``.

    An addressable shape that does not fit in memory raises ``MemoryError``.
    """
    try:
        return np.empty(shape)
    except ValueError as exc:
        raise ConfigurationError(f"{what} of shape {shape} cannot be allocated: {exc}") from exc
