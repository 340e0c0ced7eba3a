"""Exception types shared across the package."""


class OutOfRangeError(ValueError):
    """An angle, length, or activation fell outside its valid domain."""


class DatasetFormatError(ValueError):
    """A dataset file or its joint-spec sidecar is malformed or inconsistent."""


class UndecodableError(ValueError):
    """No tuning curve produced a usable candidate angle for decoding."""


class DegenerateMapError(ValueError):
    """A map metric is undefined for this lattice (too small or collapsed)."""


class TargetUnreachableError(RuntimeError):
    """Inverse kinematics failed to reach a sampled target after retries."""
