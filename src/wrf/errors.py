"""Exception types shared across the package."""


class WrfError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeError(WrfError):
    """Tensor shapes do not satisfy an operation's contract."""


class NumericError(WrfError):
    """A non-finite value appeared where finite arithmetic is required."""


class ConfigError(WrfError):
    """A configuration value violates its documented invariants."""


class DataError(WrfError):
    """A dataset or checkpoint artifact is malformed or internally inconsistent."""
