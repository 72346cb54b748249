"""Exception types shared across the package."""


class ThueMorseError(Exception):
    """Base class for all domain errors raised by this package."""


class NotAFactorError(ThueMorseError, ValueError):
    """The given word does not occur in the Thue-Morse sequence."""


class LevelError(ThueMorseError, ValueError):
    """No block decomposition exists at the requested level."""


class ResourceLimitError(ThueMorseError, ValueError):
    """A size argument exceeds the configured maximum."""


class MissingExtraError(ThueMorseError, ImportError):
    """An optional dependency is not installed; the message names the extra."""


class InvariantError(ThueMorseError, RuntimeError):
    """An internal invariant failed; this signals a bug, not bad input."""
