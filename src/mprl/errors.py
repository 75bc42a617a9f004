"""Exception types shared across the package."""


class MprlError(Exception):
    """Base class for every error raised by this package."""


class InvalidDimension(MprlError, ValueError):
    """A vector or matrix shape does not match what the operation requires."""


class InvalidClass(MprlError, ValueError):
    """A class index lies outside the valid range."""


class InvalidConfig(MprlError, ValueError):
    """A configuration value violates a documented invariant."""


class InvalidState(MprlError, RuntimeError):
    """An operation was invoked with stale or mismatched runtime state."""


class GenerationFailure(MprlError, RuntimeError):
    """Synthetic data construction could not satisfy its guarantees."""


class ProtocolViolation(MprlError, ValueError):
    """Evaluation inputs violate the retrieval protocol."""


class SpecError(MprlError, ValueError):
    """An experiment spec file failed to parse or validate."""
