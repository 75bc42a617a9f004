"""Exception types shared across the package, and the reader that turns
an input file which is not UTF-8 into one of them."""

from pathlib import Path


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


class TrainingDiverged(MprlError, RuntimeError):
    """A model's logits stopped being finite: the training that made it diverged."""


class GenerationFailure(MprlError, RuntimeError):
    """Synthetic data construction could not satisfy its guarantees."""


class ProtocolViolation(MprlError, ValueError):
    """Evaluation inputs violate the retrieval protocol."""


class SpecError(MprlError, ValueError):
    """An experiment spec file failed to parse or validate."""


def read_utf8(path, error: type[MprlError]) -> str:
    """The text of the file at ``path`` decoded as UTF-8, newlines as
    written.  A byte sequence that is not UTF-8 raises ``error`` naming
    ``path:line``, line being the newlines before the first bad byte
    plus one."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None
