"""Exception types shared across the package."""


class ShapeError(ValueError):
    """Raised when tensor shapes or ranks do not satisfy an operation's contract."""


class FileFormatError(ValueError):
    """Raised for malformed volume, mask, or checkpoint files.

    ``code`` is a short machine-readable tag ("bad-magic", "bad-version",
    "truncated", "size-mismatch", "dim-overflow", "bad-dims", "bad-payload",
    "bad-labels", "bad-crc", "bad-utf8", "duplicate-record") so callers and
    tests can tell failure modes apart without string matching on the
    human-readable message.
    """

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


class ConfigError(ValueError):
    """Raised for unparseable or unknown configuration keys."""


class TrainingDivergedError(RuntimeError):
    """Raised when the training loss becomes NaN or infinite."""

    def __init__(self, epoch: int, step: int, value: float):
        super().__init__(
            f"training diverged at epoch {epoch}, step {step}: loss={value!r}"
        )
        self.epoch = epoch
        self.step = step
        self.value = value
