"""Shared exception types."""


class ConfigurationError(ValueError):
    """Invalid parameter or incompatible configuration."""


class ParseError(ValueError):
    """Malformed input file; the message starts with the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


class DatasetError(ValueError):
    """A dataset file could not be loaded: missing, unreadable as a path, or malformed."""


class DivergenceError(RuntimeError):
    """A simulated trajectory produced non-finite or astronomically large values."""

    def __init__(self, message: str, round_index: int | None = None, worker: int | None = None):
        super().__init__(message)
        self.round_index = round_index
        self.worker = worker
