"""Shared exception types."""


class ConfigurationError(ValueError):
    """Invalid parameter or incompatible configuration."""


class DatasetError(ConfigurationError):
    """A dataset file the config names could not be loaded: missing, unreadable or malformed."""


class DivergenceError(RuntimeError):
    """A simulated trajectory produced non-finite or astronomically large values."""

    def __init__(self, message: str, round_index: int | None = None, worker: int | None = None):
        super().__init__(message)
        self.round_index = round_index
        self.worker = worker
