"""Shared exception types."""


class ConfigurationError(ValueError):
    """Invalid parameter or incompatible configuration."""


class DatasetError(ConfigurationError):
    """A dataset that cannot be used: a file the config names that is missing, unreadable or
    malformed, data too large to hold densely, or data whose standardization overflows."""


class DivergenceError(RuntimeError):
    """A simulated trajectory produced non-finite or astronomically large values;
    ``worker`` and ``round_index`` say where, when a step found them."""

    def __init__(self, message: str, round_index: int | None = None, worker: int | None = None):
        super().__init__(message)
        self.round_index = round_index
        self.worker = worker
