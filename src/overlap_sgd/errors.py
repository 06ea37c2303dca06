"""Shared exception types."""


class ConfigurationError(ValueError):
    """Invalid parameter or incompatible configuration."""


class DatasetError(ConfigurationError):
    """A dataset that cannot be used: a file the config names that is missing, unreadable or
    malformed, data too large to hold densely, data whose standardization overflows, or a
    partition that leaves the worker ``theory`` samples without examples."""


class DivergenceError(RuntimeError):
    """A simulated trajectory produced non-finite or astronomically large values.

    ``method`` names the method whose model diverged, where several stepped together."""

    def __init__(self, message: str, round_index: int | None = None, worker: int | None = None, method=None):
        super().__init__(message)
        self.round_index = round_index
        self.worker = worker
        self.method = method
