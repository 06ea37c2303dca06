"""Deterministic logical-time simulator for local SGD with sparse,
overlapped, delay-corrected model averaging, and its baselines."""

__version__ = "0.1.0"
