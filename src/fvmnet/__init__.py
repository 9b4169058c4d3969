"""Finite-volume reacting-channel testbed with learned per-cell surrogate stepping."""

__version__ = "0.1.0"
