"""Deterministic simulator of federated trajectory prediction in a vehicular
network under message-falsification attacks."""

__version__ = "0.1.0"
