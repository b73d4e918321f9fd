"""Sentiment-aware actor-critic trading research engine."""

__version__ = "0.1.0"
