"""Shared test configuration."""

from hypothesis import settings

# Property tests draw the same examples on every run, so tier-1 is deterministic.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
