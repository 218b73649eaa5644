"""Suite-wide Hypothesis profile: every property test draws the same
examples on every run.  Per-test `@settings` still set their own example
counts and deadlines."""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")
