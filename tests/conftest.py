"""Suite-wide settings: property tests draw a fixed, bounded set of
examples, so every run of the suite checks the same cases."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None,
                          max_examples=300, database=None)
settings.load_profile("deterministic")
