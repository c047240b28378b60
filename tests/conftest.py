"""Test-suite settings.

Property tests run under one deterministic hypothesis profile: the same
examples on every run, a bounded count of them, no per-example deadline
(the host's speed varies), and no example database written to disk.
"""

from hypothesis import settings

settings.register_profile(
    "tier1", derandomize=True, max_examples=50, deadline=None, database=None
)
settings.load_profile("tier1")
