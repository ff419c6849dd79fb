"""Test-session configuration: Hypothesis draws the same examples on every run and machine.

``derandomize=True`` seeds each property test from its own source, and
``database=None`` keeps no example store between runs, so a Tier-1 failure
reproduces as it is.  Each test's own ``@settings`` (``max_examples``,
``deadline``) still applies on top of this profile.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
