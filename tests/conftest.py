"""Hypothesis profiles.

``default`` serves tier-1 runs; ``ci`` explores deeper and is selected with
``pytest --hypothesis-profile=ci``.  Tests that pin their own
``max_examples`` keep it under either profile.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=300, deadline=None)
settings.register_profile("ci", max_examples=3000, deadline=None)
settings.load_profile("default")
