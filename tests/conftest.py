"""Hypothesis profiles.

``default`` serves tier-1 runs; ``ci`` explores deeper and is selected with
``pytest --hypothesis-profile=ci``.  Tests that pin their own
``max_examples`` keep it under either profile.  Both print a failing
example's ``@reproduce_failure`` blob, so a failure that a rerun does not
meet again can still be replayed.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=300, deadline=None, print_blob=True)
settings.register_profile("ci", max_examples=3000, deadline=None, print_blob=True)
settings.load_profile("default")
