"""Settings shared by every test module: the property tests draw the same
examples on every run, so a tier-1 result does not depend on the run, and
their example budgets are set here rather than per test.

``deterministic`` is loaded by default. ``pytest --hypothesis-profile=thorough``
selects a budget ten times larger, for changes to a kernel."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=25)
settings.register_profile("thorough", derandomize=True, deadline=None, max_examples=250)
settings.load_profile("deterministic")
