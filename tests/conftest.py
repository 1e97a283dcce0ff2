"""Settings shared by every test module: the property tests draw the same
examples on every run, so a tier-1 result does not depend on the run.
``pytest --hypothesis-profile=<name>`` still selects another profile."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
