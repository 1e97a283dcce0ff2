"""Settings shared by every test module: the property tests draw the same
examples on every run, so a tier-1 result does not depend on the run, and
their example budgets are set here rather than per test.

``deterministic`` is loaded by default. ``pytest --hypothesis-profile=thorough``
selects a budget ten times larger, for changes to a kernel.

``fresh_phase_memo`` empties the memo of uniform phase readouts
(``povmlab.spin._built_readout``) before and after a test and passes it in,
so a test that counts builds holds in any test order; such a test clears it
again wherever it needs another cold build."""

import pytest
from hypothesis import settings

from povmlab import spin

settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=25)
settings.register_profile("thorough", derandomize=True, deadline=None, max_examples=250)
settings.load_profile("deterministic")


@pytest.fixture
def fresh_phase_memo():
    spin._built_readout.cache_clear()
    yield spin._built_readout
    spin._built_readout.cache_clear()
