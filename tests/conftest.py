"""Shared test set-up: one Hypothesis profile, so property tests draw the
same examples on every run and write no example database, and a fixture that
records how each sparse measure selected what it keeps."""

import pytest
from hypothesis import settings

from dccsim.decoder import SparseLikelihood

settings.register_profile("dccsim", derandomize=True, database=None, deadline=None)
settings.load_profile("dccsim")


@pytest.fixture
def truncation_fallbacks(monkeypatch):
    """One entry per sparse measure, in call order: True where its selection
    could not decide which grid entries truncation keeps, so measure ran
    the split, the syndrome and truncate as written."""
    select = SparseLikelihood._select
    outcomes = []

    def recorded(self, *args):
        kept = select(self, *args)
        outcomes.append(kept is None)
        return kept

    monkeypatch.setattr(SparseLikelihood, "_select", recorded)
    return outcomes
