"""Shared test set-up: one Hypothesis profile, so property tests draw the
same examples on every run and write no example database, and a fixture that
records how each sparse truncation was decided."""

import pytest
from hypothesis import settings

from dccsim.decoder import SparseLikelihood

settings.register_profile("dccsim", derandomize=True, database=None, deadline=None)
settings.load_profile("dccsim")


@pytest.fixture
def truncation_fallbacks(monkeypatch):
    """One entry per sparse truncation, in call order: True where the kept
    entries were too close to the cut to select before sorting."""
    preselect = SparseLikelihood._preselect
    outcomes = []

    def recorded(self, eps):
        kept = preselect(self, eps)
        outcomes.append(kept is None)
        return kept

    monkeypatch.setattr(SparseLikelihood, "_preselect", recorded)
    return outcomes
