"""One Hypothesis profile for the suite: property tests draw the same
examples on every run and write no example database."""

from hypothesis import settings

settings.register_profile("dccsim", derandomize=True, database=None, deadline=None)
settings.load_profile("dccsim")
