"""One Hypothesis profile for every property suite: the same examples on every
run, no example database written, and no per-example deadline."""

from hypothesis import settings

settings.register_profile("rknet", derandomize=True, database=None, deadline=None)
settings.load_profile("rknet")
