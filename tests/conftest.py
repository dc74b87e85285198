"""Suite-wide hypothesis profile.

Every property test runs under one profile: no example database, so a
run depends only on the code and the seed, and no deadline, so a slow
machine cannot fail a test on timing alone.  Each test keeps its own
``max_examples``.

To fix the seed of every hypothesis test, pass hypothesis's own
``--hypothesis-seed=N`` to pytest; a failure then replays with the same
value.
"""

from hypothesis import settings

settings.register_profile("repro", database=None, deadline=None)
settings.load_profile("repro")
