"""Hypothesis profiles for the whole suite.

By default every run draws the same examples (``derandomize``, with no
example database), so a run's verdict depends on the code alone and
each test keeps its own ``max_examples``. ``HYPOTHESIS_PROFILE=explore``
draws fresh examples on each run, to look for failures the fixed draws
miss.
"""

import os

from hypothesis import settings

settings.register_profile("fixed", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fixed"))
