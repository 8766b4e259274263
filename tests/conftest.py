"""Hypothesis profiles for the test suite.

The default profile, ``reproducible``, derandomizes: every ``@given`` test
draws its examples from a seed derived from the test itself, so two runs of
the suite draw the same examples and give the same verdict.  The ``explore``
profile draws fresh examples on every run; select it with
``HYPOTHESIS_PROFILE=explore`` (or ``--hypothesis-profile explore``).
"""

import os

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "reproducible"))
