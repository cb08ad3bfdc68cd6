"""Hypothesis profiles. The default profile keeps the suite quick; run

    python -m pytest -m thorough --hypothesis-profile=thorough

to draw 20 000 examples for each property marked ``thorough``, with no
per-example deadline. This is the thorough step of CI
(``.github/workflows/tier1.yml``).
"""

from hypothesis import settings

settings.register_profile("thorough", max_examples=20_000, deadline=None)
