"""Hypothesis profiles. The default profile keeps the suite quick; run

    pytest --hypothesis-profile=thorough tests/test_kernel.py tests/test_certificate.py

to draw 20 000 examples per property, with no per-example deadline.
"""

from hypothesis import settings

settings.register_profile("thorough", max_examples=20_000, deadline=None)
