r"""Hypothesis profiles. The default profile keeps the suite quick; run

    pytest --hypothesis-profile=thorough \
      tests/test_kernel.py tests/test_certificate.py tests/test_emit_identity.py \
      -k "test_cycle_sum_matches_term_by_term_sum or test_iterate_matches_reference \
          or test_attractor_tail_matches_reference \
          or test_certificate_bounds_the_orbit_and_is_sharp \
          or test_bulk_polyline_and_dots_match_per_point_mapping \
          or test_json_text_matches_indented_dumps \
          or test_streamed_scan_files_match_in_memory_text"

to draw 20 000 examples per property, with no per-example deadline. This is
the thorough step of CI (``.github/workflows/tier1.yml``).
"""

from hypothesis import settings

settings.register_profile("thorough", max_examples=20_000, deadline=None)
