"""Suite-wide hypothesis profiles.

``--hypothesis-profile=crash-matrix`` is what the CI crash-matrix step
runs the generated properties under (``tests/test_snapshot_advance.py``,
the every-policy ≡ oracle property of ``tests/test_compiled_parity.py``
and the plan-epoch properties of ``tests/test_query_plan.py`` take
their example budget from the active profile); tier-1 runs the
hypothesis default.
"""

from hypothesis import settings

settings.register_profile("crash-matrix", max_examples=500, deadline=None)
