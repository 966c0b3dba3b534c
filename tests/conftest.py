"""Suite-wide hypothesis profiles.

``--hypothesis-profile=crash-matrix`` is what the CI crash-matrix step
runs the generated properties under (``tests/test_snapshot_advance.py``,
the every-policy ≡ oracle properties of ``tests/test_compiled_parity.py``
and ``tests/test_indexes.py``, the plan-epoch properties of
``tests/test_query_plan.py``, the UPA and matcher ≡ Glushkov
properties of ``tests/test_content_models.py``, the label ≡ §9.3
rules properties of ``tests/test_storage_labels.py``, the walk ≡
recursive oracle properties of ``tests/test_walks.py``, the
statistics ≡ recount property of ``tests/test_storage_engine.py`` and
the tree ≡ storage builtins property of ``tests/test_xquery.py``, the
path ≡ ElementPath property of ``tests/test_elementpath.py`` and the
shape ≡ uncached compile and lifter ≡ parser properties of
``tests/test_query_shapes.py`` take their example budget from the
active profile); tier-1 runs the hypothesis default.
"""

import pytest
from hypothesis import settings

from repro import obs
from repro.query import clear_parse_cache

settings.register_profile("crash-matrix", max_examples=500, deadline=None)


def _quiet_obs():
    obs.disable()
    obs.set_slow_query_threshold(None)
    obs.reset()
    clear_parse_cache()


@pytest.fixture
def clean_obs():
    """Diagnostics off, slow-query log disarmed, instruments and the
    parse cache zeroed — before the test and again after it."""
    _quiet_obs()
    yield
    _quiet_obs()
