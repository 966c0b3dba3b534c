"""Every script under ``examples/`` runs to completion.

Each runs as its own process, with ``src`` on the path, from an empty
temporary working directory: an example that an API change broke, or
one that needs a file relative to the checkout, fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_the_examples_are_found():
    assert EXAMPLES, "no script under examples/"


@pytest.mark.parametrize("script", EXAMPLES,
                         ids=[script.stem for script in EXAMPLES])
def test_example_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                            env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
