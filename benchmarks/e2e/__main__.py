"""``python -m benchmarks.e2e`` (with ``src`` on ``PYTHONPATH``)."""

import sys

from benchmarks.e2e.run import main

sys.exit(main())
