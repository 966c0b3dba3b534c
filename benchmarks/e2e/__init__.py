"""The end-to-end benchmark: four workloads on the path a user drives.

``python3 benchmarks/e2e/run.py`` (or ``python -m benchmarks.e2e``)
runs every workload untraced for the end-to-end metrics, one traced
segment of each for the per-layer table, checks every answer, and
prints every metric by name.  See ``README.md`` in this directory.
"""
