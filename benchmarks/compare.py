"""Perf-regression comparator over ``run_all.py --json`` reports.

Diffs a fresh benchmark report against a committed baseline with
per-metric tolerances — the CI gate that keeps the numbers honest::

    PYTHONPATH=src python -m benchmarks.compare BASELINE.json FRESH.json

Exit status: ``0`` within tolerance, ``1`` regression detected, ``2``
refused (the reports are not comparable).

What gets compared depends on how comparable the two runs are, judged
from each report's ``meta`` stamp (git SHA, timestamp, interpreter,
host, scales — written by :func:`benchmarks.run_all.run_metadata`):

* **refused** outright when either report has no ``meta`` stamp or the
  ``format`` numbers differ — a diff across report layouts proves
  nothing — or when a full-run baseline carries a summary gate that is
  unmet: only met -> unmet flips fail, so an unmet baseline would
  disarm its gate for good;
* **machine-independent ratios** are compared always, over the
  (path, scale) / (case, scale) records both reports contain at
  scale >= 100 (smaller workloads are noise-floor territory): the
  cached-vs-naive speedup (the planned pipeline against the one
  oracle) and the index-vs-scan speedup must not drop by more than
  the ratio tolerance (default 25%), and the summary
  gate booleans must not flip from met to unmet (booleans are only
  compared between runs of the same kind — smoke vs full runs gate
  different scales);
* **raw numbers** — cached-route ops/sec (>20% drop fails) and the
  ``query.latency.ns`` p99 (>2x blowup fails) — are compared only when
  the interpreter and host match, since ops/sec on different hardware
  is weather, not signal.

In CI the baseline is a committed full run from another host and the
fresh report is a smoke run, so only the machine-independent ratios at
scale >= 100 actually gate there (the scale-100 index speedups); the
obs-overhead budget gates separately in CI off a fresh scale-1000
measurement.  The full scope — raw ops, p99, summary booleans — engages
when comparing same-host, same-kind runs during development.

The fresh report must also hold on its own
(:func:`check_compiled_plans`): the per-scale cached-vs-naive floors
met, the campaign's 2x cached-vs-uncached showing present, and the
lookup/execution split well-formed — the same check locally and in CI.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Records below this scale are never compared: sub-100 workloads run
#: in microseconds, where fixed overheads and the timing methodology
#: (smoke runs use fewer best-of rounds) dominate the signal.
MIN_COMPARE_SCALE = 100

#: Raw ops/sec may drop by at most this fraction on the same machine.
OPS_TOLERANCE = 0.20
#: Machine-independent speedup ratios may drop by at most this much.
#: The tolerance is calibrated to the *measurement*, not the code: the
#: gated ratios (``index_vs_scan``, ``cost_vs_structural``) are medians
#: of interleaved repeats (:func:`benchmarks.run_all._median_ratio`),
#: which on an idle machine vary by a few percent run to run and by
#: ~10-15% on loaded CI hosts.  25% therefore means "a real
#: regression", with enough headroom that scheduler weather does not
#: page anyone; tighten it only together with more repeats in the
#: runner.
RATIO_TOLERANCE = 0.25
#: The query-latency p99 may grow by at most this factor.
P99_BLOWUP = 2.0

#: Summary booleans that must never flip from met to unmet between
#: two runs of the same kind (both smoke or both full).
SUMMARY_GATES = (
    "obs_overhead_under_5pct",
    "index_speedup_3x_met",
    "cost_beats_fixed",
    "ddl_invalidation_exact",
    "bulk_load_faster",
    "checkpoint_incremental_10x_met",
    "cached_vs_naive_floors_met",
    "speedup_2x_met",
    "concurrency_zero_relabels",
    "concurrency_no_torn_reads",
    "concurrency_overload_typed",
)

#: The reader-retention ratio (solo p50 over contended p50) is noisy —
#: it measures scheduler interference, not code — so it gets a wide
#: tolerance of its own rather than :data:`RATIO_TOLERANCE`.
RETENTION_TOLERANCE = 0.5

#: ``meta`` keys that must all match before raw numbers are compared.
MACHINE_KEYS = ("python", "implementation", "machine", "system", "host")


class Refusal(Exception):
    """The two reports cannot be meaningfully compared."""


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise Refusal(f"{path}: no such report")
    except json.JSONDecodeError as error:
        raise Refusal(f"{path}: not a JSON report ({error})")


def _meta(report: dict, label: str) -> dict:
    meta = report.get("meta")
    if not isinstance(meta, dict):
        raise Refusal(
            f"{label} report carries no 'meta' stamp — regenerate it "
            "with a current benchmarks/run_all.py before comparing")
    return meta


def check_comparable(baseline: dict, fresh: dict) -> dict:
    """Raise :class:`Refusal` unless the reports can be diffed; return
    ``{"same_machine": bool, "same_kind": bool}`` describing how far
    the comparison may go."""
    base_meta = _meta(baseline, "baseline")
    fresh_meta = _meta(fresh, "fresh")
    if base_meta.get("format") != fresh_meta.get("format"):
        raise Refusal(
            f"report format mismatch: baseline is format "
            f"{base_meta.get('format')!r}, fresh is format "
            f"{fresh_meta.get('format')!r} — cross-version comparisons "
            "are refused")
    if not base_meta.get("smoke"):
        # A full-run baseline with a gate committed unmet can never
        # flip met -> unmet: the gate would be disarmed for good.
        # (Smoke runs stop at scales the thresholds were not set for.)
        unmet = [gate for gate in SUMMARY_GATES
                 if baseline.get("summary", {}).get(gate) is False]
        if unmet:
            raise Refusal(
                f"baseline commits {', '.join(unmet)} unmet — a "
                "baseline must meet every gate it is meant to hold; "
                "fix the regression or restate the gate, then "
                "regenerate it")
    return {
        "same_machine": all(base_meta.get(key) == fresh_meta.get(key)
                            for key in MACHINE_KEYS),
        "same_kind": base_meta.get("smoke") == fresh_meta.get("smoke"),
    }


def _by_key(records, *keys):
    return {tuple(r[k] for k in keys): r for r in records}


def compare(baseline: dict, fresh: dict,
            ops_tolerance: float = OPS_TOLERANCE,
            ratio_tolerance: float = RATIO_TOLERANCE,
            p99_blowup: float = P99_BLOWUP) -> list:
    """All regressions as ``(metric, baseline, fresh, message)`` rows."""
    scope = check_comparable(baseline, fresh)
    failures = []

    def ratio_drop(name, base_value, fresh_value, tolerance):
        if base_value <= 0:
            return
        drop = 1.0 - fresh_value / base_value
        if drop > tolerance:
            failures.append((name, base_value, fresh_value,
                             f"dropped {drop:.1%} "
                             f"(tolerance {tolerance:.0%})"))

    base_records = _by_key(baseline.get("records", ()), "path", "scale")
    fresh_records = _by_key(fresh.get("records", ()), "path", "scale")
    for key in sorted(base_records.keys() & fresh_records.keys()):
        if key[1] < MIN_COMPARE_SCALE:
            continue
        base, new = base_records[key], fresh_records[key]
        label = f"{key[0]}@{key[1]}"
        ratio_drop(f"cached_vs_naive[{label}]",
                   base["cached_vs_naive"],
                   new["cached_vs_naive"], ratio_tolerance)
        if scope["same_machine"]:
            ratio_drop(f"ops_cached_plan[{label}]",
                       base["ops_cached_plan"],
                       new["ops_cached_plan"], ops_tolerance)

    base_indexes = _by_key(
        baseline.get("indexes", {}).get("records", ()), "case", "scale")
    fresh_indexes = _by_key(
        fresh.get("indexes", {}).get("records", ()), "case", "scale")
    for key in sorted(base_indexes.keys() & fresh_indexes.keys()):
        if key[1] < MIN_COMPARE_SCALE:
            continue
        base, new = base_indexes[key], fresh_indexes[key]
        ratio_drop(f"index_vs_scan[{key[0]}@{key[1]}]",
                   base["index_vs_scan"], new["index_vs_scan"],
                   ratio_tolerance)

    base_cost = _by_key(
        baseline.get("cost_model", {}).get("records", ()),
        "path", "scale")
    fresh_cost = _by_key(
        fresh.get("cost_model", {}).get("records", ()),
        "path", "scale")
    for key in sorted(base_cost.keys() & fresh_cost.keys()):
        if key[1] < MIN_COMPARE_SCALE:
            continue
        base, new = base_cost[key], fresh_cost[key]
        ratio_drop(f"cost_vs_structural[{key[0]}@{key[1]}]",
                   base["cost_vs_structural"],
                   new["cost_vs_structural"], ratio_tolerance)

    base_conc = baseline.get("concurrency")
    fresh_conc = fresh.get("concurrency")
    if (isinstance(base_conc, dict) and isinstance(fresh_conc, dict)
            and all(base_conc.get(key) == fresh_conc.get(key)
                    for key in ("readers", "writers", "rounds",
                                "scale"))):
        # Same workload shape: snapshot readers must keep (most of)
        # their solo latency under writer load, machine-independently.
        ratio_drop("concurrency.reader_p50_retention",
                   base_conc.get("reader_p50_retention", 0),
                   fresh_conc.get("reader_p50_retention", 0),
                   RETENTION_TOLERANCE)

    if scope["same_machine"]:
        base_metrics = baseline.get("metrics", {})
        fresh_metrics = fresh.get("metrics", {})
        if base_metrics.get("scale") == fresh_metrics.get("scale"):
            base_p99 = base_metrics.get("registry", {}).get(
                "query.latency.ns", {})
            fresh_p99 = fresh_metrics.get("registry", {}).get(
                "query.latency.ns", {})
            if isinstance(base_p99, dict) and isinstance(fresh_p99, dict) \
                    and base_p99.get("p99", 0) > 0:
                blowup = fresh_p99.get("p99", 0) / base_p99["p99"]
                if blowup > p99_blowup:
                    failures.append((
                        "query.latency.ns.p99", base_p99["p99"],
                        fresh_p99["p99"],
                        f"blew up {blowup:.1f}x "
                        f"(tolerance {p99_blowup:.1f}x)"))

    if scope["same_kind"]:
        base_summary = baseline.get("summary", {})
        fresh_summary = fresh.get("summary", {})
        for gate in SUMMARY_GATES:
            if base_summary.get(gate) is True \
                    and fresh_summary.get(gate) is False:
                failures.append((f"summary.{gate}", True, False,
                                 "gate flipped from met to unmet"))
    return failures


def check_compiled_plans(report: dict) -> list:
    """What the compiled-plan section of one report must show on its
    own, as failure rows shaped like :func:`compare`'s."""
    failures = []
    summary = report.get("summary", {})
    floors = summary.get("cached_vs_naive_floor_per_scale") or {}
    if not floors:
        failures.append(("summary.cached_vs_naive_floor_per_scale",
                         "per-scale floors", floors,
                         "no per-scale speedup gates"))
    for scale in sorted(floors, key=int):
        if not floors[scale]:
            failures.append((
                f"summary.cached_vs_naive_floor_per_scale[{scale}]",
                True, False,
                "a cached plan fell under the floor against the naive "
                f"oracle (worst overall "
                f"{summary.get('min_cached_vs_naive')}x): the "
                "closure-chain hot path regressed"))
    if not summary.get("speedup_2x_met"):
        failures.append(("summary.speedup_2x_met", True,
                         summary.get("speedup_2x_met"),
                         "no query runs 2x faster cached than uncached "
                         f"(best {summary.get('max_cached_vs_uncached')}"
                         "x)"))
    for record in report.get("records", ()):
        label = f"{record['path']}@{record['scale']}"
        for key in ("ops_plan_lookup", "ops_compiled_exec"):
            if not record[key] > 0:
                failures.append((f"{key}[{label}]", "> 0", record[key],
                                 "route was not timed"))
        if not 0.0 <= record["lookup_share"] <= 1.0:
            failures.append((f"lookup_share[{label}]", "within [0, 1]",
                             record["lookup_share"],
                             "lookup/execution split does not add up"))
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path,
                        help="committed BENCH_query.json")
    parser.add_argument("fresh", type=Path,
                        help="freshly generated report")
    parser.add_argument("--ops-tolerance", type=float,
                        default=OPS_TOLERANCE,
                        help="max fractional ops/sec drop (same host)")
    parser.add_argument("--ratio-tolerance", type=float,
                        default=RATIO_TOLERANCE,
                        help="max fractional speedup-ratio drop")
    parser.add_argument("--p99-blowup", type=float, default=P99_BLOWUP,
                        help="max p99 latency growth factor (same host)")
    args = parser.parse_args(argv)

    try:
        baseline = _load(args.baseline)
        fresh = _load(args.fresh)
        scope = check_comparable(baseline, fresh)
        failures = compare(baseline, fresh,
                           ops_tolerance=args.ops_tolerance,
                           ratio_tolerance=args.ratio_tolerance,
                           p99_blowup=args.p99_blowup)
        failures += check_compiled_plans(fresh)
    except Refusal as refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 2

    base_meta, fresh_meta = baseline["meta"], fresh["meta"]
    print(f"baseline: {base_meta['git_sha'][:12]} "
          f"({base_meta['timestamp']}, "
          f"python {base_meta['python']} on {base_meta['host']})")
    print(f"fresh:    {fresh_meta['git_sha'][:12]} "
          f"({fresh_meta['timestamp']}, "
          f"python {fresh_meta['python']} on {fresh_meta['host']})")
    print(f"scope:    ratios"
          + (", raw ops + p99" if scope["same_machine"]
             else " only (different machine/interpreter)")
          + ("" if scope["same_kind"]
             else "; summary gates skipped (smoke vs full)"))
    if not failures:
        print("OK: no perf regression beyond tolerance")
        return 0
    print(f"FAIL: {len(failures)} regression(s):")
    for name, base_value, fresh_value, message in failures:
        print(f"  {name}: {base_value} -> {fresh_value} — {message}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
