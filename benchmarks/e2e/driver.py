"""Runs one workload: set-up, measured segments, the traced segment.

Load shape: a closed loop, one client thread in one process — the
embedded callers each wait for their reply.  A run sets the database
up (several times untraced; ``setup_s`` is the median), warms caches
and checks the expected answers, runs segment 0 as a lead-in (checked,
not measured), collects garbage, then issues *segments* of a fixed
operation count until ``--seconds`` have passed.  Each segment yields
its operations per second of request time (the time between a
request's two timestamps — the benchmark's own checking is excluded)
and the median latency of its primary operation; ``ops_per_s`` and
``p50_us`` are the decile of those on the fast side
(:func:`benchmarks.e2e.metrics.undisturbed`).  Every time is net of
device flush time (see :mod:`benchmarks.e2e.meter`), and the three
timing metrics are stated at reference machine speed (see
:mod:`benchmarks.e2e.witness`).

With ``--trace 1`` a second database is set up from the same seed and
segment 0 is replayed on it under :class:`~benchmarks.e2e.trace.Recorder`.
Its operation count is fixed, so the per-layer counts repeat exactly
for a seed; the untraced part of the same run supplies the
``driver.<class>`` latencies and the base of
``driver.trace_overhead_ratio``.  Per-layer times are as measured.
"""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from benchmarks.e2e import metrics
from benchmarks.e2e.ingest import IngestWorkload
from benchmarks.e2e.meter import FlushClock, Meter, TracedMeter, Workload
from benchmarks.e2e.mixed import MixedWorkload
from benchmarks.e2e.reads import ReadWorkload
from benchmarks.e2e.trace import DRIVER_SPANS, Recorder
from benchmarks.e2e.witness import Witness

OUT_DIR = Path(__file__).resolve().parent / "out"

MAKERS = {
    "read_hot": ReadWorkload,
    "read_cold": ReadWorkload,
    "mixed_rw": MixedWorkload,
    "ingest": IngestWorkload,
}

#: Untraced set-ups per run: at least SETUP_REPEATS, then more until
#: SETUP_SECONDS have gone into them (cheap set-ups need more repeats
#: for a steady median), at most SETUP_LIMIT.  ``setup_s`` is their
#: median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.5
SETUP_LIMIT = 60

#: Segments a run measures at least, whatever ``--seconds`` says.
MIN_SEGMENTS = 3


@dataclass
class Measured:
    """What the untraced part of a run produced."""

    setups: list[float]
    meter: Meter
    witness: Witness
    #: Per segment: operations per second of request time, and the
    #: median latency of the primary operation in us.
    rates: list[float]
    medians: list[float]
    facts: dict[str, float]

    @property
    def rate(self) -> float:
        return metrics.undisturbed(self.rates, "higher")


def _make(name: str, seed: int, scale: str, workdir: Path) -> Workload:
    return MAKERS[name](name, seed, scale, workdir)


def _rate(operations: int, busy_ns: int) -> float:
    return operations * 1e9 / busy_ns if busy_ns else 0.0


def measure(name: str, seed: int, seconds: float, scale: str,
            workdir: Path, flushes: FlushClock,
            repeat_setup: bool) -> Measured:
    """The untraced part: set-ups, then segments for *seconds*."""
    times: list[float] = []
    witness = Witness()
    workload = None
    while not times or (repeat_setup and len(times) < SETUP_LIMIT and (
            len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS)):
        if workload is not None:
            workload.close()
        witness.sample()
        workload = _make(name, seed, scale, workdir)
        flushed = flushes.ns
        started = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - started
                     - (flushes.ns - flushed) / 1e9)
    try:
        meter = Meter(flushes)
        workload.warm(meter)
        workload.segment(0, meter)  # the lead-in: checked, not measured
        gc.collect()
        rates, medians = [], []
        began = time.perf_counter()
        while len(rates) < MIN_SEGMENTS \
                or time.perf_counter() - began < seconds:
            witness.sample()
            busy = meter.busy_ns
            seen = workload.primary_count(meter)
            operations = workload.segment(len(rates) + 1, meter)
            rates.append(_rate(operations, meter.busy_ns - busy))
            medians.append(metrics.percentile(
                workload.primary_latencies_us(meter, seen), 50))
        witness.sample()
        workload.finish(meter)
        return Measured(times, meter, witness, rates, medians,
                        workload.facts())
    finally:
        workload.close()


@dataclass
class Traced:
    """What the traced segment produced."""

    recorder: Recorder
    meter: Meter
    #: Operations per second of request time, wrappers and all.
    rate: float
    #: The workload's outside counters, differenced over the segment.
    delta: dict[str, float]
    facts: dict[str, float]


def trace(name: str, seed: int, scale: str, workdir: Path,
          flushes: FlushClock) -> Traced:
    """The traced part: segment 0 on a fresh database, every hooked
    entry point wrapped."""
    workload = _make(name, seed, scale, workdir)
    workload.setup()
    try:
        workload.warm(Meter(flushes))
        gc.collect()
        recorder = Recorder()
        meter = TracedMeter(flushes, recorder)
        before = workload.counters()
        with recorder:
            operations = workload.segment(0, meter)
            rate = _rate(operations, meter.busy_ns)
            workload.finish(meter)
        after = workload.counters()
        traced = Traced(recorder, meter, rate,
                        {key: after[key] - before[key] for key in after},
                        workload.facts())
    finally:
        workload.close()
    OUT_DIR.mkdir(exist_ok=True)
    recorder.write_chrome_trace(OUT_DIR / f"trace-{name}.json")
    return traced


def _ratio(hit: float, miss: float) -> float:
    return hit / (hit + miss) if hit + miss else 0.0


def per_layer(base: Measured, traced: Traced
              ) -> tuple[dict[str, float], list[str]]:
    """Every per-layer metric, and the closure-check failures."""
    recorder, delta = traced.recorder, traced.delta
    calls = recorder.calls()
    self_ns = recorder.self_ns()
    items = recorder.items()
    values = dict(traced.facts)
    for key in ("driver.ingest.nodes_per_s", "driver.export.nodes_per_s"):
        values[key] = base.facts.get(key, 0.0)
    values["server.snapshots.hit_ratio"] = _ratio(
        calls["server.snapshots.pin.hit"],
        calls["server.snapshots.pin.miss"])
    values["query.plan_cache.hit_ratio"] = _ratio(
        calls["query.plan.lookup.hit"], calls["query.plan.lookup.miss"])
    values["query.parse_cache.hit_ratio"] = _ratio(
        delta.get("parse_hits", 0), delta.get("parse_misses", 0))
    values["query.plan_cache.evictions"] = delta.get("plan_evictions", 0)
    values["server.leases.contended"] = delta.get("lease_contended", 0)

    # Where the request time went, by layer group.
    total_ns = sum(totals[1] for totals in recorder.classes.values())
    shares = {group: 0 for group in metrics.GROUPS.values()}
    for span, own in self_ns.items():
        for prefix, group in metrics.GROUPS.items():
            if span.startswith(prefix):
                shares[group] += own
    shares["unattributed"] = sum(self_ns[span] for span in DRIVER_SPANS)
    for group, own in shares.items():
        values[f"share.{group}"] = own / total_ns if total_ns else 0.0

    # Request classes: latencies untraced, closure from the spans.
    problems = []
    for cls, (unit, tail) in metrics.CLASSES.items():
        samples = base.meter.latencies.get(cls, [])
        scale_to = 1e3 if unit == "us" else 1e6
        values[f"driver.{cls}.count"] = len(samples)
        values[f"driver.{cls}.p50_{unit}"] = \
            metrics.percentile(samples, 50) / scale_to
        if tail is not None:
            values[f"driver.{cls}.p{tail}_{unit}"] = \
                metrics.percentile(samples, tail) / scale_to
        _, spent, unattributed = recorder.classes.get(cls, (0, 0, 0))
        share = unattributed / spent if spent else 0.0
        values[f"driver.{cls}.unattributed_share"] = share
        if share > metrics.CLOSURE_LIMIT \
                and spent >= metrics.CLOSURE_MIN_MS * 1e6:
            problems.append(
                f"closure: {share:.1%} of {cls} request time is "
                f"outside every layer span "
                f"(limit {metrics.CLOSURE_LIMIT:.0%})")
    values["driver.trace_overhead_ratio"] = (
        traced.rate / base.rate if base.rate else 0.0)
    values["driver.flush_share"] = _ratio(base.meter.flush_ns,
                                          base.meter.busy_ns)
    values["driver.witness_ms"] = base.witness.ms

    numbers = {}
    for layer in metrics.PER_LAYER:
        if layer.kind == "value":
            number = values.get(layer.name, 0.0)
        elif layer.kind == "calls":
            number = sum(calls[span] for span in layer.spans)
        elif layer.kind == "items":
            number = sum(items[span] for span in layer.spans)
        else:  # mean self time per call of the first span
            per = calls[layer.spans[0]]
            own = sum(self_ns[span] for span in layer.spans)
            number = (own / per / (1e3 if layer.unit == "us" else 1e6)
                      if per else 0.0)
        numbers[layer.name] = float(number)
    return numbers, problems


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: str = "full") -> dict:
    """One run of one workload; the dict ``run.py`` prints from."""
    workdir = OUT_DIR / "tmp"
    workdir.mkdir(parents=True, exist_ok=True)
    with FlushClock() as flushes:
        base = measure(name, seed, seconds, scale, workdir, flushes,
                       repeat_setup=not traced)
        traced_part = trace(name, seed, scale, workdir,
                            flushes) if traced else None
    meter = base.meter
    as_measured = {
        "ops_per_s": base.rate,
        "p50_us": metrics.undisturbed(base.medians, "lower"),
        "setup_s": statistics.median(base.setups),
    }
    # The timing metrics at reference machine speed (see witness.py).
    slower = base.witness.scale
    end_to_end = {
        "ops_per_s": as_measured["ops_per_s"] * slower,
        "p50_us": as_measured["p50_us"] / slower,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": as_measured["setup_s"] / slower,
    }
    spreads = {
        "ops_per_s": metrics.spread(base.rates),
        "p50_us": metrics.spread(base.medians),
        "setup_s": metrics.spread(base.setups),
    }
    result = {
        "workload": name,
        "seed": seed,
        "segments": len(base.rates),
        "attempted": meter.attempted,
        "failed": meter.failed,
        "errors": list(meter.errors),
        "end_to_end": end_to_end,
        "as_measured": as_measured,
        "witness_ms": base.witness.ms,
        "witness_samples": len(base.witness.samples_ms),
        "segment_spread": spreads,
        "segment_rates": base.rates,
        "segment_medians_us": base.medians,
        "samples": {cls: len(samples)
                    for cls, samples in meter.latencies.items()},
        "per_layer": None,
    }
    if traced_part is not None:
        result["per_layer"], problems = per_layer(base, traced_part)
        result["attempted"] += traced_part.meter.attempted
        result["failed"] += traced_part.meter.failed
        result["errors"] += traced_part.meter.errors + problems
    result["correct"] = not result["failed"] and not result["errors"]
    return result


def write_detail(result: dict, meta: dict) -> Path:
    """Keep the full result of a run next to the trace files."""
    OUT_DIR.mkdir(exist_ok=True)
    traced = int(result["per_layer"] is not None)
    path = OUT_DIR / f"run-{result['workload']}-trace{traced}.json"
    path.write_text(json.dumps({"meta": meta, **result}, indent=1))
    return path
