"""Every name the benchmark reports, declared once.

``BENCHMARK.json`` at the repository root is generated from this
module (``run.py --write-manifest``) and the smoke test asserts the
two agree, so a later issue can cite a metric or a workload by the
name it finds here.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: The command the driver runs, from the root of a checkout.
COMMAND = ["python3", "benchmarks/e2e/run.py"]

#: Directories that hold the benchmark and nothing else.
PATHS = ["benchmarks/e2e"]

#: Seconds one run measures (``--seconds``).
RUN_SECONDS = 20

#: The four workloads and why each exists (one line, <= 200 chars).
WORKLOADS = [
    {"name": "read_hot",
     "why": "96 path strings on one read session: parse and plan caches "
            "always hit, so lookup and compiled execution do the work; "
            "planner, WAL and snapshots do none."},
    {"name": "read_cold",
     "why": "Over 2,000 distinct path strings round-robin: every request "
            "misses both LRU caches, so parse, candidate pricing, "
            "lowering and value extraction do the work."},
    {"name": "mixed_rw",
     "why": "fsynced write transactions beside reads through the "
            "request loop on a FileBackend: lease, txn, WAL, "
            "checkpoint and snapshot materialisation do the work, "
            "the query layer little."},
    {"name": "ingest",
     "why": "XML text to durable image and back (schema, f, section "
            "6.2 conformance, load, checkpoint, recover, g, "
            "content-equal): no query or server code runs."},
]


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float


#: Metrics a user of the system sees.  Every workload reports every
#: one; ``p50_us`` is the median latency of the workload's primary
#: operation (a read on ``read_hot``/``read_cold``, a fresh read — from
#: reopening the reader to its first answer after commits — on
#: ``mixed_rw``, one ingested node on ``ingest``), ``ops_per_s`` counts
#: requests (nodes made durable on ``ingest``) per second of request
#: time in the fast-decile segment.  The three timing metrics are at
#: reference machine speed (:mod:`benchmarks.e2e.witness`).
END_TO_END = [
    EndToEnd("ops_per_s", "1/s", "higher", 0.25),
    EndToEnd("p50_us", "us", "lower", 0.25),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10),
    EndToEnd("setup_s", "s", "lower", 0.25),
]


@dataclass(frozen=True)
class Layer:
    """One per-layer metric and where its value comes from.

    ``kind`` is ``mean`` (summed self time of ``spans`` per call of
    the first of them), ``calls`` (span count), ``items`` (what the
    spans' hooks counted) or ``value`` (a number the driver or the
    workload supplies under ``name``).
    """

    name: str
    unit: str
    better: str
    kind: str = "value"
    spans: tuple[str, ...] = ()


def _us(name: str, *spans: str) -> Layer:
    return Layer(name, "us", "lower", "mean", spans)


def _ms(name: str, *spans: str) -> Layer:
    return Layer(name, "ms", "lower", "mean", spans)


def _calls(name: str, *spans: str, better: str = "lower") -> Layer:
    return Layer(name, "count", better, "calls", spans)


def _items(name: str, *spans: str, unit: str = "count") -> Layer:
    return Layer(name, unit, "lower", "items", spans)


def _value(name: str, unit: str, better: str = "lower") -> Layer:
    return Layer(name, unit, better)


#: Request classes the driver issues; each gets count / p50 / tail.
#: The unit and the tail percentile follow the sample count a run
#: collects (a tail needs at least ten samples beyond it).
CLASSES = {
    "read": ("us", 99),
    "write": ("us", 95),
    "short_read": ("us", 95),
    "fresh_read": ("ms", None),
    "checkpoint": ("ms", None),
    "lease": ("us", None),
    "recover": ("ms", None),
    "ingest_doc": ("ms", None),
}

#: Layer groups for the ``share.*`` table: span-name prefix -> group.
GROUPS = {
    "server.": "server",
    "query.": "query",
    "storage.": "storage",
    "xmlio.": "pipeline",
    "schema.": "pipeline",
    "mapping.": "pipeline",
    "algebra.": "pipeline",
    "content.": "pipeline",
}

STRATEGIES = ("scan", "hybrid", "index", "naive", "empty")


def _class_layers() -> list[Layer]:
    out = []
    for cls, (unit, tail) in CLASSES.items():
        out.append(_value(f"driver.{cls}.count", "count", "higher"))
        out.append(_value(f"driver.{cls}.p50_{unit}", unit))
        if tail is not None:
            out.append(_value(f"driver.{cls}.p{tail}_{unit}", unit))
        out.append(_value(f"driver.{cls}.unattributed_share", "ratio"))
    return out


#: Metrics of single layers (self time per call unless marked count or
#: ratio), measured in the traced segment.  The ``driver.<class>``
#: latencies and throughputs come from the untraced part of the same
#: run.
PER_LAYER = [
    # -- server ---------------------------------------------------------
    _us("server.admission.enter_us", "server.admission.enter"),
    _value("server.admission.shed", "count"),
    _us("server.loop.submit_us", "server.loop.submit"),
    _us("server.loop.hop_us", "server.loop.hop"),
    _us("server.request.read_us", "server.request.read"),
    _us("server.request.write_us", "server.request.write"),
    _us("server.session.open_us", "server.session.open"),
    _us("server.session.close_us", "server.session.close"),
    _us("server.snapshots.current_key_us",
        "server.snapshots.current_key"),
    _us("server.snapshots.pin_hit_us", "server.snapshots.pin.hit"),
    _ms("server.snapshots.pin_miss_ms", "server.snapshots.pin.miss"),
    _calls("server.snapshots.materializations",
           "server.snapshots.pin.miss"),
    _calls("server.snapshots.cache_hits", "server.snapshots.pin.hit",
           better="higher"),
    _value("server.snapshots.hit_ratio", "ratio", "higher"),
    _us("server.leases.acquire_us", "server.leases.acquire"),
    _us("server.leases.renew_us", "server.leases.renew"),
    _us("server.leases.check_us", "server.leases.check"),
    _us("server.leases.release_us", "server.leases.release"),
    _value("server.leases.contended", "count"),
    _us("server.checkpoint_us", "server.checkpoint"),
    # -- query ----------------------------------------------------------
    _us("query.parse_us", "query.parse"),
    _value("query.parse_cache.hit_ratio", "ratio", "higher"),
    _us("query.plan.lookup_us", "query.plan.lookup.hit"),
    _us("query.plan.miss_us", "query.plan.lookup.miss",
        "query.plan.compile", "query.plan.lower"),
    _value("query.plan_cache.hit_ratio", "ratio", "higher"),
    _value("query.plan_cache.evictions", "count"),
    _us("query.exec_us", "query.exec"),
    _us("query.values_us", "query.values"),
    _items("query.values.nodes", "query.values"),
    *[_value(f"query.strategy.{s}", "count", "higher")
      for s in STRATEGIES],
    # -- storage --------------------------------------------------------
    _us("storage.engine.mutate_us", "storage.engine.mutate"),
    _us("storage.indexes.maintenance_us",
        "storage.indexes.maintenance"),
    _us("storage.txn.begin_us", "storage.txn.begin"),
    _us("storage.txn.commit_us", "storage.txn.commit"),
    _us("storage.wal.append_us", "storage.wal.append"),
    _us("storage.wal.sync_us", "storage.wal.sync"),
    _calls("storage.wal.appends", "storage.wal.append"),
    _calls("storage.wal.syncs", "storage.wal.sync"),
    _value("storage.wal.bytes", "bytes"),
    _ms("storage.wal.scan_ms", "storage.wal.scan"),
    _ms("storage.backends.file.checkpoint_ms",
        "storage.backends.file.checkpoint"),
    _ms("storage.backends.sqlite.checkpoint_ms",
        "storage.backends.sqlite.checkpoint"),
    _items("storage.checkpoint.bytes",
           "storage.backends.file.checkpoint",
           "storage.backends.sqlite.checkpoint", unit="bytes"),
    _ms("storage.persist.dump_ms", "storage.persist.dump"),
    _ms("storage.persist.load_ms", "storage.persist.load"),
    _ms("storage.backends.sqlite.load_ms",
        "storage.backends.sqlite.load"),
    _ms("storage.recovery.recover_ms", "storage.recovery.recover"),
    _items("storage.recovery.replayed", "storage.recovery.recover"),
    _ms("storage.engine.load_tree_ms", "storage.engine.load_tree"),
    _value("storage.engine.blocks", "count"),
    _value("storage.relabels", "count"),
    # -- the paper's pipeline -------------------------------------------
    _ms("xmlio.parse_ms", "xmlio.parse"),
    _ms("xmlio.serialize_ms", "xmlio.serialize"),
    _ms("schema.parse_ms", "schema.parse"),
    _ms("mapping.f_ms", "mapping.f"),
    _ms("algebra.conformance_ms", "algebra.conformance"),
    _us("content.match_us", "content.match"),
    _ms("mapping.g_ms", "mapping.g"),
    _ms("mapping.content_equal_ms", "mapping.content_equal"),
    # -- where the request time went, by layer group ---------------------
    _value("share.query", "ratio"),
    _value("share.server", "ratio"),
    _value("share.storage", "ratio"),
    _value("share.pipeline", "ratio"),
    _value("share.unattributed", "ratio"),
    # -- the benchmark itself -------------------------------------------
    *_class_layers(),
    _value("driver.ingest.nodes_per_s", "1/s", "higher"),
    _value("driver.export.nodes_per_s", "1/s", "higher"),
    _value("driver.space_amp", "ratio"),
    _value("driver.wal_bytes_per_commit", "bytes"),
    _value("driver.flush_share", "ratio"),
    _value("driver.witness_ms", "ms"),
    _value("driver.trace_overhead_ratio", "ratio", "higher"),
]

#: Largest unattributed share of a request class the traced segment
#: may show before the run fails (ROADMAP item 1's closure check).  A
#: class whose traced requests add up to less than CLOSURE_MIN_MS is
#: reported but not failed: one scheduler hiccup between two spans
#: would decide it.
CLOSURE_LIMIT = 0.10
CLOSURE_MIN_MS = 20.0


def manifest() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better,
             "bound": m.bound} for m in END_TO_END],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better}
            for m in PER_LAYER],
    }


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of *samples* (0.0 when empty)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = math.ceil(pct / 100.0 * len(ordered)) - 1
    return float(ordered[max(0, min(len(ordered) - 1, rank))])


def undisturbed(values: Sequence[float], better: str) -> float:
    """The decile of per-segment *values* on the fast side.

    Other tenants of a shared host slow the guest down, by a half and
    more, for seconds or minutes at a time; nothing ever speeds a
    segment up.  The decile that nine tenths of the segments are worse
    than stays put while up to nine tenths of a run are disturbed,
    where the median gives way at one half — and unlike the single
    best segment it is not one lucky sample.  Over ten-run sets taken
    beside synthetic neighbours it spread a third to a fifth as wide
    as the median of the same segments (README, "Run-to-run spread").
    """
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[-1] if better == "higher" else cuts[0]


def spread(values: Sequence[float]) -> float:
    """``(max - min) / median`` — the segment-to-segment noise floor."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def worse_by(metric: EndToEnd, first: float, second: float) -> float:
    """Share of *first* by which *second* is worse (negative: better)."""
    if not first:
        return 0.0
    change = (second - first) / first
    return -change if metric.better == "higher" else change
