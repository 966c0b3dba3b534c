"""Request timing and failure accounting for one run.

A workload issues every request through :meth:`Meter.request`, which
takes the timestamps; the answer is checked *after* the second
timestamp (:meth:`Meter.check`), never inside the timed interval.  A
request that raises, is shed or answers wrongly counts as failed.

Every latency is **net of device flush time**.  The flush policy is
the program's (``sync_wal=True``, atomic image writes) and stays on,
but how long ``os.fsync`` takes on a sandbox's virtual disk is the
disk's noise, not the program's cost: its level moves by a factor of
two within seconds.  :class:`FlushClock` times ``os.fsync`` from
outside; the meter subtracts what a request spent there and reports
the flush count and time separately.
"""

from __future__ import annotations

import os
import threading
import time
from array import array
from collections import defaultdict
from typing import Callable

from benchmarks.e2e.trace import Recorder

_clock = time.perf_counter_ns

#: What :meth:`Meter.request` returns for a request that raised.
FAILED = object()

#: Failure messages kept for the report.
KEEP_ERRORS = 5


class FlushClock:
    """Time spent in ``os.fsync``, measured by replacing the attribute
    (the program calls it as ``os.fsync``).  Flushes run on the worker
    threads while the one client waits, so a request's flush time is
    the clock's advance between the request's two timestamps."""

    def __init__(self) -> None:
        self.ns = 0
        self.calls = 0
        self._lock = threading.Lock()
        self._original = None

    def _fsync(self, fd) -> None:
        started = _clock()
        try:
            self._original(fd)
        finally:
            elapsed = _clock() - started
            with self._lock:
                self.ns += elapsed
                self.calls += 1

    def __enter__(self) -> "FlushClock":
        self._original = os.fsync
        os.fsync = self._fsync
        return self

    def __exit__(self, *exc_info: object) -> None:
        os.fsync = self._original


class Meter:
    def __init__(self, flushes: FlushClock) -> None:
        self.flushes = flushes
        #: Request class -> latency of every successful request, ns
        #: (net of device flush time, like every figure here).  Packed:
        #: a run keeps some 10^5 of them, and as a list of ints they
        #: would make ``peak_rss_mb`` follow the machine's speed.
        self.latencies: dict[str, array] = defaultdict(
            lambda: array("q"))
        #: Sum of every successful request's latency, ns.
        self.busy_ns = 0
        #: Device flush time inside successful requests, ns.
        self.flush_ns = 0
        #: Requests issued; ``attempted`` adds the stand-alone checks.
        self.requests = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def request(self, cls: str, fn: Callable, *args):
        self.requests += 1
        self.attempted += 1
        flushed = self.flushes.ns
        started = _clock()
        try:
            result = fn(*args)
        except Exception as error:  # counted and reported, run goes on
            self.fail(f"{cls}: {type(error).__name__}: {error}")
            return FAILED
        elapsed = _clock() - started
        self._record(cls, elapsed, self.flushes.ns - flushed)
        return result

    def _record(self, cls: str, elapsed: int, flushed: int) -> None:
        self.latencies[cls].append(elapsed - flushed)
        self.busy_ns += elapsed - flushed
        self.flush_ns += flushed

    def check(self, result: object, expected: object, what: str) -> None:
        """Compare a request's answer with the expected one."""
        if result is not FAILED and result != expected:
            self.fail(f"wrong answer: {what}")

    def verify(self, ok: bool, what: str) -> None:
        """A correctness check that is not the answer of a request."""
        self.attempted += 1
        if not ok:
            self.fail(f"check failed: {what}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < KEEP_ERRORS:
            self.errors.append(message)


class TracedMeter(Meter):
    """A meter whose requests are the roots of the span tree."""

    def __init__(self, flushes: FlushClock, recorder: Recorder) -> None:
        super().__init__(flushes)
        self.recorder = recorder

    def request(self, cls: str, fn: Callable, *args):
        self.requests += 1
        self.attempted += 1
        flushed = self.flushes.ns
        root = self.recorder.begin_request(cls)
        try:
            result = fn(*args)
        except Exception as error:
            self.recorder.end_request(root)
            self.fail(f"{cls}: {type(error).__name__}: {error}")
            return FAILED
        elapsed = self.recorder.end_request(root)
        self._record(cls, elapsed, self.flushes.ns - flushed)
        return result


class Workload:
    """What the driver calls on a workload, with the empty defaults.

    ``setup`` builds the database (timed as ``setup_s``), ``warm``
    fills caches and checks the expected answers, ``segment`` issues a
    fixed number of operations through the meter and returns how many,
    ``finish`` runs end-of-run checks, ``close`` releases everything.
    """

    name = ""
    #: The request class whose median latency is ``p50_us``.
    primary = ""

    def finish(self, meter: Meter) -> None:
        pass

    def counters(self) -> dict[str, float]:
        """Monotone counters read from outside the program; the driver
        differences them over the traced segment."""
        return {}

    def facts(self) -> dict[str, float]:
        """Per-layer values as they stand when the run ends."""
        return {}

    def primary_count(self, meter: Meter) -> int:
        """How many primary operations have been timed so far."""
        return len(meter.latencies[self.primary])

    def primary_latencies_us(self, meter: Meter,
                             start: int) -> list[float]:
        """Latency of the primary operations from number *start* on."""
        return [ns / 1e3
                for ns in meter.latencies[self.primary][start:]]
