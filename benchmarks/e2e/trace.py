"""Spans around the program's entry points, recorded from outside.

The program is not edited: :meth:`Recorder.install` replaces a fixed
table of public entry points (:data:`HOOKS`) by wrappers, attribute by
attribute, and :meth:`Recorder.uninstall` puts the originals back.  A
span records name, start, end, parent and the request it belongs to;
the driver's request span is the root.  A layer's **self time** is its
span minus the part its child spans cover.  Wrappers pass straight
through outside a request, so the benchmark's own verification queries
leave no spans.

Requests that go through ``DatabaseServer.submit`` run their thunk on a
worker thread.  The thunk's span is attached, when the client's
``PendingRequest.wait`` returns, as a child of that wait span — so the
wait's self time is the hop (queue, wake-ups, hand-back) and nothing
is counted twice.

Spans stay in memory; :meth:`Recorder.write_chrome_trace` writes the
first :data:`KEEP_SPANS` of them as Chrome-trace JSON
(``chrome://tracing`` / Perfetto "X" events) when the run ends.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional, Union

#: Raw spans kept for the trace file (aggregates cover every span).
KEEP_SPANS = 40_000

_clock = time.perf_counter_ns


@dataclass(frozen=True)
class Hook:
    """One wrapped entry point.

    ``target`` is ``module:attr`` or ``module:Class.attr``.  ``span``
    names the span, or computes the name from the call's arguments.
    With ``split`` set to a child span's name, the span is recorded as
    ``<span>.miss`` when that child ran directly under it and as
    ``<span>.hit`` otherwise.  ``count`` maps the call's result to a
    number summed as the span's *items*.
    """

    target: str
    span: Union[str, Callable[..., str]]
    split: str = ""
    count: Optional[Callable[[object], int]] = None


def _backend_span(suffix: str) -> Callable[..., str]:
    return lambda backend, *args, **kwargs: \
        f"storage.backends.{backend.name}.{suffix}"


_SERVER = "repro.server.server:"
_ENGINE = "repro.storage.engine:StorageEngine."
_WAL = "repro.storage.wal:WriteAheadLog."

HOOKS: tuple[Hook, ...] = (
    # -- server ---------------------------------------------------------
    Hook(_SERVER + "DatabaseServer.open_session", "server.session.open"),
    Hook(_SERVER + "DatabaseServer.close_session",
         "server.session.close"),
    Hook(_SERVER + "DatabaseServer.query", "server.request.read"),
    Hook(_SERVER + "DatabaseServer.query_values", "query.values",
         count=len),
    Hook(_SERVER + "DatabaseServer.execute", "server.request.write"),
    Hook(_SERVER + "DatabaseServer.checkpoint_now", "server.checkpoint"),
    Hook("repro.server.admission:AdmissionController.admit_session",
         "server.admission.enter"),
    Hook("repro.server.admission:AdmissionController.enter_request",
         "server.admission.enter"),
    Hook("repro.server.snapshots:SnapshotManager.pin",
         "server.snapshots.pin", split="storage.recovery.recover"),
    Hook("repro.server.snapshots:SnapshotManager.current_key",
         "server.snapshots.current_key"),
    Hook("repro.server.leases:LeaseManager.acquire",
         "server.leases.acquire"),
    Hook("repro.server.leases:LeaseManager.renew",
         "server.leases.renew"),
    Hook("repro.server.leases:LeaseManager.check",
         "server.leases.check"),
    Hook("repro.server.leases:LeaseManager.release",
         "server.leases.release"),
    # -- query ----------------------------------------------------------
    Hook("repro.query.cache:cached_parse_path", "query.parse"),
    Hook("repro.query.planner:QueryPlanner.compile", "query.plan.lookup",
         split="query.plan.compile"),
    Hook("repro.query.planner:compile_plan", "query.plan.compile"),
    Hook("repro.query.compiled:lower", "query.plan.lower"),
    Hook("repro.query.planner:CompiledPlan.execute_compiled",
         "query.exec"),
    # -- storage --------------------------------------------------------
    Hook(_ENGINE + "insert_child", "storage.engine.mutate"),
    Hook(_ENGINE + "set_attribute", "storage.engine.mutate"),
    Hook(_ENGINE + "delete_subtree", "storage.engine.mutate"),
    Hook(_ENGINE + "create_index", "storage.engine.mutate"),
    Hook(_ENGINE + "load_tree", "storage.engine.load_tree"),
    Hook("repro.storage.indexes:IndexManager.note_added",
         "storage.indexes.maintenance"),
    Hook("repro.storage.indexes:IndexManager.note_removed",
         "storage.indexes.maintenance"),
    Hook("repro.storage.indexes:IndexManager.note_value_changed",
         "storage.indexes.maintenance"),
    Hook("repro.storage.txn:TransactionManager.begin",
         "storage.txn.begin"),
    Hook("repro.storage.txn:TransactionManager.commit",
         "storage.txn.commit"),
    Hook("repro.storage.txn:TransactionManager.rollback",
         "storage.txn.rollback"),
    *[Hook(_WAL + f"append_{record}", "storage.wal.append")
      for record in ("begin", "commit", "abort", "insert_element",
                     "insert_text", "set_attribute", "delete",
                     "create_index", "drop_index", "load")],
    Hook("repro.storage.wal:FileWalStore.sync", "storage.wal.sync"),
    Hook("repro.storage.wal:MemoryWalStore.sync", "storage.wal.sync"),
    Hook("repro.storage.backends.sqlite:SqliteWalStore.sync",
         "storage.wal.sync"),
    Hook("repro.storage.wal:read_wal_store", "storage.wal.scan"),
    Hook("repro.storage.backends.base:StorageBackend.checkpoint",
         _backend_span("checkpoint"),
         count=lambda info: info.bytes),
    Hook("repro.storage.backends.sqlite:SqliteBackend.load_engine",
         _backend_span("load")),
    Hook("repro.storage.recovery:recover", "storage.recovery.recover",
         count=lambda result: result.replayed),
    Hook("repro.storage.persist:load_engine", "storage.persist.load"),
    Hook("repro.storage.persist:dumps_engine", "storage.persist.dump"),
    # -- the paper's pipeline -------------------------------------------
    Hook("repro.schema.parser:parse_schema", "schema.parse"),
    Hook("repro.xmlio.parser:parse_document", "xmlio.parse"),
    Hook("repro.xmlio.serializer:serialize_document", "xmlio.serialize"),
    Hook("repro.mapping.doc_to_tree:document_to_tree", "mapping.f"),
    Hook("repro.mapping.tree_to_doc:tree_to_document", "mapping.g"),
    Hook("repro.mapping.content_equality:content_equal",
         "mapping.content_equal"),
    Hook("repro.algebra.conformance:ConformanceChecker.check",
         "algebra.conformance"),
    Hook("repro.content.matcher:ContentModel.matches", "content.match"),
)

#: Module-name prefixes whose globals may hold a ``from x import f``
#: alias of a wrapped function; aliases are replaced too.
ALIAS_PREFIXES = ("repro", "benchmarks.e2e")

#: Spans that are the benchmark's own code, not a layer's.
DRIVER_SPANS = ("driver.request", "driver.thunk")


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "child_ns",
                 "marked", "items", "cls", "driver_ns", "thread")

    def __init__(self, name: str, parent: "Optional[Span]",
                 root: "Optional[Span]", thread: int,
                 start: int) -> None:
        self.name = name
        self.start = start
        self.end = 0
        self.parent = parent
        #: The request span this span works for (itself, for a root).
        self.root = root if root is not None else self
        self.child_ns = 0
        #: Set by a direct child whose name some hook splits on.
        self.marked = False
        #: What the hook's ``count`` made of the call's result.
        self.items = 0
        #: Roots only: the request class, and the self time of driver
        #: spans that ran for this request on other threads.
        self.cls = ""
        self.driver_ns = 0
        self.thread = thread


class _ThreadState:
    """Per-thread span stack and aggregates (merged when read)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.stack: list[Span] = []
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)

    def open(self, name: str, root: Optional[Span] = None,
             start: int = 0) -> Span:
        """Push a span under the innermost open one.  *root* names the
        request of a span that starts a thread's stack; *start* is a
        timestamp the caller took earlier."""
        parent = self.stack[-1] if self.stack else None
        if root is None and parent is not None:
            root = parent.root
        span = Span(name, parent, root, self.index, start or _clock())
        self.stack.append(span)
        return span


class Recorder:
    """Installs the wrappers and aggregates what they record."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._patched: list[tuple[object, str, object]] = []
        self._splits = frozenset(h.split for h in HOOKS if h.split)
        #: ``id(PendingRequest)`` -> one-slot list the thunk's span
        #: lands in; popped by the wait wrapper.
        self._pending: dict[int, list] = {}
        self.kept: list[Span] = []
        #: Per request class: [requests, total ns, driver self ns].
        self.classes: dict[str, list[int]] = defaultdict(
            lambda: [0, 0, 0])

    # -- per-thread state -------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    # -- the driver's side: request roots ---------------------------------

    def begin_request(self, cls: str) -> Span:
        span = self._state().open("driver.request")
        span.cls = cls
        return span

    def end_request(self, span: Span) -> int:
        """Close the root opened by :meth:`begin_request`; returns the
        request's duration in ns."""
        span.end = end = _clock()
        state = self._state()
        state.stack.pop()
        duration = end - span.start
        own = duration - span.child_ns
        state.self_ns[span.name] += own
        state.calls[span.name] += 1
        totals = self.classes[span.cls]
        totals[0] += 1
        totals[1] += duration
        totals[2] += own + span.driver_ns
        self._keep(span)
        return duration

    # -- the program's side: wrappers -------------------------------------

    def _close(self, state: _ThreadState, span: Span,
               hook: Optional[Hook]) -> None:
        name = span.name
        parent = span.parent
        if parent is not None and name in self._splits:
            parent.marked = True
        if hook is not None and hook.split:
            name += ".miss" if span.marked else ".hit"
            span.name = name
        state.calls[name] += 1
        if span.items:
            state.items[name] += span.items
        self._keep(span)
        span.end = end = _clock()
        duration = end - span.start
        if parent is not None:
            parent.child_ns += duration
        state.self_ns[name] += duration - span.child_ns

    def _keep(self, span: Span) -> None:
        if len(self.kept) < KEEP_SPANS:
            self.kept.append(span)

    def _wrap(self, original: Callable, hook: Hook) -> Callable:
        state_of = self._state
        close = self._close
        fixed = hook.span if isinstance(hook.span, str) else None
        count = hook.count

        def traced(*args, **kwargs):
            # First and last thing: the wrapper's own cost is charged
            # to the span it creates, not to the caller's self time.
            start = _clock()
            state = state_of()
            stack = state.stack
            if not stack:
                return original(*args, **kwargs)
            span = state.open(fixed or hook.span(*args, **kwargs),
                              start=start)
            try:
                result = original(*args, **kwargs)
                if count is not None:
                    span.items = count(result)
                return result
            finally:
                stack.pop()
                close(state, span, hook)

        traced.__wrapped__ = original
        return traced

    def _wrap_submit(self, original: Callable) -> Callable:
        """``DatabaseServer.submit`` (admission, queue put): carry the
        request across the thread hop by wrapping the thunk in a
        ``driver.thunk`` span."""
        recorder = self

        def submit(server, fn):
            start = _clock()
            state = recorder._state()
            if not state.stack:
                return original(server, fn)
            root = state.stack[-1].root
            slot: list = []

            def thunk():
                worker = recorder._state()
                span = worker.open("driver.thunk", root=root)
                try:
                    return fn()
                finally:
                    span.end = end = _clock()
                    worker.stack.pop()
                    own = end - span.start - span.child_ns
                    worker.self_ns[span.name] += own
                    worker.calls[span.name] += 1
                    span.root.driver_ns += own
                    recorder._keep(span)
                    slot.append(span)

            span = state.open("server.loop.submit", start=start)
            try:
                pending = original(server, thunk)
                recorder._pending[id(pending)] = slot
                return pending
            finally:
                state.stack.pop()
                recorder._close(state, span, None)

        submit.__wrapped__ = original
        return submit

    def _wrap_wait(self, original: Callable) -> Callable:
        """``PendingRequest.wait``: the hop is the wait minus the
        thunk, which is adopted here as the wait span's child."""
        recorder = self

        def wait(pending, timeout=None):
            start = _clock()
            state = recorder._state()
            slot = recorder._pending.pop(id(pending), None)
            if not state.stack or slot is None:
                return original(pending, timeout)
            span = state.open("server.loop.hop", start=start)
            try:
                return original(pending, timeout)
            finally:
                state.stack.pop()
                if slot:
                    thunk = slot[0]
                    thunk.parent = span
                    span.child_ns += thunk.end - thunk.start
                recorder._close(state, span, None)

        wait.__wrapped__ = original
        return wait

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        """Replace every hooked entry point by its wrapper."""
        if self._patched:
            raise RuntimeError("recorder is already installed")
        for hook in HOOKS:
            owner, attr = _resolve(hook.target)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self._wrap(original, hook)
            self._replace(owner, attr, original, wrapper)
        server = importlib.import_module("repro.server.server")
        submit = server.DatabaseServer.__dict__["submit"]
        self._replace(server.DatabaseServer, "submit", submit,
                      self._wrap_submit(submit))
        wait = server.PendingRequest.__dict__["wait"]
        self._replace(server.PendingRequest, "wait", wait,
                      self._wrap_wait(wait))

    def _replace(self, owner: object, attr: str, original: object,
                 wrapper: object) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            return
        # A module-level function: other modules may have bound it by
        # ``from x import f``; replace those aliases as well.
        for name, module in list(sys.modules.items()):
            if module is None or module is owner \
                    or not name.startswith(ALIAS_PREFIXES):
                continue
            for alias, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, alias, original))
                    setattr(module, alias, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()

    # -- reading the aggregates -------------------------------------------

    def _merged(self, field: str) -> dict[str, int]:
        merged: dict[str, int] = defaultdict(int)
        for state in self._states:
            for name, value in getattr(state, field).items():
                merged[name] += value
        return merged

    def self_ns(self) -> dict[str, int]:
        return self._merged("self_ns")

    def calls(self) -> dict[str, int]:
        return self._merged("calls")

    def items(self) -> dict[str, int]:
        return self._merged("items")

    def write_chrome_trace(self, path) -> int:
        """Write the kept spans as Chrome-trace JSON; returns how many."""
        ids = {id(span): number
               for number, span in enumerate(self.kept, start=1)}
        origin = min((span.start for span in self.kept), default=0)
        events = []
        for span in self.kept:
            events.append({
                "name": span.name, "ph": "X", "pid": 1,
                "tid": span.thread,
                "ts": (span.start - origin) / 1000.0,
                "dur": (span.end - span.start) / 1000.0,
                "args": {
                    "id": ids[id(span)],
                    "parent": ids.get(id(span.parent), 0),
                    "request": ids.get(id(span.root), 0),
                    "class": span.root.cls,
                },
            })
        with open(path, "w", encoding="utf-8") as stream:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ns"}, stream)
        return len(events)


def _resolve(target: str) -> tuple[object, str]:
    """``module:attr`` / ``module:Class.attr`` -> (owner, attr)."""
    module_name, _, path = target.partition(":")
    owner: object = importlib.import_module(module_name)
    *holders, attr = path.split(".")
    for holder in holders:
        owner = getattr(owner, holder)
    return owner, attr
