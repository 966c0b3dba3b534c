"""The machine-speed witness: what a second is worth on this host.

The sandbox is one guest of a shared host, and the host's other
tenants move the speed of *everything* the guest runs by 15 to 30 %
for tens of minutes at a time (README, "Run-to-run spread": sets of
ten runs of the same code, twenty minutes apart, had the timing
metrics of both read workloads 21 to 26 % apart as measured while each
set spread under 5 %).  No estimator inside a run sees through a shift
that outlasts the run, and a shift of that size between a parent's
runs and a change's runs reads as a regression — or hides one.

So every run also times a fixed piece of work that is no code of the
program: :func:`work`, plain interpreter work of the kind the program
is made of (arithmetic, dict and list building, sorting, string
joining, a walk over a tree of small objects).  It runs before every
set-up and before every segment, outside every timed interval; the
run's witness time is the fast-side decile of those samples, the same
estimator the segments get.  The timing metrics are then stated **at
reference machine speed**: multiplied (rates) or divided (times) by
``witness time / REFERENCE_MS``.  A program that gets slower moves
them in full — the witness does not change with the program — while a
host that gets slower moves the metric and the witness together.

``driver.witness_ms`` (per-layer) and ``as_measured`` / ``witness_ms``
in ``out/run-*.json`` keep the unscaled numbers.
"""

from __future__ import annotations

import time

from benchmarks.e2e import metrics

#: Witness time on the machine the reference speed is named after:
#: this sandbox in its faster state.  A constant — changing it rescales
#: every timing metric of every workload alike.
REFERENCE_MS = 2.0

_clock = time.perf_counter_ns


class _Node:
    __slots__ = ("name", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.children: list[_Node] = []


def work() -> int:
    """A few milliseconds of fixed interpreter work."""
    total = 0
    for i in range(15000):
        total += i * i % 7
    rows = [{"id": i, "name": f"n{i % 97}", "tags": (i, i ^ 5, i % 7)}
            for i in range(1000)]
    index: dict[str, list[int]] = {}
    for row in rows:
        index.setdefault(row["name"], []).append(row["id"])
    for name, ids in index.items():
        total += len(name) + sum(ids) % 1009
    rows.sort(key=lambda row: row["tags"][2])
    total += len(",".join(str(row["id"]) for row in rows).split(","))
    root = _Node("library")
    for i in range(300):
        book = _Node("book")
        root.children.append(book)
        for field in ("title", "author", "year", "publisher"):
            book.children.append(_Node(field))
    stack = [root]
    while stack:
        node = stack.pop()
        total += len(node.name)
        stack.extend(node.children)
    return total


class Witness:
    """The witness samples of one run."""

    def __init__(self) -> None:
        self.samples_ms: list[float] = []

    def sample(self, repeats: int = 2) -> None:
        for _ in range(repeats):
            started = _clock()
            work()
            self.samples_ms.append((_clock() - started) / 1e6)

    @property
    def ms(self) -> float:
        return metrics.undisturbed(self.samples_ms, "lower")

    @property
    def scale(self) -> float:
        """How much slower than the reference the machine is now."""
        return self.ms / REFERENCE_MS
