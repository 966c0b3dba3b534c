"""Tier-1 smoke test of the end-to-end benchmark (``--smoke`` sizes).

Runs every workload once, traced, in this process and checks what a
later issue relies on: every declared name is reported, finite and
well-formed; nothing failed; the closure check passed; and
``BENCHMARK.json`` lists exactly the names the code declares.
"""

import json
import math
import re

import pytest

from benchmarks.e2e import driver, metrics
from benchmarks.e2e.run import ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def results():
    return {workload["name"]: driver.run_workload(
        workload["name"], seed=7, seconds=0.05, traced=True,
        scale="smoke") for workload in metrics.WORKLOADS}


@pytest.mark.parametrize(
    "workload", [workload["name"] for workload in metrics.WORKLOADS])
def test_every_declared_metric_is_reported(results, workload):
    result = results[workload]
    assert result["errors"] == []  # wrong answers and closure check
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] >= 1
    assert list(result["end_to_end"]) == \
        [metric.name for metric in metrics.END_TO_END]
    assert list(result["per_layer"]) == \
        [metric.name for metric in metrics.PER_LAYER]
    for name, value in {**result["end_to_end"],
                        **result["per_layer"]}.items():
        assert NAME.fullmatch(name), name
        assert math.isfinite(value), name
    for name, value in result["end_to_end"].items():
        assert value > 0, name


def test_workloads_separate_the_layers(results):
    hot = results["read_hot"]["per_layer"]
    cold = results["read_cold"]["per_layer"]
    mixed = results["mixed_rw"]["per_layer"]
    ingest = results["ingest"]["per_layer"]
    assert hot["query.plan_cache.hit_ratio"] >= 0.99
    assert cold["query.plan_cache.hit_ratio"] <= 0.01
    assert cold["query.parse_cache.hit_ratio"] <= 0.01
    assert mixed["share.server"] + mixed["share.storage"] >= 0.70
    assert ingest["share.query"] == 0 and ingest["share.server"] == 0
    assert mixed["driver.recover.count"] == 1  # the durability check
    for per_layer in (hot, cold, mixed, ingest):
        assert per_layer["storage.relabels"] == 0  # Proposition 1


def test_manifest_on_disk_matches_the_declarations():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == metrics.manifest()
    names = [m["name"] for m in on_disk["end_to_end"]
             + on_disk["per_layer"] + on_disk["workloads"]]
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in on_disk["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in on_disk["workloads"])
