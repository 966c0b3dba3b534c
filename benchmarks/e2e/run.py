"""The benchmark's command line.

Two ways to run it, from the root of a checkout:

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload (what ``BENCHMARK.json``'s command is for).
    The last line of standard output is one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics``: every
    end-to-end metric with ``--trace 0`` (the timing ones at reference
    machine speed, see ``witness.py``), every per-layer metric with
    ``--trace 1``.  Exit code 1 if an answer was wrong.

``python3 benchmarks/e2e/run.py [--seed N] [--aa] [--smoke]``
    every workload, each run in a fresh child process: untraced for
    the end-to-end metrics, then traced for the per-layer table.
    Prints every metric by name with its unit and writes
    ``benchmarks/e2e/out/report.json``.  ``--aa`` does it twice and
    exits non-zero if an end-to-end metric differs by more than its
    bound.

``python -m benchmarks.e2e`` is the same program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    # Run as a script: import as ``benchmarks.e2e.*`` from the checkout
    # root (this directory would otherwise shadow stdlib ``trace``),
    # and find the program under ``src``.
    sys.path[0] = str(ROOT)
    sys.path.insert(1, str(ROOT / "src"))

from benchmarks.e2e import driver, metrics  # noqa: E402
from benchmarks.e2e.mixed import FLUSH_POLICY  # noqa: E402
from benchmarks.e2e.mixed import SIZES as MIXED_SIZES  # noqa: E402
from benchmarks.e2e.ingest import SIZES as INGEST_SIZES  # noqa: E402
from benchmarks.e2e.reads import SIZES as READ_SIZES  # noqa: E402
from benchmarks.e2e.witness import REFERENCE_MS  # noqa: E402

WORKLOAD_NAMES = [workload["name"] for workload in metrics.WORKLOADS]


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def meta(seed: int, seconds: float, scale: str) -> dict:
    """What every report says about how it was taken."""
    return {
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "git_sha": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(_git("status", "--porcelain")),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "flush_policy": FLUSH_POLICY,
        "witness_reference_ms": REFERENCE_MS,
        "segment_sizes": {"read": READ_SIZES[scale],
                          "mixed_rw": MIXED_SIZES[scale],
                          "ingest": INGEST_SIZES[scale]},
    }


def _units() -> dict[str, str]:
    units = {m.name: m.unit for m in metrics.END_TO_END}
    units.update({m.name: m.unit for m in metrics.PER_LAYER})
    return units


def _print_metrics(values: dict[str, float], spreads: dict) -> None:
    units = _units()
    for name, value in values.items():
        line = f"  {name:<44} {value:>16.4f} {units[name]}"
        if name in spreads:
            line += f"   (segment spread {spreads[name]:.1%})"
        print(line)


def run_one(args: argparse.Namespace) -> int:
    """One workload in this process (the ``BENCHMARK.json`` command)."""
    scale = "smoke" if args.smoke else "full"
    traced = bool(args.trace)
    result = driver.run_workload(args.workload, args.seed, args.seconds,
                                 traced, scale)
    driver.write_detail(result, meta(args.seed, args.seconds, scale))
    values = result["per_layer"] if traced else result["end_to_end"]
    print(f"{args.workload}: seed {args.seed}, "
          f"{result['segments']} segments, "
          f"{result['attempted']} attempted, {result['failed']} failed")
    _print_metrics(values, {} if traced else result["segment_spread"])
    for error in result["errors"]:
        print(f"  ERROR {error}", file=sys.stderr)
    units = _units()
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if result["correct"] else 1


def _child(workload: str, args: argparse.Namespace, traced: int) -> dict:
    """One run in a fresh process; returns the detail it wrote."""
    detail = driver.OUT_DIR / f"run-{workload}-trace{traced}.json"
    detail.unlink(missing_ok=True)
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(traced)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=900)
    sys.stderr.write(done.stderr)
    if not detail.exists():
        raise SystemExit(f"{workload} (trace {traced}) wrote no "
                         f"result, exit code {done.returncode}")
    return json.loads(detail.read_text())


def run_all(args: argparse.Namespace) -> dict:
    """Every workload, untraced then traced, each in a fresh process."""
    scale = "smoke" if args.smoke else "full"
    report = {"meta": meta(args.seed, args.seconds, scale),
              "correct": True, "workloads": {}}
    for workload in WORKLOAD_NAMES:
        untraced = _child(workload, args, 0)
        traced = _child(workload, args, 1)
        entry = {
            "correct": untraced["correct"] and traced["correct"],
            "attempted": untraced["attempted"] + traced["attempted"],
            "failed": untraced["failed"] + traced["failed"],
            "end_to_end": untraced["end_to_end"],
            "segment_spread": untraced["segment_spread"],
            "per_layer": traced["per_layer"],
        }
        print(f"== {workload}: {entry['attempted']} attempted, "
              f"{entry['failed']} failed")
        print(" end to end (untraced)")
        _print_metrics(entry["end_to_end"], entry["segment_spread"])
        print(" per layer (traced segment)")
        _print_metrics(entry["per_layer"], {})
        report["correct"] = report["correct"] and entry["correct"]
        report["workloads"][workload] = entry
    return report


def compare(first: dict, second: dict) -> list[str]:
    """End-to-end metrics that differ by more than their bound."""
    apart = []
    for workload in WORKLOAD_NAMES:
        for metric in metrics.END_TO_END:
            one = first["workloads"][workload]["end_to_end"][metric.name]
            two = second["workloads"][workload]["end_to_end"][metric.name]
            change = abs(metrics.worse_by(metric, one, two))
            verdict = "ok" if change <= metric.bound else "APART"
            print(f"  {workload:<10} {metric.name:<12} {one:>14.4f} "
                  f"{two:>14.4f} {change:>7.1%} "
                  f"(bound {metric.bound:.0%}) {verdict}")
            if change > metric.bound:
                apart.append(f"{workload}.{metric.name}")
    return apart


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the session path.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (the tier-1 smoke test)")
    parser.add_argument("--aa", action="store_true",
                        help="run everything twice and compare")
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(metrics.manifest(), indent=2) + "\n")
        return 0
    if args.workload:
        return run_one(args)
    report = run_all(args)
    apart = []
    if args.aa:
        second = run_all(args)
        print("== A/A: first run, second run, difference")
        apart = compare(report, second)
        report = {"first": report, "second": second, "apart": apart,
                  "correct": report["correct"] and second["correct"]}
    driver.OUT_DIR.mkdir(exist_ok=True)
    (driver.OUT_DIR / "report.json").write_text(
        json.dumps(report, indent=1))
    if not report["correct"]:
        print("FAILED: wrong answers or closure check", file=sys.stderr)
        return 1
    if apart:
        print(f"A/A FAILED: {', '.join(apart)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
