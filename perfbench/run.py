#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Without ``--workload`` the three workloads run in turn, each in a
child process of its own with one thread, so that ``peak_rss_mib`` is
that workload's own peak.  Every metric is printed by name and unit, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics named in ``BENCHMARK.json``, measured
untraced; ``--trace 1`` adds a traced pass of the same seed and reports
the per-layer metrics.  The exit code is 1 when a correctness check
failed and 2 when the repository sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("readrandom_collect", "mixgraph_kml", "kml_pipeline")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="seed of the generated inputs")
    parser.add_argument(
        "--seconds", type=float, default=10.0, help="approximate length of the timed phase"
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1), default=0,
        help="1: add a traced pass and report the per-layer metrics",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def run_one(name: str, seed: int, seconds: float, trace: bool):
    """Run one workload and return its ``Result``."""
    if name == "kml_pipeline":
        from perfbench import pipeline

        return pipeline.run(seed, seconds, trace)
    from perfbench import storage

    return storage.run(name, seed, seconds, trace)


def declared_metrics(trace: bool):
    """The metric list of ``BENCHMARK.json`` this pass reports."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def report(result, declared, trace: bool) -> dict:
    """Print one workload's metrics; return them in the JSON form."""
    print(f"{result.workload}  seed={result.seed}  ops={result.ops}  trace={int(trace)}")
    measured = result.per_layer if trace else result.end_to_end
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        note = ""
        if name in measured:
            value = measured[name]
        elif trace:
            value, note = 0, "  (not exercised by this workload)"
        else:
            raise KeyError(f"{result.workload} did not measure {name}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<32} {value:>14.6g} {unit}{note}")
    if not trace:
        for name, value, unit, note in result.extra:
            print(f"  {name:<32} {value:>14.6g} {unit}  ({note})")
    print(
        f"  {'error_rate':<32} {result.error_rate:>14.6g} ratio"
        f"  ({result.failed} of {result.attempted} checked ops and checks failed)"
    )
    for line in result.report:
        print(line)
    print(f"  digest sha256:{result.digest}")
    for message in result.messages:
        print(f"  FAILED: {message}")
    return metrics


def run_each(args) -> int:
    """Run every workload in a child process of its own, one at a time,
    so that each reports its own peak_rss_mib; print the children's
    reports and one JSON line over all of them."""
    attempted = failed = 0
    metrics = {}
    for name in WORKLOADS:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        try:
            child = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"perfbench: {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        print("\n".join(lines[:-1]), flush=True)
        attempted += child["attempted"]
        failed += child["failed"]
        metrics.update({f"{name}.{key}": value for key, value in child["metrics"].items()})
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    sources = os.path.join(ROOT, "src", "repro")
    if not os.path.isdir(sources):
        print(f"perfbench: {sources} is missing; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_each(args)
    for entry in (os.path.join(ROOT, "src"), ROOT):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    trace = bool(args.trace)
    result = run_one(args.workload, args.seed, args.seconds, trace)
    metrics = report(result, declared_metrics(trace), trace)
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
