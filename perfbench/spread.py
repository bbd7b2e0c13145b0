#!/usr/bin/env python3
"""Run one workload over several seeds and print each metric's spread.

    python3 perfbench/spread.py --workload mixgraph_kml --seeds 1 2 3 4 5

Each run is ``perfbench/run.py`` in a child process, one at a time.  For
every metric it prints the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, beside the metric's bound in ``BENCHMARK.json``.  A metric
is steady when that share stays below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    values = {}
    for seed in args.seeds:
        command = [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(proc.stdout[-3000:], proc.stderr[-3000:], sep="\n")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = ", ".join(f"{n}={m['value']:.6g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: {shown}", flush=True)

    if len(args.seeds) < 2:
        return 0
    for name, series in values.items():
        q1, _, q3 = statistics.quantiles(series, n=4)
        median = statistics.median(series)
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound:
            verdict = "steady" if spread < bound / 3 else "NOT steady"
        print(
            f"{name:<34} median {median:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
            f"spread {spread:7.2%}  bound {bound}  {verdict}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
