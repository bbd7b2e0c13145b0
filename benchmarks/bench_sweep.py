"""E1 -- The empirical study behind the design (paper section 4,
"Studying the problem"): 20 readahead sizes from 8 to 1024, multiple
workloads, two devices; build the workload -> best-readahead map.

Expected shape: no single readahead value wins everywhere; random
workloads peak at small values, sequential scans at mid/large values,
and the curves are non-linear with long tails.
"""

import numpy as np
import pytest

from common import write_result

from repro.readahead import PAPER_RA_VALUES, sweep_best_readahead

WORKLOADS = ("readseq", "readrandom", "readreverse", "readrandomwriterandom")


@pytest.mark.benchmark(group="sweep")
def test_readahead_sweep_best_value_map(benchmark):
    sweeps = {}

    def run_all():
        for device in ("nvme", "ssd"):
            _, result = sweep_best_readahead(
                device,
                WORKLOADS,
                ra_values=PAPER_RA_VALUES,
                num_keys=60_000,
                value_size=400,
                cache_pages=512,
                ops_per_point=2000,
            )
            sweeps[device] = result
        return sweeps

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Readahead sweep: throughput (ops/sim-sec) per readahead value",
        f"(20 values from {PAPER_RA_VALUES[0]} to {PAPER_RA_VALUES[-1]}, "
        "as in the paper)",
    ]
    best = {}
    for device, result in sweeps.items():
        lines.append(f"\n--- {device} ---")
        header = f"{'workload':24s}" + "".join(
            f"{ra:>8d}" for ra in PAPER_RA_VALUES
        )
        lines.append(header)
        for workload in WORKLOADS:
            runs = result.results[workload]
            row = f"{workload:24s}" + "".join(
                f"{runs[ra].throughput:>8,.0f}" for ra in PAPER_RA_VALUES
            )
            lines.append(row)
            best[(device, workload)] = result.best(workload)
        lines.append(
            "best: "
            + ", ".join(
                f"{w}={best[(device, w)]}" for w in WORKLOADS
            )
        )
    write_result("sweep.txt", "\n".join(lines))

    for device, result in sweeps.items():
        # Shape 1: the best value is workload-dependent (not constant).
        values = {best[(device, w)] for w in WORKLOADS}
        assert len(values) > 1, f"{device}: one ra won everywhere"
        # Shape 2: random reads prefer small windows...
        assert best[(device, "readrandom")] <= 32
        # ...and degrade badly at the top of the range.
        runs = result.results["readrandom"]
        best_run = runs[best[(device, "readrandom")]]
        assert best_run.throughput > 2.5 * runs[1024].throughput
        # Shape 3: sequential scans do NOT want the minimum on SSD.
        assert best[("ssd", "readseq")] > 8
