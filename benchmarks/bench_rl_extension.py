"""A2 -- Future-work extension: RL (bandit) tuner vs the classifier.

The paper's section 6 proposes moving from classification to
reinforcement learning so the model adapts to workloads outside its
training set.  This bench runs the UCB1 bandit from
``repro.readahead.rl`` against the deployed classifier on mixgraph
(never trained on) and on readrandom.

Expected shape: the bandit also beats vanilla (it needs no training
data at all), but pays an exploration tax early, so the classifier
wins on short runs.
"""

import pytest

from common import run_loop, run_pair, write_result

from repro.readahead import BanditReadaheadTuner

SIM_SECONDS = 2.0


def bandit_throughput(workload_name):
    result, tuner = run_loop(
        "nvme",
        workload_name,
        lambda stack: BanditReadaheadTuner(stack, arms=(8, 32, 128, 512)),
        SIM_SECONDS,
    )
    return result.throughput, tuner


@pytest.mark.benchmark(group="rl")
def test_bandit_vs_classifier(benchmark, deployable, tuning_table):
    outcome = {}

    def run_all():
        for workload in ("readrandom", "mixgraph"):
            pair = run_pair(
                "nvme", workload, deployable, tuning_table,
                sim_seconds=SIM_SECONDS,
            )
            bandit_rate, tuner = bandit_throughput(workload)
            outcome[workload] = (pair, bandit_rate, tuner)
        return outcome

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "RL extension: UCB1 bandit vs trained classifier (NVMe)",
        f"{'workload':12s} {'vanilla':>10s} {'classifier':>11s} "
        f"{'bandit':>10s} {'bandit best arm':>16s}",
    ]
    for workload, (pair, bandit_rate, tuner) in outcome.items():
        lines.append(
            f"{workload:12s} {pair.vanilla:>10,.0f} {pair.kml:>11,.0f} "
            f"{bandit_rate:>10,.0f} {tuner.best_arm:>16d}"
        )
    write_result("rl_extension.txt", "\n".join(lines))

    for workload, (pair, bandit_rate, tuner) in outcome.items():
        # The bandit needs no training data yet must beat vanilla...
        assert bandit_rate > pair.vanilla
        # ...and converge toward a small readahead for these workloads.
        assert tuner.best_arm <= 32
