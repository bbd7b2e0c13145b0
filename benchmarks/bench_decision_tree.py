"""E6 -- The decision-tree readahead model (paper section 4).

"The readahead decision-tree model improved performance for SSD 55%
and NVMe 26% on average" -- smaller gains than the neural network's
82.5%/37.3%, which is why the paper presents the NN as superior.

This bench trains the CART variant on the same data, runs the same
vanilla-vs-tuned comparison on the random-dominated workloads, and
checks the ordering: tree gains positive but at or below the NN's.
"""

import numpy as np
import pytest

from common import run_pair, write_result

from repro.readahead import build_tree

WORKLOADS = ("readrandom", "readrandomwriterandom", "updaterandom", "mixgraph")


@pytest.mark.benchmark(group="decision-tree")
def test_decision_tree_variant(benchmark, training_dataset, deployable,
                               tuning_table):
    results = {}

    def run_all():
        tree = build_tree().fit(training_dataset.x, training_dataset.y)
        for device in ("nvme", "ssd"):
            for workload in WORKLOADS:
                results[("tree", workload, device)] = run_pair(
                    device, workload, tree, tuning_table, sim_seconds=1.5
                )
                results[("nn", workload, device)] = run_pair(
                    device, workload, deployable, tuning_table, sim_seconds=1.5
                )
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Decision-tree vs neural-network readahead models",
        f"{'workload':24s} {'device':6s} {'tree':>7s} {'NN':>7s}",
    ]
    means = {"tree": {"nvme": [], "ssd": []}, "nn": {"nvme": [], "ssd": []}}
    for workload in WORKLOADS:
        for device in ("nvme", "ssd"):
            tree_r = results[("tree", workload, device)].ratio
            nn_r = results[("nn", workload, device)].ratio
            means["tree"][device].append(tree_r)
            means["nn"][device].append(nn_r)
            lines.append(
                f"{workload:24s} {device:6s} {tree_r:>6.2f}x {nn_r:>6.2f}x"
            )
    for device in ("nvme", "ssd"):
        tree_mean = np.mean(means["tree"][device])
        nn_mean = np.mean(means["nn"][device])
        paper_tree = {"nvme": 1.26, "ssd": 1.55}[device]
        lines.append(
            f"average {device}: tree {tree_mean:.2f}x "
            f"(paper {paper_tree:.2f}x), NN {nn_mean:.2f}x"
        )
    write_result("decision_tree.txt", "\n".join(lines))

    # Shape: the tree helps on both devices...
    for device in ("nvme", "ssd"):
        assert np.mean(means["tree"][device]) > 1.05
    # ...but does not beat the NN by a meaningful margin.
    assert np.mean(means["nn"]["ssd"]) >= np.mean(means["tree"]["ssd"]) - 0.15
