"""E4 -- Paper Figure 2: mixgraph timeline on NVMe.

The paper's figure plots, over the course of one mixgraph run, the
ops/sec of vanilla vs KML (Y1) and the readahead size KML selects (Y2),
showing startup fluctuation in the chosen readahead followed by a
steady ~2x throughput advantage.  This bench prints the same three
series, window by window.
"""

import numpy as np
import pytest

from common import VANILLA_RA, WINDOW_S, run_loop, write_result

from repro.readahead import ReadaheadAgent

SIM_SECONDS = 2.0


def run_timeline(deployable, tuning_table, use_agent):
    policy = (
        (lambda stack: ReadaheadAgent(
            stack, deployable, tuning_table, "nvme", smoothing=3
        ))
        if use_agent
        else None
    )
    result, agent = run_loop("nvme", "mixgraph", policy, SIM_SECONDS)
    return result, dict(agent.ra_timeline) if agent else {}


@pytest.mark.benchmark(group="fig2")
def test_fig2_mixgraph_timeline(benchmark, deployable, tuning_table):
    outcome = {}

    def run_both():
        outcome["vanilla"], _ = run_timeline(deployable, tuning_table, False)
        outcome["kml"], outcome["ra"] = run_timeline(
            deployable, tuning_table, True
        )
        return outcome

    benchmark.pedantic(run_both, rounds=1, iterations=1)

    vanilla, kml, ra = outcome["vanilla"], outcome["kml"], outcome["ra"]
    lines = [
        "Figure 2 reproduction: mixgraph on NVMe, per-window series",
        f"window = {WINDOW_S} simulated seconds (paper: 1 s)",
        f"{'t':>6s} {'vanilla ops/s':>14s} {'KML ops/s':>12s} {'KML ra':>7s}",
    ]
    v_by_t = dict(vanilla.timeline)
    for t, kml_rate in kml.timeline:
        lines.append(
            f"{t:>6.1f} {v_by_t.get(t, float('nan')):>14,.0f} "
            f"{kml_rate:>12,.0f} {ra.get(t, VANILLA_RA):>7d}"
        )
    ratio = kml.throughput / vanilla.throughput
    lines.append(
        f"\noverall: vanilla {vanilla.throughput:,.0f} ops/s, "
        f"KML {kml.throughput:,.0f} ops/s -> {ratio:.2f}x "
        "(paper: ~2.09x on their hardware)"
    )
    write_result("fig2_timeline.txt", "\n".join(lines))

    # Shape assertions.
    assert ratio > 1.3, f"KML must clearly win overall, got {ratio:.2f}x"
    # The readahead size must actually move (Figure 2 shows tuning
    # activity, including early fluctuation).
    assert len(set(ra.values())) >= 1
    assert any(value != VANILLA_RA for value in ra.values())
    # Steady state: late windows should beat vanilla's late windows.
    late_kml = np.mean([rate for t, rate in kml.timeline[-5:]])
    late_vanilla = np.mean([rate for t, rate in vanilla.timeline[-5:]])
    assert late_kml > late_vanilla
