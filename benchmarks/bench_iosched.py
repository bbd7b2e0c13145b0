"""A4 -- Third use case: KML selecting I/O schedulers (§6 future work).

"We plan to apply KML to other storage subsystems: e.g., I/O
schedulers."  This bench runs the block-layer request simulator: sweep
noop/deadline/elevator across stream kinds on flash and disk device
profiles, train the KML classifier on block-layer features, and verify
it selects the winning scheduler per stream.

Expected shapes: the scheduler is immaterial on flash (no positional
cost); on disk the elevator multiplies random/mixed throughput and the
classifier picks it; sequential streams are scheduler-neutral.
"""

import numpy as np
import pytest

from common import write_result

from repro.iosched import (
    SCHEDULER_NAMES,
    SchedulerSelector,
    disk_device,
    flash_device,
    make_stream,
    sweep_schedulers,
)


@pytest.mark.benchmark(group="iosched")
def test_scheduler_selection(benchmark):
    outcome = {}

    def run_all():
        outcome["flash"] = sweep_schedulers(flash_device(), n_requests=3000)
        outcome["disk"] = sweep_schedulers(disk_device(), n_requests=3000)
        selector = SchedulerSelector(rng=np.random.default_rng(0))
        selector.fit_from_sweep(disk_device(), windows_per_kind=25, window=100)
        outcome["selector"] = selector
        outcome["accuracy"] = selector.accuracy(windows_per_kind=8, window=100)
        return outcome

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = ["I/O scheduler sweep (throughput in requests/sim-sec)"]
    for device_name in ("flash", "disk"):
        lines.append(f"\n--- {device_name} ---")
        header = f"{'stream':18s}" + "".join(
            f"{n:>12s}" for n in SCHEDULER_NAMES
        ) + "   best"
        lines.append(header)
        sweep = outcome[device_name]
        for kind, per in sweep.results.items():
            row = f"{kind:18s}" + "".join(
                f"{per[n].throughput:>12,.0f}" for n in SCHEDULER_NAMES
            )
            lines.append(row + f"   {sweep.best(kind)}")
    selector = outcome["selector"]
    lines.append(
        f"\nclassifier accuracy on held-out windows: {outcome['accuracy']*100:.0f}%"
    )
    lines.append(f"stream -> scheduler map: {selector.best_by_kind}")
    write_result("iosched.txt", "\n".join(lines))

    disk = outcome["disk"]
    for kind in ("random_read", "mixed"):
        tput = {n: disk.results[kind][n].throughput for n in SCHEDULER_NAMES}
        assert disk.best(kind) == "elevator"
        assert tput["elevator"] > 2 * tput["noop"]
    flash = outcome["flash"]
    for kind, per in flash.results.items():
        tputs = [r.throughput for r in per.values()]
        assert max(tputs) < 1.05 * min(tputs)  # immaterial on flash
    assert outcome["accuracy"] > 0.85
    # The classifier's end-to-end selection picks the winner.
    rng = np.random.default_rng(5)
    assert selector.select(make_stream("random_read", 100, rng)) == "elevator"
