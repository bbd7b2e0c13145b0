#!/usr/bin/env python
"""Third use case: KML selecting I/O schedulers (paper future work §6).

Below the page cache sits the block layer, where the paper's future
work places its first next target: "I/O schedulers".  This example runs
the standalone request-queue simulator: three schedulers (noop,
deadline, elevator/C-SCAN), two device profiles (flash: seek-free;
disk: 8 ms full-stroke seek), four stream kinds — then trains the same
3-layer KML network on block-layer features to pick the winning
scheduler for whatever stream is running.

Run:  python examples/io_scheduling.py    (~10 seconds)
"""

import numpy as np

from repro.iosched import (
    SCHEDULER_NAMES,
    SchedulerSelector,
    disk_device,
    flash_device,
    make_stream,
    stream_features,
    sweep_schedulers,
)


def main():
    for device in (flash_device(), disk_device()):
        print(f"--- {device.name} ---")
        sweep = sweep_schedulers(device, n_requests=3000)
        for kind, per in sweep.results.items():
            cells = "  ".join(
                f"{name}={per[name].throughput:>8,.0f}" for name in SCHEDULER_NAMES
            )
            print(f"  {kind:16s} {cells}   -> {sweep.best(kind)}")

    print("\ntraining the KML scheduler selector on the disk profile ...")
    selector = SchedulerSelector(rng=np.random.default_rng(0))
    selector.fit_from_sweep(disk_device(), windows_per_kind=25, window=100)
    print(f"  held-out window accuracy: {selector.accuracy() * 100:.0f}%")
    print(f"  stream -> scheduler map : {selector.best_by_kind}")

    print("\nclassifying fresh request windows:")
    rng = np.random.default_rng(99)
    for kind in ("random_read", "sequential_read", "mixed"):
        window = make_stream(kind, 100, rng)
        features = stream_features(window)
        chosen = selector.select(window)
        print(
            f"  {kind:16s} features(readfrac={features[0]:.2f}, "
            f"seqdelta={features[3]:.3f}) -> {chosen}"
        )


if __name__ == "__main__":
    main()
