"""A1 -- Ablation: sensitivity of the Table-2 effect to simulator knobs.

DESIGN.md documents one deliberate deviation from stock Linux (the
random-miss window scales with ra_pages) and two scale choices (cache
size, device models).  This ablation quantifies how the readrandom
vanilla-vs-best-ra gap depends on them, so a reader can judge how much
of the reproduced effect is substance vs parameterization.

Expected shapes:
  - the gap grows as the cache shrinks (more misses -> more waste);
  - the gap is larger on the SSD than on NVMe at every cache size;
  - with readahead disabled entirely (ra=0 via fadvise-RANDOM
    semantics), readrandom behaves like the small-ra configuration.
"""

import pytest

from common import MEMTABLE_BYTES, NUM_KEYS, SEED, VALUE_SIZE, write_result

from repro.workloads import load_stack, run_closed_loop


def throughput(device, cache_pages, ra, n_ops=4000):
    loaded = load_stack(
        device, NUM_KEYS, VALUE_SIZE, cache_pages,
        memtable_bytes=MEMTABLE_BYTES, seed=SEED, ra_pages=ra,
    )
    result, _ = run_closed_loop(loaded, "readrandom", ra_pages=ra, n_ops=n_ops)
    return result.throughput


@pytest.mark.benchmark(group="ablation")
def test_cache_size_sensitivity(benchmark):
    gaps = {}

    def run_all():
        for device in ("nvme", "ssd"):
            for cache_pages in (256, 1024, 4096):
                best = throughput(device, cache_pages, 8)
                vanilla = throughput(device, cache_pages, 128)
                gaps[(device, cache_pages)] = best / vanilla
        return gaps

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Ablation: readrandom best-ra/vanilla ratio vs page-cache size",
        f"{'device':6s} {'cache(pages)':>12s} {'ratio':>7s}",
    ]
    for (device, cache_pages), ratio in sorted(gaps.items()):
        lines.append(f"{device:6s} {cache_pages:>12d} {ratio:>6.2f}x")
    write_result("ablation_cache.txt", "\n".join(lines))

    for device in ("nvme", "ssd"):
        # Smaller cache -> bigger effect.
        assert gaps[(device, 256)] >= gaps[(device, 4096)] - 0.05
    for cache_pages in (256, 1024):
        assert gaps[("ssd", cache_pages)] > gaps[("nvme", cache_pages)]


@pytest.mark.benchmark(group="ablation")
def test_disabled_readahead_close_to_minimum(benchmark):
    outcome = {}

    def run_all():
        outcome["off"] = throughput("ssd", 512, 0)
        outcome["min"] = throughput("ssd", 512, 8)
        outcome["vanilla"] = throughput("ssd", 512, 128)
        return outcome

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    lines = [
        "Ablation: readrandom on SSD with readahead off / minimal / default",
        f"ra=0 (off)   : {outcome['off']:,.0f} ops/s",
        f"ra=8 (min)   : {outcome['min']:,.0f} ops/s",
        f"ra=128 (def) : {outcome['vanilla']:,.0f} ops/s",
    ]
    write_result("ablation_ra_off.txt", "\n".join(lines))

    assert outcome["off"] == pytest.approx(outcome["min"], rel=0.25)
    assert outcome["min"] > outcome["vanilla"]
