"""mixgraph: the "complex, never-seen" evaluation workload.

Models Facebook's production RocksDB traffic as characterized by Cao et
al. (FAST '20), the workload the paper cites for its hardest test case:

- operation mix dominated by gets with some puts and short range scans
  (ratios from the paper's ZippyDB characterization: ~83/14/3);
- key popularity follows a power law (hot keys dominate), realized by a
  Zipfian rank distribution composed with a pseudo-random permutation
  of the key space so hot keys are scattered, not clustered;
- value sizes follow a (generalized) Pareto distribution;
- scan lengths follow a power law.

The result interleaves cache-friendly hot-key reads, scattered cold
reads, bursts of sequential block accesses from scans, and write
traffic -- the access-pattern cocktail that confuses fixed readahead
heuristics.
"""

from __future__ import annotations

import numpy as np

from .base import Workload, make_key, make_value
from .zipf import ZipfGenerator

__all__ = ["MixGraph"]

#: The mix above: get and put shares (the rest are scans), the key
#: popularity's Zipf skew, the value sizes' Pareto shape, longest scan.
GET_RATIO = 0.83
PUT_RATIO = 0.14
ZIPF_ALPHA = 0.9
PARETO_SHAPE = 2.0
MAX_SCAN_LEN = 128


class MixGraph(Workload):
    """Facebook-style mixed get/put/seek workload."""

    name = "mixgraph"

    def bind(self, db, rng):
        super().bind(db, rng)
        self._zipf = ZipfGenerator(self.num_keys, ZIPF_ALPHA, rng)
        # Affine permutation scatters popular ranks across the keyspace
        # (multiplier coprime with num_keys guarantees a bijection).
        self._multiplier = self._coprime_multiplier(self.num_keys)
        self._offset = int(rng.integers(0, self.num_keys))

    @staticmethod
    def _coprime_multiplier(n: int) -> int:
        candidate = max(3, int(n * 0.61803) | 1)  # odd, near golden ratio
        while np.gcd(candidate, n) != 1:
            candidate += 2
        return candidate

    def _sample_key_index(self) -> int:
        rank = self._zipf.sample()
        return (rank * self._multiplier + self._offset) % self.num_keys

    def _sample_value_size(self) -> int:
        # Pareto with xm scaled so the mean is ~value_size.
        shape = PARETO_SHAPE
        xm = self.value_size * (shape - 1.0) / shape
        size = int(xm * (1.0 + self.rng.pareto(shape)))
        return max(16, min(size, self.value_size * 20))

    def _sample_scan_length(self) -> int:
        length = int(1.0 + self.rng.pareto(1.5))
        return max(1, min(length, MAX_SCAN_LEN))

    def step(self) -> None:
        roll = self.rng.random()
        if roll < GET_RATIO:
            self.db.get(make_key(self._sample_key_index()))
        elif roll < GET_RATIO + PUT_RATIO:
            self.db.put(
                make_key(self._sample_key_index()),
                make_value(self.rng, self._sample_value_size()),
            )
        else:
            # Short range scan: seek to a sampled key, iterate `length`.
            length = self._sample_scan_length()
            iterator = self.db.scan(make_key(self._sample_key_index()))
            for _ in range(length):
                try:
                    next(iterator)
                except StopIteration:
                    break
