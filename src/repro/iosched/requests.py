"""I/O request model and synthetic request streams.

The I/O-scheduler case study (paper future work, section 6) operates
below the page cache: individual block requests with arrival times,
positions, and sizes.  Streams here are synthetic equivalents of the
queue mixes the kernel block layer sees -- random reads, sequential
scans, background write bursts, and combinations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

__all__ = ["IORequest", "make_stream", "STREAM_KINDS"]

#: Device address space, in pages (per-position seek cost is relative).
ADDRESS_SPACE = 1 << 20
#: Mean request arrivals per second (Poisson).
ARRIVAL_RATE = 20_000.0


@dataclass
class IORequest:
    """One block-layer request."""

    request_id: int
    arrival: float          # seconds
    op: str                 # "read" | "write"
    sector: int             # position in [0, ADDRESS_SPACE)
    n_pages: int
    completion: float = field(default=0.0, compare=False)  # engine-filled

    @property
    def is_read(self) -> bool:
        return self.op == "read"

    @property
    def latency(self) -> float:
        return self.completion - self.arrival


STREAM_KINDS = ("random_read", "sequential_read", "write_burst", "mixed")


def make_stream(
    kind: str,
    n_requests: int,
    rng: np.random.Generator,
) -> List[IORequest]:
    """Generate a request stream of one of the canonical kinds.

    Requests arrive at ``ARRIVAL_RATE`` per second on average; the
    engine decides how fast they are actually served.
    """
    if kind not in STREAM_KINDS:
        raise ValueError(f"unknown stream kind {kind!r}")
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    gaps = rng.exponential(1.0 / ARRIVAL_RATE, size=n_requests)
    arrivals = np.cumsum(gaps)
    requests: List[IORequest] = []
    sequential_position = int(rng.integers(0, ADDRESS_SPACE // 2))
    for i in range(n_requests):
        if kind == "random_read":
            op, sector, pages = "read", int(rng.integers(0, ADDRESS_SPACE)), 1
        elif kind == "sequential_read":
            op = "read"
            sector = (sequential_position + 8 * i) % ADDRESS_SPACE
            pages = 8
        elif kind == "write_burst":
            # Bursty writer: clustered positions, larger requests.
            cluster = int(rng.integers(0, 32)) * (ADDRESS_SPACE // 32)
            op = "write"
            sector = cluster + int(rng.integers(0, ADDRESS_SPACE // 64))
            pages = int(rng.integers(8, 64))
        else:  # mixed: 70% random reads, 30% clustered writes
            if rng.random() < 0.7:
                op, sector, pages = "read", int(rng.integers(0, ADDRESS_SPACE)), 1
            else:
                cluster = int(rng.integers(0, 8)) * (ADDRESS_SPACE // 8)
                op = "write"
                sector = cluster + int(rng.integers(0, ADDRESS_SPACE // 32))
                pages = int(rng.integers(8, 32))
        requests.append(
            IORequest(
                request_id=i,
                arrival=float(arrivals[i]),
                op=op,
                sector=sector % ADDRESS_SPACE,
                n_pages=pages,
            )
        )
    return requests
