"""Hot-swap atomicity under load: the model registry's core guarantee.

Every published model is a *constant* network: version ``v`` outputs
``[v, v, v]`` for any input.  That choice makes the two failure modes
of a non-atomic swap directly observable:

- a **torn read** (weights from one version, bias from another) breaks
  the all-equal property of the output row;
- a **version mix-up** (a row attributed to a version that did not
  produce it) breaks ``output == float(snapshot.version)``.

Clients infer the way every in-repo caller does: resolve
``registry.active()`` once, then run ``snapshot.predict`` on it, with
no lock and no intermediary.

Version diversity is guaranteed by construction, not by timing: the
swapper waits for the first response (served by the initially-active
v1) before its first swap, and each client activates a distinct
version at its halfway point -- so every run provably serves at least
two versions mid-traffic, while a free-running swapper thread churns
activations among the rest.

The quick slice runs on every tier-1 test run; the ``stress``
variant scales up clients and swaps and adds concurrent publishes
(enabled by ``STRESS=1`` via ``make check``).
"""

import itertools
import sys
import threading
import time

import numpy as np
import pytest

from .conftest import constant_model


def run_swap_storm(registry, *, versions, clients, requests_per_client,
                   swaps, publish_concurrently=False):
    """Drive inference from ``clients`` threads while activations churn.

    Returns (violations, responses, served_versions).
    """
    assert versions >= clients + 1
    for v in range(1, versions + 1):
        registry.publish(constant_model(float(v)))
    registry.activate(1)

    violations = []
    responses = []
    lock = threading.Lock()
    start = threading.Barrier(clients + 1)
    clients_done = threading.Event()

    def record(version, row):
        with lock:
            # Atomicity: the row came from exactly one complete model.
            if not np.all(row == row[0]):
                violations.append(f"torn read: {row!r}")
            elif float(row[0]) != float(version):
                violations.append(
                    f"version mix-up: output {row[0]!r} attributed to "
                    f"v{version}"
                )
            responses.append(version)

    def client(index):
        rng = np.random.default_rng(index)
        start.wait(timeout=10)
        for i in range(requests_per_client):
            if i == requests_per_client // 2:
                # Mid-stream activation from inside a serving client:
                # this client's remaining requests all resolve the
                # active snapshot after a version >= 2 became active,
                # and no code path ever re-activates v1, so at least
                # one of them is served by a later version --
                # deterministically.
                registry.activate(2 + index)
            snapshot = registry.active()
            row = snapshot.predict(rng.normal(size=(1, 4)))[0]
            record(snapshot.version, row)

    def swapper():
        start.wait(timeout=10)
        # Let v1 serve at least one response before the first swap, so
        # the initial version provably appears in the served set.
        while not clients_done.is_set():
            with lock:
                if responses:
                    break
            time.sleep(0.0005)
        cycle = itertools.cycle(range(2, versions + 1))
        for _ in range(swaps):
            if clients_done.is_set():
                break
            registry.activate(next(cycle))
            # Pace against traffic so the churn interleaves with
            # serving instead of outrunning it.
            with lock:
                target = len(responses) + clients
            while not clients_done.is_set():
                with lock:
                    if len(responses) >= target:
                        break
                time.sleep(0.0005)

    def publisher():
        while not clients_done.is_set():
            registry.publish(constant_model(float(registry.versions()[-1] + 1)))

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(clients)]
    threads.append(threading.Thread(target=swapper))
    if publish_concurrently:
        threads.append(threading.Thread(target=publisher))
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-predict too
    try:
        for thread in threads:
            thread.start()
        for thread in threads[:clients]:
            thread.join(60)
        clients_done.set()
        for thread in threads[clients:]:
            thread.join(60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    return violations, responses, set(responses)


class TestHotSwapAtomicity:
    def test_quick_swap_storm(self, registry):
        """Tier-1 slice: enough churn to catch a torn swap, fast."""
        violations, responses, served = run_swap_storm(
            registry, versions=5, clients=3, requests_per_client=60,
            swaps=30,
        )
        assert not violations, violations[:5]
        # Every request produced a response.
        assert len(responses) == 3 * 60
        # Swaps landed mid-traffic: v1 served first, later versions after.
        assert 1 in served
        assert any(v >= 2 for v in served), sorted(served)

    @pytest.mark.stress
    def test_long_swap_storm_with_concurrent_publishes(self, registry):
        violations, responses, served = run_swap_storm(
            registry, versions=8, clients=6, requests_per_client=400,
            swaps=300, publish_concurrently=True,
        )
        assert not violations, violations[:5]
        assert len(responses) == 6 * 400
        assert 1 in served and any(v >= 2 for v in served)
