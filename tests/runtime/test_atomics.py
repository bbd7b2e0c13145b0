"""Tests for atomic primitives under real threads."""

import threading

from repro.runtime.atomics import AtomicInt


class TestAtomicInt:
    def test_load_store(self):
        atom = AtomicInt(5)
        assert atom.load() == 5
        atom.store(9)
        assert atom.load() == 9

    def test_fetch_add_returns_previous(self):
        atom = AtomicInt(10)
        assert atom.fetch_add(3) == 10
        assert atom.load() == 13

    def test_add_fetch_returns_new(self):
        atom = AtomicInt(10)
        assert atom.add_fetch(3) == 13

    def test_cas_success_and_failure(self):
        atom = AtomicInt(1)
        assert atom.compare_exchange(1, 2)
        assert atom.load() == 2
        assert not atom.compare_exchange(1, 3)
        assert atom.load() == 2

    def test_concurrent_increments_never_lost(self):
        atom = AtomicInt(0)
        n, threads = 10_000, 8

        def work():
            for _ in range(n):
                atom.fetch_add(1)

        workers = [threading.Thread(target=work) for _ in range(threads)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert atom.load() == n * threads

    def test_concurrent_cas_exactly_one_winner(self):
        atom = AtomicInt(0)
        winners = []

        def race(tid):
            if atom.compare_exchange(0, tid):
                winners.append(tid)

        workers = [threading.Thread(target=race, args=(i + 1,)) for i in range(16)]
        for w in workers:
            w.start()
        for w in workers:
            w.join()
        assert len(winners) == 1
        assert atom.load() == winners[0]
