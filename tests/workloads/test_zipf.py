"""Tests for the Zipfian generator."""

import numpy as np
import pytest

from repro.workloads.zipf import ZipfGenerator


def draw(gen, count):
    return np.array([gen.sample() for _ in range(count)])


class TestZipf:
    def test_ranks_in_range(self):
        gen = ZipfGenerator(100, 0.99, np.random.default_rng(0))
        samples = draw(gen, 10_000)
        assert samples.min() >= 0 and samples.max() < 100

    def test_rank_zero_most_popular(self):
        gen = ZipfGenerator(1000, 1.0, np.random.default_rng(1))
        samples = draw(gen, 50_000)
        counts = np.bincount(samples, minlength=1000)
        assert counts[0] == counts.max()
        # Roughly 1/H_n of all mass on rank 0 for alpha=1.
        assert counts[0] / 50_000 > 0.08

    def test_alpha_zero_is_uniform(self):
        gen = ZipfGenerator(10, 0.0, np.random.default_rng(2))
        samples = draw(gen, 100_000)
        counts = np.bincount(samples, minlength=10) / 100_000
        np.testing.assert_allclose(counts, 0.1, atol=0.01)

    def test_probability_sums_to_one(self):
        gen = ZipfGenerator(50, 0.9, np.random.default_rng(3))
        total = sum(gen.probability(r) for r in range(50))
        assert total == pytest.approx(1.0)

    def test_probability_monotone_decreasing(self):
        gen = ZipfGenerator(20, 1.2, np.random.default_rng(4))
        probs = [gen.probability(r) for r in range(20)]
        assert probs == sorted(probs, reverse=True)

    def test_empirical_matches_theoretical(self):
        gen = ZipfGenerator(5, 1.0, np.random.default_rng(5))
        samples = draw(gen, 200_000)
        empirical = np.bincount(samples, minlength=5) / 200_000
        theoretical = [gen.probability(r) for r in range(5)]
        np.testing.assert_allclose(empirical, theoretical, atol=0.01)

    def test_single_scalar_sample(self):
        gen = ZipfGenerator(10, 1.0, np.random.default_rng(6))
        assert isinstance(gen.sample(), int)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            ZipfGenerator(0, 1.0, rng)
        with pytest.raises(ValueError):
            ZipfGenerator(10, -0.5, rng)
        gen = ZipfGenerator(10, 1.0, rng)
        with pytest.raises(IndexError):
            gen.probability(10)
