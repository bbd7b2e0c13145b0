"""Tests for the bloom filter."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.minikv.bloom import BloomFilter


class TestBloom:
    def test_no_false_negatives(self):
        bloom = BloomFilter.for_capacity(1000)
        keys = [f"key-{i}".encode() for i in range(1000)]
        for key in keys:
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter.for_capacity(2000)
        for i in range(2000):
            bloom.add(f"member-{i}".encode())
        false_positives = sum(
            bloom.may_contain(f"absent-{i}".encode()) for i in range(10_000)
        )
        assert false_positives / 10_000 < 0.05  # ~1% expected, 5% margin

    def test_may_contain_agrees_with_probes(self):
        """The early-exit probe loop and its hash memo answer exactly
        what the full probe sequence does, across filter geometries."""
        rng = np.random.default_rng(5)
        blooms = [BloomFilter(n_bits, n_hashes) for n_bits, n_hashes in
                  ((64, 1), (1000, 3), (4099, 7), (65536, 16))]
        for bloom in blooms:
            for key in rng.integers(0, 20_000, size=bloom.n_bits // 8):
                bloom.add(b"key-%d" % key)
        for key in rng.integers(0, 20_000, size=10_000):
            key = b"key-%d" % key
            for bloom in blooms:  # the same key, probed table after table
                expected = all(
                    bloom._bits[bit >> 3] & (1 << (bit & 7))
                    for bit in bloom._probes(key)
                )
                assert bloom.may_contain(key) == expected

    def test_mutated_bytearray_key_is_rehashed(self):
        bloom = BloomFilter.for_capacity(100)
        bloom.add(b"present")
        key = bytearray(b"absent!")
        assert not bloom.may_contain(key)
        key[:] = b"present"
        assert bloom.may_contain(key)
        key[:] = b"absent!"
        assert not bloom.may_contain(key)

    def test_empty_filter_rejects(self):
        bloom = BloomFilter.for_capacity(100)
        assert not bloom.may_contain(b"anything")

    def test_serialization_round_trip(self):
        bloom = BloomFilter.for_capacity(500)
        keys = [f"k{i}".encode() for i in range(500)]
        for key in keys:
            bloom.add(key)
        clone = BloomFilter.from_bytes(bloom.to_bytes())
        assert clone.n_bits == bloom.n_bits
        assert clone.n_hashes == bloom.n_hashes
        assert clone.count == 500
        assert all(clone.may_contain(key) for key in keys)

    def test_from_bytes_validates(self):
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(b"short")
        bloom = BloomFilter(64, 3)
        raw = bloom.to_bytes()
        with pytest.raises(ValueError):
            BloomFilter.from_bytes(raw + b"extra")

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            BloomFilter(4, 3)
        with pytest.raises(ValueError):
            BloomFilter(64, 0)
        with pytest.raises(ValueError):
            BloomFilter(64, 17)

    @given(st.lists(st.binary(min_size=1, max_size=32), min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_property_added_keys_always_found(self, keys):
        bloom = BloomFilter.for_capacity(max(1, len(keys)))
        for key in keys:
            bloom.add(key)
        assert all(bloom.may_contain(key) for key in keys)
