"""Tests for the bloom filter.

``from_keys`` is the one build path; :func:`reference_bits` is the
key-by-key FNV-1a/CRC32 double hashing it must match bit for bit.
``STRESS=1`` (set by ``make check``) runs many more examples.
"""

import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.minikv import bloom as bloom_module
from repro.minikv.bloom import BloomFilter, _fnv1a

from ..conftest import STRESS

EXAMPLES = 1000 if STRESS else 100


def reference_probes(key, n_bits, n_hashes):
    """The probe positions of ``key``, one at a time in plain Python."""
    h1 = 0x811C9DC5
    for byte in key:
        h1 = ((h1 ^ byte) * 0x01000193) & 0xFFFFFFFF
    h2 = zlib.crc32(key) & 0xFFFFFFFF
    if h2 % n_bits == 0:
        h2 += 1
    return [(h1 + i * h2) % n_bits for i in range(n_hashes)]


def reference_answer(bloom, key):
    """``may_contain`` as the full probe sequence answers it."""
    return all(
        bloom._bits[bit >> 3] & (1 << (bit & 7))
        for bit in reference_probes(bytes(key), bloom.n_bits, bloom.n_hashes)
    )


def reference_bits(keys, n_bits, n_hashes):
    bits = bytearray((n_bits + 7) // 8)
    for key in keys:
        for bit in reference_probes(key, n_bits, n_hashes):
            bits[bit >> 3] |= 1 << (bit & 7)
    return bits


class TestBloom:
    def test_no_false_negatives(self):
        keys = [f"key-{i}".encode() for i in range(1000)]
        bloom = BloomFilter.from_keys(keys)
        assert all(bloom.may_contain(key) for key in keys)

    def test_false_positive_rate_reasonable(self):
        bloom = BloomFilter.from_keys([f"member-{i}".encode() for i in range(2000)])
        false_positives = sum(
            bloom.may_contain(f"absent-{i}".encode()) for i in range(10_000)
        )
        assert false_positives / 10_000 < 0.05  # ~1% expected, 5% margin

    def test_may_contain_agrees_with_probes(self):
        """The early-exit probe loop and its hash memo answer exactly
        what the full probe sequence does, across filter geometries."""
        rng = np.random.default_rng(5)
        blooms = [
            BloomFilter.from_keys([b"key-%d" % key for key in rng.integers(0, 20_000, size=n)])
            for n in (1, 100, 2000)
        ]
        for n_bits, n_hashes in ((64, 1), (1000, 3), (4099, 7), (65536, 16)):
            bloom = BloomFilter(n_bits, n_hashes)  # half the bits set
            bloom._bits = bytearray(rng.integers(0, 256, size=len(bloom._bits), dtype=np.uint8))
            blooms.append(bloom)
        for key in rng.integers(0, 20_000, size=10_000):
            key = b"key-%d" % key
            for bloom in blooms:  # the same key, probed table after table
                assert bloom.may_contain(key) == reference_answer(bloom, key)

    def test_mutated_bytearray_key_is_rehashed(self):
        bloom = BloomFilter.from_keys([b"present"])
        key = bytearray(b"absent!")
        assert not bloom.may_contain(key)
        key[:] = b"present"
        assert bloom.may_contain(key)
        key[:] = b"absent!"
        assert not bloom.may_contain(key)

    def test_empty_filter_rejects(self):
        bloom = BloomFilter.from_keys([])
        assert not bloom.may_contain(b"anything")

    def test_serialization_round_trip(self):
        keys = [f"k{i}".encode() for i in range(500)]
        bloom = BloomFilter.from_keys(keys)
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
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_property_added_keys_always_found(self, keys):
        bloom = BloomFilter.from_keys(keys)
        assert all(bloom.may_contain(key) for key in keys)

    @given(
        st.lists(
            st.one_of(st.just(b""), st.binary(min_size=1, max_size=40)),
            max_size=60,
        ).flatmap(
            # duplicates: some keys drawn again from the list itself
            lambda keys: st.lists(st.sampled_from(keys), max_size=10).map(
                lambda again: keys + again
            ) if keys else st.just(keys)
        )
    )
    @example([])
    @example([b""])
    @example([b"one"])
    @example([b"dup", b"", b"dup", b""])
    @example([b"37"])  # crc32 % 64 == 0: the stride is bumped to 1
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_from_keys_matches_key_by_key_build(self, keys):
        """Zero keys, one key, the empty key, 1-40 bytes and duplicates:
        the vectorised build serializes to the key-by-key bytes."""
        n_bits = max(64, 10 * len(keys))
        expected = (
            (n_bits).to_bytes(4, "little")
            + len(keys).to_bytes(4, "little")
            + bytes([7])
            + bytes(reference_bits(keys, n_bits, 7))
        )
        bloom = BloomFilter.from_keys(keys)
        assert bloom.to_bytes() == expected
        assert all(bloom.may_contain(key) for key in keys)


def half_set_filters(seed):
    """Filters of several geometries with about half their bits set."""
    rng = np.random.default_rng(seed)
    blooms = []
    for n_bits, n_hashes in ((64, 1), (1000, 3), (4099, 7), (65536, 16)):
        bloom = BloomFilter(n_bits, n_hashes)
        bloom._bits = bytearray(rng.integers(0, 256, size=len(bloom._bits), dtype=np.uint8))
        blooms.append(bloom)
    return blooms


def h1_of(key):
    """The FNV-1a hash ``may_contain`` starts its probes from.

    A one-hash filter probes only bit ``h1 % n_bits``.  Filters of 2**16
    and 2**16 + 1 bits, each with that bit alone set (or alone clear),
    pin ``h1`` modulo both; their product exceeds 2**32, so that pins
    the whole 32-bit ``h1`` (Chinese remainder theorem).
    """
    expected = _fnv1a(bytes(key))
    for n_bits in (1 << 16, (1 << 16) + 1):
        bit = expected % n_bits
        only = BloomFilter(n_bits, 1)
        only._bits[bit >> 3] |= 1 << (bit & 7)
        all_but = BloomFilter(n_bits, 1)
        all_but._bits = bytearray(b"\xff" * len(all_but._bits))
        all_but._bits[bit >> 3] &= ~(1 << (bit & 7)) & 0xFF
        if not only.may_contain(key) or all_but.may_contain(key):
            return None
    return expected


#: Keys of 0-24 bytes: unrelated ones, and db_bench-like families that
#: share everything but a numeric tail.
KEYS = st.one_of(
    st.binary(max_size=24),
    st.builds(
        lambda stem, index, width: stem + b"%0*d" % (width, index),
        st.sampled_from([b"", b"u", b"user", b"user00000001", b"key-"]),
        st.integers(0, 10**6),
        st.integers(1, 12),
    ).map(lambda key: key[:24]),
)


class TestPrefixMemo:
    """``may_contain`` takes FNV-1a of all but a key's last 4 bytes from
    a module-level memo; a pure cache, so no answer may change."""

    @given(st.lists(KEYS, min_size=1, max_size=40), st.integers(0, 2**32 - 1))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_answers_and_h1_match_the_reference(self, keys, seed):
        blooms = half_set_filters(seed)
        for key in keys + keys[::-1]:  # every prefix seen both cold and warm
            assert h1_of(key) == _fnv1a(key)
            for bloom in blooms:
                assert bloom.may_contain(key) == reference_answer(bloom, key)

    @given(st.lists(st.tuples(KEYS, KEYS), min_size=1, max_size=20))
    @settings(max_examples=EXAMPLES, deadline=None)
    def test_bytearray_mutated_between_calls(self, pairs):
        bloom = half_set_filters(3)[2]
        for first, second in pairs:
            key = bytearray(first)
            assert h1_of(key) == _fnv1a(first)
            assert bloom.may_contain(key) == reference_answer(bloom, first)
            key[:] = second  # the memo must not answer for the old bytes
            assert h1_of(key) == _fnv1a(second)
            assert bloom.may_contain(key) == reference_answer(bloom, second)
            assert all(type(prefix) is bytes for prefix in bloom_module._prefix_memo)

    def test_memo_keeps_prefix_states(self):
        bloom = BloomFilter.from_keys([b"user000000000001"])
        bloom.may_contain(b"user000000012345")
        assert bloom_module._prefix_memo[b"user00000001"] == _fnv1a(b"user00000001")
        bloom.may_contain(b"ab")  # shorter than the tail: the prefix is empty
        assert bloom_module._prefix_memo[b""] == _fnv1a(b"")

    def test_memo_stays_within_its_cap(self):
        cap = bloom_module._PREFIX_MEMO_CAP
        bloom = half_set_filters(4)[1]
        for index in range(10_000):
            key = b"p%07d" % index + b"tail"
            assert bloom.may_contain(key) == reference_answer(bloom, key)
            assert len(bloom_module._prefix_memo) <= cap
        assert bloom_module._prefix_memo[b"p0009999"] == _fnv1a(b"p0009999")
