"""Tests for memory accounting and reservation."""

import numpy as np
import pytest

from repro.kml import Linear, Sequential
from repro.kml.matrix import Matrix
from repro.readahead.model import build_network
from repro.runtime.memory import KmlMemoryError, MemoryAccountant


class TestAccounting:
    def test_allocate_and_free(self):
        acc = MemoryAccountant()
        allocation = acc.allocate(100)
        assert acc.in_use == 100
        allocation.free()
        assert acc.in_use == 0

    def test_peak_tracks_high_water(self):
        acc = MemoryAccountant()
        a = acc.allocate(100)
        b = acc.allocate(50)
        a.free()
        acc.allocate(10)
        assert acc.peak == 150
        assert acc.in_use == 60
        b.free()

    def test_double_free_rejected(self):
        acc = MemoryAccountant()
        allocation = acc.allocate(8)
        allocation.free()
        with pytest.raises(KmlMemoryError, match="double free"):
            allocation.free()

    def test_buffer_is_zeroed_and_sized(self):
        allocation = MemoryAccountant().allocate(16)
        assert len(allocation.buffer) == 16
        assert bytes(allocation.buffer) == b"\x00" * 16

    def test_counters(self):
        acc = MemoryAccountant()
        acc.allocate(10).free()
        acc.allocate(20)
        stats = acc.stats()
        assert stats["total_allocated"] == 30
        assert stats["allocation_count"] == 2
        assert stats["in_use"] == 20

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccountant().allocate(-1)


class TestReservation:
    def test_over_reservation_fails_fast(self):
        acc = MemoryAccountant(reservation=100)
        acc.allocate(80)
        with pytest.raises(KmlMemoryError, match="reservation"):
            acc.allocate(21)
        assert acc.failed_allocations == 1

    def test_exact_fit_allowed(self):
        acc = MemoryAccountant(reservation=100)
        acc.allocate(100)
        assert acc.in_use == 100

    def test_free_restores_budget(self):
        acc = MemoryAccountant(reservation=100)
        a = acc.allocate(100)
        a.free()
        acc.allocate(100)  # must not raise

    def test_no_reservation_means_unbounded(self):
        acc = MemoryAccountant()
        acc.allocate(10**9)  # fine: accounting only

    def test_negative_reservation_rejected(self):
        with pytest.raises(ValueError):
            MemoryAccountant(reservation=-1)


class TestMatrixObservation:
    def test_observer_counts_matrix_traffic(self):
        acc = MemoryAccountant()
        with acc:
            Matrix.zeros(10, 10, dtype="float32")
            Matrix.zeros(10, 10, dtype="float64")
        # at least data buffers: 400 + 800 (grad buffers not created here)
        assert acc.total_allocated >= 1200
        # After the with-block, traffic stops being counted.
        before = acc.total_allocated
        Matrix.zeros(10, 10)
        assert acc.total_allocated == before

    def test_observed_traffic_leaves_in_use_zero(self):
        acc = MemoryAccountant()
        with acc:
            Matrix.zeros(5, 5)
        assert acc.in_use == 0

    def test_single_row_inference_traffic(self):
        """The E5 "transient inference memory" row, allocation by allocation.

        A fused z-score ``Linear(5, 5)`` in front of the readahead network;
        one float32 row allocates its input and, per Linear, one result
        (the bias is added into the matmul result in place), per Sigmoid
        one output: 7 buffers, 440 bytes.
        """
        acc = _single_row_inference_traffic("float32")
        assert acc.total_allocated == 440
        assert acc.allocation_count == 7

    def test_single_row_inference_traffic_fixed32(self):
        """11 buffers and 748 bytes in fixed32 (int32 is 4 bytes).

        Each Linear keeps two buffers.  The z-score layer and fc1 read
        unbounded inputs, so they run the saturating kernels: an int32
        matmul result beside the sum.  fc2 and fc3 read sigmoids, whose
        bound their weights clear, so neither int32 clamp can bind: they
        keep the int64 sum they narrow to int32.  The sigmoid lookup
        table is shared by the process and built outside any model, so
        it is not a per-model allocation.
        """
        acc = _single_row_inference_traffic("fixed32")
        assert acc.total_allocated == 748
        assert acc.allocation_count == 11


def _single_row_inference_traffic(dtype: str) -> MemoryAccountant:
    """Account one single-row ``predict_classes`` through a fused
    z-score ``Linear(5, 5)`` and the readahead network in ``dtype``."""
    network = build_network(dtype=dtype, rng=np.random.default_rng(0))
    fused = Linear(5, 5, dtype=dtype, rng=np.random.default_rng(1))
    model = Sequential([fused] + network.layers)
    features = np.array([[30_000.0, 950.0, 830.0, 70.0, 128.0]])
    acc = MemoryAccountant()
    with acc:
        model.predict_classes(features)
    return acc
