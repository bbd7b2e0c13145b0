"""Tests for the VFS, block layer, and readahead plumbing."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.os_sim import make_stack
from repro.os_sim.clock import SimClock
from repro.os_sim.page_cache import PageCache
from repro.os_sim.stack import StorageStack
from repro.os_sim.device import PAGE_SIZE, DeviceModel, nvme_ssd
from repro.os_sim.tracepoints import TracepointRegistry


@pytest.fixture
def stack():
    return make_stack("nvme", cache_pages=256, ra_pages=64)


class TestNamespace:
    def test_create_open_exists(self, stack):
        stack.fs.create("a")
        assert stack.fs.exists("a")
        handle = stack.fs.open("a")
        assert handle.inode.name == "a"

    def test_create_duplicate_rejected(self, stack):
        stack.fs.create("a")
        with pytest.raises(FileExistsError):
            stack.fs.create("a")

    def test_open_missing_rejected(self, stack):
        with pytest.raises(FileNotFoundError):
            stack.fs.open("nope")

    def test_open_create_flag(self, stack):
        handle = stack.fs.open("x", create=True)
        assert stack.fs.exists("x")

    def test_unlink_invalidates_cache(self, stack):
        f = stack.fs.open("a", create=True)
        stack.fs.write(f, 0, b"z" * PAGE_SIZE)
        stack.fs.unlink("a")
        assert not stack.fs.exists("a")
        assert len(stack.cache) == 0

    def test_rename_moves_inode(self, stack):
        f = stack.fs.open("a", create=True)
        stack.fs.write(f, 0, b"payload")
        stack.fs.rename("a", "b")
        assert not stack.fs.exists("a")
        assert stack.fs.exists("b")
        handle = stack.fs.open("b")
        assert handle.inode.name == "b"
        assert stack.fs.read(handle, 0, 7) == b"payload"

    def test_rename_replaces_destination(self, stack):
        src = stack.fs.open("src", create=True)
        stack.fs.write(src, 0, b"new")
        dst = stack.fs.open("dst", create=True)
        stack.fs.write(dst, 0, b"z" * PAGE_SIZE)
        stack.fs.rename("src", "dst")
        assert not stack.fs.exists("src")
        handle = stack.fs.open("dst")
        assert stack.fs.read(handle, 0, 3) == b"new"
        # The replaced inode's cached pages must be gone.
        assert (dst.inode.ino, 0) not in stack.cache

    def test_rename_missing_source_rejected(self, stack):
        with pytest.raises(FileNotFoundError):
            stack.fs.rename("ghost", "x")

    def test_rename_onto_itself_is_noop(self, stack):
        f = stack.fs.open("a", create=True)
        stack.fs.write(f, 0, b"keep")
        stack.fs.rename("a", "a")
        assert stack.fs.read(stack.fs.open("a"), 0, 4) == b"keep"

    def test_unlink_missing(self, stack):
        with pytest.raises(FileNotFoundError):
            stack.fs.unlink("ghost")

    def test_list_files_sorted(self, stack):
        for name in ("c", "a", "b"):
            stack.fs.create(name)
        assert stack.fs.list_files() == ["a", "b", "c"]


class TestDataPath:
    def test_write_then_read_round_trip(self, stack):
        f = stack.fs.open("data", create=True)
        payload = bytes(range(256)) * 32  # 8 KiB
        stack.fs.write(f, 100, payload)
        assert stack.fs.read(f, 100, len(payload)) == payload

    def test_write_extends_inode(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.write(f, PAGE_SIZE * 2, b"x")
        assert f.inode.size == PAGE_SIZE * 2 + 1
        assert f.inode.size_pages == 3

    def test_read_past_eof_truncated(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.write(f, 0, b"abc")
        assert stack.fs.read(f, 0, 100) == b"abc"
        assert stack.fs.read(f, 50, 10) == b""

    def test_read_charges_simulated_time(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.write(f, 0, b"x" * PAGE_SIZE * 4)
        stack.drop_caches()
        before = stack.now
        stack.fs.read(f, 0, PAGE_SIZE)
        assert stack.now > before

    def test_cached_read_is_free(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.write(f, 0, b"x" * PAGE_SIZE)
        stack.fs.read(f, 0, 16)
        before = stack.now
        stack.fs.read(f, 0, 16)
        assert stack.now == before

    def test_append_and_sequential_read(self, stack):
        f = stack.fs.open("log", create=True)
        stack.fs.append(f, b"aa")
        stack.fs.append(f, b"bb")
        assert f.inode.data == bytearray(b"aabb")
        reader = stack.fs.open("log")
        assert stack.fs.read(reader, reader.pos, 2) == b"aa"
        assert stack.fs.read(reader, reader.pos, 2) == b"bb"

    def test_closed_file_rejected(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.close(f)
        with pytest.raises(ValueError):
            stack.fs.read(f, 0, 1)

    def test_negative_offset_rejected(self, stack):
        f = stack.fs.open("data", create=True)
        with pytest.raises(ValueError):
            stack.fs.read(f, -1, 4)
        with pytest.raises(ValueError):
            stack.fs.write(f, -1, b"x")

    def test_fsync_drains_dirty_pages(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.write(f, 0, b"x" * PAGE_SIZE * 3)
        stack.fs.fsync(f)
        assert stack.cache.dirty_pages == 0


#: One write as (where, distance, length): at EOF, ``distance`` bytes
#: back from EOF (an overwrite, which may run past it), or ``distance``
#: bytes past EOF (a gap).  Lengths up to three pages straddle pages.
writes = st.lists(
    st.tuples(
        st.sampled_from(["eof", "inside", "gap"]),
        st.integers(0, 3 * PAGE_SIZE),
        st.one_of(st.just(0), st.integers(1, 3 * PAGE_SIZE)),
    ),
    max_size=12,
)


class TestWriteModel:
    """``SimFS.write`` against a bytearray and a page-by-page cache."""

    @settings(max_examples=80, deadline=None)
    @given(writes)
    def test_bytes_and_cache_match_models(self, ops):
        stack = make_stack("nvme", cache_pages=6)
        f = stack.fs.open("data", create=True)
        model = bytearray()
        reference = PageCache(SimClock(), nvme_ssd(), TracepointRegistry(), capacity_pages=6)
        for n, (where, distance, length) in enumerate(ops):
            if where == "eof":
                offset = len(model)
            elif where == "inside":
                offset = max(0, len(model) - 1 - distance)
            else:
                offset = len(model) + 1 + distance
            data = bytes([n % 251 + 1]) * length
            assert stack.fs.write(f, offset, data) == length
            assert f.pos == offset + length
            if offset > len(model):
                model.extend(bytes(offset - len(model)))
            model[offset : offset + length] = data
            if length:
                last = (offset + length - 1) // PAGE_SIZE
                for page in range(offset // PAGE_SIZE, last + 1):
                    reference.write_page(f.inode.ino, page)
            assert f.inode.data == model
        assert dataclasses.asdict(stack.cache.stats) == dataclasses.asdict(reference.stats)
        assert stack.tracepoints.hit_counts == reference.tracepoints.hit_counts
        assert stack.device.stats == reference.device.stats
        assert stack.clock.now == reference.clock.now


class TestReadaheadPlumbing:
    def test_file_inherits_device_ra(self, stack):
        f = stack.fs.open("data", create=True)
        assert f.ra_pages == 64

    def test_blkraset_changes_inherited_value(self, stack):
        f = stack.fs.open("data", create=True)
        stack.block.ioctl_blkraset(256)
        assert f.ra_pages == 256
        assert stack.block.ra_pages == 256

    def test_per_file_override_wins(self, stack):
        f = stack.fs.open("data", create=True)
        f.set_ra_pages(16)
        stack.block.ioctl_blkraset(256)
        assert f.ra_pages == 16

    def test_ra_changes_counted(self, stack):
        stack.block.ioctl_blkraset(32)
        stack.block.ioctl_blkraset(32)  # no-op: same value
        stack.block.ioctl_blkraset(64)
        assert stack.block.ra_changes == 2

    def test_invalid_values_rejected(self, stack):
        with pytest.raises(ValueError):
            stack.block.ioctl_blkraset(-1)
        f = stack.fs.open("data", create=True)
        with pytest.raises(ValueError):
            f.set_ra_pages(-5)


class TestStackFactory:
    def test_device_presets(self):
        assert make_stack("nvme").device.name == "nvme"
        assert make_stack("ssd").device.name == "ssd"

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            make_stack("floppy")

    def test_explicit_device_model(self):
        hdd = DeviceModel("hdd", request_latency_s=6e-3, per_page_s=25e-6)
        stack = StorageStack(hdd)
        assert stack.device.name == "hdd"


class TestMemoryMap:
    def test_load_faults_then_hits(self, stack):
        f = stack.fs.open("data", create=True)
        payload = bytes(range(256)) * 64  # 16 KiB = 4 pages
        stack.fs.write(f, 0, payload)
        stack.drop_caches()
        mapping = stack.fs.mmap(f)
        assert mapping.load(0, len(payload)) == payload
        first_faults = mapping.faults
        assert first_faults > 0
        mapping.load(0, len(payload))  # resident now
        assert mapping.faults == first_faults

    def test_faults_emit_tracepoints(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.write(f, 0, b"x" * PAGE_SIZE * 2)
        stack.drop_caches()
        before = stack.tracepoints.hit_counts["add_to_page_cache"]
        stack.fs.mmap(f).load(0, PAGE_SIZE)
        assert stack.tracepoints.hit_counts["add_to_page_cache"] > before

    def test_faults_charge_device_time(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.write(f, 0, b"x" * PAGE_SIZE * 4)
        stack.drop_caches()
        t0 = stack.now
        stack.fs.mmap(f).load(0, PAGE_SIZE * 4)
        assert stack.now > t0

    def test_store_dirties_pages(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.write(f, 0, b"\x00" * PAGE_SIZE)
        stack.cache.sync()
        mapping = stack.fs.mmap(f)
        mapping.store(10, b"hello")
        assert stack.cache.dirty_pages >= 1
        assert stack.fs.read(f, 10, 5) == b"hello"

    def test_store_beyond_extent_rejected(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.write(f, 0, b"abc")
        mapping = stack.fs.mmap(f)
        with pytest.raises(ValueError, match="extent"):
            mapping.store(2, b"xyz")

    def test_load_past_eof_truncated(self, stack):
        f = stack.fs.open("data", create=True)
        stack.fs.write(f, 0, b"abc")
        mapping = stack.fs.mmap(f)
        assert mapping.load(0, 100) == b"abc"
        assert mapping.length == 3
