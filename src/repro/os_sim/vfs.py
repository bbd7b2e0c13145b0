"""A small VFS over the simulated page cache: inodes, files, mmap.

This is the surface workloads (and the mini-LSM store) program against.
It stores real bytes per inode, so the KV store above it is a genuine
storage system, while all timing flows through the page cache and the
device model.

Readahead plumbing follows Linux: each open file has ``ra_pages``
initialized from the block device and overridable per file (the
``struct file`` field KML updates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from .block_layer import BlockLayer
from .clock import SimClock
from .device import PAGE_SIZE
from .page_cache import PageCache
from .readahead import ReadaheadState
from .tracepoints import TracepointRegistry

__all__ = ["Inode", "File", "MemoryMap", "SimFS", "PAGE_SIZE"]


@dataclass
class Inode:
    """On-"disk" object: a growable byte extent."""

    ino: int
    name: str
    data: bytearray = field(default_factory=bytearray)
    nlink: int = 1

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def size_pages(self) -> int:
        return (len(self.data) + PAGE_SIZE - 1) // PAGE_SIZE


class File:
    """An open file description: position and readahead state."""

    def __init__(self, inode: Inode, fs: "SimFS"):
        self.inode = inode
        self._fs = fs
        self.pos = 0
        self.ra_state = ReadaheadState()
        self.ra_override: Optional[int] = None  # KML writes this
        self.closed = False

    @property
    def ra_pages(self) -> int:
        """Effective readahead for this file (override > device)."""
        if self.ra_override is not None:
            return self.ra_override
        return self._fs.block.ra_pages

    def set_ra_pages(self, ra_pages: int) -> None:
        """Per-file override (the ``struct file`` update KML performs)."""
        if ra_pages < 0:
            raise ValueError("ra_pages must be non-negative")
        self.ra_override = ra_pages


class MemoryMap:
    """An mmap-style view of a file: page-granular, faulting on access.

    The paper notes KML "intercepts mmap-based file accesses" because
    they reach the page cache through the same fault path as read().
    ``load(offset, length)`` simulates touching mapped memory: each
    page not yet resident takes a (major) fault through the page cache,
    firing the same tracepoints and charging the same device time.
    """

    def __init__(self, file: "File", fs: "SimFS"):
        self._file = file
        self._fs = fs
        self.faults = 0

    @property
    def length(self) -> int:
        return self._file.inode.size

    def load(self, offset: int, length: int) -> bytes:
        """Touch the mapped range and return its bytes."""
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        inode = self._file.inode
        end = min(offset + length, inode.size)
        if end <= offset:
            return b""
        cache = self._fs.cache
        first_page = offset // PAGE_SIZE
        last_page = (end - 1) // PAGE_SIZE
        for page in range(first_page, last_page + 1):
            if (inode.ino, page) not in cache:
                self.faults += 1
            cache.read_page(
                inode.ino,
                page,
                self._file.ra_state,
                self._file.ra_pages,
                inode.size_pages,
            )
        return bytes(inode.data[offset:end])

    def store(self, offset: int, data: bytes) -> None:
        """Write through the mapping (dirties pages, no extension)."""
        inode = self._file.inode
        if offset < 0 or offset + len(data) > inode.size:
            raise ValueError("store outside the mapped extent")
        inode.data[offset : offset + len(data)] = data
        if data:
            first_page = offset // PAGE_SIZE
            last_page = (offset + len(data) - 1) // PAGE_SIZE
            for page in range(first_page, last_page + 1):
                self._fs.cache.write_page(inode.ino, page)


class SimFS:
    """The simulated filesystem: one device, one page cache, many files."""

    def __init__(
        self,
        clock: SimClock,
        block: BlockLayer,
        cache: PageCache,
        tracepoints: TracepointRegistry,
    ):
        self.clock = clock
        self.block = block
        self.cache = cache
        self.tracepoints = tracepoints
        self._inodes: Dict[str, Inode] = {}
        self._next_ino = 1
        # Optional fault-injection site handles (duck-typed; see
        # repro.faults).  None when no rule targets the site, so the
        # data path pays one `is not None` check.
        self._fault_write = None
        self._fault_fsync = None
        self._fault_read = None

    def attach_faults(self, plane) -> None:
        """Resolve injection-site handles from a fault plane."""
        self._fault_write = plane.site("vfs.write")
        self._fault_fsync = plane.site("vfs.fsync")
        self._fault_read = plane.site("vfs.read")

    def detach_faults(self) -> None:
        self._fault_write = None
        self._fault_fsync = None
        self._fault_read = None

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------

    def create(self, name: str) -> Inode:
        if name in self._inodes:
            raise FileExistsError(name)
        inode = Inode(ino=self._next_ino, name=name)
        self._next_ino += 1
        self._inodes[name] = inode
        return inode

    def open(self, name: str, create: bool = False) -> File:
        inode = self._inodes.get(name)
        if inode is None:
            if not create:
                raise FileNotFoundError(name)
            inode = self.create(name)
        return File(inode, self)

    def exists(self, name: str) -> bool:
        return name in self._inodes

    def unlink(self, name: str) -> None:
        inode = self._inodes.pop(name, None)
        if inode is None:
            raise FileNotFoundError(name)
        self.cache.invalidate(inode.ino)

    def rename(self, old: str, new: str) -> None:
        """Atomically move ``old`` over ``new`` (POSIX rename semantics).

        The destination, if it exists, is replaced in the same step --
        the primitive minikv's manifest update relies on for crash
        atomicity (write MANIFEST.tmp, fsync, rename over MANIFEST).
        """
        inode = self._inodes.get(old)
        if inode is None:
            raise FileNotFoundError(old)
        if old == new:
            return
        existing = self._inodes.pop(new, None)
        if existing is not None:
            self.cache.invalidate(existing.ino)
        del self._inodes[old]
        inode.name = new
        self._inodes[new] = inode

    def list_files(self):
        return sorted(self._inodes)

    def stat_size(self, name: str) -> int:
        inode = self._inodes.get(name)
        if inode is None:
            raise FileNotFoundError(name)
        return inode.size

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def read(self, file: File, offset: int, length: int) -> bytes:
        """Byte-range read through the page cache (charges sim time)."""
        self._check_open(file)
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        if self._fault_read is not None:
            self._fault_read.fire(size=length)  # may raise an injected error
        inode = file.inode
        end = min(offset + length, inode.size)
        if end <= offset:
            return b""
        first_page = offset // PAGE_SIZE
        last_page = (end - 1) // PAGE_SIZE
        for page in range(first_page, last_page + 1):
            self.cache.read_page(
                inode.ino, page, file.ra_state, file.ra_pages, inode.size_pages
            )
        file.pos = end
        return bytes(inode.data[offset:end])

    def write(self, file: File, offset: int, data: bytes) -> int:
        """Byte-range write: extend the inode, dirty the pages.

        Under fault injection the write can fail outright (injected
        I/O error), or be *torn*: only a prefix of ``data`` becomes
        durable before a simulated crash -- the failure mode WAL CRC
        detection exists for.
        """
        self._check_open(file)
        if offset < 0:
            raise ValueError("offset must be non-negative")
        torn = None
        if self._fault_write is not None:
            torn = self._fault_write.fire(size=len(data))  # may raise
            if torn is not None:
                data = data[: torn.keep_bytes(len(data))]
        inode = file.inode
        end = offset + len(data)
        if end > inode.size:
            inode.data.extend(b"\x00" * (end - inode.size))
        inode.data[offset:end] = data
        if data:
            first_page = offset // PAGE_SIZE
            last_page = (end - 1) // PAGE_SIZE
            for page in range(first_page, last_page + 1):
                self.cache.write_page(inode.ino, page)
        file.pos = end
        if torn is not None:
            torn.crash()  # raises SimCrash; the prefix above is durable
        return len(data)

    def append(self, file: File, data: bytes) -> int:
        return self.write(file, file.inode.size, data)

    def mmap(self, file: File) -> MemoryMap:
        """Map an open file (see :class:`MemoryMap`)."""
        self._check_open(file)
        return MemoryMap(file, self)

    def fsync(self, file: File) -> None:
        """Flush dirty pages and wait for the device to drain."""
        self._check_open(file)
        if self._fault_fsync is not None:
            self._fault_fsync.fire()  # may raise an injected error
        self.cache.sync()

    def close(self, file: File) -> None:
        file.closed = True

    @staticmethod
    def _check_open(file: File) -> None:
        if file.closed:
            raise ValueError(f"I/O on closed file {file.inode.name!r}")
