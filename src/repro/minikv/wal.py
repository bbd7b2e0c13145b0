"""Write-ahead log: durability for the memtable.

Each mutation is appended before it is applied; on crash, replaying the
log rebuilds the unflushed memtable.  Record format (little-endian):

    u16 key_len | u32 value_len | u8 flags | key | value
    flags bit 0 = tombstone (value_len is then 0)

A CRC32 per record detects torn tails: replay stops at the first bad
record, which is exactly the recovery contract of RocksDB's WAL.
"""

from __future__ import annotations

import struct
import zlib
from typing import Iterator, Optional, Tuple

from ..os_sim.vfs import File, SimFS

__all__ = ["WriteAheadLog", "WAL_TOMBSTONE_FLAG"]

WAL_TOMBSTONE_FLAG = 0x01

_HEADER = struct.Struct("<HIBI")  # klen, vlen, flags, crc
_FLAG_BYTES = (b"\x00", bytes([WAL_TOMBSTONE_FLAG]))


class WriteAheadLog:
    """Appender/replayer over one SimFS file."""

    HOOK_SLOTS = {"minikv.wal.append": "_append_hook"}

    def __init__(self, fs: SimFS, name: str):
        self.fs = fs
        self.name = name
        self._file: Optional[File] = None
        # The minikv.wal.append hook (see repro.hooks): errors,
        # crashes, or torn (partial) appends.
        self._append_hook = None

    def _handle(self) -> File:
        if self._file is None or self._file.closed:
            self._file = self.fs.open(self.name, create=True)
        return self._file

    # ------------------------------------------------------------------

    def append(self, key: bytes, value: Optional[bytes]) -> None:
        """Log one put (value bytes) or delete (value None).

        The CRC is chained over key, body and flag byte, which equals
        the CRC of their concatenation without building it.
        """
        if len(key) > 0xFFFF:
            raise ValueError("key too long for WAL record")
        if value is None:
            flags, body = WAL_TOMBSTONE_FLAG, b""
        else:
            flags, body = 0, value
        crc = zlib.crc32(_FLAG_BYTES[flags], zlib.crc32(body, zlib.crc32(key)))
        record = b"".join((_HEADER.pack(len(key), len(body), flags, crc), key, body))
        hook = self._append_hook
        if hook is not None:
            # may raise; a TornWrite action persists a partial record
            # (the torn tail replay() must stop at) and then crashes.
            action = hook.fire()
            if action is not None:
                self.fs.append(
                    self._handle(), record[: action.keep_bytes(len(record))]
                )
                action.crash()
        file = self._file
        if file is None or file.closed:
            file = self._handle()
        self.fs.append(file, record)

    def sync(self) -> None:
        self.fs.fsync(self._handle())

    def replay(self) -> Iterator[Tuple[bytes, Optional[bytes]]]:
        """Yield (key, value-or-None) for every intact record, in order."""
        if not self.fs.exists(self.name):
            return
        handle = self.fs.open(self.name)
        raw = self.fs.read(handle, 0, self.fs.stat_size(self.name))
        offset = 0
        while offset + _HEADER.size <= len(raw):
            klen, vlen, flags, crc = _HEADER.unpack_from(raw, offset)
            start = offset + _HEADER.size
            end = start + klen + vlen
            if end > len(raw):
                break  # torn tail
            key = raw[start : start + klen]
            body = raw[start + klen : end]
            if zlib.crc32(key + body + bytes([flags])) & 0xFFFFFFFF != crc:
                break  # corruption: stop replay here
            yield key, (None if flags & WAL_TOMBSTONE_FLAG else body)
            offset = end

    def reset(self) -> None:
        """Truncate the log after a successful memtable flush."""
        if self.fs.exists(self.name):
            self.fs.unlink(self.name)
        self._file = None
