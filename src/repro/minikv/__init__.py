"""minikv: from-scratch mini LSM key-value store (RocksDB stand-in)."""

from .bloom import BloomFilter
from .compaction import compact_tables, merge_records
from .db import DBOptions, DBStats, MiniKV
from .memtable import MemTable, TOMBSTONE
from .sstable import SSTableBuilder, SSTableReader, FOOTER_MAGIC
from .wal import WriteAheadLog

__all__ = [
    "BloomFilter",
    "compact_tables",
    "merge_records",
    "DBOptions",
    "DBStats",
    "MiniKV",
    "MemTable",
    "TOMBSTONE",
    "SSTableBuilder",
    "SSTableReader",
    "FOOTER_MAGIC",
    "WriteAheadLog",
]
