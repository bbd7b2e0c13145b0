"""Crash-recovery harness: kill minikv at every crash point, prove recovery.

For each registered crash point the harness runs a seeded workload
against a fresh store, crashes it at a deterministically chosen firing
of that point, then *reopens the store over the surviving files* and
checks the recovered contents against an in-memory reference model.

The recovery contract it enforces:

- every **acknowledged** operation (put/delete that returned) survives;
- the single operation **in flight** at the crash may be present or
  absent -- both are legal, torn in half is not;
- recovery itself never raises (no dangling manifest references, no
  torn WAL record reaching the memtable, no seq collisions with
  orphaned tables).

Each case is a pure function of ``(site, seed)``: the workload, the
crash placement, and therefore the report are reproducible bit-for-bit.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..minikv.db import DBOptions, MiniKV
from ..os_sim.stack import make_stack
from .errors import SimCrash
from .plane import FaultKind, FaultPlane

__all__ = ["ALL_CRASH_SITES", "CrashReport", "CrashRecoveryHarness"]

#: Every site the matrix exercises: each registered minikv crash point
#: plus the WAL torn-write site (a crash that leaves half a record).
ALL_CRASH_SITES: Tuple[str, ...] = tuple(
    "minikv." + short for short in MiniKV.CRASH_POINTS
) + ("minikv.wal.append",)

# An op is ("put", key, value) or ("del", key, None).
Op = Tuple[str, bytes, Optional[bytes]]


def _kind(site: str) -> FaultKind:
    """The WAL site tears its record; every crash point crashes."""
    return FaultKind.TORN_WRITE if site == "minikv.wal.append" else FaultKind.CRASH


@dataclass
class CrashReport:
    """Outcome of one (site, seed) crash-recovery case."""

    site: str
    seed: int
    site_evals: int            # firings of the site in the profiling run
    crash_nth: int             # which firing was turned into the crash
    crashed: bool              # False if the workload never hit the site
    ops_acked: int             # operations completed before the crash
    pending_op: Optional[Op]   # the operation in flight, if any
    recovered_ok: bool         # recovered state matches a legal outcome
    pending_included: bool     # the in-flight op turned out durable
    wal_records_replayed: int
    orphans_removed: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        """A case passes if it crashed where asked and recovered."""
        return self.crashed and self.recovered_ok


class CrashRecoveryHarness:
    """Deterministic crash-at-every-point recovery checker.

    Workload shape (per seed): ``num_ops`` operations over a small key
    space (so overwrites and tombstones occur), with a memtable budget
    small enough that flushes and compactions happen many times --
    every crash point fires tens of times in ``num_ops`` operations.
    """

    num_ops = 120
    key_space = 24
    delete_fraction = 0.15
    memtable_bytes = 1024
    l0_compaction_trigger = 2

    # ------------------------------------------------------------------

    def _ops(self, seed: int) -> List[Op]:
        rng = random.Random(seed)
        ops: List[Op] = []
        for _ in range(self.num_ops):
            key = b"key-%03d" % rng.randrange(self.key_space)
            if ops and rng.random() < self.delete_fraction:
                ops.append(("del", key, None))
            else:
                value = bytes(
                    rng.getrandbits(8) for _ in range(rng.randrange(16, 96))
                )
                ops.append(("put", key, value))
        return ops

    def _options(self) -> DBOptions:
        return DBOptions(
            memtable_bytes=self.memtable_bytes,
            l0_compaction_trigger=self.l0_compaction_trigger,
        )

    def _open(self, plane: FaultPlane) -> MiniKV:
        db = MiniKV(make_stack("nvme"), self._options())
        plane.attach(db)
        return db

    @staticmethod
    def _apply(ref: Dict[bytes, bytes], op: Op) -> None:
        verb, key, value = op
        if verb == "put":
            ref[key] = value
        else:
            ref.pop(key, None)

    # ------------------------------------------------------------------

    def count_site_evals(self, site: str, seed: int) -> int:
        """Profile the workload: how often does ``site`` fire?

        Uses a probability-0 rule -- it evaluates on every firing but
        never triggers, so the run completes and the rule's ``evals``
        counter is an exact firing count.
        """
        plane = FaultPlane(seed=seed).inject(site, _kind(site), probability=0.0)
        db = self._open(plane)
        for op in self._ops(seed):
            self._apply_to_db(db, op)
        return plane.rules_for(site)[0].evals

    @staticmethod
    def _apply_to_db(db: MiniKV, op: Op) -> None:
        verb, key, value = op
        if verb == "put":
            db.put(key, value)
        else:
            db.delete(key)

    def run_case(self, site: str, seed: int) -> CrashReport:
        """One crash-recovery case: profile, crash, recover, compare."""
        evals = self.count_site_evals(site, seed)
        if evals == 0:
            return CrashReport(
                site=site, seed=seed, site_evals=0, crash_nth=0,
                crashed=False, ops_acked=0, pending_op=None,
                recovered_ok=False, pending_included=False,
                wal_records_replayed=0, orphans_removed=0,
                detail="site never fired under this workload",
            )
        crash_nth = random.Random(
            (seed << 8) ^ zlib.crc32(site.encode())
        ).randint(1, evals)
        plane = FaultPlane(seed=seed).inject(site, _kind(site), nth=crash_nth)
        db = self._open(plane)
        ref: Dict[bytes, bytes] = {}
        pending: Optional[Op] = None
        acked = 0
        crashed = False
        for op in self._ops(seed):
            pending = op
            try:
                self._apply_to_db(db, op)
            except SimCrash:
                crashed = True
                break
            self._apply(ref, op)
            acked += 1
            pending = None
        if not crashed:
            return CrashReport(
                site=site, seed=seed, site_evals=evals, crash_nth=crash_nth,
                crashed=False, ops_acked=acked, pending_op=None,
                recovered_ok=False, pending_included=False,
                wal_records_replayed=0, orphans_removed=0,
                detail="workload completed without crashing",
            )
        # The crashed instance is dead; recovery sees only the files.
        stack = db.stack
        recovered_db = MiniKV(stack, self._options())
        recovered = dict(recovered_db.scan())
        ref_with_pending = dict(ref)
        if pending is not None:
            self._apply(ref_with_pending, pending)
        if recovered == ref:
            recovered_ok, pending_included = True, False
        elif pending is not None and recovered == ref_with_pending:
            recovered_ok, pending_included = True, True
        else:
            recovered_ok, pending_included = False, False
        missing = {
            k: v for k, v in ref.items()
            if recovered.get(k) != v and ref_with_pending.get(k) == v
        }
        detail = "" if recovered_ok else (
            f"recovered {len(recovered)} keys != reference {len(ref)}"
            f" (+pending {len(ref_with_pending)}); "
            f"{len(missing)} acked keys wrong"
        )
        return CrashReport(
            site=site, seed=seed, site_evals=evals, crash_nth=crash_nth,
            crashed=True, ops_acked=acked, pending_op=pending,
            recovered_ok=recovered_ok, pending_included=pending_included,
            wal_records_replayed=recovered_db.stats.wal_records_replayed,
            orphans_removed=recovered_db.stats.orphans_removed,
            detail=detail,
        )

    def run_matrix(
        self,
        sites: Sequence[str] = ALL_CRASH_SITES,
        seeds: Sequence[int] = range(8),
    ) -> List[CrashReport]:
        """The full site x seed crash matrix."""
        return [self.run_case(site, seed) for site in sites for seed in seeds]
