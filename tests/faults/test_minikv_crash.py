"""Crash-recovery property tests: kill minikv everywhere, always recover.

Each case runs a seeded op sequence, crashes the store at a
deterministically chosen firing of one crash point, reopens over the
surviving files, and requires exact equivalence with an in-memory dict
reference (modulo the one in-flight op, which may legally be present or
absent -- never torn).

The tier-1 slice covers every site with two seeds; the ``stress``
matrix (``make check``) runs every site with 24 seeds -- 216
fully deterministic cases.
"""

import pytest

from repro.faults import ALL_CRASH_SITES, CrashRecoveryHarness

TIER1_SEEDS = (0, 1)
STRESS_SEEDS = tuple(range(24))


@pytest.fixture(scope="module")
def harness():
    return CrashRecoveryHarness()


@pytest.mark.parametrize("site", ALL_CRASH_SITES)
@pytest.mark.parametrize("seed", TIER1_SEEDS)
def test_crash_and_recover(harness, site, seed):
    report = harness.run_case(site, seed)
    assert report.crashed, f"{site} never crashed under seed {seed}"
    assert report.recovered_ok, report.detail


def test_every_registered_site_is_in_the_matrix():
    from repro.minikv.db import MiniKV

    shorts = {s[len("minikv."):] for s in ALL_CRASH_SITES}
    assert set(MiniKV.CRASH_POINTS) <= shorts
    assert "wal.append" in shorts  # the torn-write case rides along


def test_reports_are_deterministic(harness):
    a = harness.run_case("minikv.flush.after_manifest", 3)
    b = harness.run_case("minikv.flush.after_manifest", 3)
    assert a == b


def test_torn_wal_record_never_survives(harness):
    """A torn WAL append can never make the in-flight op durable."""
    for seed in TIER1_SEEDS:
        report = harness.run_case("minikv.wal.append", seed)
        assert report.crashed and report.recovered_ok
        assert not report.pending_included


def test_acked_ops_precede_the_crash(harness):
    report = harness.run_case("minikv.memtable.apply", 0)
    assert report.crashed
    assert report.pending_op is not None
    assert 0 <= report.ops_acked < harness.num_ops


@pytest.mark.stress
def test_full_crash_matrix(harness):
    reports = harness.run_matrix(sites=ALL_CRASH_SITES, seeds=STRESS_SEEDS)
    assert len(reports) >= 200
    failures = [r for r in reports if not r.ok]
    assert not failures, "\n".join(
        f"{r.site} seed={r.seed} nth={r.crash_nth}: {r.detail}"
        for r in failures
    )
    # The matrix must genuinely exercise both recovery outcomes.
    assert any(r.pending_included for r in reports)
    assert any(not r.pending_included for r in reports)
    assert any(r.orphans_removed > 0 for r in reports)
    assert any(r.wal_records_replayed > 0 for r in reports)
