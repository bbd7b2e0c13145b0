"""Tests for the tuning table and readahead sweep machinery."""

import pytest

from repro.readahead.tuning import (
    DEFAULT_TUNING_TABLE,
    PAPER_RA_VALUES,
    TuningTable,
)


class TestPaperRaValues:
    def test_twenty_values_8_to_1024(self):
        assert len(PAPER_RA_VALUES) == 20
        assert PAPER_RA_VALUES[0] == 8
        assert PAPER_RA_VALUES[-1] == 1024
        assert list(PAPER_RA_VALUES) == sorted(PAPER_RA_VALUES)


class TestTuningTable:
    def test_set_and_lookup(self):
        table = TuningTable()
        table.set("nvme", "readrandom", 8)
        assert table.best_ra("nvme", "readrandom") == 8

    def test_missing_entry_raises(self):
        with pytest.raises(KeyError):
            TuningTable().best_ra("nvme", "readseq")

    def test_json_round_trip(self):
        table = TuningTable()
        table.set("ssd", "readseq", 64)
        table.set("ssd", "readrandom", 8)
        clone = TuningTable.from_json(table.to_json())
        assert clone.best_ra("ssd", "readseq") == 64
        assert clone.best_ra("ssd", "readrandom") == 8

    def test_file_round_trip(self, tmp_path):
        table = TuningTable()
        table.set("nvme", "mixgraph", 16)
        path = str(tmp_path / "tuning.json")
        table.save(path)
        assert TuningTable.load(path).best_ra("nvme", "mixgraph") == 16

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            TuningTable.from_json("[1, 2]")

    @pytest.mark.parametrize(
        "raw, named",
        [
            ('{"nvme": 5}', "device 'nvme'"),
            ('{"nvme": {"readrandom": -5}}', "workload='readrandom'"),
            ('{"nvme": {"readrandom": "128"}}', "workload='readrandom'"),
            ('{"nvme": {"readrandom": 12.7}}', "workload='readrandom'"),
            ('{"nvme": {"readrandom": true}}', "workload='readrandom'"),
        ],
    )
    def test_malformed_entries_rejected_at_load(self, raw, named):
        with pytest.raises(ValueError, match=named):
            TuningTable.from_json(raw)

    def test_default_covers_both_devices_all_classes(self):
        for device in ("nvme", "ssd"):
            for workload in (
                "readseq",
                "readrandom",
                "readreverse",
                "readrandomwriterandom",
            ):
                ra = DEFAULT_TUNING_TABLE.best_ra(device, workload)
                assert 8 <= ra <= 1024

    def test_default_prefers_small_ra_for_random(self):
        for device in ("nvme", "ssd"):
            random_ra = DEFAULT_TUNING_TABLE.best_ra(device, "readrandom")
            seq_ra = DEFAULT_TUNING_TABLE.best_ra(device, "readseq")
            assert random_ra <= seq_ra

