"""Tests for the command-line interface (miniature end-to-end runs)."""

import json
import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.faults import CrashRecoveryHarness, scenario_names
from repro.workloads import runner


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in ("collect", "train", "sweep", "run", "inspect",
                        "faults"):
            args = {
                "collect": ["collect", "--output", "x.npz"],
                "train": ["train", "--data", "d.npz", "--output", "m.kml"],
                "sweep": ["sweep", "--output", "t.json"],
                "run": ["run", "--model", "m.kml", "--tuning", "t.json"],
                "inspect": ["inspect", "m.kml"],
                "faults": ["faults", "--list"],
            }[command]
            assert parser.parse_args(args).command == command

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the whole CLI pipeline once at tiny scale."""
    root = tmp_path_factory.mktemp("cli")
    data = str(root / "data.npz")
    model = str(root / "model.kml")
    tree = str(root / "tree.kml")
    tuning = str(root / "tuning.json")

    tiny = [
        "--num-keys", "4000", "--value-size", "200", "--cache-pages", "128",
    ]
    assert main(["collect", "--output", data, "--windows-per-value", "2",
                 *tiny]) == 0
    assert main(["train", "--data", data, "--output", model,
                 "--epochs", "150", "--kfold", "3"]) == 0
    assert main(["train", "--data", data, "--output", tree,
                 "--model", "tree"]) == 0
    assert main(["sweep", "--output", tuning, "--devices", "nvme",
                 "--ra-values", "8,128", "--ops-per-point", "300",
                 *tiny]) == 0
    return {"data": data, "model": model, "tree": tree, "tuning": tuning,
            "tiny": tiny}


class TestPipeline:
    def test_collect_writes_labeled_npz(self, workspace):
        blob = np.load(workspace["data"])
        assert blob["x"].shape[1] == 5
        assert len(blob["x"]) == len(blob["y"])
        assert set(np.unique(blob["y"])) <= {0, 1, 2, 3}

    def test_train_writes_loadable_model(self, workspace):
        from repro.kml import Sequential, load_model

        model = load_model(workspace["model"])
        assert isinstance(model, Sequential)
        # Deployable: the normalizer is fused as the first layer.
        assert model.layers[0].name == "zscore"

    def test_tree_model_written(self, workspace):
        from repro.kml import DecisionTreeClassifier, load_model

        assert isinstance(load_model(workspace["tree"]), DecisionTreeClassifier)

    def test_sweep_writes_tuning_json(self, workspace):
        table = json.load(open(workspace["tuning"]))
        assert set(table["nvme"]) == {
            "readseq", "readrandom", "readreverse", "readrandomwriterandom",
        }
        assert all(v in (8, 128) for v in table["nvme"].values())

    def test_run_closed_loop(self, workspace, capsys):
        code = main([
            "run", "--model", workspace["model"],
            "--tuning", workspace["tuning"],
            "--workload", "readrandom", "--sim-seconds", "0.4",
            *workspace["tiny"],
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "vanilla" in out and "KML closed loop" in out

    def test_inspect_nn(self, workspace, capsys):
        assert main(["inspect", workspace["model"]]) == 0
        assert "Sequential" in capsys.readouterr().out

    def test_inspect_tree(self, workspace, capsys):
        assert main(["inspect", workspace["tree"]]) == 0
        assert "DecisionTreeClassifier" in capsys.readouterr().out


def _tiny_model(path):
    from repro.kml import Sequential, save_model
    from repro.kml.layers import Linear

    save_model(Sequential([Linear(5, 4, dtype="float32")]), path)
    return path


class TestRunConfig:
    def test_malformed_tuning_table_is_config_error(self, tmp_path, capsys):
        model = _tiny_model(str(tmp_path / "model.kml"))
        tuning = tmp_path / "bad.json"
        tuning.write_text('{"nvme": {"readrandom": -5}}')
        code = main(["run", "--model", model, "--tuning", str(tuning)])
        assert code == 5
        assert "workload='readrandom'" in capsys.readouterr().err

    def test_table_missing_a_class_fails_before_simulating(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_simulation(*args, **kwargs):
            raise AssertionError("the simulation ran")

        monkeypatch.setattr(runner, "populate_db", no_simulation)
        monkeypatch.setattr(runner, "run_workload", no_simulation)
        model = _tiny_model(str(tmp_path / "model.kml"))
        tuning = tmp_path / "nvme_only.json"
        tuning.write_text(json.dumps({"nvme": {
            "readseq": 32, "readrandom": 8, "readreverse": 32,
            "readrandomwriterandom": 8,
        }}))
        code = main(["run", "--model", model, "--tuning", str(tuning),
                     "--device", "ssd"])
        assert code == 5
        captured = capsys.readouterr()
        assert "no tuning entry for device='ssd'" in captured.err
        assert captured.out == ""

    def test_non_positive_sim_seconds_is_config_error(self, workspace, capsys):
        code = main([
            "run", "--model", workspace["model"],
            "--tuning", workspace["tuning"], "--sim-seconds", "-1",
            *workspace["tiny"],
        ])
        assert code == 5
        captured = capsys.readouterr()
        assert "max_sim_seconds must be positive" in captured.err
        assert "ops/s" not in captured.out


class TestTrainConfig:
    def test_non_positive_epochs_is_config_error(self, workspace, tmp_path, capsys):
        output = tmp_path / "untrained.kml"
        code = main(["train", "--data", workspace["data"], "--output", str(output),
                     "--epochs", "-3"])
        assert code == 5
        assert "epochs must be positive" in capsys.readouterr().err
        assert not output.exists()


class TestRun:
    REQUIRED_FAMILIES = (
        "kml_tracepoint_hits_total",
        "kml_block_requests_total",
        "kml_matrix_ops_total",
        "kml_network_passes_total",
    )

    def test_run_exports_the_kml_loop(self, workspace, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        jsonl = tmp_path / "metrics.jsonl"
        code = main([
            "run", "--model", workspace["model"],
            "--tuning", workspace["tuning"],
            "--workload", "readrandom", "--sim-seconds", "0.4",
            *workspace["tiny"],
            "--prom-out", str(prom), "--jsonl-out", str(jsonl),
        ])
        assert code == 0
        out = capsys.readouterr().out
        # the grouped report follows the throughput lines
        assert out.index("KML closed loop") < out.index(
            "KML observability report:"
        )
        prom_text = prom.read_text()
        for family in self.REQUIRED_FAMILIES:
            assert f"# TYPE {family} counter" in prom_text
            assert family in out
        forward = [line for line in prom_text.splitlines()
                   if line.startswith('kml_network_passes_total{phase="forward"}')]
        assert len(forward) == 1 and int(forward[0].split()[-1]) > 0
        # exactly one span per agent decision (0.4 s at 0.1 s windows)
        records = [json.loads(line)
                   for line in jsonl.read_text().splitlines()]
        spans = [r for r in records if r["kind"] == "span"]
        assert len(spans) == 4
        assert {s["name"] for s in spans} == {"agent_tick"}
        assert all(s["tags"]["ra_pages"] in (8, 128) for s in spans)

    def test_run_deploys_a_decision_tree(self, workspace, capsys):
        code = main([
            "run", "--model", workspace["tree"],
            "--tuning", workspace["tuning"],
            "--workload", "readrandom", "--sim-seconds", "0.2",
            *workspace["tiny"],
        ])
        assert code == 0
        # The tree classified every window: the counts are not empty.
        assert "classified as   : {'" in capsys.readouterr().out


class TestFaults:
    def test_list_scenarios(self, capsys):
        assert main(["faults", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("flaky-device", "torn-wal", "trainer-crash"):
            assert name in out

    def test_list_marks_scenarios_the_kv_run_cannot_reach(self, capsys):
        assert main(["faults", "--list"]) == 0
        marks = {
            line.split()[0]: line.partition("[not runnable: ")[2]
            for line in capsys.readouterr().out.splitlines()
        }
        assert {name: mark for name, mark in marks.items() if mark} == {
            "buffer-pressure": "arms buffer.push]",
            "corrupt-model": "arms model_io.load]",
            "trainer-crash": "arms trainer.batch]",
            "trainer-flaky": "arms trainer.batch]",
        }
        assert set(marks) == set(scenario_names())

    def test_no_action_is_usage_error(self, capsys):
        assert main(["faults"]) == 2
        assert "nothing to do" in capsys.readouterr().err

    def test_crash_matrix_smoke(self, capsys):
        code = main(["faults", "--crash-matrix", "--seeds", "1",
                     "--sites", "minikv.flush.after_build,minikv.wal.append"])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 cases, 2 ok, 0 failed" in out

    def test_crash_matrix_rejects_unknown_site(self, capsys):
        assert main(["faults", "--crash-matrix", "--sites", "nope"]) == 2
        assert "unknown sites: nope" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seeds", "0"], "--seeds must be at least 1, got 0"),
            (["--seeds", "-3"], "--seeds must be at least 1, got -3"),
            (["--sites", ","], "--sites names no site: ','"),
            (["--sites", ""], "--sites names no site: ''"),
        ],
    )
    def test_crash_matrix_usage_errors(self, capsys, monkeypatch, argv, message):
        def no_matrix(*args, **kwargs):
            raise AssertionError("the matrix ran")

        monkeypatch.setattr(CrashRecoveryHarness, "run_matrix", no_matrix)
        assert main(["faults", "--crash-matrix", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_scenario_run_reports_injections(self, capsys):
        code = main(["faults", "--scenario", "flaky-device", "--ops", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario 'flaky-device'" in out
        assert "kml_faults_rules: 1" in out

    def test_torn_wal_scenario_recovers(self, capsys):
        code = main(["faults", "--scenario", "torn-wal", "--ops", "400"])
        assert code == 0
        out = capsys.readouterr().out
        assert "simulated crashes (+ recoveries): 1" in out

    def test_report_follows_the_recovered_store(self, capsys):
        code = main(["faults", "--scenario", "torn-wal", "--ops", "200"])
        assert code == 0
        out = capsys.readouterr().out
        printed = int(out.split("wal_records_replayed=")[1].split()[0])
        reported = int(
            out.split("kml_minikv_wal_records_replayed_total: ")[1].split()[0]
        )
        assert printed > 0
        assert reported == printed

    def test_op_counters_cover_the_whole_run(self, capsys):
        """Recovery opens a fresh store; the counts survive it."""
        code = main(["faults", "--scenario", "torn-wal", "--ops", "200"])
        assert code == 0
        out = capsys.readouterr().out

        def count(metric):
            return int(out.split(metric + ": ")[1].split()[0])

        crashes = count("simulated crashes (+ recoveries)")
        assert crashes == 1
        gets = count("kml_minikv_ops_total{op=get}")
        puts = count("kml_minikv_ops_total{op=put}")
        assert gets + puts == 200 - crashes

    @pytest.mark.parametrize(
        "scenario, sites",
        [
            ("buffer-pressure", "buffer.push"),
            ("trainer-flaky", "trainer.batch"),
            ("trainer-crash", "trainer.batch"),
            ("corrupt-model", "model_io.load"),
        ],
    )
    def test_scenario_the_kv_run_cannot_reach(self, capsys, scenario, sites):
        assert main(["faults", "--scenario", scenario, "--ops", "10"]) == 2
        captured = capsys.readouterr()
        assert f"arms {sites}, which a KV workload never reaches" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--ops", "-5"], "--ops must be at least 1, got -5"),
            (["--ops", "0"], "--ops must be at least 1, got 0"),
            (["--num-keys", "0"], "--num-keys must be at least 1, got 0"),
        ],
    )
    def test_scenario_usage_errors(self, capsys, argv, message):
        assert main(["faults", "--scenario", "torn-wal", *argv]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


class TestInspect:
    def test_missing_model_file_is_io_error(self, tmp_path, capsys):
        assert main(["inspect", str(tmp_path / "nope.kml")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_damaged_model_file_is_format_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.kml"
        bad.write_bytes(b"this is not a model image")
        assert main(["inspect", str(bad)]) == 4
        assert "damaged model file" in capsys.readouterr().err


class TestReport:
    def test_report_assembles_results(self, tmp_path, capsys):
        results = tmp_path / "results"
        results.mkdir()
        (results / "table2.txt").write_text("Table 2 reproduction\nrow")
        assert main(["report", "--results-dir", str(results)]) == 0
        out = capsys.readouterr().out
        assert "table2.txt" in out and "Table 2 reproduction" in out

    def test_report_empty_dir_fails(self, tmp_path, capsys):
        assert main(["report", "--results-dir", str(tmp_path)]) == 1
        assert "no results" in capsys.readouterr().out
