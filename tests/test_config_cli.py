import csv
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env

from fedsim.cli import main
from fedsim.config import (
    ConfigError,
    apply_overrides,
    format_config,
    get_typed,
    load_config,
    parse_config_text,
)
from fedsim.harness import PRESETS, effective_config

REPO = Path(__file__).resolve().parent.parent

SYNTH_FED = [
    "--set", "seed=7",
    "--set", "data.source=synth",
    "--set", "data.num_classes=3",
    "--set", "data.features=6",
    "--set", "data.train_samples=120",
    "--set", "data.test_samples=60",
    "--set", "model.layers=6,3",
    "--set", "partition.kind=iid",
    "--set", "partition.samples_per_client=10",
    "--set", "fed.num_clients=6",
    "--set", "fed.client_fraction=0.5",
    "--set", "fed.local_epochs=1",
    "--set", "fed.batch_size=5",
    "--set", "fed.client_lr=0.2",
    "--set", "fed.rounds=4",
]


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


def drop_elapsed(rows):
    header = rows[0]
    idx = header.index("elapsed_s")
    return [[c for i, c in enumerate(row) if i != idx] for row in rows]


class TestConfigFormat:
    def test_parse_types_and_comments(self):
        cfg = parse_config_text(
            """
            # a comment
            experiment = custom
            seed = 7
            fed.client_fraction = 0.1
            fed.alg1_literal_normalization = true
            model.layers = 784,200,10
            """
        )
        assert cfg["experiment"] == "custom"
        assert cfg["seed"] == 7
        assert cfg["fed.client_fraction"] == 0.1
        assert cfg["fed.alg1_literal_normalization"] is True
        assert cfg["model.layers"] == [784, 200, 10]

    def test_bad_line_raises(self):
        with pytest.raises(ConfigError):
            parse_config_text("not a key value pair")

    def test_overrides_win(self):
        cfg = apply_overrides({"seed": 1, "fed.rounds": 5}, ["seed=2", "fed.batch_size=full"])
        assert cfg["seed"] == 2
        assert cfg["fed.rounds"] == 5
        assert cfg["fed.batch_size"] == "full"

    def test_format_round_trips(self):
        cfg = {"seed": 3, "fed.client_lr": 0.05, "model.layers": [4, 2], "x": "full", "b": True}
        assert parse_config_text(format_config(cfg)) == cfg

    def test_get_typed_names_offending_key(self):
        with pytest.raises(ConfigError, match="fed.rounds"):
            get_typed({"fed.rounds": "ten"}, "fed.rounds", int)
        with pytest.raises(ConfigError, match="seed"):
            get_typed({}, "seed", int)
        with pytest.raises(ConfigError, match="boolean"):
            get_typed({"fed.client_lr": True}, "fed.client_lr", float)


class TestCliTrainFed:
    def test_custom_run_writes_rounds_csv(self, tmp_path, capsys):
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED) == 0
        rows = read_csv(tmp_path / "rounds.csv")
        assert rows[0] == ["round", "train_acc", "test_acc", "mean_client_loss", "elapsed_s"]
        assert len(rows) == 1 + 4
        assert (tmp_path / "manifest.txt").exists()
        manifest = (tmp_path / "manifest.txt").read_text()
        assert "run.status = complete" in manifest
        assert "run.outputs = rounds.csv,plot_rounds.gnuplot" in manifest
        assert (tmp_path / "plot_rounds.gnuplot").exists()

    def test_zero_rounds_header_only(self, tmp_path):
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED + ["--set", "fed.rounds=0"]) == 0
        assert read_csv(tmp_path / "rounds.csv") == [["round", "train_acc", "test_acc", "mean_client_loss", "elapsed_s"]]

    def test_same_seed_reproduces_all_data_columns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["train-fed", "--out", str(a)] + SYNTH_FED) == 0
        assert main(["train-fed", "--out", str(b)] + SYNTH_FED) == 0
        assert drop_elapsed(read_csv(a / "rounds.csv")) == drop_elapsed(read_csv(b / "rounds.csv"))

    def test_manifest_is_rerunnable(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["train-fed", "--out", str(first)] + SYNTH_FED) == 0
        assert main(["train-fed", "--config", str(first / "manifest.txt"), "--out", str(second)]) == 0
        assert drop_elapsed(read_csv(first / "rounds.csv")) == drop_elapsed(read_csv(second / "rounds.csv"))

    @pytest.mark.parametrize("override, code", [("fed.rounds=2", 0), ("fed.eval_every=0", 2)], ids=["complete", "failed"])
    def test_the_finished_manifest_keeps_its_start_time(self, tmp_path, monkeypatch, override, code):
        import fedsim.harness as harness

        stamps = iter(["2026-01-02T03:04:05Z", "2026-01-02T03:04:09Z"])
        monkeypatch.setattr(harness, "_utc_now", lambda: next(stamps))
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED + ["--set", override]) == code
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert [line for line in lines if line.endswith("_utc", 0, line.find(" = "))] == [
            "run.finished_utc = 2026-01-02T03:04:09Z", "run.started_utc = 2026-01-02T03:04:05Z",
        ]

    @pytest.mark.parametrize("change", [
        lambda path: path.write_text(path.read_text() + "a line without an equals sign\n"),
        lambda path: path.write_text("seed = 1\n"),
        Path.unlink,
    ], ids=["unparseable", "no-start-time", "deleted"])
    def test_a_manifest_changed_during_the_run_is_finished_from_memory(self, tmp_path, monkeypatch, capsys, change):
        import fedsim.cli as cli
        import fedsim.harness as harness

        stamps = iter(["2026-01-02T03:04:05Z", "2026-01-02T03:04:09Z"])
        monkeypatch.setattr(harness, "_utc_now", lambda: next(stamps))
        help_text, run = cli.COMMANDS["cost"]

        def run_then_change(cfg, out_dir, meta):
            result = run(cfg, out_dir, meta)
            change(out_dir / "manifest.txt")
            return result

        monkeypatch.setitem(cli.COMMANDS, "cost", (help_text, run_then_change))
        assert main(["cost", "--out", str(tmp_path), "--set", "experiment=cost_rounds_sweep"]) == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "run.status = complete" in lines
        assert "run.started_utc = 2026-01-02T03:04:05Z" in lines

    def test_rerun_on_the_same_platform_prints_no_note(self, tmp_path, capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["train-fed", "--out", str(first)] + SYNTH_FED) == 0
        capsys.readouterr()
        assert main(["train-fed", "--config", str(first / "manifest.txt"), "--out", str(second)]) == 0
        assert capsys.readouterr().err == ""

    def test_rerun_from_another_platform_notes_the_fields_that_differ(self, tmp_path, capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["train-fed", "--out", str(first)] + SYNTH_FED) == 0
        capsys.readouterr()
        lines = (first / "manifest.txt").read_text().splitlines()
        here = {line.split(" = ")[0]: line.split(" = ")[1] for line in lines}
        doctored = first / "doctored.txt"
        doctored.write_text("".join(
            {"run.platform.cpus": "run.platform.cpus = 640", "run.platform.numpy": "run.platform.numpy = 1.0e3"}.get(
                line.split(" = ")[0], line
            ) + "\n"
            for line in lines
        ))
        assert main(["train-fed", "--config", str(doctored), "--out", str(second)]) == 0
        out, err = capsys.readouterr()
        assert err == (
            f"note: the manifest's platform differs here (numpy 1000 -> {here['run.platform.numpy']}, "
            f"cpus 640 -> {here['run.platform.cpus']}); results may differ in their last bits\n"
        )
        assert out == f"wrote {second / 'rounds.csv'}\nwrote {second / 'plot_rounds.gnuplot'}\n"
        assert drop_elapsed(read_csv(first / "rounds.csv")) == drop_elapsed(read_csv(second / "rounds.csv"))
        # the new manifest records the platform it ran on, not the one it was read from
        assert f"run.platform.cpus = {here['run.platform.cpus']}" in (second / "manifest.txt").read_text().splitlines()

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED + ["--set", "fed.bogus=1"]) == 2
        assert "fed.bogus" in capsys.readouterr().err

    def test_missing_required_key_is_config_error(self, tmp_path, capsys):
        assert main(["train-fed", "--out", str(tmp_path), "--set", "seed=1", "--set", "data.source=synth"]) == 2
        err = capsys.readouterr().err
        assert "model.layers" in err or "fed." in err

    def test_missing_mnist_files_is_io_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FEDSIM_DATA_DIR", str(tmp_path / "nowhere"))
        code = main([
            "train-fed", "--out", str(tmp_path),
            "--set", "seed=1", "--set", "data.source=mnist",
            "--set", "model.layers=784,10",
            "--set", "partition.samples_per_client=10",
            "--set", "fed.num_clients=10", "--set", "fed.client_fraction=0.1",
            "--set", "fed.client_lr=0.1", "--set", "fed.rounds=1",
        ])
        assert code == 4

    def test_divergence_exit_code(self, tmp_path):
        code = main(
            ["train-fed", "--out", str(tmp_path)]
            + SYNTH_FED
            + ["--set", "model.layers=6,8,3", "--set", "fed.client_lr=1e200", "--set", "fed.local_epochs=4"]
        )
        assert code == 3
        assert "run.status = failed" in (tmp_path / "manifest.txt").read_text()

    def test_diverged_run_keeps_completed_rounds(self, tmp_path, monkeypatch):
        import fedsim.federation as federation

        original = federation.group_update
        calls = []

        def diverges_in_round_2(shards, *args, **kwargs):
            calls.extend(shard.client_id for shard in shards)
            diverged = original(shards, *args, **kwargs)
            if len(calls) > 2 * 3:  # 6 clients at fraction 0.5: 3 updates a round; the group's first one diverges
                args[-1][0], diverged[0] = np.nan, True
            return diverged

        monkeypatch.setattr(federation, "group_update", diverges_in_round_2)
        monkeypatch.setattr(federation, "usable_cpus", lambda: 1)  # count every call in this process
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED) == 3
        rows = read_csv(tmp_path / "rounds.csv")
        assert [row[0] for row in rows[1:]] == ["0", "1"]
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "run.status = failed" in lines
        assert "run.failed_round = 2" in lines

    def test_an_overflowing_server_step_is_a_divergence(self, tmp_path, capsys):
        # rmsprop's first step is about 3.16 * lr per weight: at lr 1e308 round 0's server step overflows
        code = main([
            "train-fed", "--out", str(tmp_path), "--config", str(REPO / "configs" / "synth_quick.cfg"),
            "--set", "fed.rounds=3", "--set", "fed.update_mode=send_delta",
            "--set", "server.kind=rmsprop", "--set", "server.lr=1e308",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged: the server step diverged in round 0" in err.splitlines()[-1]
        assert "config error" not in err
        assert "run.failed_round = 0" in (tmp_path / "manifest.txt").read_text().splitlines()
        assert read_csv(tmp_path / "rounds.csv")[1:] == []

    def test_a_server_step_overflow_keeps_the_rounds_before_it(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        import fedsim.federation as federation

        original = federation.server_apply

        def overflows_from_round_1(state, params, pseudo_grad):  # the real step, its rate raised from round 1
            return original(dataclasses.replace(state, lr=1e308) if state.step >= 1 else state, params, pseudo_grad)

        monkeypatch.setattr(federation, "server_apply", overflows_from_round_1)
        code = main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED + [
            "--set", "fed.update_mode=send_delta", "--set", "server.kind=rmsprop", "--set", "server.lr=0.01",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged: the server step diverged in round 1" in err.splitlines()[-1]
        assert "config error" not in err
        assert "run.failed_round = 1" in (tmp_path / "manifest.txt").read_text().splitlines()
        assert [row[0] for row in read_csv(tmp_path / "rounds.csv")[1:]] == ["0"]

    def test_a_server_step_shape_mismatch_is_still_a_config_error(self, tmp_path, monkeypatch, capsys):
        import fedsim.federation as federation

        def mismatched(state, params, pseudo_grad):
            raise federation.ShapeMismatchError("params and pseudo-gradient disagree on architecture")

        monkeypatch.setattr(federation, "server_apply", mismatched)
        code = main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED + ["--set", "fed.update_mode=send_delta"])
        assert code == 2
        assert "config error: params and pseudo-gradient disagree" in capsys.readouterr().err

    def test_interrupted_run_says_so_and_exits_130(self, tmp_path, monkeypatch, capsys):
        import fedsim.federation as federation

        original = federation.group_update
        calls = []

        def interrupt_in_round_2(shards, *args, **kwargs):
            calls.extend(shards)
            if len(calls) > 2 * 3:  # 3 updates a round
                raise KeyboardInterrupt
            return original(shards, *args, **kwargs)

        monkeypatch.setattr(federation, "group_update", interrupt_in_round_2)
        monkeypatch.setattr(federation, "usable_cpus", lambda: 1)  # count every call in this process
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED) == 130
        assert capsys.readouterr().err == "interrupted: stopped by SIGINT\n"
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "run.status = interrupted" in lines
        assert not any(line.startswith(("run.error", "run.outputs")) for line in lines)
        assert [row[0] for row in read_csv(tmp_path / "rounds.csv")[1:]] == ["0", "1"]

    def test_a_memory_error_is_a_documented_stop_that_keeps_the_completed_rounds(self, tmp_path, monkeypatch, capsys):
        import fedsim.federation as federation

        original = federation.run_round

        def runs_out_in_round_2(state, *args, **kwargs):  # raised, not provoked: nothing large is allocated
            if state.round_index == 2:
                raise MemoryError("Unable to allocate 226. TiB for an array with shape (31000000000010,)")
            return original(state, *args, **kwargs)

        monkeypatch.setattr(federation, "run_round", runs_out_in_round_2)
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED) == 5
        err = capsys.readouterr().err
        assert err == "out of memory: Unable to allocate 226. TiB for an array with shape (31000000000010,)\n"
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "run.status = failed" in lines
        assert f"run.error = {err.strip()}" in lines
        assert [row[0] for row in read_csv(tmp_path / "rounds.csv")[1:]] == ["0", "1"]

    def test_non_federated_preset_is_a_config_error_before_any_data_is_read(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("FEDSIM_DATA_DIR", str(tmp_path / "nowhere"))
        assert main(["train-fed", "--out", str(tmp_path), "--set", "experiment=central_baseline"]) == 2
        assert capsys.readouterr().err.startswith("config error: experiment: experiment 'central_baseline' is not a")

    def test_preset_sweep_writes_summary(self, tmp_path):
        # shrink the preset to desk size via overrides
        code = main([
            "train-fed", "--out", str(tmp_path),
            "--set", "experiment=samples_sweep",
            "--set", "seed=5",
            "--set", "data.source=synth",
            "--set", "data.num_classes=3", "--set", "data.features=6",
            "--set", "data.train_samples=200", "--set", "data.test_samples=60",
            "--set", "preset.arch.0=6,3", "--set", "preset.arch.1=6,8,3", "--set", "preset.arch.2=6,4,3",
            "--set", "preset.samples_per_client=1,5",
            "--set", "fed.num_clients=10", "--set", "fed.rounds=2",
            "--set", "fed.local_epochs=1", "--set", "fed.batch_size=5",
        ])
        assert code == 0
        rows = read_csv(tmp_path / "summary.csv")
        assert rows[0] == ["arch", "samples_per_client", "final_train_acc", "final_test_acc"]
        assert len(rows) == 1 + 3 * 2
        assert (tmp_path / "rounds_6-3_spc1.csv").exists()

    @pytest.mark.parametrize("command, experiment, override, key, message", [
        ("train-fed", "samples_sweep", "preset.arch.2=6,3", "preset.arch.2", "repeats the layer sizes of preset.arch.0"),
        ("train-fed", "samples_sweep", "preset.samples_per_client=5,1,5", "preset.samples_per_client", "repeats a value"),
        ("train-central", "central_baseline", "preset.arch.1=6,3", "preset.arch.1", "repeats the layer sizes of preset.arch.0"),
    ])
    def test_a_repeated_grid_point_fails_before_any_run_trains(self, tmp_path, capsys, command, experiment, override, key, message):
        code = main([
            command, "--out", str(tmp_path),
            "--set", f"experiment={experiment}", "--set", "seed=5", "--set", "data.source=synth",
            "--set", "data.num_classes=3", "--set", "data.features=6",
            "--set", "data.train_samples=200", "--set", "data.test_samples=60",
            "--set", "preset.arch.0=6,3", "--set", "preset.arch.1=6,8,3", "--set", "preset.arch.2=6,4,3",
            "--set", "preset.samples_per_client=1,5", "--set", "fed.num_clients=10", "--set", "fed.rounds=2",
            "--set", "central.epochs=1", "--set", override,
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: {message}")
        assert list(tmp_path.glob("*.csv")) == []
        assert "run.status = failed" in (tmp_path / "manifest.txt").read_text().splitlines()

    def test_unpartitionable_grid_point_fails_before_any_run_trains(self, tmp_path, capsys):
        code = main([
            "train-fed", "--out", str(tmp_path),
            "--set", "experiment=single_label_sweep", "--set", "seed=5", "--set", "data.source=synth",
            "--set", "data.num_classes=3", "--set", "data.features=6",
            "--set", "data.train_samples=300", "--set", "data.test_samples=60",
            "--set", "model.layers=6,8,3", "--set", "fed.num_clients=10", "--set", "fed.rounds=2",
            "--set", "preset.samples_per_client=5,200",  # 10 clients of 200 one-class samples: the pools run out
        ])
        assert code == 2
        assert capsys.readouterr().err.startswith("config error: preset.samples_per_client: class 0 exhausted")
        assert list(tmp_path.glob("*.csv")) == []
        assert "run.status = failed" in (tmp_path / "manifest.txt").read_text().splitlines()


class TestCliTrainCentral:
    def test_custom_central_run(self, tmp_path):
        code = main([
            "train-central", "--out", str(tmp_path),
            "--set", "seed=3", "--set", "data.source=synth",
            "--set", "data.num_classes=3", "--set", "data.features=6",
            "--set", "data.train_samples=90", "--set", "data.test_samples=30",
            "--set", "model.layers=6,3",
            "--set", "central.epochs=2", "--set", "central.lr=0.3", "--set", "central.batch_size=16",
        ])
        assert code == 0
        rows = read_csv(tmp_path / "rounds.csv")
        assert len(rows) == 1 + 2
        assert "run.outputs = rounds.csv,plot_rounds.gnuplot" in (tmp_path / "manifest.txt").read_text().splitlines()
        assert (tmp_path / "plot_rounds.gnuplot").exists()

    @pytest.mark.parametrize(
        "override", ["central.lr=-1", "central.batch_size=0", "central.epochs=-1", "model.activation=tanh", "model.layers=6,0"]
    )
    def test_range_errors_name_the_key(self, tmp_path, capsys, override):
        assert main(["train-central", "--out", str(tmp_path)] + SYNTH_CENTRAL + ["--set", override]) == 2
        err = capsys.readouterr().err
        assert f"config error: {override.split('=')[0]}: " in err
        assert "Traceback" not in err

    def test_zero_epochs_header_only(self, tmp_path):
        assert main(["train-central", "--out", str(tmp_path)] + SYNTH_CENTRAL + ["--set", "central.epochs=0"]) == 0
        assert read_csv(tmp_path / "rounds.csv") == [["round", "train_acc", "test_acc", "mean_client_loss", "elapsed_s"]]

    def test_diverged_run_keeps_completed_epochs(self, tmp_path, monkeypatch):
        import fedsim.federation as federation

        original = federation.loss_and_grad_raw
        calls = []

        def nan_loss_in_epoch_1(*args):
            calls.append(1)
            value, grad = original(*args)
            return (float("nan") if len(calls) > 6 else value), grad  # 90 rows in batches of 16: 6 steps an epoch

        monkeypatch.setattr(federation, "loss_and_grad_raw", nan_loss_in_epoch_1)
        code = main(["train-central", "--out", str(tmp_path)] + SYNTH_CENTRAL + [
            "--set", "central.epochs=3", "--set", "central.batch_size=16",
        ])
        assert code == 3
        assert [row[0] for row in read_csv(tmp_path / "rounds.csv")[1:]] == ["0"]
        assert "run.failed_round = 1" in (tmp_path / "manifest.txt").read_text().splitlines()

    def test_weights_that_overflow_at_an_epochs_last_step_are_a_divergence(self, tmp_path, capsys):
        # full-batch steps at lr 1e24: the losses of epoch 3 are finite, its last step's weights are not
        code = main([
            "train-central", "--out", str(tmp_path),
            "--set", "seed=3", "--set", "data.source=synth", "--set", "data.num_classes=3", "--set", "data.features=6",
            "--set", "data.train_samples=60", "--set", "data.test_samples=0", "--set", "model.layers=6,16,16,3",
            "--set", "central.batch_size=full", "--set", "central.lr=1e24", "--set", "central.epochs=4",
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "diverged: client -1 diverged in round 3" in err.splitlines()[-1]
        assert "config error" not in err
        assert "run.failed_round = 3" in (tmp_path / "manifest.txt").read_text().splitlines()
        assert [row[0] for row in read_csv(tmp_path / "rounds.csv")[1:]] == ["0", "1", "2"]


class TestCliCost:
    def test_zero_sheet_zeroes_all_breakdowns(self, tmp_path, capsys):
        code = main([
            "cost", "--out", str(tmp_path),
            "--set", "price.zero=true",
            "--set", "cost.model_size_bytes=500000",
            "--set", "cost.rounds=200", "--set", "cost.rounds_per_day=100",
        ])
        assert code == 0
        for kind in ("fl_training", "fl_deployment", "central"):
            rows = read_csv(tmp_path / f"breakdown_{kind}.csv")
            assert rows[0] == ["item", "name", "category", "quantity", "unit_price", "dollars"]
            assert all(float(r[5]) == 0.0 for r in rows[1:])
        assert "total" in capsys.readouterr().out

    def test_central_scenario_only(self, tmp_path):
        code = main(["cost", "--out", str(tmp_path), "--set", "cost.scenario=central"])
        assert code == 0
        rows = read_csv(tmp_path / "breakdown_central.csv")
        total = sum(float(r[5]) for r in rows[1:])
        assert total == pytest.approx(1945.54, abs=0.01)

    def test_model_size_sweep_preset(self, tmp_path):
        code = main(["cost", "--out", str(tmp_path), "--set", "experiment=cost_model_size_sweep"])
        assert code == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert rows[0] == ["value", "training_cost", "deployment_cost"]
        assert len(rows) == 1 + 4

    def test_price_override(self, tmp_path):
        code = main([
            "cost", "--out", str(tmp_path),
            "--set", "cost.scenario=fl_deployment",
            "--set", "cost.model_size_bytes=1000000000",
            "--set", "cost.rounds=1", "--set", "cost.rounds_per_day=1",
            "--set", "price.data_out_per_gb=1.0",
            "--set", "price.instance.portal=0.0",
        ])
        assert code == 0
        rows = read_csv(tmp_path / "breakdown_fl_deployment.csv")
        transfer = next(r for r in rows[1:] if "downloads" in r[1])
        assert float(transfer[5]) == pytest.approx(12_000_000.0)


class TestCliSweepAndPartition:
    def test_generic_sweep_command(self, tmp_path):
        code = main([
            "sweep", "--out", str(tmp_path),
            "--set", "cost.sweep.dimension=rounds",
            "--set", "cost.sweep.values=100,200",
            "--set", "cost.model_size_bytes=500000",
            "--set", "cost.rounds=100", "--set", "cost.rounds_per_day=100",
        ])
        assert code == 0
        rows = read_csv(tmp_path / "sweep.csv")
        assert len(rows) == 3
        assert float(rows[2][1]) > float(rows[1][1])

    def _sweep_rejects(self, tmp_path, capsys, dimension, values, key):
        code = main([
            "sweep", "--out", str(tmp_path),
            "--set", f"cost.sweep.dimension={dimension}",
            "--set", f"cost.sweep.values={values}",
            "--set", "cost.model_size_bytes=500000",
            "--set", "cost.rounds=100", "--set", "cost.rounds_per_day=100",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "dimension, values",
        [("rounds_per_day", "0,10"), ("rounds", "100,-1"), ("model_size", "-5"), ("rounds", "inf"), ("rounds", "2.5")],
    )
    def test_rejected_swept_value_names_its_key(self, tmp_path, capsys, dimension, values):
        self._sweep_rejects(tmp_path, capsys, dimension, values, "cost.sweep.values")

    def test_unknown_sweep_dimension_names_its_key(self, tmp_path, capsys):
        self._sweep_rejects(tmp_path, capsys, "bogus", "100", "cost.sweep.dimension")

    def test_partition_stats(self, tmp_path):
        code = main([
            "partition-stats", "--out", str(tmp_path),
            "--set", "seed=2", "--set", "data.source=synth",
            "--set", "data.num_classes=4", "--set", "data.features=6",
            "--set", "data.train_samples=400",
            "--set", "partition.kind=single_label_multi_sample",
            "--set", "partition.samples_per_client=20",
            "--set", "fed.num_clients=8",
        ])
        assert code == 0
        rows = read_csv(tmp_path / "shards.csv")
        assert rows[0] == ["client_id", "num_samples", "dominant_label", "census_entropy"]
        assert len(rows) == 1 + 8
        # single-label shards have zero census entropy
        assert all(float(r[3]) == 0.0 for r in rows[1:])
        assert all(int(r[1]) == 20 for r in rows[1:])


SYNTH_CENTRAL = [
    "--set", "seed=3", "--set", "data.source=synth",
    "--set", "data.num_classes=3", "--set", "data.features=6",
    "--set", "data.train_samples=90", "--set", "data.test_samples=30",
    "--set", "model.layers=6,3", "--set", "central.epochs=1",
]


class TestConfigKeys:
    @pytest.mark.parametrize(
        "path",
        sorted((REPO / "configs").glob("*.cfg")) + sorted((REPO / "bench" / "workloads").glob("*.cfg")),
        ids=lambda p: f"{p.parent.name}/{p.name}",
    )
    def test_bundled_config_keys_are_accepted(self, path):
        effective_config(load_config(path))

    @pytest.mark.parametrize("experiment", list(PRESETS))
    def test_preset_keys_are_accepted(self, experiment):
        assert set(PRESETS[experiment]) <= set(effective_config({"experiment": experiment}))

    @pytest.mark.parametrize("key", ["server.step", "server.m", "server.v", "cost.bogus", "price.bogus"])
    def test_non_field_keys_are_rejected(self, tmp_path, capsys, key):
        assert main(["cost", "--out", str(tmp_path), "--set", f"{key}=1"]) == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["price.bogus", "price.instance.bogus", "cost.bogus"])
    @pytest.mark.parametrize(
        "argv",
        [["train-fed"] + SYNTH_FED, ["train-central"] + SYNTH_CENTRAL, ["cost"], ["sweep"], ["partition-stats"] + SYNTH_FED],
        ids=lambda argv: argv[0],
    )
    def test_unknown_keys_are_rejected_in_every_command(self, tmp_path, capsys, argv, key):
        assert main(argv + ["--out", str(tmp_path), "--set", f"{key}=1"]) == 2
        assert capsys.readouterr().err == f"config error: {key}: unknown config key\n"

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["train-fed"] + SYNTH_FED + ["--set", "fed.batch_size=true"], "fed.batch_size"),
            (["train-central"] + SYNTH_CENTRAL + ["--set", "central.batch_size=true"], "central.batch_size"),
            (["train-fed"] + SYNTH_FED + ["--set", "fed.eval_every=0"], "eval_every"),
            (["train-fed"] + SYNTH_FED + ["--set", "fed.eval_every=2.5"], "fed.eval_every"),
            (["train-fed"] + SYNTH_FED + ["--set", "fed.eval_every=true"], "fed.eval_every"),
            (["train-fed"] + SYNTH_FED + ["--set", "model.layers=6,2"], "3 classes"),
            (["train-central"] + SYNTH_CENTRAL + ["--set", "model.layers=5,3"], "6 features"),
        ],
        ids=["fed.batch_size=true", "central.batch_size=true", "fed.eval_every=0", "fed.eval_every=2.5", "fed.eval_every=true",
             "model.layers=6,2", "model.layers=5,3"],
    )
    def test_bad_values_are_config_errors(self, tmp_path, capsys, argv, named):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert named in err
        assert "Traceback" not in err
        manifest = tmp_path / "manifest.txt"
        if manifest.exists():
            assert "run.status = running" not in manifest.read_text()

    @pytest.mark.parametrize(
        "override, code",
        [("model.layers=abc", 2), ("fed.batch_size=0", 2), ("data.source=mnist", 4)],
    )
    def test_failed_run_marks_manifest_failed(self, tmp_path, monkeypatch, capsys, override, code):
        monkeypatch.setenv("FEDSIM_DATA_DIR", str(tmp_path / "nowhere"))
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED + ["--set", override]) == code
        err = capsys.readouterr().err.strip()
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "run.status = failed" in lines
        assert f"run.error = {err}" in lines


    @pytest.mark.parametrize(
        "override",
        [
            "fed.batch_size=0", "fed.local_epochs=0", "fed.client_fraction=1.5", "server.lr=0", "server.kind=bogus",
            "server.lr=nan", "server.beta1=1e300", "server.beta2=1", "server.rho=-0.5", "server.eps=0",
            "fed.client_lr=inf", "fed.client_lr=nan", "fed.num_clients=0", "fed.num_clients=-3",
            "partition.kind=bogus", "partition.samples_per_client=0", "model.activation=tanh", "model.layers=6,0,3",
            "model.layers=6", "data.test_samples=-1", "data.train_samples=0", "data.features=0", "data.num_classes=0",
            "data.num_classes=13", "data.features=99999999999999999999999", "data.train_samples=99999999999999999999999",
            "data.test_samples=99999999999999999999999",
        ],
    )
    def test_range_errors_name_the_key(self, tmp_path, capsys, override):
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED + ["--set", override]) == 2
        err = capsys.readouterr().err
        assert f"config error: {override.split('=')[0]}: " in err
        assert "Traceback" not in err
        if override == "data.test_samples=-1":  # 0 is accepted, so the message says what it means
            assert err == "config error: data.test_samples: must be >= 0 (0: no test set)\n"

    @pytest.mark.parametrize("command", ["train-fed", "train-central"])
    def test_a_net_too_large_for_one_array_names_its_key(self, tmp_path, capsys, command):
        argv = [command, "--out", str(tmp_path)] + (SYNTH_FED if command == "train-fed" else SYNTH_CENTRAL)
        assert main(argv + ["--set", "model.layers=6,1000000000000000000,3"]) == 2  # 8e19 bytes of weights
        err = capsys.readouterr().err
        assert err.startswith("config error: model.layers: layer_sizes give 10000000000000000003 parameters, ")
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["train-fed"] + SYNTH_FED + ["--set", "data.features=5"], "model.layers"),
            (["train-fed"] + SYNTH_FED + ["--set", "data.num_classes=4"], "model.layers"),
            (["train-central"] + SYNTH_CENTRAL + ["--set", "data.features=7"], "model.layers"),
            (
                ["train-fed", "--set", "experiment=samples_sweep"] + SYNTH_FED
                + ["--set", "preset.arch.0=6,3", "--set", "preset.arch.1=7,3", "--set", "preset.samples_per_client=5"],
                "preset.arch.1",
            ),
        ],
        ids=["fed-features", "fed-classes", "central-features", "grid-arch"],
    )
    def test_a_dataset_the_net_does_not_fit_names_the_net_before_any_run_trains(self, tmp_path, capsys, argv, key):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: a dataset of ")
        assert list(tmp_path.glob("*.csv")) == []
        assert "run.status = failed" in (tmp_path / "manifest.txt").read_text().splitlines()

    def test_zero_test_samples_train_without_a_test_set(self, tmp_path):
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED + ["--set", "data.test_samples=0"]) == 0
        assert {row[2] for row in read_csv(tmp_path / "rounds.csv")[1:]} == {""}

    @pytest.mark.parametrize("override", ["fed.num_clients=0", "partition.samples_per_client=-1", "partition.kind=bogus"])
    def test_partition_stats_range_errors_name_the_key(self, tmp_path, capsys, override):
        argv = ["partition-stats", "--out", str(tmp_path), "--config", str(REPO / "configs" / "synth_quick.cfg")]
        assert main(argv + ["--set", override]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {override.split('=')[0]}: ")

    @pytest.mark.parametrize("command", ["train-fed", "partition-stats"])
    @pytest.mark.parametrize("override", ["fed.num_clients=13", "partition.samples_per_client=21"])
    def test_a_plan_the_data_cannot_meet_names_samples_per_client(self, tmp_path, capsys, command, override):
        assert main([command, "--out", str(tmp_path)] + SYNTH_FED + ["--set", override]) == 2  # 120 rows
        err = capsys.readouterr().err
        assert err.startswith("config error: partition.samples_per_client: plan needs ")
        assert "fed.num_clients" in err and "data.train_samples" in err

    @pytest.mark.parametrize(
        "override, key",
        [("preset.samples_per_client=5,0", "preset.samples_per_client"), ("preset.arch.1=6,0,3", "preset.arch.1")],
    )
    def test_grid_range_errors_name_the_key(self, tmp_path, capsys, override, key):
        argv = ["train-fed", "--out", str(tmp_path), "--set", "experiment=samples_sweep"] + SYNTH_FED
        argv += ["--set", "preset.arch.0=6,3", "--set", "preset.arch.1=6,8,3", "--set", "preset.samples_per_client=5"]
        assert main(argv + ["--set", override]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key}: ")
        assert list(tmp_path.glob("*.csv")) == []  # rejected before any run trains

    @pytest.mark.parametrize(
        "scenario, override",
        [
            ("fl_training", "cost.rounds_per_day=0"), ("central", "cost.label_bytes_back=-1"),
            ("fl_training", "cost.model_size_bytes=nan"), ("fl_training", "price.data_out_per_gb=inf"),
            ("fl_training", "price.data_out_per_gb=-0.5"), ("fl_training", "price.instance.portal=-1"),
            ("fl_training", "cost.cohort=-1"), ("central", "cost.ingestion_days=-1"),
        ],
    )
    def test_cost_range_errors_name_the_key(self, tmp_path, capsys, scenario, override):
        fl_keys = ["--set", "cost.model_size_bytes=500000", "--set", "cost.rounds=200", "--set", "cost.rounds_per_day=100"]
        argv = ["cost", "--out", str(tmp_path)] + fl_keys + ["--set", f"cost.scenario={scenario}", "--set", override]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"config error: {override.split('=')[0]}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("override", ["model.layers=abc", "fed.client_fraction=1.5"])
    def test_run_error_survives_reading_the_manifest_as_a_config(self, tmp_path, capsys, override):
        assert main(["train-fed", "--out", str(tmp_path)] + SYNTH_FED + ["--set", override]) == 2
        err = capsys.readouterr().err.strip()
        assert "," in err  # the messages that used to come back as lists
        assert load_config(tmp_path / "manifest.txt")["run.error"] == err

    def test_rerun_of_failed_manifest_drops_its_error(self, tmp_path):
        failed, fixed = tmp_path / "failed", tmp_path / "fixed"
        assert main(["train-fed", "--out", str(failed)] + SYNTH_FED + ["--set", "fed.eval_every=0"]) == 2
        code = main(["train-fed", "--config", str(failed / "manifest.txt"), "--set", "fed.eval_every=2", "--out", str(fixed)])
        assert code == 0
        manifest = (fixed / "manifest.txt").read_text()
        assert "run.status = complete" in manifest
        assert "run.error" not in manifest


class TestDemos:
    @pytest.mark.parametrize(
        "demo", ["01_federated_equals_central.py", "02_samples_per_device.py", "04_cost_analysis.py"]
    )
    def test_demo_runs(self, demo):
        done = subprocess.run(
            [sys.executable, str(REPO / "demos" / demo)], env=child_env(), capture_output=True, text=True, timeout=300
        )
        assert done.returncode == 0, done.stderr
