"""The cohort pool: which runs get one, that it changes no bit, and that its failures keep the one-process contract.

Tests that need the pool force its size by patching federation._pool_workers,
so they run the same on any number of CPUs.
"""

import csv
import multiprocessing
import os
import pickle

import numpy as np
import pytest

from fedsim import federation, pool
from fedsim.cli import main
from fedsim.config import FieldError
from fedsim.data import IID, PartitionPlan, partition, synth_dataset
from fedsim.federation import ClientDivergedError, FedConfig, select_clients, train_federated
from fedsim.nn import MlpSpec, ShapeMismatchError
from fedsim.rng import derive_seed

SEED, CLIENTS, FRACTION = 7, 8, 0.5
FED = [
    "--set", f"seed={SEED}",
    "--set", "data.source=synth",
    "--set", "data.num_classes=3",
    "--set", "data.features=6",
    "--set", "data.train_samples=160",
    "--set", "data.test_samples=60",
    "--set", "model.layers=6,5,3",
    "--set", "partition.samples_per_client=10",
    "--set", f"fed.num_clients={CLIENTS}",
    "--set", f"fed.client_fraction={FRACTION}",
    "--set", "fed.batch_size=5",
    "--set", "fed.client_lr=0.2",
    "--set", "fed.rounds=4",
]


def cohort(round_index):
    return [int(c) for c in select_clients(CLIENTS, FRACTION, derive_seed(SEED, "round", round_index, "select"))]


def fail_at(monkeypatch, round_index, position, exc):
    """Make client_update raise exc for the client at this cohort position of this round, wherever it trains."""
    client = cohort(round_index)[position]
    target = federation._client_seed(SEED, round_index, client)
    original = federation.client_update

    def failing(shard, dataset, weights, local_epochs, batch_size, client_lr, client_seed, *args, **kwargs):
        if client_seed == target:
            raise exc(shard.client_id) if exc is ClientDivergedError else exc("a patched failure")
        return original(shard, dataset, weights, local_epochs, batch_size, client_lr, client_seed, *args, **kwargs)

    monkeypatch.setattr(federation, "client_update", failing)
    return client


def pin_workers(monkeypatch, workers):
    monkeypatch.setattr(federation, "_pool_workers", lambda *args: workers)


def data_rows(path):
    with open(path, newline="") as f:
        return [row[:4] for row in csv.reader(f)]  # every column but elapsed_s


def manifest_lines(out):
    return (out / "manifest.txt").read_text().splitlines()


class TestPoolSize:
    def test_one_process_per_usable_cpu_while_every_step_is_single_threaded_blas(self, monkeypatch):
        monkeypatch.setattr(federation, "usable_cpus", lambda: 8)
        assert federation._pool_workers(MlpSpec((100, 128, 10)), 10, 10) == 8  # 10*100*128 = 128,000
        assert federation._pool_workers(MlpSpec((784, 64, 10)), 1, 500) == 8  # 1*784*64 = 50,176
        assert federation._pool_workers(MlpSpec((100, 128, 10)), 10, 3) == 3  # no more processes than clients
        assert federation._pool_workers(MlpSpec((512, 512)), 1, 10) == 8  # 4 * 65,536 exactly

    def test_threaded_blas_steps_stay_in_one_process(self, monkeypatch):
        monkeypatch.setattr(federation, "usable_cpus", lambda: 8)
        assert federation._pool_workers(MlpSpec((512, 512)), 2, 10) == 1
        assert federation._pool_workers(MlpSpec((784, 500, 200, 10)), 10, 10) == 1  # 3,920,000

    def test_cohort_workers_sizes_by_the_largest_batch(self, monkeypatch):
        monkeypatch.setattr(federation, "usable_cpus", lambda: 2)
        ds = synth_dataset(3, 512, 40, seed=1)
        shards = partition(ds, PartitionPlan(IID, 4, 10, seed=1))
        config = FedConfig(4, 1.0, 1, 1, 0.1, 1, 1)
        assert federation.cohort_workers(MlpSpec((512, 512)), config, shards) == 2
        full_shard = FedConfig(4, 1.0, 1, None, 0.1, 1, 1)  # 10 rows a step
        assert federation.cohort_workers(MlpSpec((512, 512)), full_shard, shards) == 1


class TestPoolKeepsTheBits:
    def test_more_workers_than_cores_give_the_one_process_run(self, monkeypatch):
        # 40 clients at fraction 0.5: 20 a round, so each of 4 workers reuses its two slots
        ds = synth_dataset(3, 8, 400, seed=3)
        shards = partition(ds, PartitionPlan(IID, 40, 10, seed=3))
        config = FedConfig(40, 0.5, 2, 4, 0.3, 4, 3)
        runs = []
        for workers in (1, 4, 4):
            pin_workers(monkeypatch, workers)
            runs.append(train_federated(MlpSpec((8, 6, 3)), config, shards, ds))
            assert multiprocessing.active_children() == []
        (serial, final), *pooled = runs
        for history, state in pooled:
            assert [m.mean_client_loss for m in history] == [m.mean_client_loss for m in serial]
            assert [m.train_accuracy for m in history] == [m.train_accuracy for m in serial]
            assert np.array_equal(state.weights.values, final.weights.values)


class TestPoolFailures:
    def test_a_worker_clients_divergence_reads_as_in_one_process(self, tmp_path, monkeypatch, capsys):
        client = fail_at(monkeypatch, 2, 1, ClientDivergedError)  # position 1: a worker's client at 2 workers
        runs = {}
        for workers in (1, 2):
            pin_workers(monkeypatch, workers)
            out = tmp_path / str(workers)
            assert main(["train-fed", "--out", str(out)] + FED) == 3
            assert multiprocessing.active_children() == []
            runs[workers] = capsys.readouterr().err, data_rows(out / "rounds.csv"), manifest_lines(out)
        err, rows, lines = runs[2]
        assert err == f"diverged: client {client} diverged in round 2 (non-finite loss or weights)\n"
        assert [row[0] for row in rows[1:]] == ["0", "1"]
        assert "run.failed_round = 2" in lines and "run.workers = 2" in lines
        assert runs[1][:2] == (err, rows)

    def test_library_error_names_the_client_and_round(self, monkeypatch):
        client = fail_at(monkeypatch, 1, 3, ClientDivergedError)
        pin_workers(monkeypatch, 2)
        ds = synth_dataset(3, 6, 160, seed=SEED)
        shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
        config, kept = FedConfig(CLIENTS, FRACTION, 1, 5, 0.2, 4, SEED), []
        with pytest.raises(ClientDivergedError) as err:
            train_federated(MlpSpec((6, 5, 3)), config, shards, ds, on_round=kept.append)
        assert (err.value.client_id, err.value.round_index) == (client, 1)
        assert [m.round_index for m in kept] == [0]

    def test_a_worker_exception_is_raised_with_its_type(self, tmp_path, monkeypatch, capsys):
        fail_at(monkeypatch, 1, 1, ShapeMismatchError)
        pin_workers(monkeypatch, 2)
        assert main(["train-fed", "--out", str(tmp_path)] + FED) == 2
        assert capsys.readouterr().err == "config error: a patched failure\n"
        assert "run.status = failed" in manifest_lines(tmp_path)
        assert multiprocessing.active_children() == []

    def test_a_worker_exception_larger_than_a_pipe_buffer_arrives_whole(self, monkeypatch):
        fail_at(monkeypatch, 0, 1, lambda _: ShapeMismatchError("x" * 300_000))
        pin_workers(monkeypatch, 2)
        ds = synth_dataset(3, 6, 160, seed=SEED)
        shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
        with pytest.raises(ShapeMismatchError) as err:
            train_federated(MlpSpec((6, 5, 3)), FedConfig(CLIENTS, FRACTION, 1, 5, 0.2, 2, SEED), shards, ds)
        assert str(err.value) == "x" * 300_000
        assert multiprocessing.active_children() == []

    def test_an_exception_that_does_not_pickle_arrives_as_a_named_runtime_error(self):
        assert pickle.loads(pool.pickled(ClientDivergedError(3, 2))).args == ClientDivergedError(3, 2).args
        err = pickle.loads(pool.pickled(FieldError("lr", "must be positive")))
        assert type(err) is RuntimeError and str(err) == "FieldError in a cohort worker: lr must be positive"

    def test_interrupted_run_leaves_no_worker(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        original = federation.client_update
        calls = []

        def interrupt_in_round_2(*args, **kwargs):
            if os.getpid() == parent:
                calls.append(1)
                if len(calls) > 2 * 2:  # the parent trains positions 0 and 2 of each round of 4
                    raise KeyboardInterrupt
            return original(*args, **kwargs)

        monkeypatch.setattr(federation, "client_update", interrupt_in_round_2)
        pin_workers(monkeypatch, 2)
        assert main(["train-fed", "--out", str(tmp_path)] + FED) == 130
        assert capsys.readouterr().err == "interrupted: stopped by SIGINT\n"
        assert "run.status = interrupted" in manifest_lines(tmp_path)
        assert [row[0] for row in data_rows(tmp_path / "rounds.csv")[1:]] == ["0", "1"]
        assert multiprocessing.active_children() == []

    def test_normal_run_leaves_no_worker_and_records_the_pool(self, tmp_path, monkeypatch):
        pin_workers(monkeypatch, 2)
        assert main(["train-fed", "--out", str(tmp_path)] + FED) == 0
        assert multiprocessing.active_children() == []
        lines = manifest_lines(tmp_path)
        assert "run.workers = 2" in lines
        assert {line.split(" = ")[0] for line in lines if line.startswith("run.platform.")} == {
            "run.platform.numpy", "run.platform.blas", "run.platform.blas_version", "run.platform.cpu_flags_sha",
            "run.platform.cpus", "run.platform.openblas_num_threads", "run.platform.omp_num_threads",
            "run.platform.mkl_num_threads",
        }
        assert data_rows(tmp_path / "rounds.csv")[0] == ["round", "train_acc", "test_acc", "mean_client_loss"]

    def test_a_worker_that_dies_fails_the_run_instead_of_hanging(self, monkeypatch):
        parent = os.getpid()
        original = federation.client_update

        def dies_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return original(*args, **kwargs)

        monkeypatch.setattr(federation, "client_update", dies_in_a_worker)
        pin_workers(monkeypatch, 2)
        ds = synth_dataset(3, 6, 160, seed=SEED)
        shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
        with pytest.raises(RuntimeError, match="exited with code 9"):
            train_federated(MlpSpec((6, 5, 3)), FedConfig(CLIENTS, FRACTION, 1, 5, 0.2, 2, SEED), shards, ds)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_mid_run_is_recorded_as_failed_and_raised(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        original = federation.client_update
        calls = []

        def dies_in_round_2(*args, **kwargs):
            if os.getpid() != parent:
                calls.append(1)  # the worker's own copy: it trains positions 1 and 3 of each round of 4
                if len(calls) > 2 * 2:
                    os._exit(9)
            return original(*args, **kwargs)

        monkeypatch.setattr(federation, "client_update", dies_in_round_2)
        pin_workers(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="exited with code 9") as err:
            main(["train-fed", "--out", str(tmp_path)] + FED)
        assert type(err.value) is RuntimeError
        lines = manifest_lines(tmp_path)
        assert "run.status = failed" in lines
        assert f"run.error = RuntimeError: {err.value}" in lines
        assert [row[0] for row in data_rows(tmp_path / "rounds.csv")[1:]] == ["0", "1"]
        assert capsys.readouterr().err == ""  # a bug's traceback is left to the interpreter
        assert multiprocessing.active_children() == []
