"""The cohort pool: which runs get one, that it changes no bit, and that its failures keep the one-process contract.

Tests that need the pool force its size through the CPU count federation.layout
reads (federation.usable_cpus), so they run the same on any number of CPUs. Tests that make a client fail
patch federation.group_update, which every process calls once per lockstep
group, whatever the group's size.
"""

import csv
import json
import multiprocessing
import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env

from fedsim import federation, pool
from fedsim.cli import main
from fedsim.config import FieldError
from fedsim.data import IID, ClientShard, PartitionPlan, partition, synth_dataset
from fedsim.federation import (
    ClientDivergedError,
    FedConfig,
    Layout,
    WorkerDiedError,
    layout,
    select_clients,
    train_federated,
)
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


def cohort(round_index, fraction=FRACTION):
    return [int(c) for c in select_clients(CLIENTS, fraction, derive_seed(SEED, "round", round_index, "select"))]


def fail_at(monkeypatch, round_index, position, exc, fraction=FRACTION):
    """Make the client at this cohort position of this round fail, wherever its group trains.

    With exc ClientDivergedError the client diverges as a real one does:
    group_update writes nan into its row of out and flags it. Any other exc
    is raised by group_update.
    """
    client = cohort(round_index, fraction)[position]
    target = federation._client_seed(SEED, round_index, client)
    original = federation.group_update

    def failing(shards, dataset, weights, local_epochs, batch_size, client_lr, client_seeds, workspace, out):
        if target in client_seeds and exc is not ClientDivergedError:
            raise exc("a patched failure")
        diverged = original(shards, dataset, weights, local_epochs, batch_size, client_lr, client_seeds, workspace, out)
        if target in client_seeds:
            row = list(client_seeds).index(target)
            out[row], diverged[row] = np.nan, True
        return diverged

    monkeypatch.setattr(federation, "group_update", failing)
    return client


def pin_workers(monkeypatch, workers):
    """Give layout workers CPUs: a run whose steps fit one BLAS thread and whose cohort has as many clients gets N = workers."""
    monkeypatch.setattr(federation, "usable_cpus", lambda: workers)


def layout_of(monkeypatch, layers, cpus, batch_rows, cohort, fraction=1.0):
    """The layout, on cpus CPUs, of a run of the net layers whose local batches have batch_rows rows.

    Each client holds one batch; cohort of them train each round, of
    cohort / fraction in all.
    """
    pin_workers(monkeypatch, cpus)
    clients = round(cohort / fraction)
    shards = [ClientShard(c, np.zeros(batch_rows), [batch_rows]) for c in range(clients)]
    config = FedConfig(
        num_clients=clients, client_fraction=fraction, local_epochs=1, batch_size=batch_rows, client_lr=0.1, rounds=1, seed=1
    )
    assert config.cohort_size == cohort
    return layout(MlpSpec(layers), config, shards)


def data_rows(path):
    with open(path, newline="") as f:
        return [row[:4] for row in csv.reader(f)]  # every column but elapsed_s


def manifest_lines(out):
    return (out / "manifest.txt").read_text().splitlines()


def a_worker_kills_itself(workers, victim, record):
    """Train on `workers` processes while worker `victim` SIGKILLs itself 0.2 s into its first group of round 1.

    The worker writes its pid and the kill's time.monotonic() to record. The
    run must raise WorkerDiedError; this prints its message and the seconds
    from the kill to it as one JSON line. It runs as its own process (see
    test_a_dead_worker_is_named_at_once).
    """
    parent, original = os.getpid(), federation.group_update
    federation.usable_cpus = lambda: workers
    ds = synth_dataset(3, 6, 160, seed=SEED)
    shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
    config = FedConfig(num_clients=CLIENTS, client_fraction=1.0, batch_size=5, client_lr=0.2, rounds=3, seed=SEED)
    run_layout = layout(MlpSpec((6, 5, 3)), config, shards)
    assert run_layout.workers == workers
    # group g of K positions trains in process g % workers: the victim's first group is victim + 1
    target = federation._client_seed(SEED, 1, cohort(1, fraction=1.0)[run_layout.group * (victim + 1)])

    def kills_itself(shards, dataset, weights, local_epochs, batch_size, client_lr, client_seeds, *args):
        if os.getpid() != parent and target in client_seeds:
            time.sleep(0.2)
            Path(record).write_text(f"{os.getpid()} {time.monotonic()!r}")
            os.kill(os.getpid(), signal.SIGKILL)
        return original(shards, dataset, weights, local_epochs, batch_size, client_lr, client_seeds, *args)

    federation.group_update = kills_itself
    try:
        train_federated(MlpSpec((6, 5, 3)), config, shards, ds)
    except WorkerDiedError as err:
        seen_at = time.monotonic()
        pid, killed_at = Path(record).read_text().split()
        print(json.dumps({"pid": int(pid), "error": str(err), "late_s": seen_at - float(killed_at)}))


def in_own_process(helper, *args, **kwargs):
    """Run this module's helper(*args) in a process of its own, stopped after 60 s.

    A lost pipe end or turn then fails the case instead of hanging the suite.
    """
    code = f"from test_cohort_pool import {helper} as run; run(*{args!r})"
    env = child_env(Path(__file__).resolve().parent)
    return subprocess.run([sys.executable, "-c", code], env=env, timeout=60, **kwargs)


def on_three_processes(case, record):
    """Train on 3 processes in groups of one client, in a process of its own; print one JSON line.

    Group g is cohort position g, trained in process g % 3, so every round
    passes the turn from the parent to worker 1, from worker 1 to worker 2
    and back. The line holds, for the 3-process run and then the
    one-process run, the final weights as hex (or the error raised) and
    each completed round's mean loss. case is
    - "bits": no client fails;
    - "raises" or "diverges": the client at position 4 of round 1, in
      worker 1's second group, raises ShapeMismatchError or diverges, while
      worker 2 has trained position 5 and waits behind it;
    - "parent_dies": the parent writes its workers' pids to record and
      SIGKILLs itself while it trains position 3 of round 0, when both
      workers have trained their next group and wait for their turn.
    """
    federation._LOCKSTEP_BYTES = federation._ONE_ROW_LOCKSTEP_BYTES = 0  # K = 1
    ds = synth_dataset(3, 6, 160, seed=SEED)
    shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
    config = FedConfig(num_clients=CLIENTS, client_fraction=1.0, batch_size=5, client_lr=0.2, rounds=3, seed=SEED)
    if case in ("raises", "diverges"):
        fail_at(pytest.MonkeyPatch(), 1, 4, ShapeMismatchError if case == "raises" else ClientDivergedError, 1.0)
    elif case == "parent_dies":
        parent, original = os.getpid(), federation.group_update
        target = federation._client_seed(SEED, 0, cohort(0, fraction=1.0)[3])

        def dies(shards, dataset, weights, local_epochs, batch_size, client_lr, client_seeds, *args):
            if os.getpid() == parent and target in client_seeds:
                time.sleep(0.3)
                Path(record).write_text(" ".join(str(child.pid) for child in multiprocessing.active_children()))
                os.kill(parent, signal.SIGKILL)
            return original(shards, dataset, weights, local_epochs, batch_size, client_lr, client_seeds, *args)

        federation.group_update = dies
    runs = []
    for workers in (3, 1):
        federation.usable_cpus = lambda n=workers: n
        assert layout(MlpSpec((6, 5, 3)), config, shards) == Layout(workers, 1, True)
        kept = []
        try:
            _, state = train_federated(MlpSpec((6, 5, 3)), config, shards, ds, on_round=kept.append)
            outcome = state.weights.values.tobytes().hex()
        except (ShapeMismatchError, ClientDivergedError) as err:
            outcome = f"{type(err).__name__}: {err}"
        runs.append([outcome, [m.mean_client_loss for m in kept]])
    print(json.dumps(runs))


def gone(pid):
    """Whether process pid has exited (a zombie its new parent has not reaped counts as exited)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class TestPoolSize:
    # (layers, batch rows, cohort): a layout on 8 CPUs; K is a process's share, capped at 1.5 MiB // (16 P),
    # or at 3.25 MiB // (16 P) for one-row batches
    @pytest.mark.parametrize("layers, rows, cohort, expected", [
        ((100, 128, 10), 10, 10, Layout(8, 2, True)),  # 10*100*128 = 128,000
        ((784, 64, 10), 1, 500, Layout(8, 4, True)),  # 1*784*64 = 50,176
        ((100, 128, 10), 10, 3, Layout(3, 1, True)),  # no more processes than clients
        ((512, 512), 1, 10, Layout(8, 1, True)),  # 4 * 65,536 exactly
    ])
    def test_one_process_per_usable_cpu_while_every_step_is_single_threaded_blas(
        self, layers, rows, cohort, expected, monkeypatch
    ):
        assert layout_of(monkeypatch, layers, 8, rows, cohort) == expected

    @pytest.mark.parametrize("layers, rows, expected", [
        ((512, 512), 2, Layout(1, 1, False)),
        ((784, 500, 200, 10), 10, Layout(1, 1, False)),  # 3,920,000
    ])
    def test_threaded_blas_steps_stay_in_one_process(self, layers, rows, expected, monkeypatch):
        assert layout_of(monkeypatch, layers, 8, rows, 10) == expected

    def test_the_layout_sizes_by_the_largest_batch(self, monkeypatch):
        pin_workers(monkeypatch, 2)
        ds = synth_dataset(3, 512, 40, seed=1)
        shards = partition(ds, PartitionPlan(IID, 4, 10, seed=1))
        config = FedConfig(
            num_clients=4, client_fraction=1.0, local_epochs=1, batch_size=1, client_lr=0.1, rounds=1, seed=1
        )
        assert layout(MlpSpec((512, 512)), config, shards) == Layout(2, 1, True)
        full_shard = FedConfig(  # 10 rows a step
            num_clients=4, client_fraction=1.0, local_epochs=1, batch_size=None, client_lr=0.1, rounds=1, seed=1
        )
        assert layout(MlpSpec((512, 512)), full_shard, shards) == Layout(1, 1, False)


class TestPoolKeepsTheBits:
    def test_more_workers_than_cores_give_the_one_process_run(self, monkeypatch):
        # 40 clients at fraction 0.5: 20 a round, a group of 5 for each of 4 processes, each worker's turn passed by
        # the process before it
        ds = synth_dataset(3, 8, 400, seed=3)
        shards = partition(ds, PartitionPlan(IID, 40, 10, seed=3))
        config = FedConfig(
            num_clients=40, client_fraction=0.5, local_epochs=2, batch_size=4, client_lr=0.3, rounds=4, seed=3
        )
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
        # K = 2: positions 0-1 train in the parent and 2-3 in the worker; 3 is the second of the worker's group
        client = fail_at(monkeypatch, 2, 3, ClientDivergedError)
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
        config = FedConfig(num_clients=CLIENTS, client_fraction=FRACTION, batch_size=5, client_lr=0.2, rounds=4, seed=SEED)
        kept = []
        with pytest.raises(ClientDivergedError) as err:
            train_federated(MlpSpec((6, 5, 3)), config, shards, ds, on_round=kept.append)
        assert (err.value.client_id, err.value.round_index) == (client, 1)
        assert [m.round_index for m in kept] == [0]

    def test_a_worker_exception_is_raised_with_its_type(self, tmp_path, monkeypatch, capsys):
        fail_at(monkeypatch, 1, 2, ShapeMismatchError)  # K = 2: position 2 is the worker's group
        pin_workers(monkeypatch, 2)
        assert main(["train-fed", "--out", str(tmp_path)] + FED) == 2
        assert capsys.readouterr().err == "config error: a patched failure\n"
        assert "run.status = failed" in manifest_lines(tmp_path)

    @pytest.mark.parametrize("exc", [ShapeMismatchError, ClientDivergedError])
    def test_a_worker_failure_in_its_4th_group_reads_as_in_one_process(self, monkeypatch, exc):
        # the whole cohort at N = 2 and K = 1: group g is position g, trained in process g % 2, so 7 is the worker's 4th
        client = fail_at(monkeypatch, 1, 7, exc, fraction=1.0)
        pin_workers(monkeypatch, 2)
        for budget in ("_LOCKSTEP_BYTES", "_ONE_ROW_LOCKSTEP_BYTES"):
            monkeypatch.setattr(federation, budget, 0)
        ds = synth_dataset(3, 6, 160, seed=SEED)
        shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
        config = FedConfig(num_clients=CLIENTS, client_fraction=1.0, batch_size=5, client_lr=0.2, rounds=3, seed=SEED)
        assert layout(MlpSpec((6, 5, 3)), config, shards) == Layout(2, 1, True)
        kept = []
        with pytest.raises(exc) as err:
            train_federated(MlpSpec((6, 5, 3)), config, shards, ds, on_round=kept.append)
        assert type(err.value) is exc
        if exc is ClientDivergedError:
            assert (err.value.client_id, err.value.round_index) == (client, 1)
        else:
            assert str(err.value) == "a patched failure"
        assert [m.round_index for m in kept] == [0]

    def test_a_worker_exception_larger_than_a_pipe_buffer_arrives_whole(self, monkeypatch):
        fail_at(monkeypatch, 0, 2, lambda _: ShapeMismatchError("x" * 300_000))  # K = 2: the worker's group
        pin_workers(monkeypatch, 2)
        ds = synth_dataset(3, 6, 160, seed=SEED)
        shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
        config = FedConfig(num_clients=CLIENTS, client_fraction=FRACTION, batch_size=5, client_lr=0.2, rounds=2, seed=SEED)
        with pytest.raises(ShapeMismatchError) as err:
            train_federated(MlpSpec((6, 5, 3)), config, shards, ds)
        assert str(err.value) == "x" * 300_000

    def test_a_loss_that_starts_with_the_error_tag_reads_as_a_loss(self, monkeypatch):
        # a group's losses go as their float64 bytes behind a tag byte, so a loss whose first byte is the
        # error tag's is still a loss: here every client's, 69 * 2**-1074, which the round's mean keeps exactly
        tagged = float(np.frombuffer(pool._RAISED + bytes(7))[0])
        original = federation._train_group

        def tagged_losses(*args):
            losses = original(*args)
            losses[:] = tagged
            return losses

        monkeypatch.setattr(federation, "_train_group", tagged_losses)  # the parent's groups
        monkeypatch.setattr(pool, "_train_group", tagged_losses)  # the worker's, patched before the fork
        pin_workers(monkeypatch, 2)
        ds = synth_dataset(3, 6, 160, seed=SEED)
        shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
        config = FedConfig(num_clients=CLIENTS, client_fraction=FRACTION, batch_size=5, client_lr=0.2, rounds=2, seed=SEED)
        assert layout(MlpSpec((6, 5, 3)), config, shards).workers == 2
        history, _ = train_federated(MlpSpec((6, 5, 3)), config, shards, ds)
        assert 0 < tagged and [m.mean_client_loss for m in history] == [tagged, tagged]

    def test_an_exception_that_does_not_pickle_arrives_as_a_named_runtime_error(self):
        assert pickle.loads(pool.pickled(ClientDivergedError(3, 2))).args == ClientDivergedError(3, 2).args
        err = pickle.loads(pool.pickled(FieldError("lr", "must be positive")))
        assert type(err) is RuntimeError and str(err) == "FieldError in a cohort worker: lr must be positive"

    def test_interrupted_run_leaves_no_worker(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        original = federation.group_update
        calls = []

        def interrupt_in_round_2(shards, *args, **kwargs):
            if os.getpid() == parent:
                calls.extend(shards)
                if len(calls) > 2 * 2:  # the parent trains positions 0 and 1 of each round of 4 (K = 2)
                    raise KeyboardInterrupt
            return original(shards, *args, **kwargs)

        monkeypatch.setattr(federation, "group_update", interrupt_in_round_2)
        pin_workers(monkeypatch, 2)
        assert main(["train-fed", "--out", str(tmp_path)] + FED) == 130
        assert capsys.readouterr().err == "interrupted: stopped by SIGINT\n"
        assert "run.status = interrupted" in manifest_lines(tmp_path)
        assert [row[0] for row in data_rows(tmp_path / "rounds.csv")[1:]] == ["0", "1"]

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
        original = federation.group_update

        def dies_in_a_worker(*args, **kwargs):
            if os.getpid() != parent:
                os._exit(9)
            return original(*args, **kwargs)

        monkeypatch.setattr(federation, "group_update", dies_in_a_worker)
        pin_workers(monkeypatch, 2)
        ds = synth_dataset(3, 6, 160, seed=SEED)
        shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
        config = FedConfig(num_clients=CLIENTS, client_fraction=FRACTION, batch_size=5, client_lr=0.2, rounds=2, seed=SEED)
        with pytest.raises(WorkerDiedError, match=r"^cohort worker \d+ exited with code 9$") as err:
            train_federated(MlpSpec((6, 5, 3)), config, shards, ds)
        assert err.value.exitcode == 9

    def test_a_worker_killed_between_rounds_is_named_when_the_next_round_starts(self, monkeypatch):
        pin_workers(monkeypatch, 2)
        ds = synth_dataset(3, 6, 160, seed=SEED)
        shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
        config = FedConfig(num_clients=CLIENTS, client_fraction=FRACTION, batch_size=5, client_lr=0.2, rounds=3, seed=SEED)
        killed = []

        def kill_the_worker(metrics):
            if metrics.round_index == 0:
                (worker,) = multiprocessing.active_children()
                os.kill(worker.pid, signal.SIGKILL)
                worker.join()  # it is gone before round 1 sends it its share
                killed.append(worker.pid)

        with pytest.raises(WorkerDiedError) as err:
            train_federated(MlpSpec((6, 5, 3)), config, shards, ds, on_round=kill_the_worker)
        assert str(err.value) == f"cohort worker {killed[0]} was killed by SIGKILL"

    @pytest.mark.parametrize("workers, victim", [(2, 0), (4, 0), (4, 1), (4, 2)])
    def test_a_dead_worker_is_named_at_once(self, tmp_path, workers, victim):
        # in a process of its own, so that a pipe end a later worker kept fails the case, not hangs it
        done = in_own_process(
            "a_worker_kills_itself", workers, victim, str(tmp_path / "killed"), capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout.splitlines()[-1])
        assert seen["error"] == f"cohort worker {seen['pid']} was killed by SIGKILL"
        assert seen["late_s"] < 0.5

    def test_a_worker_killed_mid_run_is_a_documented_stop(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        original = federation.group_update
        calls = []

        def killed_in_round_2(shards, *args, **kwargs):
            if os.getpid() != parent:
                calls.extend(shards)  # the worker's own copy: it trains positions 2 and 3 of each round of 4 (K = 2)
                if len(calls) > 2 * 2:
                    os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer ends a process
            return original(shards, *args, **kwargs)

        monkeypatch.setattr(federation, "group_update", killed_in_round_2)
        pin_workers(monkeypatch, 2)
        assert main(["train-fed", "--out", str(tmp_path)] + FED) == 6
        err = capsys.readouterr().err
        assert re.fullmatch(r"worker died: cohort worker \d+ was killed by SIGKILL\n", err)  # one line, no traceback
        lines = manifest_lines(tmp_path)
        assert "run.status = failed" in lines
        assert f"run.error = {err.strip()}" in lines
        assert [row[0] for row in data_rows(tmp_path / "rounds.csv")[1:]] == ["0", "1"]


class TestTurns:
    """Each process folds its own groups in cohort order, passing the turn on; the parent holds no worker row."""

    def test_a_turn_passed_from_worker_to_worker_keeps_the_bits(self):
        done = in_own_process("on_three_processes", "bits", None, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        pooled, serial = json.loads(done.stdout.splitlines()[-1])
        assert pooled == serial and len(pooled[1]) == 3

    @pytest.mark.parametrize("case, expected", [("raises", "ShapeMismatchError"), ("diverges", "ClientDivergedError")])
    def test_a_failure_in_a_workers_group_is_raised_at_its_position_while_the_next_worker_waits(self, case, expected):
        done = in_own_process("on_three_processes", case, None, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        pooled, serial = json.loads(done.stdout.splitlines()[-1])
        assert pooled == serial and pooled[0].startswith(expected) and len(pooled[1]) == 1
        if case == "diverges":
            client = cohort(1, fraction=1.0)[4]
            assert pooled[0] == f"ClientDivergedError: client {client} diverged in round 1 (non-finite loss or weights)"

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="finds the worker processes in /proc")
    def test_a_parent_that_dies_while_its_workers_wait_for_their_turn_leaves_no_worker(self, tmp_path):
        record = tmp_path / "workers"
        done = in_own_process("on_three_processes", "parent_dies", str(record), stdout=subprocess.DEVNULL)
        assert done.returncode == -signal.SIGKILL
        workers = [int(pid) for pid in record.read_text().split()]
        assert len(workers) == 2
        deadline = time.monotonic() + 5.0  # a worker looks for its parent once a second while it waits
        while not all(map(gone, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in workers if not gone(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert left == []

    @pytest.mark.parametrize("workers, group", [(2, 1), (2, 4), (3, 2), (4, 5)])
    def test_the_shared_mapping_holds_the_weights_and_the_sum_alone(self, workers, group):
        ds = synth_dataset(3, 6, 160, seed=SEED)
        shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
        config = FedConfig(num_clients=CLIENTS, client_fraction=1.0, batch_size=5, client_lr=0.2, rounds=1, seed=SEED)
        spec = MlpSpec((6, 5, 3))
        with pool.CohortPool(workers, spec, config, shards, ds, group) as cohort_pool:
            assert len(cohort_pool._mem) == 2 * 8 * spec.parameter_count()
        assert multiprocessing.active_children() == []

    def test_a_send_weights_run_returns_weights_of_its_own(self, monkeypatch):
        pools, start_pool = [], pool.CohortPool.__init__

        def init(self, *args):
            pools.append(self)
            start_pool(self, *args)

        monkeypatch.setattr(pool.CohortPool, "__init__", init)
        ds = synth_dataset(3, 6, 160, seed=SEED)
        shards = partition(ds, PartitionPlan(IID, CLIENTS, 10, seed=SEED))
        config = FedConfig(num_clients=CLIENTS, client_fraction=FRACTION, batch_size=5, client_lr=0.2, rounds=3, seed=SEED)
        assert config.update_mode == federation.SEND_WEIGHTS
        finals = []
        for workers in (1, 2):
            pin_workers(monkeypatch, workers)
            finals.append(train_federated(MlpSpec((6, 5, 3)), config, shards, ds)[1].weights.values)
        serial, pooled = finals
        (closed,) = pools
        assert not any(proc.is_alive() for proc in closed._procs)
        assert pooled.flags.owndata and not np.shares_memory(pooled, np.frombuffer(closed._mem))
        assert np.array_equal(pooled, serial)
