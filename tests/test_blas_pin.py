"""The one-thread BLAS pin of federated runs whose local steps fit one BLAS thread.

train_federated runs such a run's rounds with the BLAS on one thread
(fedsim.machine.one_blas_thread) and restores the previous count however the
run ends; a larger run keeps the BLAS's own count. train-fed records the
count of each run as run.blas_threads in its manifest.
"""

import subprocess
import sys
from pathlib import Path

import pytest
from conftest import child_env
from test_config_cli import drop_elapsed, read_csv
from test_golden import DIVERGED, digest, federated

from fedsim import federation, harness, machine
from fedsim.cli import main
from fedsim.data import IID, PartitionPlan, partition, synth_dataset
from fedsim.federation import ClientDivergedError, FedConfig, train_federated
from fedsim.nn import MlpSpec

REPO = Path(__file__).resolve().parent.parent

pytestmark = pytest.mark.skipif(machine.blas_thread_count() is None, reason="this BLAS has no thread-count call")

# a desk-size samples_sweep over three nets on 400 features: at batch 5 the 400-400-3 step
# (5 * 400 * 400 = 800,000) is above the one-thread size, the other two fit
GRID = [
    "--set", "experiment=samples_sweep", "--set", "seed=5", "--set", "data.source=synth",
    "--set", "data.num_classes=3", "--set", "data.features=400",
    "--set", "data.train_samples=200", "--set", "data.test_samples=60",
    "--set", "preset.arch.0=400,3", "--set", "preset.arch.1=400,400,3", "--set", "preset.arch.2=400,6,3",
    "--set", "preset.samples_per_client=5",
    "--set", "fed.num_clients=10", "--set", "fed.rounds=2", "--set", "fed.local_epochs=1", "--set", "fed.batch_size=5",
]
GRID_ROUNDS = ["rounds_400-3_spc5.csv", "rounds_400-400-3_spc5.csv", "rounds_400-6-3_spc5.csv"]


@pytest.fixture
def two_threads():
    """The BLAS on 2 threads (any count but 1) for the test, and its own count again after it."""
    set_threads, get_threads = machine._blas_thread_calls()
    before = get_threads()
    set_threads(2)
    yield
    set_threads(before)


def large_run(on_round=None) -> str:
    """The digest of a 2-round run whose local step, 10 x 400 x 400, is above the one-thread size."""
    ds = synth_dataset(3, 400, 120, seed=51)
    shards = partition(ds, PartitionPlan(IID, 6, 20, seed=52))
    config = FedConfig(
        num_clients=6, client_fraction=0.5, local_epochs=1, batch_size=10, client_lr=0.05, rounds=2, seed=53,
        eval_every=1,
    )
    model = MlpSpec((400, 400, 3))
    assert not federation.layout(model, config, shards).one_thread
    history, state = train_federated(model, config, shards, ds, on_round=on_round)
    return digest(history, state.weights.values)


def manifest_entry(out: Path, key: str) -> str:
    lines = (out / "manifest.txt").read_text().splitlines()
    return next(line.split(" = ", 1)[1] for line in lines if line.startswith(f"{key} = "))


@pytest.mark.parametrize("workers", [1, 2])
def test_a_run_whose_steps_fit_trains_on_one_thread_and_restores_the_count(two_threads, workers, monkeypatch):
    monkeypatch.setattr(federation, "usable_cpus", lambda: workers)
    seen = []
    federated(on_round=lambda metrics: seen.append(machine.blas_thread_count()))
    assert seen == [1, 1, 1]
    assert machine.blas_thread_count() == 2


def test_the_count_is_restored_when_a_client_diverges(two_threads):
    with pytest.raises(ClientDivergedError):
        federated(**{**DIVERGED["diverged_history"], "client_lr": 1e13})
    assert machine.blas_thread_count() == 2


def test_the_count_is_restored_when_the_run_is_interrupted(two_threads):
    def interrupt(metrics):
        raise KeyboardInterrupt

    with pytest.raises(KeyboardInterrupt):
        federated(on_round=interrupt)
    assert machine.blas_thread_count() == 2


def test_a_run_above_the_one_thread_size_keeps_the_blas_count(two_threads):
    seen = []
    large_run(on_round=lambda metrics: seen.append(machine.blas_thread_count()))
    assert seen == [2, 2]


def test_a_larger_run_after_a_pinned_one_gives_the_bits_of_a_fresh_process():
    # as a preset that trains several nets in one process does
    federated()
    here = large_run()
    code = "import test_blas_pin as t; print(t.large_run())"
    env = child_env(REPO / "tests")
    fresh = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert here == fresh.stdout.strip()


def test_the_manifest_records_each_runs_blas_threads(tmp_path, capsys):
    assert main(["train-fed", "--out", str(tmp_path), *GRID]) == 0
    assert manifest_entry(tmp_path, "run.blas_threads") == f"1,{machine.blas_thread_count()},1"
    assert "note:" not in capsys.readouterr().err


def test_without_a_thread_call_a_train_fed_notes_it_once_and_trains_as_before(tmp_path, capsys, monkeypatch):
    assert main(["train-fed", "--out", str(tmp_path / "pinned"), *GRID]) == 0
    capsys.readouterr()
    monkeypatch.setattr(machine, "_blas_thread_calls", lambda: None)
    assert main(["train-fed", "--out", str(tmp_path / "unpinned"), *GRID]) == 0
    assert capsys.readouterr().err.splitlines() == [harness.BLAS_NOTE]  # two runs fit one thread, one note
    assert manifest_entry(tmp_path / "unpinned", "run.blas_threads") == "unknown,unknown,unknown"
    for name in GRID_ROUNDS:
        assert drop_elapsed(read_csv(tmp_path / "pinned" / name)) == drop_elapsed(read_csv(tmp_path / "unpinned" / name))
    assert read_csv(tmp_path / "pinned" / "summary.csv") == read_csv(tmp_path / "unpinned" / "summary.csv")
