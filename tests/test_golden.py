"""Golden digests: one tiny run per training path, hashed as the benchmark hashes its runs.

A digest is sha256 over the data columns of the run's rounds.csv and its
final weights (bench/child.py digest_and_rows); a run that diverges has no
final weights, so its digest covers the rounds it kept. Every federated run
must give its recorded digest with its cohort trained on 1, 2 and 3 processes,
and with each process training its clients in lockstep groups (the group
size the rule derives, more than 1 for these tiny nets) and one at a time. The
digests hold within the envelope recorded in golden.json (fedsim.machine);
elsewhere each test skips and names the field that differs. The federated
runs' local steps fit one BLAS thread, so they train on one whatever the
thread variables say: one of them must give its digest in fresh processes
under OPENBLAS_NUM_THREADS=1, 2 and unset.

Rewrite golden.json only for a change that is meant to change results:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import child_env

from fedsim import federation
from fedsim.data import IID, SINGLE_LABEL, SINGLE_SAMPLE, PartitionPlan, partition, synth_dataset
from fedsim.federation import SEND_DELTA, CentralConfig, ClientDivergedError, FedConfig, train_centralized, train_federated
from fedsim.harness import write_rounds_csv
from fedsim.machine import THREAD_VARS, fingerprint
from fedsim.nn import MlpSpec, ServerOptimizerState
from fedsim.rng import derive_seed

GOLDEN = Path(__file__).with_name("golden.json")
REPO = Path(__file__).resolve().parent.parent
CHILD = REPO / "bench" / "child.py"
# what the digests depend on; the usable CPUs only set the default BLAS thread
# count, which no product of these tiny runs is large enough to use
ENVELOPE = (
    "numpy", "blas", "blas_version", "cpu_flags_sha", "openblas_num_threads", "omp_num_threads", "mkl_num_threads",
)


def _digest_and_rows():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.digest_and_rows


digest_and_rows = _digest_and_rows()


def federated_setup(
    kind=IID, samples_per_client=10, num_clients=12, client_fraction=0.5, batch_size=4, activation="relu",
    client_lr=0.3, **config,
):
    """(model, config, shards, dataset, test set) of a 3-round run: 12 clients of 10 samples, cohorts of 6 by default."""
    ds = synth_dataset(3, 8, 240, seed=41)
    test = synth_dataset(3, 8, 60, seed=42)
    shards = partition(ds, PartitionPlan(kind, num_clients, samples_per_client, seed=43))
    config = FedConfig(
        num_clients=num_clients, client_fraction=client_fraction, local_epochs=2, batch_size=batch_size,
        client_lr=client_lr, rounds=3, seed=44, eval_every=1, **config,
    )
    return MlpSpec((8, 6, 3), activation), config, shards, ds, test


def federated(on_round=None, **setup):
    """The history and final weights of the federated_setup run."""
    model, config, shards, ds, test = federated_setup(**setup)
    history, state = train_federated(model, config, shards, ds, test, on_round=on_round)
    return history, state.weights.values


def centralized(batch_size):
    ds = synth_dataset(3, 8, 90, seed=45)
    test = synth_dataset(3, 8, 30, seed=46)
    return train_centralized(MlpSpec((8, 6, 3)), ds, test, CentralConfig(lr=0.2, batch_size=batch_size, epochs=2), seed=47)


FEDERATED = {
    "send_weights": {},
    "send_delta_sgd": {"update_mode": SEND_DELTA, "server_opt": ServerOptimizerState("sgd", lr=0.7)},
    "send_delta_adam": {"update_mode": SEND_DELTA, "server_opt": ServerOptimizerState("adam", lr=0.05)},
    "send_delta_rmsprop": {"update_mode": SEND_DELTA, "server_opt": ServerOptimizerState("rmsprop", lr=0.01)},
    "alg1_literal_normalization": {"alg1_literal_normalization": True},
    "batch_size_full": {"batch_size": None},
    "single_sample": {"kind": SINGLE_SAMPLE, "samples_per_client": 1, "num_clients": 40, "client_fraction": 0.25},
    "single_label": {"kind": SINGLE_LABEL},
    "identity_activation": {"activation": "identity"},
}
# runs that diverge in a round >= 1: the digest covers the rounds on_round kept, and no weights
DIVERGED = {"diverged_history": {"activation": "identity", "client_lr": 1e10}}
CENTRALIZED = {"central_minibatch": 16, "central_full_batch": None}


def diverged(name: str) -> list:
    history = []
    try:
        federated(on_round=history.append, **DIVERGED[name])
    except ClientDivergedError as err:
        assert err.round_index >= 1 and [m.round_index for m in history] == list(range(err.round_index))
        return history
    raise AssertionError(f"{name} did not diverge")


def digest(history, weights) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rounds.csv"
        write_rounds_csv(path, history)
        return digest_and_rows(path, np.asarray(weights))[0]


def run_digest(name: str) -> str:
    if name in FEDERATED:
        history, weights = federated(**FEDERATED[name])
    elif name in DIVERGED:
        history, weights = diverged(name), np.empty(0)
    else:
        history, final = centralized(CENTRALIZED[name])
        weights = final.values
    return digest(history, weights)


def recorded(fields=ENVELOPE) -> dict:
    """golden.json, or a skip naming the first of the envelope fields that differs from this process."""
    golden = json.loads(GOLDEN.read_text())
    here = fingerprint()
    for field in fields:
        if str(here[field]) != str(golden["envelope"][field]):
            recorded_value = golden["envelope"][field]
            pytest.skip(f"golden digests were recorded with {field}={recorded_value}, this process has {here[field]}")
    return golden["digests"]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FEDERATED) + sorted(DIVERGED))
def test_federated_digest(name, workers, monkeypatch):
    digests = recorded()
    monkeypatch.setattr(federation, "usable_cpus", lambda: workers)
    assert run_digest(name) == digests[name]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(FEDERATED) + sorted(DIVERGED))
def test_federated_digest_one_client_at_a_time(name, workers, monkeypatch):
    digests = recorded()
    monkeypatch.setattr(federation, "usable_cpus", lambda: workers)
    for budget in ("_LOCKSTEP_BYTES", "_ONE_ROW_LOCKSTEP_BYTES"):
        monkeypatch.setattr(federation, budget, 0)  # no stack fits: K = 1
    model, config, shards, _, _ = federated_setup(**{**FEDERATED, **DIVERGED}[name])
    assert federation.layout(model, config, shards).group == 1
    assert run_digest(name) == digests[name]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(FEDERATED) + sorted(DIVERGED))
def test_golden_runs_train_in_lockstep_groups(name, workers, monkeypatch):
    # else the digests above would check the one-at-a-time path twice
    monkeypatch.setattr(federation, "usable_cpus", lambda: workers)
    model, config, shards, _, _ = federated_setup(**{**FEDERATED, **DIVERGED}[name])
    group = -(-config.cohort_size // workers)  # a process's share of the cohort
    assert federation.layout(model, config, shards) == federation.Layout(workers, group, True) and group > 1
    cohort = federation.select_clients(config.num_clients, config.client_fraction, derive_seed(config.seed, "round", 0, "select"))
    cohort = [int(c) for c in cohort]  # round 0 is cut into one group of K consecutive positions per process
    assert federation._groups(shards, cohort, group) == [cohort[g * group : (g + 1) * group] for g in range(workers)]


def test_a_client_with_a_nan_loss_fails_its_round():
    # lr 1e13 leaves a client of round 1 with finite weights whose loss on its shard is nan:
    # the round must fail there, not record mean_client_loss = nan and go on
    kept = []
    with pytest.raises(ClientDivergedError) as err:
        federated(on_round=kept.append, **{**DIVERGED["diverged_history"], "client_lr": 1e13})
    assert err.value.round_index == 1
    assert [m.round_index for m in kept] == [0]
    assert np.isfinite(kept[0].mean_client_loss)


def test_a_pinned_run_gives_its_digest_under_any_thread_variable():
    # a run whose local steps fit one BLAS thread trains on one, whatever the thread variables say
    thread_fields = [var.lower() for var in THREAD_VARS]
    expected = recorded([field for field in ENVELOPE if field not in thread_fields])["send_weights"]
    model, config, shards, _, _ = federated_setup(**FEDERATED["send_weights"])
    assert federation.layout(model, config, shards).one_thread
    env = child_env(REPO / "tests", env={key: value for key, value in os.environ.items() if key not in THREAD_VARS})
    code = "import test_golden as g; print(g.run_digest('send_weights'))"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env={**env, **threads}, stdout=subprocess.PIPE, text=True)
        for threads in ({"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "2"}, {})
    ]
    assert [proc.communicate(timeout=120)[0].strip() for proc in procs] == [expected] * 3


@pytest.mark.parametrize("name", sorted(CENTRALIZED))
def test_centralized_digest(name):
    assert run_digest(name) == recorded()[name]


def test_every_run_has_a_digest():
    assert set(json.loads(GOLDEN.read_text())["digests"]) == set(FEDERATED) | set(DIVERGED) | set(CENTRALIZED)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    env = fingerprint()
    GOLDEN.write_text(json.dumps({
        "envelope": {field: env[field] for field in ENVELOPE},
        "digests": {name: run_digest(name) for name in sorted(FEDERATED) + sorted(DIVERGED) + sorted(CENTRALIZED)},
    }, indent=2) + "\n")
