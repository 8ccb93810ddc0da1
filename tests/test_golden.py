"""Golden digests: one tiny run per training path, hashed as the benchmark hashes its runs.

A digest is sha256 over the data columns of the run's rounds.csv and its
final weights (bench/child.py digest_and_rows); a run that diverges has no
final weights, so its digest covers the rounds it kept. Every federated run
must give its recorded digest with its cohort trained on 1 process and on 2. The
digests hold within the envelope recorded in golden.json (fedsim.machine);
elsewhere each test skips and names the field that differs.

Rewrite golden.json only for a change that is meant to change results:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fedsim import federation
from fedsim.data import IID, SINGLE_LABEL, SINGLE_SAMPLE, PartitionPlan, partition, synth_dataset
from fedsim.federation import SEND_DELTA, ClientDivergedError, FedConfig, train_centralized, train_federated
from fedsim.harness import write_rounds_csv
from fedsim.machine import fingerprint
from fedsim.nn import MlpSpec, ServerOptimizerState

GOLDEN = Path(__file__).with_name("golden.json")
CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"
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


def federated(
    kind=IID, samples_per_client=10, num_clients=12, client_fraction=0.5, batch_size=4, activation="relu",
    client_lr=0.3, on_round=None, **config,
):
    """A 3-round run on 3-class synthetic data: 12 clients of 10 samples and cohorts of 6 by default."""
    ds = synth_dataset(3, 8, 240, seed=41)
    test = synth_dataset(3, 8, 60, seed=42)
    shards = partition(ds, PartitionPlan(kind, num_clients, samples_per_client, seed=43))
    config = FedConfig(
        num_clients=num_clients, client_fraction=client_fraction, local_epochs=2, batch_size=batch_size,
        client_lr=client_lr, rounds=3, seed=44, eval_every=1, **config,
    )
    history, state = train_federated(MlpSpec((8, 6, 3), activation), config, shards, ds, test, on_round=on_round)
    return history, state.weights.values


def centralized(batch_size):
    ds = synth_dataset(3, 8, 90, seed=45)
    test = synth_dataset(3, 8, 30, seed=46)
    return train_centralized(MlpSpec((8, 6, 3)), ds, test, lr=0.2, batch_size=batch_size, epochs=2, seed=47)


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


def run_digest(name: str) -> str:
    if name in FEDERATED:
        history, weights = federated(**FEDERATED[name])
    elif name in DIVERGED:
        history, weights = diverged(name), np.empty(0)
    else:
        history, final = centralized(CENTRALIZED[name])
        weights = final.values
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rounds.csv"
        write_rounds_csv(path, history)
        return digest_and_rows(path, np.asarray(weights))[0]


def recorded() -> dict:
    """golden.json, or a skip naming the first envelope field that differs from this process."""
    golden = json.loads(GOLDEN.read_text())
    here = fingerprint()
    for field in ENVELOPE:
        if str(here[field]) != str(golden["envelope"][field]):
            recorded_value = golden["envelope"][field]
            pytest.skip(f"golden digests were recorded with {field}={recorded_value}, this process has {here[field]}")
    return golden["digests"]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(FEDERATED) + sorted(DIVERGED))
def test_federated_digest(name, workers, monkeypatch):
    digests = recorded()
    monkeypatch.setattr(federation, "_pool_workers", lambda *args: workers)
    assert run_digest(name) == digests[name]


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
