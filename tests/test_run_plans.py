"""Each train command's run plan: which runs it trains, with which seeds, and what it writes.

Every rounds CSV must hold the data columns of a direct library call made
with the documented seeds, and summary.csv the last evaluated accuracies of
each run, so a seed or plan mix-up in the harness cannot pass as a row count.
"""

import csv

import pytest

from fedsim import harness
from fedsim.cli import main
from fedsim.data import IID, SINGLE_LABEL, SINGLE_SAMPLE, PartitionPlan, partition, synth_dataset
from fedsim.federation import CentralConfig, FedConfig, train_centralized, train_federated
from fedsim.nn import MlpSpec
from fedsim.rng import derive_seed

SEED = 5
CLIENTS, FRACTION, EPOCHS, BATCH, LR, ROUNDS, EVAL_EVERY = 10, 0.3, 1, 5, 0.1, 3, 2
CENTRAL_LR, CENTRAL_BATCH, CENTRAL_EPOCHS = 0.3, 16, 2

DATA = [f"seed={SEED}", "data.source=synth", "data.num_classes=3", "data.features=6",
        "data.train_samples=200", "data.test_samples=60"]
FED = [f"fed.num_clients={CLIENTS}", f"fed.client_fraction={FRACTION}", f"fed.local_epochs={EPOCHS}",
       f"fed.batch_size={BATCH}", f"fed.client_lr={LR}", f"fed.rounds={ROUNDS}", f"fed.eval_every={EVAL_EVERY}",
       "server.kind=sgd", "server.lr=1.0", "fed.update_mode=send_weights"]
CENTRAL = [f"central.lr={CENTRAL_LR}", f"central.batch_size={CENTRAL_BATCH}", f"central.epochs={CENTRAL_EPOCHS}"]
ARCHS = ["preset.arch.0=6,3", "preset.arch.1=6,8,3", "preset.arch.2=6,4,3"]
ARCH_LAYERS = [(6, 3), (6, 8, 3), (6, 4, 3)]
SPCS = (1, 5)
HEADER = ["round", "train_acc", "test_acc", "mean_client_loss"]


def label(layers) -> str:
    return "-".join(str(n) for n in layers)


def datasets():
    train = synth_dataset(3, 6, 200, derive_seed(SEED, "synth-train"))
    test = synth_dataset(3, 6, 60, derive_seed(SEED, "synth-test"))
    return train, test


def fed_run(layers, kind, spc, partition_seed, run_seed):
    train, test = datasets()
    plan = PartitionPlan(kind, CLIENTS, spc, partition_seed)
    config = FedConfig(
        num_clients=CLIENTS, client_fraction=FRACTION, local_epochs=EPOCHS, batch_size=BATCH, client_lr=LR, rounds=ROUNDS,
        seed=run_seed, eval_every=EVAL_EVERY,
    )
    history, _ = train_federated(MlpSpec(layers), config, partition(train, plan), train, test)
    return plan, history


def central_run(layers):
    train, test = datasets()
    history, _ = train_centralized(
        MlpSpec(layers), train, test, CentralConfig(lr=CENTRAL_LR, batch_size=CENTRAL_BATCH, epochs=CENTRAL_EPOCHS),
        derive_seed(SEED, "central", label(layers)),
    )
    return None, history


def fmt(x) -> str:
    return "" if x is None else f"{x:.10g}" if isinstance(x, float) else str(x)


def data_rows(history):
    return [[fmt(m.round_index), fmt(m.train_accuracy), fmt(m.test_accuracy), fmt(m.mean_client_loss)] for m in history]


def last_evaluated(history):
    return next(((m.train_accuracy, m.test_accuracy) for m in reversed(history) if m.train_accuracy is not None), (None, None))


def preset_fed_runs(archs, kind, spc_one_kind=None):
    """(csv name, arch label, spc, partition plan, history) of a federated preset's arch x spc grid."""
    runs = []
    for layers in archs:
        for spc in SPCS:
            run_kind = spc_one_kind if spc == 1 and spc_one_kind else kind
            plan, history = fed_run(
                layers, run_kind, spc,
                derive_seed(SEED, "partition", label(layers), spc), derive_seed(SEED, "run", label(layers), spc),
            )
            runs.append((f"rounds_{label(layers)}_spc{spc}.csv", label(layers), spc, plan, history))
    return runs


def custom_fed_runs():
    return [("rounds.csv", "6-8-3", 10, *fed_run((6, 8, 3), IID, 10, derive_seed(SEED, "partition"), SEED))]


def central_runs(archs):
    return [
        ("rounds.csv" if len(archs) == 1 else f"central_{label(layers)}.csv", label(layers), 200, *central_run(layers))
        for layers in archs
    ]


PLANS = {
    "custom": (
        "train-fed", DATA + FED + ["model.layers=6,8,3", "partition.kind=iid", "partition.samples_per_client=10"],
        custom_fed_runs,
    ),
    "samples_sweep": (
        "train-fed", ["experiment=samples_sweep", "partition.kind=iid", "preset.samples_per_client=1,5"] + DATA + FED + ARCHS,
        lambda: preset_fed_runs(ARCH_LAYERS, IID),
    ),
    "round_curves": (
        "train-fed", ["experiment=round_curves", "model.layers=6,8,3", "preset.samples_per_client=1,5"] + DATA + FED,
        lambda: preset_fed_runs([(6, 8, 3)], SINGLE_LABEL, spc_one_kind=SINGLE_SAMPLE),
    ),
    "single_label_sweep": (
        "train-fed", ["experiment=single_label_sweep", "model.layers=6,8,3", "preset.samples_per_client=1,5"] + DATA + FED,
        lambda: preset_fed_runs([(6, 8, 3)], SINGLE_LABEL),
    ),
    "custom_central": ("train-central", DATA + CENTRAL + ["model.layers=6,8,3"], lambda: central_runs([(6, 8, 3)])),
    "central_baseline": (
        "train-central", ["experiment=central_baseline"] + DATA + CENTRAL + ARCHS, lambda: central_runs(ARCH_LAYERS),
    ),
}


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


@pytest.mark.parametrize("plan", list(PLANS))
def test_plan_trains_the_documented_runs(tmp_path, monkeypatch, plan):
    command, overrides, expected_runs = PLANS[plan]
    argv = [command, "--out", str(tmp_path)]
    for override in overrides:
        argv += ["--set", override]
    # single_label and single_sample shards of one sample coincide, so the partition plans are checked as made
    plans = []
    monkeypatch.setattr(harness, "partition", lambda dataset, p: plans.append(p) or partition(dataset, p))
    assert main(argv) == 0

    runs = expected_runs()
    assert plans == [p for *_, p, _ in runs if p is not None]
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(
        [name for name, *_ in runs] + (["summary.csv"] if len(runs) > 1 else [])
    )
    for name, *_, history in runs:
        rows = read_csv(tmp_path / name)
        assert rows[0][: len(HEADER)] == HEADER
        assert [row[: len(HEADER)] for row in rows[1:]] == data_rows(history), name
    if len(runs) > 1:
        summary = read_csv(tmp_path / "summary.csv")
        assert summary[0] == ["arch", "samples_per_client", "final_train_acc", "final_test_acc"]
        assert summary[1:] == [[arch, str(spc), *map(fmt, last_evaluated(history))] for _, arch, spc, _, history in runs]
