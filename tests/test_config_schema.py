"""Characterization of how the fed.* and central.* config sections are read.

Pins the defaults, the "full" batch sizes, the rejected values and the set of
known keys, so that moving where the sections are read changes none of them.
"""

import pytest

import fedsim.harness as harness
from fedsim.cli import main
from fedsim.costs import PriceSheet
from fedsim.harness import KNOWN_KEYS, build_fed_config
from fedsim.nn import ServerOptimizerState

REQUIRED_FED = {
    "seed": 5,
    "fed.num_clients": 6,
    "fed.client_fraction": 0.5,
    "fed.client_lr": 0.2,
    "fed.rounds": 4,
}

SYNTH = [
    "--set", "seed=3", "--set", "data.source=synth",
    "--set", "data.num_classes=3", "--set", "data.features=6",
    "--set", "data.train_samples=60", "--set", "data.test_samples=30",
    "--set", "model.layers=6,3",
]
FED = SYNTH + [
    "--set", "partition.samples_per_client=10", "--set", "fed.num_clients=6", "--set", "fed.client_fraction=0.5",
    "--set", "fed.client_lr=0.2", "--set", "fed.rounds=1",
]

PARENT_KNOWN_KEYS = {
    "central.batch_size", "central.epochs", "central.lr",
    "cost.cohort", "cost.ingestion_count", "cost.ingestion_days", "cost.label_bytes_back", "cost.model_size_bytes",
    "cost.month_hours", "cost.msg_size_bytes", "cost.plan_size_bytes", "cost.population", "cost.registered",
    "cost.rounds", "cost.rounds_per_day", "cost.scenario", "cost.sweep.dimension", "cost.sweep.values",
    "cost.sync_bytes_per_device_month", "cost.sync_events_per_device_month", "cost.tagging_count",
    "cost.tagging_days", "cost.training_count", "cost.training_days",
    "data.dir", "data.features", "data.num_classes", "data.source", "data.test_images", "data.test_labels",
    "data.test_samples", "data.train_images", "data.train_labels", "data.train_samples",
    "experiment",
    "fed.alg1_literal_normalization", "fed.batch_size", "fed.client_fraction", "fed.client_lr", "fed.eval_every",
    "fed.local_epochs", "fed.num_clients", "fed.rounds", "fed.update_mode",
    "model.activation", "model.layers",
    "partition.kind", "partition.samples_per_client",
    "preset.samples_per_client", "price.zero", "seed",
    "server.beta1", "server.beta2", "server.eps", "server.kind", "server.lr", "server.rho",
}


def central_hyperparameters(args) -> tuple:
    """(lr, batch_size, epochs) from the positional arguments of a train_centralized call."""
    config = args[3]
    return config.lr, config.batch_size, config.epochs


@pytest.fixture
def central_calls(monkeypatch):
    """The hyperparameters of every train_centralized call the CLI makes; none trains."""
    calls = []
    monkeypatch.setattr(harness, "train_centralized", lambda *args: calls.append(central_hyperparameters(args)))
    return calls


def test_required_fed_keys_alone_take_the_defaults():
    config = build_fed_config(REQUIRED_FED)
    assert (config.num_clients, config.client_fraction, config.client_lr, config.rounds, config.seed) == (6, 0.5, 0.2, 4, 5)
    assert config.local_epochs == 1
    assert config.batch_size == 10
    assert config.update_mode == "send_weights"
    assert config.eval_every is None
    assert config.alg1_literal_normalization is False
    assert config.server_opt == ServerOptimizerState()


def test_fed_batch_size_full_in_any_case_is_none():
    assert build_fed_config({**REQUIRED_FED, "fed.batch_size": "FULL"}).batch_size is None


def test_no_central_keys_train_with_the_defaults(tmp_path, central_calls):
    assert main(["train-central", "--out", str(tmp_path)] + SYNTH) == 0
    assert central_calls == [(0.1, 32, 5)]


def test_central_batch_size_full_is_none(tmp_path, central_calls):
    assert main(["train-central", "--out", str(tmp_path)] + SYNTH + ["--set", "central.batch_size=full"]) == 0
    assert central_calls == [(0.1, None, 5)]


@pytest.mark.parametrize(
    "command, argv, key",
    [
        ("train-fed", FED, "fed.eval_every"),
        ("train-fed", FED, "fed.local_epochs"),
        ("train-central", SYNTH, "central.epochs"),
    ],
)
def test_full_where_no_batch_size_is_read_is_a_config_error_naming_its_key(tmp_path, capsys, command, argv, key):
    assert main([command, "--out", str(tmp_path)] + argv + ["--set", f"{key}=full"]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: ")


# the price sheet's entries: its scalar fields, and an hourly price per instance role
PRICE_KEYS = {
    "price.data_in_per_gb", "price.data_out_per_gb", "price.dns_monthly_fixed", "price.lb_hourly", "price.nat_hourly",
    "price.object_read_per_1k", "price.object_write_per_1k", "price.storage_per_gb_month", "price.sync_per_gb",
    "price.instance.aggregator", "price.instance.ingestion", "price.instance.jumpbox", "price.instance.monitoring",
    "price.instance.portal", "price.instance.tagging", "price.instance.training",
}


def test_known_keys_are_unchanged():
    assert len(PARENT_KNOWN_KEYS) == 57
    assert len(PRICE_KEYS) == 16
    assert KNOWN_KEYS == PARENT_KNOWN_KEYS | PRICE_KEYS
    assert {f"price.{name}" for name in PriceSheet.zeros().as_flat_dict()} == PRICE_KEYS
