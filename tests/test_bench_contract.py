"""The names bench/child.py traces must exist, or every traced benchmark process fails.

And the hot path must go through them: a refactor that routed the step kernel
around the name the benchmark wraps would leave its per-layer counts at 0.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from fedsim import federation
from fedsim.data import SINGLE_SAMPLE, PartitionPlan, partition, synth_dataset
from fedsim.federation import FedConfig, train_federated
from fedsim.nn import MlpSpec

CHILD = Path(__file__).resolve().parent.parent / "bench" / "child.py"


def load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child


CHILD_MODULE = load_child()
TRACE_POINTS = CHILD_MODULE.TRACE_POINTS


@pytest.mark.parametrize("module, attr", [(m, a) for _, m, a, _ in TRACE_POINTS], ids=[f"{m}.{a}" for _, m, a, _ in TRACE_POINTS])
def test_trace_point_resolves(module, attr):
    # federation keeps importing data.shard_batches, which it no longer calls, for this reason
    assert callable(getattr(importlib.import_module(module), attr))


@pytest.mark.parametrize("local_epochs", [1, 2])
def test_one_row_clients_call_the_traced_kernel_once_per_group_step(local_epochs, monkeypatch):
    name, module, attr, work = next(point for point in TRACE_POINTS if point[0] == "nn.loss_and_grad_raw")
    assert (module, attr) == ("fedsim.federation", "loss_and_grad_raw")
    monkeypatch.setattr(federation, attr, getattr(federation, attr))  # the tracer's wrapper goes when the test ends
    monkeypatch.setattr(federation, "usable_cpus", lambda: 1)  # one process: every call is made in this one
    tracer = CHILD_MODULE.Tracer()
    tracer.wrap(importlib.import_module(module), attr, name, work)

    ds = synth_dataset(3, 8, 40, seed=16)
    shards = partition(ds, PartitionPlan(SINGLE_SAMPLE, 40, 1, seed=16))
    config = FedConfig(
        num_clients=40, client_fraction=0.25, local_epochs=local_epochs, batch_size=1, client_lr=0.1, rounds=3, seed=16
    )
    spec = MlpSpec((8, 6, 3))
    monkeypatch.setattr(federation, "_ONE_ROW_LOCKSTEP_BYTES", 3 * 2 * 8 * spec.parameter_count())  # K = 3
    assert federation.layout(spec, config, shards) == federation.Layout(1, 3, True)
    train_federated(spec, config, shards, ds)
    # a cohort of 10 in groups of 3, 3, 3 and 1: one call a group and step, each counting its group's rows
    calls = [span for span in tracer.spans if span[0] == name]
    assert [span[4] for span in calls] == ([3] * local_epochs * 3 + [1] * local_epochs) * config.rounds
