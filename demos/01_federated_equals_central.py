"""Where federated optimization coincides with plain gradient descent.

Two exact reductions, shown numerically:
  * full participation + one full-batch local step per round is batch
    gradient descent on the pooled data;
  * sending weight deltas through a unit-rate sgd server reproduces the
    weighted weight average bit-for-bit (up to float association).
"""

import numpy as np

from fedsim import (
    FedConfig,
    GlobalState,
    MlpSpec,
    PartitionPlan,
    ServerOptimizerState,
    init_params,
    loss_grad,
    partition,
    run_round,
    sgd_step,
    synth_dataset,
    train_federated,
)
from fedsim.nn import Batch

dataset = synth_dataset(num_classes=5, num_features=12, num_samples=400, seed=0)
shards = partition(dataset, PartitionPlan("iid", num_clients=8, samples_per_client=50, seed=0))
spec = MlpSpec((12, 10, 5))

print("=== reduction 1: full participation, one full-batch step per client ===")
config = FedConfig(num_clients=8, client_fraction=1.0, local_epochs=1, batch_size=None,
                   client_lr=0.3, rounds=10, seed=0)
union = np.sort(np.concatenate([s.indices for s in shards]))
pooled = Batch(dataset.inputs[union], dataset.labels[union])

state = GlobalState(init_params(spec, 0), 0, config.server_opt)
central = state.weights
for t in range(10):
    state, _ = run_round(state, config, shards, dataset)
    central = sgd_step(central, loss_grad(central, pooled)[1], 0.3)
    gap = np.max(np.abs(state.weights.values - central.values))
    print(f"round {t}: max |federated - central| = {gap:.3e}")

print()
print("=== reduction 2: delta mode + unit-rate sgd server == weight averaging ===")
base = dict(num_clients=8, client_fraction=0.5, local_epochs=3, batch_size=10,
            client_lr=0.1, rounds=15, seed=1)
_, by_weights = train_federated(spec, FedConfig(update_mode="send_weights", **base), shards, dataset)
_, by_deltas = train_federated(
    spec,
    FedConfig(update_mode="send_delta", server_opt=ServerOptimizerState(kind="sgd", lr=1.0), **base),
    shards,
    dataset,
)
gap = np.max(np.abs(by_weights.weights.values - by_deltas.weights.values))
print(f"after 15 rounds: max |send_weights - send_delta| = {gap:.3e}")
print()
print("the delta view exists so the server can swap in adam or rmsprop;")
print("with server adam the same run produces a different trajectory:")
_, by_adam = train_federated(
    spec,
    FedConfig(update_mode="send_delta", server_opt=ServerOptimizerState(kind="adam", lr=0.01), **base),
    shards,
    dataset,
)
gap = np.max(np.abs(by_weights.weights.values - by_adam.weights.values))
print(f"after 15 rounds: max |send_weights - server_adam| = {gap:.3e}")
