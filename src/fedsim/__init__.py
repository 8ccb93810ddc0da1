"""fedsim: deterministic cross-device federated learning simulator.

Library layout:
  nn          dense-network math (params, loss, gradients, optimizers)
  data        IDX loading, synthetic datasets, client partitioning
  federation  federated rounds, aggregation, centralized baseline
  pool        forked workers that train a share of each round's cohort
  machine     the platform envelope runs are reproducible within
  costs       cloud dollar-cost model for training and deployment
  config      flat dotted-key config format
  harness     experiment presets, manifests, CSV emission
  cli         command-line front end
"""

__version__ = "0.1.0"

from .costs import (
    CentralScenario,
    CostBreakdown,
    DEFAULT_PRICE_SHEET,
    FlScenario,
    PriceSheet,
    central_cost,
    fl_deployment_cost,
    fl_training_cost,
    sweep,
)
from .data import (
    ClientShard,
    Dataset,
    PartitionPlan,
    load_idx,
    partition,
    shard_batches,
    synth_dataset,
)
from .federation import (
    FedConfig,
    GlobalState,
    RoundMetrics,
    aggregate_deltas,
    aggregate_weights,
    client_update,
    evaluate,
    run_round,
    select_clients,
    train_centralized,
    train_federated,
)
from .nn import (
    Batch,
    GradVector,
    MlpSpec,
    ParamVector,
    ServerOptimizerState,
    init_params,
    loss,
    loss_grad,
    server_apply,
    sgd_step,
)
