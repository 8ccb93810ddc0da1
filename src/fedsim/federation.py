"""Federated training engine and centralized baseline.

One aggregation round selects a random cohort of clients, trains each locally
from the same global weights, then combines the results. Two wire modes are
supported: clients send full weights (server keeps their sample-weighted
average) or send weight deltas (the server treats the negated weighted mean
delta as a pseudo-gradient for any server optimizer; with plain sgd at rate
1.0 the two modes coincide).

A round streams its cohort: each client trains into one round buffer and is
folded into a running weighted sum (acc += (n_k / denom) * x_k, the
denominator known before training) as soon as it finishes, in client-id
order. A round therefore holds O(model) memory, not O(cohort x model), and
gives bit for bit the mean that aggregate_weights and aggregate_deltas
compute from a list of updates, since all three fold with the same step.

Everything is deterministic given the run seed: client selection, batch
order, and init all draw from seeds derived per (seed, round, client).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import FieldError
from .data import ClientShard, Dataset
from .data import shard_batches  # noqa: F401  unused here; bench/child.py traces this name
from .nn import loss  # noqa: F401  unused here; bench/child.py traces this name
from .nn import (
    GradVector,
    MlpSpec,
    ParamVector,
    ServerOptimizerState,
    ShapeMismatchError,
    Workspace,
    forward_logits,
    init_params,
    loss_and_grad_raw,
    loss_raw,
    server_apply,
)
from .rng import derive_seed

SEND_WEIGHTS = "send_weights"
SEND_DELTA = "send_delta"

EVAL_EVERY_DEFAULT_THRESHOLD = 200  # above this many rounds, evaluate every 5th


class ClientDivergedError(RuntimeError):
    """Local training produced a non-finite loss or non-finite weights.

    .history holds the metrics of the rounds (epochs) completed before the
    failing one; train_federated and train_centralized fill it in.
    """

    def __init__(self, client_id: int, round_index: int | None = None, history: Sequence[RoundMetrics] = ()):
        self.client_id = client_id
        self.round_index = round_index
        self.history = list(history)
        where = f" in round {round_index}" if round_index is not None else ""
        super().__init__(f"client {client_id} diverged{where} (non-finite loss or weights)")


@dataclass(frozen=True)
class FedConfig:
    """Hyperparameters of a federated run.

    batch_size None means each client trains on its full shard per step,
    which together with local_epochs=1 is the one-gradient-step special case.
    """

    num_clients: int
    client_fraction: float
    local_epochs: int
    batch_size: int | None
    client_lr: float
    rounds: int
    seed: int
    server_opt: ServerOptimizerState = field(default_factory=ServerOptimizerState)
    update_mode: str = SEND_WEIGHTS
    eval_every: int | None = None
    alg1_literal_normalization: bool = False

    def __post_init__(self):
        if not (0.0 < self.client_fraction <= 1.0):
            raise FieldError("client_fraction", "must be in (0, 1]")
        if self.local_epochs < 1:
            raise FieldError("local_epochs", "must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise FieldError("batch_size", "must be >= 1 or None for full-shard batches")
        if self.client_lr < 0:
            raise FieldError("client_lr", "must be non-negative")
        if self.rounds < 0:
            raise FieldError("rounds", "must be >= 0")
        if self.update_mode not in (SEND_WEIGHTS, SEND_DELTA):
            raise FieldError("update_mode", f"must be {SEND_WEIGHTS} or {SEND_DELTA}, got {self.update_mode!r}")
        if self.eval_every is not None and self.eval_every < 1:
            raise FieldError("eval_every", "must be >= 1, or None for the default")

    @property
    def cohort_size(self) -> int:
        return max(math.ceil(self.client_fraction * self.num_clients), 1)


@dataclass(frozen=True)
class GlobalState:
    weights: ParamVector
    round_index: int
    server_opt_state: ServerOptimizerState


@dataclass(frozen=True)
class RoundMetrics:
    round_index: int
    selected_clients: tuple[int, ...]
    mean_client_loss: float
    train_accuracy: float | None
    test_accuracy: float | None
    elapsed_s: float


def select_clients(num_clients: int, client_fraction: float, round_seed: int) -> np.ndarray:
    """Uniform random cohort of max(ceil(C*K), 1) clients, sorted by id."""
    if not (0.0 < client_fraction <= 1.0):
        raise ValueError("client_fraction must be in (0, 1]")
    m = max(math.ceil(client_fraction * num_clients), 1)
    rng = np.random.default_rng(round_seed)
    return np.sort(rng.choice(num_clients, size=m, replace=False))


def _batch_rows(batch_size: int | None, num_samples: int) -> int:
    """Rows of the largest batch an epoch over num_samples takes; None is full-batch."""
    return num_samples if batch_size is None else min(batch_size, num_samples)


def _sgd_epoch(
    w: np.ndarray, spec: MlpSpec, dataset: Dataset, order: np.ndarray, batch_size: int, lr: float, ws: Workspace
) -> list[float]:
    """One epoch of plain mini-batch SGD on w, in place, over dataset rows in order.

    This is the one local-SGD inner loop, shared by client_update and
    train_centralized. Each batch is gathered into the workspace, and the
    step grad *= lr; w -= grad rounds exactly like w -= lr * grad. Returns the
    batch losses; it stops without stepping at the first non-finite loss,
    which is then the last one returned.
    """
    ws.check_fits(spec, batch_size)
    if dataset.num_features != spec.input_dim or dataset.num_classes > spec.num_classes:
        raise ShapeMismatchError(
            f"a dataset of {dataset.num_features} features and {dataset.num_classes} classes does not fit "
            f"spec {spec.layer_sizes}"
        )
    losses = []
    for start in range(0, order.size, batch_size):
        idx = order[start : start + batch_size]
        m = idx.size
        x, y = ws.inputs[:m], ws.labels[:m]
        np.take(dataset.inputs, idx, axis=0, out=x)
        np.take(dataset.labels, idx, out=y)
        # called through this module's global, where the benchmark's tracer wraps it
        batch_loss, grad = loss_and_grad_raw(w, spec, x, y, ws)
        losses.append(batch_loss)
        if not np.isfinite(batch_loss):
            break
        grad *= lr
        w -= grad
    return losses


def client_update(
    shard: ClientShard,
    dataset: Dataset,
    weights: ParamVector,
    local_epochs: int,
    batch_size: int | None,
    client_lr: float,
    client_seed: int,
    workspace: Workspace | None = None,
    out: np.ndarray | None = None,
) -> ParamVector:
    """Run the local training loop of one client and return its new weights.

    Per epoch the shard is reshuffled, split into batches, and stepped with
    plain gradient descent at client_lr. The incoming weights are untouched.
    workspace holds the step buffers; one sized to this shard is made when it
    is omitted. The client trains in out (a float64 vector of the weights'
    length, overwritten with them first) when it is given, else in a fresh
    copy; the returned values are that array.
    """
    spec = weights.spec
    effective_b = _batch_rows(batch_size, shard.num_samples)
    ws = workspace if workspace is not None else Workspace(spec, effective_b)
    w = out if out is not None else np.empty_like(weights.values)
    np.copyto(w, weights.values)
    for epoch in range(local_epochs):
        if shard.num_samples == 1:  # the only permutation of one index
            order = shard.indices
        else:
            order = np.random.default_rng(derive_seed(client_seed, "epoch", epoch)).permutation(shard.indices)
        losses = _sgd_epoch(w, spec, dataset, order, effective_b, client_lr, ws)
        if not np.isfinite(losses[-1]):
            raise ClientDivergedError(shard.client_id)
    try:
        return ParamVector(w, spec)  # its finiteness scan is the one check of the new weights
    except ValueError as err:  # w has the weights' shape, so only non-finite entries land here
        raise ClientDivergedError(shard.client_id) from err


def _fold(acc: np.ndarray, vec: np.ndarray, weight: float, scratch: np.ndarray) -> None:
    """acc += weight * vec, with the product written to scratch (which may be vec).

    The one weighted-mean step: run_round's streamed cohort and both
    aggregate_* functions fold with it, so they agree bit for bit.
    """
    np.multiply(vec, weight, out=scratch)
    acc += scratch


def _fold_all(updates: Sequence[tuple[ParamVector | GradVector, int]], total: float | None) -> np.ndarray:
    """The weighted mean of a list of updates: each folded in list order with weight n_k / denom.

    denom is total when given, else sum(n_k).
    """
    denom = float(total) if total is not None else float(sum(n for _, n in updates))
    acc = np.zeros_like(updates[0][0].values)
    scratch = np.empty_like(acc)
    for vec, n in updates:
        _fold(acc, vec.values, n / denom, scratch)
    return acc


def _check_aggregate_args(updates) -> None:
    if len(updates) == 0:
        raise ValueError("nothing to aggregate")
    spec = updates[0][0].spec
    for vec, n in updates:
        if vec.spec != spec:
            raise ShapeMismatchError("aggregation inputs disagree on architecture")
        if n < 1:
            raise ValueError("sample counts must be >= 1")


def aggregate_weights(
    updates: Sequence[tuple[ParamVector, int]], total_weight: float | None = None
) -> ParamVector:
    """Sample-count-weighted average of client weight vectors.

    Weights are n_k / sum(n_k) over the participating clients unless
    total_weight overrides the denominator (the literal global-N reading).
    """
    _check_aggregate_args(updates)
    return ParamVector(_fold_all(updates, total_weight), updates[0][0].spec)


def aggregate_deltas(
    deltas: Sequence[tuple[GradVector, int]], total_weight: float | None = None
) -> GradVector:
    """Negated weighted mean of client weight deltas, as a server pseudo-gradient.

    The sign makes a plain sgd server step at rate 1.0 reproduce the weighted
    weight average exactly.
    """
    _check_aggregate_args(deltas)
    values = _fold_all(deltas, total_weight)
    np.negative(values, out=values)
    return GradVector(values, deltas[0][0].spec)


def evaluate(params: ParamVector, dataset: Dataset, chunk: int = 16384, rows: np.ndarray | None = None) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class.

    rows, when given, are the indices of the dataset rows to score, in order
    (default: every row). They are gathered a chunk at a time, so the rows
    are never copied whole, and each layer of a chunk is written into buffers
    allocated once per call.
    """
    n = len(dataset) if rows is None else rows.size
    size = min(chunk, n)
    buffers = [np.empty((size, d)) for d in params.spec.layer_sizes[1:]]
    if rows is not None:
        if rows.min() < 0 or rows.max() >= len(dataset):
            raise IndexError(f"rows out of range for a dataset of {len(dataset)} rows")
        gathered = np.empty((size, dataset.num_features))
    hits = 0
    for start in range(0, n, chunk):
        if rows is None:
            block, labels = dataset.inputs[start : start + chunk], dataset.labels[start : start + chunk]
        else:
            idx = rows[start : start + chunk]
            # mode="clip" lets take write into out without a buffer; the bounds are checked above
            block = np.take(dataset.inputs, idx, axis=0, out=gathered[: idx.size], mode="clip")
            labels = dataset.labels[idx]
        logits = forward_logits(params.values, params.spec, block, buffers)
        hits += int(np.count_nonzero(logits.argmax(axis=1) == labels))
    return hits / n


def _client_seed(run_seed: int, round_index: int, client_id: int) -> int:
    return derive_seed(run_seed, "round", round_index, "client", client_id)


def _round_workspace(spec: MlpSpec, shards: Sequence[ClientShard]) -> Workspace:
    """A workspace that fits the largest shard, so every local batch and every client's loss."""
    return Workspace(spec, max(s.num_samples for s in shards))


def run_round(
    state: GlobalState,
    config: FedConfig,
    shards: Sequence[ClientShard],
    dataset: Dataset,
    test_set: Dataset | None = None,
    train_rows: np.ndarray | None = None,
    compute_accuracy: bool = True,
    workspace: Workspace | None = None,
) -> tuple[GlobalState, RoundMetrics]:
    """Execute one aggregation round and return the advanced state plus metrics.

    Client updates all start from the same global weights and are aggregated
    in client-id order, so any evaluation order gives identical results.
    Every client trains, and has its loss measured, in workspace, which must
    fit the largest shard; one is made when it is omitted. Each client's
    weights go into one round buffer and are folded into the weighted sum
    before the next client trains, so no cohort-sized state is kept. Train
    accuracy is measured on the dataset rows train_rows (default: all).
    """
    if len(shards) != config.num_clients:
        raise ValueError(f"config says {config.num_clients} clients but got {len(shards)} shards")
    if workspace is None:
        workspace = _round_workspace(state.weights.spec, shards)
    started = time.perf_counter()
    t = state.round_index
    selected = select_clients(
        config.num_clients, config.client_fraction, derive_seed(config.seed, "round", t, "select")
    )

    spec, w_t = state.weights.spec, state.weights.values
    weighted = shards if config.alg1_literal_normalization else [shards[int(c)] for c in selected]
    denom = float(sum(s.num_samples for s in weighted))
    send_delta = config.update_mode == SEND_DELTA
    acc = np.zeros_like(w_t)
    buf = np.empty_like(w_t)
    losses = []
    for client_id in selected:
        shard = shards[int(client_id)]
        try:
            local = client_update(
                shard,
                dataset,
                state.weights,
                config.local_epochs,
                config.batch_size,
                config.client_lr,
                _client_seed(config.seed, t, int(client_id)),
                workspace,
                out=buf,
            )
        except ClientDivergedError as err:
            raise ClientDivergedError(err.client_id, t) from err
        x, n = local.values, shard.num_samples
        inputs, labels = workspace.inputs[:n], workspace.labels[:n]
        np.take(dataset.inputs, shard.indices, axis=0, out=inputs)
        np.take(dataset.labels, shard.indices, out=labels)
        losses.append(loss_raw(x, spec, inputs, labels, workspace))
        if send_delta:
            x = np.subtract(x, w_t, out=buf)
        _fold(acc, x, n / denom, buf)

    if send_delta:
        np.negative(acc, out=acc)
        new_weights, new_server_state = server_apply(state.server_opt_state, state.weights, GradVector(acc, spec))
    else:
        new_weights, new_server_state = ParamVector(acc, spec), state.server_opt_state

    train_acc = test_acc = None
    if compute_accuracy:
        train_acc = evaluate(new_weights, dataset, rows=train_rows)
        if test_set is not None:
            test_acc = evaluate(new_weights, test_set)

    metrics = RoundMetrics(
        round_index=t,
        selected_clients=tuple(int(c) for c in selected),
        mean_client_loss=float(np.mean(losses)),
        train_accuracy=train_acc,
        test_accuracy=test_acc,
        elapsed_s=time.perf_counter() - started,
    )
    return GlobalState(new_weights, t + 1, new_server_state), metrics


def train_federated(
    model: MlpSpec,
    config: FedConfig,
    shards: Sequence[ClientShard],
    dataset: Dataset,
    test_set: Dataset | None = None,
    initial_weights: ParamVector | None = None,
) -> tuple[list[RoundMetrics], GlobalState]:
    """Run the full federated loop and return per-round metrics and final state.

    Accuracy is computed on the union of the shards (the data the federation
    actually trains on) and on test_set, every eval_every rounds plus the
    final round. eval_every defaults to 1 for short runs and 5 for long ones.
    """
    weights = initial_weights if initial_weights is not None else init_params(model, derive_seed(config.seed, "init"))
    state = GlobalState(weights, 0, config.server_opt)

    eval_every = config.eval_every
    if eval_every is None:
        eval_every = 1 if config.rounds <= EVAL_EVERY_DEFAULT_THRESHOLD else 5

    union = np.sort(np.concatenate([s.indices for s in shards]))
    # shards that cover every row exactly once are scored on the dataset as it is
    train_rows = None if np.array_equal(union, np.arange(len(dataset))) else union

    workspace = _round_workspace(weights.spec, shards)
    history: list[RoundMetrics] = []
    for t in range(config.rounds):
        eval_now = (t + 1) % eval_every == 0 or t == config.rounds - 1
        try:
            state, metrics = run_round(
                state, config, shards, dataset,
                test_set=test_set, train_rows=train_rows, compute_accuracy=eval_now,
                workspace=workspace,
            )
        except ClientDivergedError as err:
            err.history = history
            raise
        history.append(metrics)
    return history, state


def train_centralized(
    model: MlpSpec,
    dataset: Dataset,
    test_set: Dataset | None,
    lr: float,
    batch_size: int | None,
    epochs: int,
    seed: int,
) -> tuple[list[RoundMetrics], ParamVector]:
    """Plain mini-batch SGD baseline; batch_size None is full-batch descent.

    Returns one RoundMetrics per epoch (round_index reused as epoch index).
    """
    weights = init_params(model, derive_seed(seed, "init"))
    w = weights.values.copy()
    n = len(dataset)
    effective_b = _batch_rows(batch_size, n)
    ws = Workspace(model, effective_b)
    history: list[RoundMetrics] = []
    for epoch in range(epochs):
        started = time.perf_counter()
        perm = np.random.default_rng(derive_seed(seed, "epoch", epoch)).permutation(n)
        epoch_losses = _sgd_epoch(w, model, dataset, perm, effective_b, lr, ws)
        if not np.isfinite(epoch_losses[-1]):
            raise ClientDivergedError(client_id=-1, round_index=epoch, history=history)
        params = ParamVector(w.copy(), model)
        history.append(
            RoundMetrics(
                round_index=epoch,
                selected_clients=(),
                mean_client_loss=float(np.mean(epoch_losses)),
                train_accuracy=evaluate(params, dataset),
                test_accuracy=evaluate(params, test_set) if test_set is not None else None,
                elapsed_s=time.perf_counter() - started,
            )
        )
    return history, ParamVector(w, model)
