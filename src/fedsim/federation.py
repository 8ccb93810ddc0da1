"""Federated training engine and centralized baseline.

One aggregation round selects a random cohort of clients, trains each locally
from the same global weights, then combines the results. Two wire modes are
supported: clients send full weights (server keeps their sample-weighted
average) or send weight deltas (the server treats the negated weighted mean
delta as a pseudo-gradient for any server optimizer; with plain sgd at rate
1.0 the two modes coincide).

A round streams its cohort: each client trains into a buffer row of its
own, leaves there its term (n_k / denom) * x_k of the weighted sum (the
denominator is known before training), and is folded into a running sum
(acc += term) in client-id order. A round therefore holds O(K x model) memory
per process, not O(cohort x model), and gives bit for bit the mean that
aggregate_weights and aggregate_deltas compute from a list of updates, since
all three fold with the same step. A process trains its clients in lockstep
groups of up to K clients of equal size (group_update): one stacked kernel
call a step for the whole group, which gives each client the bits it gets
alone. One function, layout, decides a run's K, its N processes and its
BLAS pin. When the local steps are too small for BLAS to thread,
train_federated spreads each cohort over the parent and N - 1 forked
workers (see fedsim.pool) and pins the BLAS to one thread. The parent folds
in client-id order, so the bits depend neither on N nor on K, and those of
such a run not on the BLAS thread count.

Everything is deterministic given the run seed: client selection, batch
order, and init all draw from seeds derived per (seed, round, client).
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from .config import FieldError
from .data import ClientShard, Dataset
from .data import shard_batches  # noqa: F401  unused here; bench/child.py traces this name
from .machine import blas_subtract, one_blas_thread, usable_cpus
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

if TYPE_CHECKING:
    from .pool import CohortPool

SEND_WEIGHTS = "send_weights"
SEND_DELTA = "send_delta"

EVAL_EVERY_DEFAULT_THRESHOLD = 200  # above this many rounds, evaluate every 5th


class ClientDivergedError(RuntimeError):
    """Local training produced a non-finite loss or non-finite weights."""

    def __init__(self, client_id: int, round_index: int | None = None):
        self.client_id = client_id
        self.round_index = round_index
        where = f" in round {round_index}" if round_index is not None else ""
        super().__init__(f"client {client_id} diverged{where} (non-finite loss or weights)")

    def __reduce__(self):  # a cohort worker sends it to the parent pickled
        return type(self), (self.client_id, self.round_index)


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
        if self.num_clients < 1:
            raise FieldError("num_clients", "must be >= 1")
        if not (0.0 < self.client_fraction <= 1.0):
            raise FieldError("client_fraction", "must be in (0, 1]")
        if self.local_epochs < 1:
            raise FieldError("local_epochs", "must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise FieldError("batch_size", "must be >= 1 or None for full-shard batches")
        if not self.client_lr >= 0:  # written so that nan fails too
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


def check_dataset_fits(spec: MlpSpec, dataset: Dataset) -> None:
    """Raise ShapeMismatchError unless spec takes dataset's features and has an output for each of its classes."""
    if dataset.num_features != spec.input_dim or dataset.num_classes > spec.num_classes:
        raise ShapeMismatchError(
            f"a dataset of {dataset.num_features} features and {dataset.num_classes} classes does not fit "
            f"spec {spec.layer_sizes}"
        )


def _sgd_epoch(
    w: np.ndarray, spec: MlpSpec, dataset: Dataset, order: np.ndarray, batch_size: int, lr: float, ws: Workspace
) -> list:
    """One epoch of plain mini-batch SGD on w, in place, over dataset rows in order.

    This is the one local-SGD inner loop, shared by client_update,
    group_update and train_centralized. w (P,) with order (n,) is one model;
    a stack w (k, P) with order (k, n) is k models in lockstep, model i on
    the rows order[i], with one kernel call a step for all of them. Each
    batch is gathered into the workspace, and the step grad *= lr; w -= grad
    rounds exactly like w -= lr * grad. w -= grad runs as the BLAS's daxpy
    where machine.blas_subtract finds it pays, at addresses taken once per
    call and per view. Returns the batch losses (arrays of k for a stack).
    One model stops without stepping at the first non-finite loss, which is
    then the last one returned. A stack takes every step: a model whose loss
    goes non-finite gets a nan output bias that stays nan, and its rows never
    touch the other models'.
    """
    lead = w.shape[:-1]
    ws.check_fits(spec, batch_size, *lead)
    check_dataset_fits(spec, dataset)
    subtract = blas_subtract(w)
    losses = []
    for start in range(0, order.shape[-1], batch_size):
        idx = order[..., start : start + batch_size]
        views = ws.fit(spec, lead, idx.shape[-1])
        x, y = views.inputs, views.labels
        np.take(dataset.inputs, idx, axis=0, out=x)
        np.take(dataset.labels, idx, out=y)
        # called through this module's global, where the benchmark's tracer wraps it
        batch_loss, grad = loss_and_grad_raw(w, spec, x, y, ws)
        losses.append(batch_loss)
        if not lead and not np.isfinite(batch_loss):
            break
        grad *= lr
        if subtract is None:
            w -= grad
        else:
            subtract(views.grad_address)
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


def group_update(
    shards: Sequence[ClientShard],
    dataset: Dataset,
    weights: ParamVector,
    local_epochs: int,
    batch_size: int | None,
    client_lr: float,
    client_seeds: Sequence[int],
    workspace: Workspace,
    out: np.ndarray,
) -> np.ndarray:
    """Train k clients of equally many samples in lockstep, client i in row i of out (k, P); return who diverged.

    Row i ends as the weights client_update gives shards[i] with
    client_seeds[i], bit for bit: the same epoch permutations (a copy and
    shuffle is what permutation runs), the same batches and, through
    _sgd_epoch on the stack, the same kernel operations. workspace must fit
    k clients' batches. A client whose loss or weights go non-finite does not
    stop the others; it is flagged in the returned (k,) bool array instead.
    A group of one is client_update, trained in out[0].
    """
    if len(shards) == 1:
        try:
            client_update(
                shards[0], dataset, weights, local_epochs, batch_size, client_lr, client_seeds[0], workspace, out[0]
            )
        except ClientDivergedError:
            return np.ones(1, dtype=bool)
        return np.zeros(1, dtype=bool)
    n = shards[0].num_samples
    if any(s.num_samples != n for s in shards):
        raise ValueError("a lockstep group needs clients of equally many samples")
    np.copyto(out, weights.values)
    order = np.empty((len(shards), n), dtype=np.int64)
    for epoch in range(local_epochs):
        for row, shard, seed in zip(order, shards, client_seeds):
            row[:] = shard.indices
            if n > 1:  # one index has one permutation, and client_update draws none for it
                np.random.default_rng(derive_seed(seed, "epoch", epoch)).shuffle(row)
        _sgd_epoch(out, weights.spec, dataset, order, _batch_rows(batch_size, n), client_lr, workspace)
    return ~np.isfinite(out).all(axis=-1)


def _fold_all(updates: Sequence[tuple[ParamVector, int]], total: float | None) -> np.ndarray:
    """The weighted mean of a list of updates: acc += (n_k / denom) * x_k, in list order.

    denom is total when given, else sum(n_k). run_round takes the same two
    steps per client, the product where the client trained (_train_group)
    and the sum in the parent, so a round and both aggregate_* functions
    agree bit for bit.
    """
    denom = float(total) if total is not None else float(sum(n for _, n in updates))
    acc = np.zeros_like(updates[0][0].values)
    term = np.empty_like(acc)
    for vec, n in updates:
        np.multiply(vec.values, n / denom, out=term)
        acc += term
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


def _round_workspace(spec: MlpSpec, shards: Sequence[ClientShard], clients: int) -> Workspace:
    """A workspace that fits the largest shard, for up to clients clients at once: every local batch and every loss."""
    return Workspace(spec, max(s.num_samples for s in shards), clients)


def _groups(shards: Sequence[ClientShard], share: Sequence[int], cap: int) -> list[list[int]]:
    """A process's share of a cohort (client ids in cohort order) cut into lockstep groups.

    A group is a run of consecutive clients of the share that hold equally
    many samples, at most cap of them.
    """
    groups: list[list[int]] = []
    for client_id in share:
        if groups and len(groups[-1]) < cap and shards[groups[-1][0]].num_samples == shards[client_id].num_samples:
            groups[-1].append(client_id)
        else:
            groups.append([client_id])
    return groups


def _train_group(
    out: np.ndarray,
    shards: Sequence[ClientShard],
    dataset: Dataset,
    weights: ParamVector,
    config: FedConfig,
    client_seeds: Sequence[int],
    denom: float,
    workspace: Workspace,
) -> np.ndarray:
    """Train a group of a round in out[:k], leave there the clients' terms of the weighted sum; return their losses.

    A client's term is (n / denom) * x, where x is its new weights, or their
    delta from weights in send_delta mode, and its loss is the new weights'
    mean loss on its shard, or nan when its weights diverged. A client whose
    loss is non-finite has failed.
    """
    k, n = len(shards), shards[0].num_samples
    diverged = group_update(
        shards, dataset, weights, config.local_epochs, config.batch_size, config.client_lr, client_seeds,
        workspace, out[:k],
    )
    # one client is one vector, as in client_update; a group is a stack (see nn.loss_raw)
    x, idx = (out[0], shards[0].indices) if k == 1 else (out[:k], np.stack([s.indices for s in shards]))
    views = workspace.fit(weights.spec, x.shape[:-1], n)
    np.take(dataset.inputs, idx, axis=0, out=views.inputs)
    np.take(dataset.labels, idx, out=views.labels)
    losses = np.array(loss_raw(x, weights.spec, views.inputs, views.labels, workspace), ndmin=1)
    losses[diverged] = np.nan
    if config.update_mode == SEND_DELTA:
        np.subtract(x, weights.values, out=x)
    np.multiply(x, n / denom, out=x)
    return losses


# OpenBLAS runs a dgemm on one thread while m * n * k is at most
# SMP_THRESHOLD_MIN (65,536) times GEMM_MULTITHREAD_THRESHOLD (4).
_BLAS_ONE_THREAD_MNK = 4 * 65_536

# A lockstep group keeps a (K, P) stack of weights and one of gradients, 2 * 8 * K * P bytes of
# float64. Held within this budget, about three quarters of the 2 MiB per-core L2 cache of the Xeon
# it was measured on, a step's stacks stay in cache beside the batch's activations (see README
# "Performance" for the sweep).
_LOCKSTEP_BYTES = 3 << 19  # 1.5 MiB


@dataclass(frozen=True)
class Layout:
    """A run's processes N (workers), lockstep group size K (group) and BLAS pin (one_thread); see layout."""

    workers: int
    group: int
    one_thread: bool


def layout(spec: MlpSpec, config: FedConfig, shards: Sequence[ClientShard]) -> Layout:
    """How train_federated lays out the run; the one place that decides N, K and the BLAS pin.

    - one_thread: each layer's b * d_in * d_out, b the rows of the run's
      largest local batch, is at most _BLAS_ONE_THREAD_MNK, so OpenBLAS runs
      every local step on one thread. It reads the model and batch shape
      alone, so the run's bits depend on neither the CPUs nor the cohort.
    - workers: one per usable CPU, at most one per cohort client, while
      one_thread holds; else 1: a larger step's BLAS threads use the cores.
    - group: the parent's (the largest) share of the cohort, capped so that
      the (K, P) stacks fit _LOCKSTEP_BYTES, and at least 1.
    """
    sizes = spec.layer_sizes
    rows = _batch_rows(config.batch_size, max(s.num_samples for s in shards))
    one_thread = max(rows * d_in * d_out for d_in, d_out in zip(sizes[:-1], sizes[1:])) <= _BLAS_ONE_THREAD_MNK
    workers = min(usable_cpus(), config.cohort_size) if one_thread else 1
    share = -(-config.cohort_size // workers)
    return Layout(workers, max(1, min(share, _LOCKSTEP_BYTES // (2 * 8 * spec.parameter_count()))), one_thread)


def _train_share(
    out: np.ndarray,
    share: Sequence[int],
    shards: Sequence[ClientShard],
    dataset: Dataset,
    weights: ParamVector,
    config: FedConfig,
    round_index: int,
    denom: float,
    workspace: Workspace,
):
    """Train a process's share of a round group by group in out (K, P), yielding each client's (term, loss).

    The clients come in the share's order, and each group trains when the
    first of its clients is asked for, so out is free by then.
    """
    for group in _groups(shards, [int(c) for c in share], out.shape[0]):
        seeds = [_client_seed(config.seed, round_index, c) for c in group]
        losses = _train_group(out, [shards[c] for c in group], dataset, weights, config, seeds, denom, workspace)
        for row, client_loss in enumerate(losses.tolist()):
            yield out[row], client_loss


def run_round(
    state: GlobalState,
    config: FedConfig,
    shards: Sequence[ClientShard],
    dataset: Dataset,
    test_set: Dataset | None = None,
    train_rows: np.ndarray | None = None,
    compute_accuracy: bool = True,
    workspace: Workspace | None = None,
    pool: CohortPool | None = None,
) -> tuple[GlobalState, RoundMetrics]:
    """Execute one aggregation round and return the advanced state plus metrics.

    Client updates all start from the same global weights and are aggregated
    in client-id order, so any evaluation order gives identical results.
    This process trains its clients, and measures their losses, in
    workspace, which must fit the largest shard. It trains them in lockstep
    groups (see _groups) of up to workspace.clients clients, the group size
    K; when workspace is omitted, one is made for the K of layout. With a
    pool, its workers train the other clients. A group's terms go into one
    (K, P) buffer (or a worker's slot) and are folded into the weighted sum,
    one client at a time in cohort order, before the next group trains, so
    the round holds O(K x model) state, not O(cohort x model). A client that
    failed (non-finite weights or loss) raises ClientDivergedError when the
    fold reaches it, as if it had trained alone. Train accuracy is measured
    on the dataset rows train_rows (default: all).
    """
    if len(shards) != config.num_clients:
        raise ValueError(f"config says {config.num_clients} clients but got {len(shards)} shards")
    if workspace is None:
        workspace = _round_workspace(state.weights.spec, shards, layout(state.weights.spec, config, shards).group)
    started = time.perf_counter()
    t = state.round_index
    selected = select_clients(
        config.num_clients, config.client_fraction, derive_seed(config.seed, "round", t, "select")
    )

    spec, w_t = state.weights.spec, state.weights.values
    weighted = shards if config.alg1_literal_normalization else [shards[int(c)] for c in selected]
    denom = float(sum(s.num_samples for s in weighted))
    workers = 1 if pool is None else pool.workers
    if pool is not None:
        pool.start_round(t, w_t, selected, denom)
    acc = np.zeros_like(w_t)
    own = _train_share(
        np.empty((workspace.clients, w_t.size)), selected[::workers], shards, dataset, state.weights, config, t,
        denom, workspace,
    )
    losses = []
    for k, client_id in enumerate(selected):
        try:
            if k % workers:
                client_loss = pool.fold(acc, k)
            else:
                term, client_loss = next(own)
                if math.isfinite(client_loss):
                    acc += term
        except ClientDivergedError as err:  # raised rather than flagged: a worker's, or a patched trainer's
            raise ClientDivergedError(err.client_id, t) from err
        if not math.isfinite(client_loss):
            raise ClientDivergedError(int(client_id), t)
        losses.append(client_loss)

    if config.update_mode == SEND_DELTA:
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


@np.errstate(all="ignore")  # a diverging run is caught by the finiteness checks, not by warnings
def train_federated(
    model: MlpSpec,
    config: FedConfig,
    shards: Sequence[ClientShard],
    dataset: Dataset,
    test_set: Dataset | None = None,
    initial_weights: ParamVector | None = None,
    on_round: Callable[[RoundMetrics], object] | None = None,
) -> tuple[list[RoundMetrics], GlobalState]:
    """Run the full federated loop and return per-round metrics and final state.

    Accuracy is computed on the union of the shards (the data the federation
    actually trains on) and on test_set, every eval_every rounds plus the
    final round. eval_every defaults to 1 for short runs and 5 for long ones.
    on_round, when given, gets each round's metrics as soon as the round
    completes. The run's layout, taken once, sets the N processes its cohorts
    train on (forked once, each training lockstep groups of up to K clients)
    and the pin: under one_thread the rounds (pool fork, local steps, shard
    losses, fold, server step, evaluations) run with the BLAS on one thread.
    Workers stop and the thread count is restored however the run ends.
    """
    weights = initial_weights if initial_weights is not None else init_params(model, derive_seed(config.seed, "init"))
    state = GlobalState(weights, 0, config.server_opt)

    eval_every = config.eval_every
    if eval_every is None:
        eval_every = 1 if config.rounds <= EVAL_EVERY_DEFAULT_THRESHOLD else 5

    union = np.sort(np.concatenate([s.indices for s in shards]))
    # shards that cover every row exactly once are scored on the dataset as it is
    train_rows = None if np.array_equal(union, np.arange(len(dataset))) else union

    spec = weights.spec
    run_layout = layout(spec, config, shards)
    workspace = _round_workspace(spec, shards, run_layout.group)
    history: list[RoundMetrics] = []
    with contextlib.ExitStack() as stack:
        if run_layout.one_thread:
            stack.enter_context(one_blas_thread())  # before the pool forks, so its workers inherit one thread
        pool = None
        if run_layout.workers > 1:
            from .pool import CohortPool  # imported here: multiprocessing would add ~10 ms to every CLI start

            pool = stack.enter_context(CohortPool(run_layout.workers, spec, config, shards, dataset, run_layout.group))
        for t in range(config.rounds):
            eval_now = (t + 1) % eval_every == 0 or t == config.rounds - 1
            state, metrics = run_round(
                state, config, shards, dataset,
                test_set=test_set, train_rows=train_rows, compute_accuracy=eval_now,
                workspace=workspace, pool=pool,
            )
            history.append(metrics)
            if on_round is not None:
                on_round(metrics)
    return history, state


@np.errstate(all="ignore")  # as in train_federated
def train_centralized(
    model: MlpSpec,
    dataset: Dataset,
    test_set: Dataset | None,
    lr: float,
    batch_size: int | None,
    epochs: int,
    seed: int,
    on_round: Callable[[RoundMetrics], object] | None = None,
) -> tuple[list[RoundMetrics], ParamVector]:
    """Plain mini-batch SGD baseline; batch_size None is full-batch descent.

    Returns one RoundMetrics per epoch (round_index reused as epoch index),
    and passes each to on_round, when given, as soon as the epoch completes.
    lr < 0, batch_size < 1 and epochs < 0 raise config.FieldError.
    """
    if lr < 0:
        raise FieldError("lr", "must be non-negative")
    if batch_size is not None and batch_size < 1:
        raise FieldError("batch_size", "must be >= 1 or None for full-batch descent")
    if epochs < 0:
        raise FieldError("epochs", "must be >= 0")
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
            raise ClientDivergedError(client_id=-1, round_index=epoch)
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
        if on_round is not None:
            on_round(history[-1])
    return history, ParamVector(w, model)
