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
all three fold with the same step. Every federated client trains as a row
of a (K, P) stack: a process trains its clients in lockstep groups of up to
K clients of equal size (group_update), one stacked kernel call a step for
the whole group, a group of one being a (1, P) stack. One function, layout,
decides a run's K (held to a cache budget, or to a memory budget when every
batch has one row), its N processes and its BLAS pin. When the local steps
are too small for BLAS to thread, train_federated spreads each cohort over
the parent and N - 1 forked workers (see fedsim.pool) and pins the BLAS to
one thread: group g of the cohort's groups trains in process g % N, which
folds it in turn, so the sum is still added in client-id order. The bits
depend neither on N nor on K, and those of such a run not on the BLAS
thread count.
train_centralized's one model is a (1, P) stack of the same loop.

Everything is deterministic given the run seed: client selection, batch
order, and init all draw from seeds derived per (seed, round, client).
"""

from __future__ import annotations

import contextlib
import math
import signal
import time
from dataclasses import dataclass, field, replace
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
    NonFiniteError,
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
    """Training produced a non-finite loss or non-finite weights: a client's, or the server step's (client_id None)."""

    def __init__(self, client_id: int | None, round_index: int | None = None):
        self.client_id = client_id
        self.round_index = round_index
        who = "the server step" if client_id is None else f"client {client_id}"
        where = f" in round {round_index}" if round_index is not None else ""
        super().__init__(f"{who} diverged{where} (non-finite loss or weights)")

    def __reduce__(self):  # keeps both fields through a pickle round trip, as a cohort worker sends exceptions
        return type(self), (self.client_id, self.round_index)


class WorkerDiedError(RuntimeError):
    """A cohort worker process ended while the run still needed it: killed by a signal (exitcode < 0) or exited.

    exitcode is None when the worker's pipe closed but its exit was not seen.
    """

    def __init__(self, pid: int, exitcode: int | None):
        self.pid, self.exitcode = pid, exitcode
        how = "is gone" if exitcode is None else f"exited with code {exitcode}"
        if exitcode is not None and exitcode < 0:
            try:
                how = f"was killed by {signal.Signals(-exitcode).name}"
            except ValueError:  # a signal number this platform has no name for
                how = f"was killed by signal {-exitcode}"
        super().__init__(f"cohort worker {pid} {how}")


@dataclass(frozen=True, kw_only=True)
class FedConfig:
    """Hyperparameters of a federated run, and the fed.* config section's schema.

    batch_size None (config value "full") means each client trains on its full
    shard per step, which together with local_epochs=1 is the one-gradient-step
    special case. seed and server_opt come from the seed and server.* keys.
    """

    num_clients: int
    client_fraction: float
    local_epochs: int = 1
    batch_size: int | None = field(default=10, metadata={"full": True})
    client_lr: float
    rounds: int
    seed: int = field(metadata={"config": False})
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


@dataclass(frozen=True, kw_only=True)
class CentralConfig:
    """Hyperparameters of a centralized run, and the central.* config section's schema.

    batch_size None (config value "full") is full-batch descent.
    """

    lr: float = 0.1
    batch_size: int | None = field(default=32, metadata={"full": True})
    epochs: int = 5

    def __post_init__(self):
        if not self.lr >= 0:  # written so that nan fails too
            raise FieldError("lr", "must be non-negative")
        if self.batch_size is not None and self.batch_size < 1:
            raise FieldError("batch_size", "must be >= 1 or None for full-batch descent")
        if self.epochs < 0:
            raise FieldError("epochs", "must be >= 0")


@dataclass(frozen=True)
class GlobalState:
    weights: ParamVector
    round_index: int
    server_opt_state: ServerOptimizerState


@dataclass(frozen=True, kw_only=True)
class RoundMetrics:
    round_index: int
    selected_clients: tuple[int, ...]
    mean_client_loss: float
    train_accuracy: float | None = None  # None: not evaluated this round
    test_accuracy: float | None = None
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
    w: np.ndarray, spec: MlpSpec, dataset: Dataset, order: np.ndarray, batch_size: int, lr: float, ws: Workspace,
    subtract: Callable[[int], None] | None, start: np.ndarray | None = None, losses: np.ndarray | None = None,
) -> None:
    """One epoch of plain mini-batch SGD on a stack w (k, P), in place, model i on the dataset rows order[i].

    The one SGD inner loop: group_update's k clients, or train_centralized's
    one model, step in lockstep, one kernel call a step. Each batch is
    gathered into the workspace, and the step grad *= lr; w -= grad rounds
    exactly like w -= lr * grad, run as the BLAS's daxpy when the caller
    passes machine.blas_subtract(w) as subtract. start, when given, is the
    stack the first step reads in place of w (group_update's read-only
    stride-0 view of the global weights). That step passes w as the kernel's
    grad, so its gradient lands in w itself, and grad *= lr; w = start - grad
    runs the same operations there. losses, a (steps, k) array, gets the
    batch losses if given; else the kernel's loss flag is off and it computes
    none. Every step is taken: a model whose loss goes non-finite gets a nan
    output bias that stays nan, and its rows never touch the other models'.
    """
    current = w if start is None else start
    for step, begin in enumerate(range(0, order.shape[-1], batch_size)):
        idx = order[:, begin : begin + batch_size]
        views = ws.fit(spec, len(w), idx.shape[-1])
        x, y = views.inputs, views.labels
        dataset.inputs.take(idx, axis=0, out=x)
        dataset.labels.take(idx, out=y)
        # called through this module's global, where the benchmark's tracer wraps it
        loss, grad = loss_and_grad_raw(current, spec, x, y, ws, None if current is w else w, losses is not None)
        if losses is not None:
            losses[step] = loss
        grad *= lr
        if current is not w:  # grad is w
            np.subtract(current, grad, out=w)
            current = w
        elif subtract is None:
            w -= grad
        else:
            subtract(views.grad_address)


def client_update(
    shard: ClientShard,
    dataset: Dataset,
    weights: ParamVector,
    local_epochs: int,
    batch_size: int | None,
    client_lr: float,
    client_seed: int,
) -> ParamVector:
    """Run the local training loop of one client and return its new weights: a group_update of one.

    Per epoch the shard is reshuffled, split into batches, and stepped with
    plain gradient descent at client_lr. The incoming weights are untouched.
    Raises ClientDivergedError when its loss or weights go non-finite.
    """
    out = np.empty((1, weights.values.size))
    workspace = Workspace(weights.spec, _batch_rows(batch_size, shard.num_samples))
    if group_update([shard], dataset, weights, local_epochs, batch_size, client_lr, [client_seed], workspace, out)[0]:
        raise ClientDivergedError(shard.client_id)
    return ParamVector(out[0], weights.spec)


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

    Every federated client trains here, a group of one as a (1, P) stack.
    Per epoch client i's shard is reshuffled (seeded by client_seeds[i] and
    the epoch), batched and stepped at client_lr through _sgd_epoch, so row
    i gets the same bits in any group; one-row shards draw no permutation
    and read no seed. The first step reads weights as a read-only stride-0
    stack (workspace.broadcast), so they are only read. workspace must fit
    k clients' batches. A
    client whose loss or weights go non-finite does not stop the others; it
    is flagged in the returned (k,) bool array.
    """
    n = shards[0].num_samples
    if any(s.indices.size != n for s in shards):
        raise ValueError("a lockstep group needs clients of equally many samples")
    check_dataset_fits(weights.spec, dataset)
    subtract = blas_subtract(out)
    order = np.empty((len(shards), n), dtype=np.int64)
    if n == 1:  # one index has one permutation: every epoch takes it
        np.concatenate([s.indices for s in shards], out=order[:, 0])
    start = workspace.broadcast(weights.values, len(out))
    for epoch in range(local_epochs):
        for row, shard, seed in zip(order, shards, client_seeds if n > 1 else ()):
            row[:] = shard.indices
            np.random.default_rng(derive_seed(seed, "epoch", epoch)).shuffle(row)
        _sgd_epoch(out, weights.spec, dataset, order, _batch_rows(batch_size, n), client_lr, workspace, subtract, start)
        start = None
    return np.logical_not(np.logical_and.reduce(np.isfinite(out), axis=-1))


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


# Rows per evaluate block. A block's product has the same shape in any process, but the BLAS sums a
# product of another row count in another order, so this size is part of the bits (README "Determinism").
_EVAL_ROWS = 1024


def evaluate(params: ParamVector, dataset: Dataset, rows: np.ndarray | None = None) -> float:
    """Fraction of argmax-correct predictions; ties go to the lowest class.

    rows are the indices of the dataset rows to score, in order (default:
    every row). They are scored _EVAL_ROWS at a time, and each layer of a
    block is written into buffers allocated once per call. A whole dataset
    whose inputs are C-contiguous is read in place, one row slice per block;
    a given row set, or inputs in another layout, are gathered block by
    block into one more buffer. Either way a block is the same C-contiguous
    matrix of the same rows, so the products and their bits are the same.
    """
    if rows is not None:
        if rows.size == 0:
            raise ValueError("rows is empty: there is no row to score")
        if rows.min() < 0 or rows.max() >= len(dataset):
            raise IndexError(f"rows out of range for a dataset of {len(dataset)} rows")
    elif not dataset.inputs.flags.c_contiguous:
        rows = np.arange(len(dataset))
    n = len(dataset) if rows is None else rows.size
    size = min(_EVAL_ROWS, n)
    gathered = None if rows is None else np.empty((size, dataset.num_features))
    buffers = [np.empty((size, d)) for d in params.spec.layer_sizes[1:]]
    hits = 0
    for start in range(0, n, _EVAL_ROWS):
        if rows is None:
            block = dataset.inputs[start : start + _EVAL_ROWS]
            labels = dataset.labels[start : start + _EVAL_ROWS]
        else:
            idx = rows[start : start + _EVAL_ROWS]
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


def _groups(shards: Sequence[ClientShard], cohort: Sequence[int], cap: int) -> list[list[int]]:
    """A cohort (client ids in cohort order) cut into lockstep groups.

    A group is a run of consecutive clients of the cohort that hold equally
    many samples, at most cap of them.
    """
    groups: list[list[int]] = []
    for client_id in cohort:
        if groups and len(groups[-1]) < cap and shards[groups[-1][0]].num_samples == shards[client_id].num_samples:
            groups[-1].append(client_id)
        else:
            groups.append([client_id])
    return groups


def _train_group(
    out: np.ndarray,
    clients: Sequence[int],
    round_index: int,
    shards: Sequence[ClientShard],
    dataset: Dataset,
    weights: ParamVector,
    config: FedConfig,
    denom: float,
    workspace: Workspace,
) -> np.ndarray:
    """Train a round's group of clients (ids) in out[:k], leave there their terms of the weighted sum; return losses.

    Each client trains from its seed, derived per (run seed, round, client).
    Its term is (n / denom) * x, where x is its new weights, or their delta
    from weights in send_delta mode, and its loss is the new weights' mean
    loss on its shard, or nan when its weights diverged. A client whose loss
    is non-finite has failed.
    """
    members = [shards[c] for c in clients]
    x, n = out if len(members) == len(out) else out[: len(members)], members[0].num_samples  # out's views are kept
    seeds = [_client_seed(config.seed, round_index, c) for c in clients] if n > 1 else ()
    diverged = group_update(
        members, dataset, weights, config.local_epochs, config.batch_size, config.client_lr, seeds, workspace, x
    )
    views = workspace.fit(weights.spec, len(x), n)
    if n > 1:  # a one-row shard's row is still where its step gathered it
        idx = np.stack([s.indices for s in members])
        dataset.inputs.take(idx, axis=0, out=views.inputs)
        dataset.labels.take(idx, out=views.labels)
    losses = loss_raw(x, weights.spec, views.inputs, views.labels, workspace)
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
# it was measured on, a step's stacks stay in cache beside the batch's activations (the CHANGES.md
# entry "Lockstep groups" has the sweep).
_LOCKSTEP_BYTES = 3 << 19  # 1.5 MiB
# A one-row step does a few flops per weight, so a group saves mostly per-call overhead: with stacks
# past the L2 it still gained or held even, at one step a client and at 5 or 10. Memory bounds it
# instead: each process holds 8 * K * P bytes of its own (its round buffer), beside the pool's shared
# 16 * P (the global weights and the sum), and 8 * K * P more (the gradient stack) once a client takes
# a second step; a first step writes its gradient into the round buffer. This budget gives K = 4 at
# P = 50,890 (the CHANGES.md entry "Clients whose batches have one row" has the sweeps).
_ONE_ROW_LOCKSTEP_BYTES = 13 << 18  # 3.25 MiB


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
    - group: a process's share of the cohort, ceil(cohort / workers),
      capped so that the (K, P) stacks fit _LOCKSTEP_BYTES, or
      _ONE_ROW_LOCKSTEP_BYTES when every batch has one row, and at least 1.
    """
    sizes = spec.layer_sizes
    rows = _batch_rows(config.batch_size, max(s.num_samples for s in shards))
    one_thread = max(rows * d_in * d_out for d_in, d_out in zip(sizes[:-1], sizes[1:])) <= _BLAS_ONE_THREAD_MNK
    workers = min(usable_cpus(), config.cohort_size) if one_thread else 1
    share = -(-config.cohort_size // workers)
    budget = _ONE_ROW_LOCKSTEP_BYTES if rows == 1 else _LOCKSTEP_BYTES
    return Layout(workers, max(1, min(share, budget // (2 * 8 * spec.parameter_count()))), one_thread)


def run_round(
    state: GlobalState,
    config: FedConfig,
    shards: Sequence[ClientShard],
    dataset: Dataset,
    workspace: Workspace | None = None,
    pool: CohortPool | None = None,
) -> tuple[GlobalState, RoundMetrics]:
    """Execute one aggregation round (select, train, fold, server step); return the advanced state and metrics.

    Client updates all start from the same global weights and are aggregated
    in client-id order, so any training order gives identical results. The
    cohort is cut into lockstep groups (see _groups) of up to
    workspace.clients clients, the group size K, and group g trains in
    process g % N (this one, then a pool's workers). Every process runs the
    same loop: train its next group into a (K, P) buffer of its own, wait
    until group g - 1 is folded, add the group's terms to the weighted sum
    and pass the turn on. This process learns that a worker's group is
    folded from its report (pool.report), and so waits for nothing else; a
    one-process round has no turn to wait for. The round holds O(K x model)
    state per process, not O(cohort x model). workspace must fit the largest
    shard; when it is omitted, one is made for the K of layout. Its views of
    the round's arrays are released when the cohort is folded. A client that
    failed (non-finite weights or loss) raises ClientDivergedError at its
    cohort position, and an exception a group raised is raised at the
    group's first client, as if each had trained alone. The round evaluates
    nothing: its metrics carry None accuracies (train_federated scores them).
    """
    if len(shards) != config.num_clients:
        raise ValueError(f"config says {config.num_clients} clients but got {len(shards)} shards")
    if workspace is None:
        workspace = _round_workspace(state.weights.spec, shards, layout(state.weights.spec, config, shards).group)
    started = time.perf_counter()
    t = state.round_index
    selected = select_clients(
        config.num_clients, config.client_fraction, derive_seed(config.seed, "round", t, "select")
    ).tolist()

    spec, w_t = state.weights.spec, state.weights.values
    weighted = shards if config.alg1_literal_normalization else [shards[c] for c in selected]
    denom = float(sum(s.num_samples for s in weighted))
    workers = 1 if pool is None else pool.workers
    groups = _groups(shards, selected, workspace.clients)
    acc = np.zeros_like(w_t) if pool is None else pool.start_round(t, w_t, groups, denom)  # the sum, then the buffer
    own = np.empty((workspace.clients, w_t.size))  # a round's: once freed, its memory serves the server step

    def train(g: int) -> list[float] | Exception:  # one of this process's groups, into own
        try:
            return _train_group(own, groups[g], t, shards, dataset, state.weights, config, denom, workspace).tolist()
        except Exception as exc:  # raised at the group's first client, after any earlier group's failure
            return exc

    losses: list[float] = []
    ahead = train(0)
    for g, group in enumerate(groups):
        reported = pool.report(g % workers - 1) if g % workers else ahead  # a worker's group comes folded
        if isinstance(reported, Exception):
            raise reported
        for client_id, client_loss in zip(group, reported):
            if not math.isfinite(client_loss):
                raise ClientDivergedError(client_id, t)
            losses.append(client_loss)
        if g % workers == 0:
            for term in own[: len(group)]:
                acc += term
            if pool is not None and g + 1 < len(groups):
                pool.pass_turn(g + 1)
            if g + workers < len(groups):
                ahead = train(g + workers)
    workspace.release()  # the views it kept of this round's arrays, w_t's among them

    try:  # the vector checks that every round makes tell an overflowing server step
        if config.update_mode == SEND_DELTA:
            np.negative(acc, out=acc)
            new_weights, new_server_state = server_apply(state.server_opt_state, state.weights, GradVector(acc, spec))
        else:
            # a pool's sum is in its shared mapping, which the next round rewrites
            new_weights = ParamVector(acc if pool is None else acc.copy(), spec)
            new_server_state = state.server_opt_state
    except NonFiniteError as err:
        raise ClientDivergedError(None, t) from err

    metrics = RoundMetrics(
        round_index=t,
        selected_clients=tuple(selected),
        mean_client_loss=float(np.mean(losses)),
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
    on_round: Callable[[RoundMetrics], object] | None = None,
) -> tuple[list[RoundMetrics], GlobalState]:
    """Run the full federated loop and return per-round metrics and final state.

    Every eval_every rounds, and after the final round, accuracy is scored on
    the shards' sorted union (the rows the federation trains on) and on
    test_set; eval_every defaults to 1 for short runs and 5 for long ones. A
    union that is every row of dataset once, as one-sample shards give, is
    scored as the whole dataset, which evaluate reads in place. A
    round's elapsed_s runs from the start of run_round to the end of its
    evaluation. on_round, when given, gets each round's metrics as soon as the
    round completes. The run's layout, taken once, sets the N processes its
    cohorts train on (forked once, each training lockstep groups of up to K
    clients) and the pin: under one_thread the rounds (pool fork, local steps,
    shard losses, fold, server step, evaluations) run with the BLAS on one
    thread. Workers stop and the thread count is restored however the run ends.
    """
    state = GlobalState(init_params(model, derive_seed(config.seed, "init")), 0, config.server_opt)

    eval_every = config.eval_every
    if eval_every is None:
        eval_every = 1 if config.rounds <= EVAL_EVERY_DEFAULT_THRESHOLD else 5

    union = np.sort(np.concatenate([s.indices for s in shards]))
    if np.array_equal(union, np.arange(len(dataset))):
        union = None  # every row once, in order: evaluate reads the dataset in place
    run_layout = layout(model, config, shards)
    workspace = _round_workspace(model, shards, run_layout.group)
    history: list[RoundMetrics] = []
    with contextlib.ExitStack() as stack:
        if run_layout.one_thread:
            stack.enter_context(one_blas_thread())  # before the pool forks, so its workers inherit one thread
        pool = None
        if run_layout.workers > 1:
            from .pool import CohortPool  # imported here: multiprocessing would add ~10 ms to every CLI start

            pool = stack.enter_context(CohortPool(run_layout.workers, model, config, shards, dataset, run_layout.group))
        for t in range(config.rounds):
            started = time.perf_counter()
            state, metrics = run_round(state, config, shards, dataset, workspace, pool)
            if (t + 1) % eval_every == 0 or t == config.rounds - 1:
                metrics = replace(
                    metrics,
                    train_accuracy=evaluate(state.weights, dataset, union),
                    test_accuracy=None if test_set is None else evaluate(state.weights, test_set),
                )
            history.append(replace(metrics, elapsed_s=time.perf_counter() - started))
            if on_round is not None:
                on_round(history[-1])
    return history, state


@np.errstate(all="ignore")  # as in train_federated
def train_centralized(
    model: MlpSpec,
    dataset: Dataset,
    test_set: Dataset | None,
    config: CentralConfig,
    seed: int,
    on_round: Callable[[RoundMetrics], object] | None = None,
) -> tuple[list[RoundMetrics], ParamVector]:
    """Plain mini-batch SGD baseline with config's rate, batch size and epochs.

    The model trains as a (1, P) stack in _sgd_epoch. Returns one
    RoundMetrics per epoch (round_index reused as epoch index), and passes
    each to on_round, when given, as soon as the epoch completes; an epoch
    with a non-finite loss or weight raises ClientDivergedError(-1, epoch).
    """
    check_dataset_fits(model, dataset)
    w = init_params(model, derive_seed(seed, "init")).values[None].copy()
    n = len(dataset)
    effective_b = _batch_rows(config.batch_size, n)
    ws = Workspace(model, effective_b)
    subtract = blas_subtract(w)
    epoch_losses = np.empty((-(-n // effective_b), 1))
    history: list[RoundMetrics] = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        perm = np.random.default_rng(derive_seed(seed, "epoch", epoch)).permutation(n)
        _sgd_epoch(w, model, dataset, perm[None], effective_b, config.lr, ws, subtract, losses=epoch_losses)
        if not (np.isfinite(epoch_losses).all() and np.isfinite(w).all()):
            raise ClientDivergedError(client_id=-1, round_index=epoch)
        params = ParamVector(w[0].copy(), model)
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
    return history, ParamVector(w[0], model)
