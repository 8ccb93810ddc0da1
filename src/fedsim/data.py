"""Dataset loading (IDX files), synthetic stand-ins, and client partitioning.

Partitioning maps a dataset onto simulated devices under three regimes:
uniformly shuffled shards (iid), shards holding many samples of exactly one
class (single_label_multi_sample), and one-sample shards (single_sample).
Shards store indices into the parent dataset, never copies.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

from .config import FieldError
from .nn import Batch

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

IID = "iid"
SINGLE_LABEL = "single_label_multi_sample"
SINGLE_SAMPLE = "single_sample"
PARTITION_KINDS = (IID, SINGLE_LABEL, SINGLE_SAMPLE)

SYNTH_NOISE_SIGMA = 0.3


class IdxFormatError(ValueError):
    """Base for malformed IDX input files."""


class IdxMagicError(IdxFormatError):
    pass


class IdxTruncatedError(IdxFormatError):
    pass


class IdxCountMismatchError(IdxFormatError):
    pass


class PartitionError(ValueError):
    """The partition plan cannot be satisfied by the dataset."""


class ClassPoolExhaustedError(PartitionError):
    """A single-label plan asked for more samples of a class than exist."""


@dataclass(frozen=True)
class Dataset:
    """Feature matrix (N, d) with values in [0, 1] and integer labels (N,)."""

    inputs: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if inputs.ndim != 2 or inputs.shape[0] < 1:
            raise ValueError(f"inputs must be a nonempty 2-d matrix, got {inputs.shape}")
        if labels.shape != (inputs.shape[0],):
            raise ValueError("need exactly one label per row")
        if inputs.min() < 0.0 or inputs.max() > 1.0:
            raise ValueError("inputs must lie in [0, 1]")
        if labels.min() < 0 or labels.max() >= self.num_classes:
            raise ValueError(f"labels out of range for {self.num_classes} classes")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "labels", labels)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def num_features(self) -> int:
        return self.inputs.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.inputs[indices], self.labels[indices], self.num_classes)


@dataclass(frozen=True)
class ClientShard:
    """One device's local data: indices into the parent dataset plus a label census."""

    client_id: int
    indices: np.ndarray
    label_census: np.ndarray

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        census = np.asarray(self.label_census, dtype=np.int64)
        if indices.size < 1:
            raise ValueError("shards must hold at least one sample")
        if census.sum() != indices.size:
            raise ValueError("label census does not sum to the shard size")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "label_census", census)

    @property
    def num_samples(self) -> int:
        return int(self.indices.size)


@dataclass(frozen=True)
class PartitionPlan:
    kind: str
    num_clients: int
    samples_per_client: int
    seed: int

    def __post_init__(self):
        if self.kind not in PARTITION_KINDS:
            raise FieldError("kind", f"must be one of {PARTITION_KINDS}, got {self.kind!r}")
        if self.kind == SINGLE_SAMPLE:
            object.__setattr__(self, "samples_per_client", 1)
        for name in ("num_clients", "samples_per_client"):
            if getattr(self, name) < 1:
                raise FieldError(name, "must be >= 1")


def _read_header(f, path, n_dims: int, expected_magic: int) -> tuple[int, ...]:
    raw = f.read(4 * (1 + n_dims))
    if len(raw) < 4 * (1 + n_dims):
        raise IdxTruncatedError(f"{path}: header truncated")
    fields = struct.unpack(f">{1 + n_dims}I", raw)
    if fields[0] != expected_magic:
        raise IdxMagicError(f"{path}: bad magic 0x{fields[0]:08x}, expected 0x{expected_magic:08x}")
    return fields[1:]


def _open_maybe_gzip(path):
    if str(path).endswith(".gz"):
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_exactly(f, n: int, path) -> bytes:
    raw = f.read(n)
    if len(raw) < n:
        raise IdxTruncatedError(f"{path}: expected {n} data bytes, got {len(raw)}")
    return raw


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (plain or .gz) as a flat dataset.

    Pixels are scaled to [0, 1] by division by 255 and images flattened
    row-major, so MNIST yields (N, 784).
    """
    with _open_maybe_gzip(images_path) as f:
        count, rows, cols = _read_header(f, images_path, 3, IMAGES_MAGIC)
        pixels = np.frombuffer(
            _read_exactly(f, count * rows * cols, images_path), dtype=np.uint8
        )
    inputs = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0

    with _open_maybe_gzip(labels_path) as f:
        (label_count,) = _read_header(f, labels_path, 1, LABELS_MAGIC)
        labels = np.frombuffer(_read_exactly(f, label_count, labels_path), dtype=np.uint8)

    if label_count != count:
        raise IdxCountMismatchError(
            f"{images_path} holds {count} images but {labels_path} holds {label_count} labels"
        )
    return Dataset(inputs, labels.astype(np.int64), int(labels.max()) + 1)


def synth_dataset(num_classes: int, num_features: int, num_samples: int, seed: int) -> Dataset:
    """Class-conditional Gaussian blobs, clipped into the [0, 1] feature box.

    Class c gets a one-hot mean on feature c % d (second wrap at half height),
    noise sigma 0.3. Labels cycle 0..C-1 so counts are balanced. Linearly
    separable enough that a one-layer net clears 90% accuracy.
    """
    if num_classes < 1 or num_features < 1 or num_samples < 1:
        raise ValueError("num_classes, num_features and num_samples must be positive")
    if num_classes > 2 * num_features:
        raise ValueError("need num_classes <= 2 * num_features to place distinct class means")
    rng = np.random.default_rng(seed)
    labels = np.arange(num_samples, dtype=np.int64) % num_classes
    classes = np.arange(num_classes)
    mean_col = classes % num_features
    mean_val = np.where(classes < num_features, 1.0, 0.5)
    # built in place in the noise array: only a row's mean column is nonzero in
    # its mean, and 0.0 + x == x, so this equals mean + noise element for element
    inputs = rng.normal(0.0, SYNTH_NOISE_SIGMA, size=(num_samples, num_features))
    inputs[np.arange(num_samples), mean_col[labels]] += mean_val[labels]
    np.clip(inputs, 0.0, 1.0, out=inputs)
    return Dataset(inputs, labels, num_classes)


def _census(labels: np.ndarray, indices: np.ndarray, num_classes: int) -> np.ndarray:
    return np.bincount(labels[indices], minlength=num_classes)


def partition(dataset: Dataset, plan: PartitionPlan) -> list[ClientShard]:
    """Split a dataset into disjoint per-client shards according to the plan."""
    rng = np.random.default_rng(plan.seed)
    n_total = plan.num_clients * plan.samples_per_client

    if plan.kind == IID:
        if n_total > len(dataset):
            raise PartitionError(
                f"plan needs {n_total} samples but dataset has {len(dataset)}"
            )
        perm = rng.permutation(len(dataset))
        shards = []
        for k in range(plan.num_clients):
            idx = perm[k * plan.samples_per_client : (k + 1) * plan.samples_per_client]
            shards.append(ClientShard(k, idx, _census(dataset.labels, idx, dataset.num_classes)))
        return shards

    # single-label regimes: client k draws only from class k % num_classes
    pools = []
    for c in range(dataset.num_classes):
        pool = np.flatnonzero(dataset.labels == c)
        pools.append(list(rng.permutation(pool)))
    shards = []
    for k in range(plan.num_clients):
        c = k % dataset.num_classes
        pool = pools[c]
        if len(pool) < plan.samples_per_client:
            raise ClassPoolExhaustedError(
                f"class {c} exhausted: client {k} needs {plan.samples_per_client} "
                f"samples but only {len(pool)} remain"
            )
        idx = np.array([pool.pop() for _ in range(plan.samples_per_client)], dtype=np.int64)
        shards.append(ClientShard(k, idx, _census(dataset.labels, idx, dataset.num_classes)))
    return shards


def shard_batch_indices(shard: ClientShard, batch_size: int, epoch_seed: int) -> list[np.ndarray]:
    """Shuffle the shard's indices and chunk them into batches of batch_size.

    The last batch may be short; batch_size >= shard size yields one batch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng(epoch_seed).permutation(shard.indices)
    return [perm[i : i + batch_size] for i in range(0, perm.size, batch_size)]


def shard_batches(dataset: Dataset, shard: ClientShard, batch_size: int, epoch_seed: int) -> list[Batch]:
    """Materialize the epoch's batches for one client."""
    return [
        Batch(dataset.inputs[idx], dataset.labels[idx])
        for idx in shard_batch_indices(shard, batch_size, epoch_seed)
    ]
