"""Dataset loading (IDX files), synthetic stand-ins, and client partitioning.

Partitioning maps a dataset onto simulated devices under three regimes:
uniformly shuffled shards (iid), shards holding many samples of exactly one
class (single_label_multi_sample), and one-sample shards (single_sample).
Shards store indices into the parent dataset, never copies.
"""

from __future__ import annotations

import copy
import gzip
import math
import struct
import threading
import zlib
from dataclasses import dataclass

import numpy as np

from .config import FieldError
from .machine import usable_cpus
from .nn import Batch

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801

IID = "iid"
SINGLE_LABEL = "single_label_multi_sample"
SINGLE_SAMPLE = "single_sample"
PARTITION_KINDS = (IID, SINGLE_LABEL, SINGLE_SAMPLE)

SYNTH_NOISE_SIGMA = 0.3
# _normal draws >= _SPLIT_MIN values on two threads (the CHANGES.md entry "MNIST-scale synthetic data"
# has the sweep). A ziggurat value takes 1.0221 raw draws on average, n values spread by about
# 0.2 * sqrt(n) draws; the helper starts _LEAD draws (30+ spreads at MNIST scale) early, and records its
# state every _NEAR values for 2 * _LEAD values.
_SPLIT_MIN, _DRAWS_PER_NORMAL = 1 << 21, 1.0221
_LEAD, _NEAR, _FAR, _JOIN_STEPS = 1 << 15, 1 << 10, 1 << 17, 1 << 12
_READ_CHUNK = 1 << 24  # _read_idx reads a file's data 16 MiB at a time
_WINDOW = 1 << 22  # synth_dataset draws a row subset's noise in windows of whole rows, about this many values each


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
        if not (inputs.min() >= 0.0 and inputs.max() <= 1.0):  # false for nan too
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


def _read_idx(path, n_dims: int, expected_magic: int) -> tuple[tuple[int, ...], np.ndarray]:
    """One IDX file's dimensions and its uint8 data, plain or .gz.

    The data is read _READ_CHUNK bytes at a time, so a header that claims more
    than the file holds allocates only what is there. A short, corrupt or
    overlong file raises IdxFormatError naming it.
    """
    try:
        with gzip.open(path, "rb") if str(path).endswith(".gz") else open(path, "rb") as f:
            dims = _read_header(f, path, n_dims, expected_magic)
            n, data = math.prod(dims), bytearray()
            while len(data) < n and (chunk := f.read(min(n - len(data), _READ_CHUNK))):
                data += chunk
            if len(data) < n:
                raise IdxTruncatedError(f"{path}: expected {n} data bytes, got {len(data)}")
            if f.read(1):  # reading past the data also checks a .gz stream's end and checksum
                raise IdxFormatError(f"{path}: holds more than the {n} data bytes its header declares")
    except (EOFError, zlib.error, gzip.BadGzipFile) as err:
        raise IdxFormatError(f"{path}: not a whole gzip stream ({err})") from err
    return dims, np.frombuffer(data, dtype=np.uint8)


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair (plain or .gz) as a flat dataset.

    Pixels are scaled to [0, 1] by division by 255 and images flattened
    row-major, so MNIST yields (N, 784). A malformed file, or one that holds
    no pixels, raises IdxFormatError naming it before anything large is allocated.
    """
    (count, rows, cols), pixels = _read_idx(images_path, 3, IMAGES_MAGIC)
    if pixels.size == 0:
        raise IdxFormatError(f"{images_path}: holds no pixels ({count} images of {rows}x{cols})")
    (label_count,), labels = _read_idx(labels_path, 1, LABELS_MAGIC)
    if label_count != count:
        raise IdxCountMismatchError(
            f"{images_path} holds {count} images but {labels_path} holds {label_count} labels"
        )
    inputs = pixels.reshape(count, rows * cols).astype(np.float64) / 255.0
    return Dataset(inputs, labels.astype(np.int64), int(labels.max()) + 1)


def _fill(gen: np.random.Generator, out: np.ndarray, scale: float, starts: dict | None = None) -> None:
    """Fill out with gen.normal(0.0, scale)'s values by chunks; starts maps each chunk's start state to its offset."""
    o = 0
    while o < out.size:
        if starts is not None:
            starts[gen.bit_generator.state["state"]["state"]] = o
        chunk = out[o : o + (_NEAR if starts is not None and o < 2 * _LEAD else _FAR)]
        gen.standard_normal(out=chunk)
        chunk *= scale
        chunk += 0.0  # normal returns 0.0 + scale * z, which turns -0.0 into 0.0
        o += chunk.size


def _normal(
    rng: np.random.Generator, scale: float, shape: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """rng.normal(0.0, scale, shape) bit for bit, leaving rng where that call would, drawn on two threads.

    out, when given, is a C-contiguous float64 array of that shape that gets the
    values and is returned, so a caller drawing a stream by windows reuses one buffer.

    rng's bit generator must be a PCG64. This thread draws the first half while a
    helper draws the second from a copy of the generator advanced to a little before
    the split (a ziggurat value takes a varying number of raw draws). Then this thread
    draws on, one value at a time, until its LCG state equals one the helper recorded
    at a chunk's start: the increments are equal and output depends only on the state,
    so the helper's values from there on are the stream's. They are shifted into
    place, and the values the shift leaves at the end are drawn from the helper's
    final state. If no state matches within _JOIN_STEPS values, or the helper started
    past the split, this thread draws the rest itself. Below _SPLIT_MIN values, or
    with one usable CPU, it calls rng.normal, or fills out on this thread.
    """
    n = math.prod(shape)
    if out is not None and (out.shape != tuple(shape) or out.dtype != np.float64 or not out.flags.c_contiguous):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {tuple(shape)}")
    if n < _SPLIT_MIN or usable_cpus() < 2:
        if out is None:
            return rng.normal(0.0, scale, shape)
        _fill(rng, out.reshape(-1), scale)
        return out
    result = np.empty(shape) if out is None else out
    out, h, starts, errors = result.reshape(-1), n // 2, {}, []
    gen = np.random.Generator(copy.deepcopy(rng.bit_generator))
    gen.bit_generator.advance(max(0, round(h * _DRAWS_PER_NORMAL) - _LEAD))

    def helper():
        try:
            _fill(gen, out[h:], scale, starts)
        except BaseException as err:  # re-raised on this thread once joined
            errors.append(err)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        _fill(rng, out[:h], scale)
    finally:  # however this half ends, a KeyboardInterrupt included
        thread.join()
    if errors:
        raise errors[0]
    steps = []
    while (o := starts.get(rng.bit_generator.state["state"]["state"])) is None and len(steps) < _JOIN_STEPS:
        steps.append(rng.normal(0.0, scale))
    m = h + len(steps)  # rng stands at value m, and the helper's value o is that value
    if o is None or m > h + o:  # no state matched, or the helper started past the split
        out[h:m] = steps
        _fill(rng, out[m:], scale)
    else:
        k = n - h - o
        out[m : m + k] = out[h + o :]
        _fill(gen, out[m + k :], scale)
        out[h:m] = steps
        rng.bit_generator.state = gen.bit_generator.state
    return result


def synth_labels(num_classes: int, num_features: int, num_samples: int) -> np.ndarray:
    """The labels of synth_dataset's rows, 0..C-1 in turn; its arguments are checked as synth_dataset checks them.

    A dimension < 1, C > 2d, or an N x d matrix of more than np.intp's bytes
    raises FieldError. So a run can check its data and partition it on these
    labels before drawing any feature.
    """
    for name, value in (("num_classes", num_classes), ("num_features", num_features), ("num_samples", num_samples)):
        if value < 1:
            raise FieldError(name, "must be >= 1")
    if num_classes > 2 * num_features:
        raise FieldError("num_classes", f"must be <= 2 * num_features = {2 * num_features}, one mean each")
    if 8 * num_samples * num_features > np.iinfo(np.intp).max:  # numpy could not even describe the float64 matrix
        name = "num_features" if num_features > num_samples else "num_samples"
        raise FieldError(name, f"makes a {num_samples} x {num_features} float64 matrix, more than one array can hold")
    return np.arange(num_samples, dtype=np.int64) % num_classes


def synth_dataset(
    num_classes: int, num_features: int, num_samples: int, seed: int, rows: np.ndarray | None = None
) -> Dataset:
    """Class-conditional Gaussian blobs, clipped into the [0, 1] feature box.

    Class c gets a one-hot mean on feature c % d (second wrap at half height),
    noise sigma 0.3. Labels cycle 0..C-1 so counts are balanced (synth_labels,
    which also checks the arguments). Linearly separable enough that a
    one-layer net clears 90% accuracy. The noise is
    default_rng(seed).normal(0.0, 0.3, (N, d)) bit for bit on any number of
    threads and CPUs (_normal). rows, strictly increasing row indices, keeps
    only those rows: the dataset's row i is row rows[i] of the whole set, bit
    for bit. Unless rows is every row, the stream is drawn up to the last kept
    row one window of whole rows (about _WINDOW values) at a time into one
    reused buffer, the kept rows are copied out, and the means and the clip
    apply to them alone, so the N x d matrix never exists.
    """
    labels = synth_labels(num_classes, num_features, num_samples)
    if rows is not None:
        rows = np.asarray(rows)
        if not (
            rows.ndim == 1 and rows.size and rows.dtype.kind in "iu"
            and 0 <= rows[0] and rows[-1] < num_samples and (rows[1:] > rows[:-1]).all()
        ):
            raise ValueError(f"rows must be a nonempty, strictly increasing 1-d array of indices into {num_samples} rows")
    rng = np.random.default_rng(seed)
    if rows is None or rows.size == num_samples:
        inputs = _normal(rng, SYNTH_NOISE_SIGMA, (num_samples, num_features))
    else:
        labels, inputs = labels[rows], np.empty((rows.size, num_features))
        end, step = int(rows[-1]) + 1, max(1, _WINDOW // num_features)
        buffer = np.empty((min(step, end), num_features))
        for start in range(0, end, step):
            window = buffer[: min(step, end - start)]
            _normal(rng, SYNTH_NOISE_SIGMA, window.shape, out=window)
            lo, hi = np.searchsorted(rows, (start, start + len(window)))
            # mode="clip" lets take write into out without a buffer; the rows lie in the window
            np.take(window, rows[lo:hi] - start, axis=0, out=inputs[lo:hi], mode="clip")
    classes = np.arange(num_classes)
    mean_col = classes % num_features
    mean_val = np.where(classes < num_features, 1.0, 0.5)
    # built in place in the noise array: only a row's mean column is nonzero in
    # its mean, and 0.0 + x == x, so this equals mean + noise element for element
    inputs[np.arange(len(labels)), mean_col[labels]] += mean_val[labels]
    np.clip(inputs, 0.0, 1.0, out=inputs)
    return Dataset(inputs, labels, num_classes)


def _census(labels: np.ndarray, indices: np.ndarray, num_classes: int) -> np.ndarray:
    return np.bincount(labels[indices], minlength=num_classes)


def partition(dataset: Dataset, plan: PartitionPlan) -> list[ClientShard]:
    """Split a dataset into disjoint per-client shards according to the plan.

    It reads only dataset.labels, dataset.num_classes and len(dataset), so
    anything that has those, a dataset whose features are not drawn yet, can
    be partitioned: a run partitions first and then holds only its shards' rows.
    """
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


def shard_batches(dataset: Dataset, shard: ClientShard, batch_size: int, epoch_seed: int) -> list[Batch]:
    """Materialize one client's epoch: its shuffled indices cut into batches of batch_size.

    The last batch may be short; batch_size >= shard size yields one batch.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    perm = np.random.default_rng(epoch_seed).permutation(shard.indices)
    chunks = np.split(perm, range(batch_size, perm.size, batch_size))
    return [Batch(dataset.inputs[idx], dataset.labels[idx]) for idx in chunks]
