import gzip
import struct
import threading

import numpy as np
import pytest

import fedsim.data as data
from fedsim.config import FieldError
from fedsim.data import (
    IID,
    SINGLE_LABEL,
    SINGLE_SAMPLE,
    ClassPoolExhaustedError,
    Dataset,
    IdxCountMismatchError,
    IdxMagicError,
    IdxTruncatedError,
    SYNTH_NOISE_SIGMA,
    PartitionError,
    PartitionPlan,
    load_idx,
    partition,
    shard_batch_indices,
    shard_batches,
    synth_dataset,
)
from fedsim.federation import train_centralized
from fedsim.nn import MlpSpec

# Hand-built 2-image, 2x3-pixel IDX fixture with known byte values.
FIXTURE_PIXELS = [[0, 51, 102, 153, 204, 255], [10, 20, 30, 40, 50, 60]]
FIXTURE_LABELS = [7, 2]


def idx_image_bytes(count=2, rows=2, cols=3, pixels=FIXTURE_PIXELS, magic=0x00000803):
    body = b"".join(bytes(p) for p in pixels)
    return struct.pack(">IIII", magic, count, rows, cols) + body


def idx_label_bytes(labels=FIXTURE_LABELS, magic=0x00000801, count=None):
    return struct.pack(">II", magic, count if count is not None else len(labels)) + bytes(labels)


@pytest.fixture
def idx_pair(tmp_path):
    images = tmp_path / "images-idx3-ubyte"
    labels = tmp_path / "labels-idx1-ubyte"
    images.write_bytes(idx_image_bytes())
    labels.write_bytes(idx_label_bytes())
    return images, labels


class TestLoadIdx:
    def test_exact_fixture_values(self, idx_pair):
        ds = load_idx(*idx_pair)
        assert ds.inputs.shape == (2, 6)
        assert np.allclose(ds.inputs, np.array(FIXTURE_PIXELS) / 255.0)
        assert ds.labels.tolist() == FIXTURE_LABELS
        assert ds.num_classes == 8  # inferred as max label + 1

    def test_gzip_inputs_accepted(self, tmp_path):
        images = tmp_path / "images-idx3-ubyte.gz"
        labels = tmp_path / "labels-idx1-ubyte.gz"
        with gzip.open(images, "wb") as f:
            f.write(idx_image_bytes())
        with gzip.open(labels, "wb") as f:
            f.write(idx_label_bytes())
        ds = load_idx(images, labels)
        assert np.allclose(ds.inputs, np.array(FIXTURE_PIXELS) / 255.0)

    def test_bad_magic(self, tmp_path):
        images = tmp_path / "img"
        labels = tmp_path / "lab"
        images.write_bytes(idx_image_bytes(magic=0x00000802))
        labels.write_bytes(idx_label_bytes())
        with pytest.raises(IdxMagicError):
            load_idx(images, labels)
        images.write_bytes(idx_image_bytes())
        labels.write_bytes(idx_label_bytes(magic=0x00000803))
        with pytest.raises(IdxMagicError):
            load_idx(images, labels)

    def test_truncated_file(self, tmp_path):
        images = tmp_path / "img"
        labels = tmp_path / "lab"
        images.write_bytes(idx_image_bytes()[:-3])
        labels.write_bytes(idx_label_bytes())
        with pytest.raises(IdxTruncatedError):
            load_idx(images, labels)

    def test_count_mismatch(self, tmp_path):
        images = tmp_path / "img"
        labels = tmp_path / "lab"
        images.write_bytes(idx_image_bytes())
        labels.write_bytes(idx_label_bytes(labels=[7, 2, 1], count=3))
        with pytest.raises(IdxCountMismatchError):
            load_idx(images, labels)


class TestSynthDataset:
    def test_balanced_labels(self):
        ds = synth_dataset(3, 10, 300, seed=1)
        assert len(ds) == 300
        assert np.bincount(ds.labels).tolist() == [100, 100, 100]

    def test_deterministic_per_seed(self):
        a = synth_dataset(4, 6, 120, seed=9)
        b = synth_dataset(4, 6, 120, seed=9)
        assert np.array_equal(a.inputs, b.inputs)
        assert not np.array_equal(a.inputs, synth_dataset(4, 6, 120, seed=10).inputs)

    def test_values_in_unit_box(self):
        ds = synth_dataset(5, 8, 500, seed=2)
        assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0

    # 7 classes on 4 features: classes 4-6 wrap onto features 0-2 at half height
    @pytest.mark.parametrize("classes, features, samples", [(3, 10, 300), (7, 4, 250), (8, 4, 33), (1, 1, 5)])
    def test_matches_allocating_reference_bitwise(self, classes, features, samples):
        rng = np.random.default_rng(11)
        labels = np.arange(samples) % classes
        means = np.zeros((classes, features))
        for c in range(classes):
            means[c, c % features] = 1.0 if c < features else 0.5
        inputs = np.clip(means[labels] + rng.normal(0.0, SYNTH_NOISE_SIGMA, size=(samples, features)), 0.0, 1.0)
        ds = synth_dataset(classes, features, samples, seed=11)
        assert np.array_equal(ds.inputs.view(np.int64), inputs.view(np.int64))
        assert np.array_equal(ds.labels, labels)

    def test_linearly_separable_enough(self):
        # a one-layer net on 200 full-batch steps clears 90% train accuracy
        ds = synth_dataset(3, 10, 300, seed=1)
        history, _ = train_centralized(
            MlpSpec((10, 3)), ds, None, lr=0.5, batch_size=None, epochs=200, seed=0
        )
        assert history[-1].train_accuracy >= 0.90

    @pytest.mark.parametrize(
        "args, field",
        [((0, 4, 10), "num_classes"), ((3, 0, 10), "num_features"), ((3, 4, 0), "num_samples"), ((3, 4, -1), "num_samples"),
         ((9, 4, 10), "num_classes")],
    )
    def test_bad_dimensions_raise_field_errors(self, args, field):
        with pytest.raises(FieldError) as err:
            synth_dataset(*args, seed=0)
        assert err.value.field == field


SPLIT = data._SPLIT_MIN


@pytest.fixture
def two_cpus(monkeypatch):
    """Take the two-thread path wherever its size is met, on any machine."""
    monkeypatch.setattr(data, "usable_cpus", lambda: 2)


@pytest.fixture
def fills(monkeypatch):
    """The generators data._fill is called with; the two halves' calls come in either order."""
    calls, fill = [], data._fill

    def recording(gen, out, scale, starts=None):
        calls.append(gen)
        fill(gen, out, scale, starts)

    monkeypatch.setattr(data, "_fill", recording)
    return calls


def assert_normal_bits(seed, shape):
    """data._normal gives rng.normal(0.0, sigma, shape)'s values as int64 and leaves rng in the same state; returns rng."""
    expected_rng, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    expected = expected_rng.normal(0.0, SYNTH_NOISE_SIGMA, shape)
    got = data._normal(rng, SYNTH_NOISE_SIGMA, shape)
    assert got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))
    assert rng.bit_generator.state == expected_rng.bit_generator.state
    return rng


class TestTwoThreadNormal:
    @pytest.mark.parametrize("shape", [(SPLIT - 1,), (SPLIT,), (3, SPLIT // 2 + 7)], ids=["below", "at", "above"])
    @pytest.mark.parametrize("seed", [0, 20261019, 2**63 + 5])
    def test_equals_normal(self, two_cpus, fills, seed, shape):
        rng = assert_normal_bits(seed, shape)
        if np.prod(shape) < SPLIT:
            assert fills == []
        else:  # the two halves at once, then the tail from the helper's state
            assert len(fills) == 3 and fills.count(rng) == 1 and fills[-1] is not rng

    @pytest.mark.parametrize(
        "attr, value",
        [("_LEAD", -1000), ("_LEAD", -(1 << 16)), ("_JOIN_STEPS", 0)],
        ids=["helper-past-the-split", "helper-past-the-join", "no-state-match"],
    )
    def test_the_fallback_draws_the_rest_itself(self, two_cpus, fills, monkeypatch, attr, value):
        monkeypatch.setattr(data, attr, value)
        rng = assert_normal_bits(7, (SPLIT + 3,))
        assert len(fills) == 3 and fills.count(rng) == 2 and fills[-1] is rng

    def test_a_chunk_is_scaled_as_normal_scales_it(self):
        class Stream:  # the ziggurat's rare exact -0.0, and values that scaling rounds
            def standard_normal(self, out):
                out[:] = np.resize([-0.0, 0.1, -3.7, 1e-320], out.size)

        out = np.empty(6)
        data._fill(Stream(), out, SYNTH_NOISE_SIGMA)
        expected = 0.0 + SYNTH_NOISE_SIGMA * np.resize([-0.0, 0.1, -3.7, 1e-320], 6)
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))

    def test_one_usable_cpu_calls_normal(self, fills, monkeypatch):
        monkeypatch.setattr(data, "usable_cpus", lambda: 1)
        assert_normal_bits(7, (SPLIT + 3,))
        assert fills == []

    def test_mnist_scale_equals_the_serial_formula(self, two_cpus):
        n, d, classes, block = 60000, 784, 10, 5000
        ds = synth_dataset(classes, d, n, seed=3)
        rng = np.random.default_rng(3)
        means = np.zeros((classes, d))
        means[np.arange(classes), np.arange(classes)] = 1.0
        for start in range(0, n, block):  # the stream drawn block by block is the stream drawn at once
            labels = np.arange(start, start + block) % classes
            expected = np.clip(means[labels] + rng.normal(0.0, SYNTH_NOISE_SIGMA, (block, d)), 0.0, 1.0)
            assert np.array_equal(ds.inputs[start : start + block].view(np.int64), expected.view(np.int64))


class TestHelperThread:
    def test_no_thread_outlives_synth_dataset(self, two_cpus, fills):
        before = threading.active_count()
        synth_dataset(2, 64, SPLIT // 64 + 1, seed=1)
        assert len(fills) == 3 and threading.active_count() == before

    @pytest.mark.parametrize(
        "helper, error", [(True, RuntimeError), (False, RuntimeError), (False, KeyboardInterrupt)],
        ids=["helper-raises", "caller-raises", "caller-interrupted"],
    )
    def test_the_helper_is_joined_before_an_error_propagates(self, two_cpus, monkeypatch, helper, error):
        fill, finished = data._fill, []

        def failing(gen, out, scale, starts=None):
            if (starts is not None) == helper:
                raise error("draw failed")
            fill(gen, out, scale, starts)
            finished.append(starts is not None)

        monkeypatch.setattr(data, "_fill", failing)
        before = threading.active_count()
        with pytest.raises(error, match="draw failed"):
            synth_dataset(2, 64, SPLIT // 64 + 1, seed=1)
        assert threading.active_count() == before
        assert finished == [not helper]  # the half that did not fail was drawn to its end


class TestPartition:
    def test_iid_disjoint_cover(self):
        ds = synth_dataset(5, 6, 100, seed=3)
        shards = partition(ds, PartitionPlan(IID, num_clients=10, samples_per_client=10, seed=0))
        assert len(shards) == 10
        all_indices = np.concatenate([s.indices for s in shards])
        assert len(all_indices) == 100
        assert len(set(all_indices.tolist())) == 100

    def test_iid_capacity_error(self):
        ds = synth_dataset(2, 4, 50, seed=4)
        with pytest.raises(PartitionError):
            partition(ds, PartitionPlan(IID, num_clients=10, samples_per_client=10, seed=0))

    def test_single_label_homogeneous_and_covering(self):
        ds = synth_dataset(10, 12, 4000, seed=5)
        shards = partition(ds, PartitionPlan(SINGLE_LABEL, num_clients=20, samples_per_client=30, seed=1))
        dominant = set()
        for shard in shards:
            assert (shard.label_census > 0).sum() == 1
            label = int(shard.label_census.argmax())
            assert np.all(ds.labels[shard.indices] == label)
            assert label == shard.client_id % 10
            dominant.add(label)
        assert dominant == set(range(10))

    def test_single_label_pool_exhausted_names_class(self):
        ds = synth_dataset(2, 4, 100, seed=6)  # 50 samples per class
        with pytest.raises(ClassPoolExhaustedError, match="class 0"):
            partition(ds, PartitionPlan(SINGLE_LABEL, num_clients=2, samples_per_client=60, seed=0))

    def test_single_sample_forces_size_one(self):
        ds = synth_dataset(10, 12, 600, seed=7)
        plan = PartitionPlan(SINGLE_SAMPLE, num_clients=500, samples_per_client=99, seed=2)
        assert plan.samples_per_client == 1
        shards = partition(ds, plan)
        assert len(shards) == 500
        assert all(s.num_samples == 1 for s in shards)

    def test_disjoint_for_every_kind(self):
        ds = synth_dataset(4, 8, 400, seed=8)
        for kind, k, spc in ((IID, 20, 10), (SINGLE_LABEL, 8, 25), (SINGLE_SAMPLE, 40, 1)):
            shards = partition(ds, PartitionPlan(kind, num_clients=k, samples_per_client=spc, seed=3))
            flat = np.concatenate([s.indices for s in shards])
            assert len(flat) == len(set(flat.tolist()))
            assert len(flat) == k * (1 if kind == SINGLE_SAMPLE else spc)

    def test_census_matches_indices(self):
        ds = synth_dataset(6, 6, 600, seed=9)
        for kind in (IID, SINGLE_LABEL):
            shards = partition(ds, PartitionPlan(kind, num_clients=12, samples_per_client=15, seed=4))
            for shard in shards:
                recomputed = np.bincount(ds.labels[shard.indices], minlength=ds.num_classes)
                assert np.array_equal(recomputed, shard.label_census)

    def test_seed_stability(self):
        ds = synth_dataset(5, 6, 500, seed=10)
        plan = PartitionPlan(IID, num_clients=10, samples_per_client=20, seed=5)
        first = partition(ds, plan)
        second = partition(ds, plan)
        for a, b in zip(first, second):
            assert np.array_equal(a.indices, b.indices)


class TestShardBatches:
    def _shard(self, n=10):
        ds = synth_dataset(2, 4, 50, seed=11)
        return ds, partition(ds, PartitionPlan(IID, num_clients=1, samples_per_client=n, seed=6))[0]

    def test_chunking_law(self):
        _, shard = self._shard(10)
        sizes = [len(b) for b in shard_batch_indices(shard, 3, epoch_seed=0)]
        assert sizes == [3, 3, 3, 1]

    def test_full_batch_case(self):
        ds, shard = self._shard(10)
        batches = shard_batches(ds, shard, 10, epoch_seed=0)
        assert len(batches) == 1 and batches[0].size == 10
        assert len(shard_batches(ds, shard, 99, epoch_seed=0)) == 1

    def test_batches_are_a_permutation_of_the_shard(self):
        _, shard = self._shard(10)
        emitted = np.concatenate(shard_batch_indices(shard, 4, epoch_seed=1))
        assert sorted(emitted.tolist()) == sorted(shard.indices.tolist())


class TestDatasetValidation:
    def test_rejects_out_of_range_inputs(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5, 1.5]]), np.array([0]), num_classes=2)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Dataset(np.array([[0.5, 0.5]]), np.array([2]), num_classes=2)
