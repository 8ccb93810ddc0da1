"""Lockstep groups: each process trains its equal-size clients together, one stacked step per group.

A group's stacked kernel runs each client's slice with the same BLAS call and
shape as that client alone, so every test here compares with np.array_equal
(or as int64, to tell -0.0 from +0.0) against one client at a time: a (P,)
vector through the allocating loop (conftest.reference_client_update), or
whole runs at K = 1, where every group is a stack of one.
"""

import csv
import multiprocessing
import weakref
from pathlib import Path

import numpy as np
import pytest
from conftest import reference_client_update
from test_cohort_pool import layout_of, pin_workers

from fedsim import federation, pool
from fedsim.cli import main
from fedsim.config import load_config
from fedsim.data import IID, ClientShard, Dataset, PartitionPlan, partition, synth_dataset
from fedsim.federation import (
    ClientDivergedError,
    FedConfig,
    Layout,
    group_update,
    select_clients,
    train_federated,
)
from fedsim.nn import Batch, MlpSpec, ParamVector, Workspace, init_params, loss, loss_raw
from fedsim.rng import derive_seed

WORKLOADS = Path(__file__).resolve().parent.parent / "bench" / "workloads"
BUDGETS = {name: getattr(federation, name) for name in ("_LOCKSTEP_BYTES", "_ONE_ROW_LOCKSTEP_BYTES")}


def workload_layers(name):
    return tuple(load_config(WORKLOADS / f"{name}.cfg")["model.layers"])


def pin(monkeypatch, workers, group=None):
    """Pin the pool size, and with group=1 the lockstep group size to one client, or else to the rule's."""
    pin_workers(monkeypatch, workers)
    for name, budget in BUDGETS.items():  # with no stack fitting either budget, K = 1
        monkeypatch.setattr(federation, name, 0 if group == 1 else budget)


def shards_of_sizes(ds, sizes):
    """Hand-built shards holding consecutive dataset rows, client i holding sizes[i] of them."""
    shards, start = [], 0
    for client_id, size in enumerate(sizes):
        indices = np.arange(start, start + size)
        census = np.bincount(ds.labels[indices], minlength=ds.num_classes)
        shards.append(ClientShard(client_id, indices, census))
        start += size
    return shards


def data_columns(history):
    return [(m.round_index, m.train_accuracy, m.test_accuracy, m.mean_client_loss) for m in history]


class TestGroupSize:
    def test_the_rule_groups_the_standin_and_leaves_the_large_workloads_one_client_at_a_time(self, monkeypatch):
        standin = workload_layers("fed_standin")  # P = 14,218
        assert MlpSpec(standin).parameter_count() == 14_218
        assert layout_of(monkeypatch, standin, 2, 10, 10).group == 5  # each of 2 processes' share of 10
        assert layout_of(monkeypatch, standin, 1, 10, 10).group == 6  # the 1.5 MiB budget: 6 * 2 * 8 * 14,218 bytes
        for name, params in (("fed_mnist_shaped", 494_710), ("central_mnist_shaped", 494_710)):
            layers = workload_layers(name)
            assert MlpSpec(layers).parameter_count() == params
            assert layout_of(monkeypatch, layers, 1, 1, 500).group == 1  # a share of 500
        one_sample = workload_layers("fed_single_sample_delta")
        assert MlpSpec(one_sample).parameter_count() == 50_890
        assert layout_of(monkeypatch, one_sample, 1, 1, 500).group == 4  # the 3.25 MiB one-row budget
        assert layout_of(monkeypatch, one_sample, 1, 2, 500).group == 1  # the 1.5 MiB budget

    @pytest.mark.parametrize("layers", [(8, 6, 3), (100, 128, 10), (784, 64, 10), (784, 200, 10), (784, 500, 200, 10)])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_a_one_row_group_is_the_largest_that_fits_its_budget(self, layers, cpus, monkeypatch):
        stack_bytes = 2 * 8 * MlpSpec(layers).parameter_count()  # one client's weight and gradient rows
        run = layout_of(monkeypatch, layers, cpus, 1, 500)
        share = -(-500 // run.workers)
        assert 1 <= run.group <= share
        assert run.group == 1 or run.group * stack_bytes <= federation._ONE_ROW_LOCKSTEP_BYTES
        assert run.group == share or (run.group + 1) * stack_bytes > federation._ONE_ROW_LOCKSTEP_BYTES

    @pytest.mark.parametrize("name, rows, cohort, expected", [
        ("fed_standin", 10, 10, Layout(2, 5, True)),  # the workload's own batches
        ("fed_mnist_shaped", 10, 10, Layout(1, 1, False)),
        ("central_mnist_shaped", 32, 10, Layout(1, 1, False)),
        ("fed_standin", 2, 10, Layout(2, 5, True)),
        ("fed_single_sample_delta", 2, 500, Layout(2, 1, True)),  # 1.5 MiB // (16 * 50,890) = 1
        ("fed_single_sample_delta", 10, 500, Layout(1, 1, False)),
        ("fed_mnist_shaped", 2, 10, Layout(1, 1, False)),
    ])
    def test_batches_of_two_rows_or_more_keep_the_cache_budget(self, name, rows, cohort, expected, monkeypatch):
        assert layout_of(monkeypatch, workload_layers(name), 2, rows, cohort) == expected

    @pytest.mark.parametrize("layers, share, group", [
        ((2, 2), 3, 3),
        ((2, 2), 1, 1),
        ((4096, 4096), 50, 1),  # no stack fits: one client at a time
    ])
    def test_a_group_is_never_larger_than_the_share_nor_empty(self, layers, share, group, monkeypatch):
        assert layout_of(monkeypatch, layers, 1, 1, share).group == group

    @pytest.mark.parametrize("workers, group", [(1, 4), (2, 2), (3, 2), (4, 1)])
    def test_the_group_is_the_parents_share_at_most(self, workers, group, monkeypatch):
        # cohorts of 4 of 8 clients, each step of 5 * 6 * 5 fits one BLAS thread
        assert layout_of(monkeypatch, (6, 5, 3), workers, 5, 4, fraction=0.5) == Layout(workers, group, True)

    def test_groups_are_runs_of_equal_size_cut_at_the_cap(self):
        ds = synth_dataset(3, 6, 200, seed=2)
        shards = shards_of_sizes(ds, [7, 10, 10, 13, 13, 10, 7, 10])
        assert federation._groups(shards, range(8), 8) == [[0], [1, 2], [3, 4], [5], [6], [7]]
        assert federation._groups(shards, [1, 2, 5, 7], 8) == [[1, 2, 5, 7]]  # consecutive in the share
        assert federation._groups(shards, [1, 2, 5, 7], 3) == [[1, 2, 5], [7]]
        assert federation._groups(shards, [1, 2, 5, 7], 1) == [[1], [2], [5], [7]]


class TestGroupUpdate:
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("batch_size", [4, 3, 1, None])  # 3 leaves a short last batch of 10 rows; 1 is einsum's
    def test_every_row_is_its_client_alone_bit_for_bit(self, activation, batch_size):
        ds = synth_dataset(3, 8, 120, seed=3)
        shards = partition(ds, PartitionPlan(IID, 6, 10, seed=3))[1:5]
        spec = MlpSpec((8, 6, 5, 3), activation)
        w = init_params(spec, 3)
        seeds = [31, 32, 33, 34]
        rows = min(10, batch_size or 10)
        out = np.empty((4, spec.parameter_count()))
        failed = group_update(shards, ds, w, 3, batch_size, 0.3, seeds, Workspace(spec, rows, 4), out)
        assert not failed.any()
        for row, shard, seed in zip(out, shards, seeds):
            alone = reference_client_update(shard, ds, w, 3, batch_size, 0.3, seed)
            assert np.array_equal(row.view(np.int64), alone.view(np.int64))

    def test_one_sample_clients(self):
        ds = synth_dataset(3, 8, 60, seed=4)
        shards = shards_of_sizes(ds, [1] * 5)
        spec = MlpSpec((8, 6, 3))
        w = init_params(spec, 4)
        out = np.empty((5, spec.parameter_count()))
        group_update(shards, ds, w, 2, 1, 0.3, range(40, 45), Workspace(spec, 1, 5), out)
        for row, shard, seed in zip(out, shards, range(40, 45)):
            alone = reference_client_update(shard, ds, w, 2, 1, 0.3, seed)
            assert np.array_equal(row.view(np.int64), alone.view(np.int64))

    def test_a_diverged_client_is_flagged_and_leaves_the_others_alone(self):
        ds = synth_dataset(3, 8, 120, seed=5)
        shards = partition(ds, PartitionPlan(IID, 4, 10, seed=5))
        spec = MlpSpec((9, 6, 3))
        w = init_params(spec, 5)
        marked = marked_dataset(ds, [shards[2]])  # the poisoned kernel sends client 2's weights to -inf
        out = np.empty((4, spec.parameter_count()))
        with poisoned_kernel(), np.errstate(all="ignore"):  # as train_federated runs it
            failed = group_update(shards, marked, w, 2, 5, 0.3, [1, 2, 3, 4], Workspace(spec, 5, 4), out)
        assert failed.tolist() == [False, False, True, False]
        for row, shard, seed in zip(out[[0, 1, 3]], [shards[0], shards[1], shards[3]], [1, 2, 4]):
            assert np.array_equal(row, reference_client_update(shard, marked, w, 2, 5, 0.3, seed))

    def test_the_weight_check_flags_each_kind_of_non_finite_row_and_no_finite_one(self, monkeypatch):
        ds = synth_dataset(3, 8, 60, seed=14)
        shards = shards_of_sizes(ds, [1] * 4)
        spec = MlpSpec((8, 6, 3))
        w = init_params(spec, 14)
        hidden_bias = 8 * 6  # the first hidden unit's bias follows the 8 x 6 weights
        huge = np.where(np.arange(spec.parameter_count()) % 2 == 0, 1e308, -1e308)
        original = federation.loss_and_grad_raw

        def steered(values, spec, inputs, labels, *rest):
            # at client_lr = 1 a row's new weights are w - grad: row 0 gets a nan, row 1 a +inf, row 2 a -inf
            # bias that ReLU switches off, and row 3 entries of about +-1e308, all finite
            loss, grad = original(values, spec, inputs, labels, *rest)
            grad[0, 3], grad[1, 3], grad[2, hidden_bias] = np.nan, -np.inf, np.inf
            grad[3] = -huge
            return loss, grad

        monkeypatch.setattr(federation, "loss_and_grad_raw", steered)
        out = np.empty((4, spec.parameter_count()))
        with np.errstate(all="ignore"):
            failed = group_update(shards, ds, w, 1, 1, 1.0, [61, 62, 63, 64], Workspace(spec, 1, 4), out)
        assert np.isnan(out[0, 3]) and out[1, 3] == np.inf and out[2, hidden_bias] == -np.inf
        assert np.isfinite(out[3]).all() and np.abs(out[3]).min() > 1e307
        x = ds.inputs[shards[2].indices][None]
        assert np.isfinite(loss_raw(out[2:3], spec, x, ds.labels[shards[2].indices][None])).all()  # only the weights tell
        assert failed.tolist() == [True, True, True, False]

    @pytest.mark.parametrize("local_epochs", [1, 2])
    @pytest.mark.parametrize("rows", [1, 10])
    def test_the_global_weights_are_only_read(self, local_epochs, rows):
        ds = synth_dataset(3, 8, 60, seed=15)
        shards = shards_of_sizes(ds, [rows] * 3)
        spec = MlpSpec((8, 6, 3))
        values = init_params(spec, 15).values
        values.flags.writeable = False  # a write raises
        w = ParamVector(values, spec)
        seeds = [51, 52, 53]
        out = np.empty((3, spec.parameter_count()))
        failed = group_update(shards, ds, w, local_epochs, 4, 0.3, seeds, Workspace(spec, min(rows, 4), 3), out)
        assert not failed.any()
        for row, shard, seed in zip(out, shards, seeds):
            alone = reference_client_update(shard, ds, w, local_epochs, 4, 0.3, seed)
            assert np.array_equal(row.view(np.int64), alone.view(np.int64))

    def test_a_group_needs_clients_of_equal_size(self):
        ds = synth_dataset(3, 8, 60, seed=6)
        shards = shards_of_sizes(ds, [5, 6])
        spec = MlpSpec((8, 3))
        with pytest.raises(ValueError, match="equally many samples"):
            group_update(shards, ds, init_params(spec, 6), 1, 5, 0.1, [1, 2], Workspace(spec, 6, 2), np.empty((2, 27)))

    def test_kept_views_follow_their_buffers(self):
        # One workspace trains group after group, alternating two global weight vectors and three buffers: two
        # rows of one array (the same .base) and a view that, each time it is let go of, is replaced by a view
        # of other memory under the same id. Views kept under any key but the array itself,
        # or kept past its life, send some client's steps into another buffer: every row of every buffer must
        # hold the bits of the client last trained there, and each loss that client's.
        ds = synth_dataset(3, 8, 60, seed=17)
        spec = MlpSpec((8, 6, 3))
        size = spec.parameter_count()
        shards = shards_of_sizes(ds, [1] * 12 + [4] * 6)
        weights = [init_params(spec, 17), init_params(spec, 18)]
        config = FedConfig(
            num_clients=18, client_fraction=1.0, local_epochs=2, batch_size=2, client_lr=0.3, rounds=1, seed=17
        )
        workspace = federation._round_workspace(spec, shards, 3)
        ring, spares = np.empty((2, 3, size)), iter(np.empty((32, 3, size)))
        buffers, held = [ring[0], ring[1], next(spares)], [{}, {}, {}]  # held[b][row]: the bits row must hold
        # call c trains into buffer c % 3, even calls through group_update; the third buffer's are full one-row
        # groups, so that a view that takes a dropped one's id is trained on the views of the same shape
        groups = [[0, 1, 2], [12, 13, 14], [3, 4, 5], [15, 16], [6, 7], [0, 1, 2], [8, 9, 10], [12, 13, 14],
                  [6, 7, 8], [11], [17], [9, 10, 11], [12, 13, 14], [6, 7, 8], [3, 4, 5], [9, 10], [15, 16, 17], [0, 1, 2]]
        for call, clients in enumerate(groups):
            w, b = weights[call % 2], call % 3
            out, k = buffers[b], len(clients)
            members = [shards[c] for c in clients]
            n = members[0].num_samples
            if call % 2:
                seeds = [federation._client_seed(config.seed, call, c) for c in clients]
                losses = federation._train_group(out, clients, call, shards, ds, w, config, 40.0, workspace)
            else:
                seeds = range(call, call + k)
                assert not group_update(members, ds, w, 2, 2, 0.3, seeds, workspace, out if k == 3 else out[:k]).any()
            for row, (shard, seed) in enumerate(zip(members, seeds)):
                alone = reference_client_update(shard, ds, w, 2, 2, 0.3, seed)
                if call % 2:
                    batch = Batch(ds.inputs[shard.indices], ds.labels[shard.indices])
                    assert losses[row] == loss(ParamVector(alone, spec), batch), (call, clients)
                    alone *= n / 40.0
                held[b][row] = alone
            for j, rows in enumerate(held):
                for row, bits in rows.items():
                    assert np.array_equal(buffers[j][row].view(np.int64), bits.view(np.int64)), (call, clients)
            if b == 2:  # let the view go: a view of other memory takes its id, unless something still holds it
                gone = id(buffers.pop())
                del out
                views = [next(spares) for _ in range(4)]
                buffers.append(next((view for view in views if id(view) == gone), views[0]))
                held[2] = {}

    @pytest.mark.parametrize("rows", [1, 4])
    def test_a_round_lets_go_of_the_arrays_it_kept_views_of(self, rows):
        # the workspace keeps views of the round's global weights (their stride-0 stack and its layers) and of
        # the round buffer's rows; once the round ends, the old weights go with the state that held them
        ds = synth_dataset(3, 8, 60, seed=19)
        spec = MlpSpec((8, 6, 3))
        shards = shards_of_sizes(ds, [rows] * 10)
        config = FedConfig(
            num_clients=10, client_fraction=0.5, local_epochs=2, batch_size=2, client_lr=0.3, rounds=2, seed=19
        )
        workspace = federation._round_workspace(spec, shards, 2)  # a cohort of 5: groups of 2, 2 and 1
        state = federation.GlobalState(init_params(spec, 19), 0, config.server_opt)
        for _ in range(config.rounds):
            gone = weakref.ref(state.weights.values)
            state, _ = federation.run_round(state, config, shards, ds, workspace)
            assert gone() is None


def marked_dataset(ds, marked_shards):
    """ds with one more feature, 1.0 on the rows of marked_shards and 0.0 elsewhere."""
    marker = np.zeros((len(ds), 1))
    for shard in marked_shards:
        marker[shard.indices] = 1.0
    return Dataset(np.hstack([ds.inputs, marker]), ds.labels, ds.num_classes)


class poisoned_kernel:
    """Within it, every step of a model whose batch is marked (marked_dataset) sends its weights to -inf.

    The kernel is patched at the name federation's SGD loop calls, so a
    marked client diverges on its own, whether it trains alone or in a
    group, in this process or a forked worker.
    """

    def __enter__(self):
        self.original = original = federation.loss_and_grad_raw

        def poisoned(values, spec, inputs, labels, *rest):
            loss, grad = original(values, spec, inputs, labels, *rest)
            grad[inputs[:, 0, -1] == 1.0] = np.inf  # one flag a model of the stack
            return loss, grad

        federation.loss_and_grad_raw = poisoned

    def __exit__(self, *exc):
        federation.loss_and_grad_raw = self.original


class TestLockstepRuns:
    @pytest.mark.parametrize("fraction", [1.0, 0.5])
    def test_unequal_sizes_split_into_groups_and_keep_the_bits(self, fraction, monkeypatch):
        ds = synth_dataset(3, 8, 200, seed=8)
        test = synth_dataset(3, 8, 60, seed=9)
        shards = shards_of_sizes(ds, [7, 10, 10, 13, 13, 10, 7, 10])
        config = FedConfig(
            num_clients=8, client_fraction=fraction, local_epochs=2, batch_size=4, client_lr=0.3, rounds=3, seed=8,
            eval_every=1,
        )
        runs = {}
        for workers in (1, 2, 3):  # at 3, the two workers train groups of different sizes
            for group in (None, 1):
                pin(monkeypatch, workers, group)
                history, state = train_federated(MlpSpec((8, 6, 3)), config, shards, ds, test)
                runs[workers, group] = data_columns(history), state.weights.values
                assert multiprocessing.active_children() == []
        (columns, weights) = runs[1, 1]
        for other_columns, other_weights in runs.values():
            assert other_columns == columns
            assert np.array_equal(other_weights, weights)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_one_row_steps_keep_the_bits_at_the_one_row_group(self, workers, monkeypatch):
        # B = 1 on 10-sample shards: 20 one-row steps a client; P = 50,890 fits the cache budget once,
        # the one-row budget 4 times, and each process's share of the cohort of 8 holds 4 or more
        ds = synth_dataset(3, 784, 200, seed=10)
        test = synth_dataset(3, 784, 60, seed=11)
        shards = partition(ds, PartitionPlan(IID, 16, 10, seed=10))
        config = FedConfig(
            num_clients=16, client_fraction=0.5, local_epochs=2, batch_size=1, client_lr=0.05, rounds=2, seed=10,
            eval_every=1,
        )
        spec = MlpSpec((784, 64, 10))
        runs = []
        for group in (None, 1):
            pin(monkeypatch, workers, group)
            assert federation.layout(spec, config, shards) == Layout(workers, group or 4, True)
            history, state = train_federated(spec, config, shards, ds, test)
            runs.append((data_columns(history), state.weights.values))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1].view(np.int64), runs[1][1].view(np.int64))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_group_of_one_is_a_stack_and_never_calls_client_update(self, workers, monkeypatch):
        ds = synth_dataset(3, 8, 200, seed=12)
        test = synth_dataset(3, 8, 60, seed=13)
        shards = partition(ds, PartitionPlan(IID, 8, 10, seed=12))
        config = FedConfig(
            num_clients=8, client_fraction=0.5, local_epochs=2, batch_size=4, client_lr=0.3, rounds=3, seed=12,
            eval_every=1,
        )
        spec = MlpSpec((8, 6, 3))
        pin(monkeypatch, workers)
        assert federation.layout(spec, config, shards).group > 1
        derived_history, derived_state = train_federated(spec, config, shards, ds, test)

        def no_vector_path(*args, **kwargs):
            raise AssertionError("a federated run called client_update")

        pin(monkeypatch, workers, group=1)
        monkeypatch.setattr(federation, "client_update", no_vector_path)  # before the pool forks its workers
        assert federation.layout(spec, config, shards).group == 1
        history, state = train_federated(spec, config, shards, ds, test)
        assert data_columns(history) == data_columns(derived_history)
        assert np.array_equal(state.weights.values.view(np.int64), derived_state.weights.values.view(np.int64))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("group", [None, 1])
    def test_divergence_inside_a_group_names_the_first_failed_client(self, workers, group, monkeypatch):
        ds = synth_dataset(3, 8, 240, seed=7)
        shards = partition(ds, PartitionPlan(IID, 12, 10, seed=7))
        config = FedConfig(
            num_clients=12, client_fraction=0.5, local_epochs=2, batch_size=4, client_lr=0.3, rounds=3, seed=7
        )
        cohorts = [select_clients(12, 0.5, derive_seed(7, "round", t, "select")).tolist() for t in range(2)]
        # clients 2 and 4 first train in round 1, at positions 1 (a worker's, at 2 workers) and 2 (the parent's)
        assert 2 not in cohorts[0] and 4 not in cohorts[0]
        assert cohorts[1].index(2) == 1 and cohorts[1].index(4) == 2
        marked = marked_dataset(ds, [shards[2], shards[4]])
        pin(monkeypatch, workers, group)
        kept = []
        with poisoned_kernel(), pytest.raises(ClientDivergedError) as err:
            train_federated(MlpSpec((9, 6, 3)), config, shards, marked, on_round=kept.append)
        assert (err.value.client_id, err.value.round_index) == (2, 1)
        assert [m.round_index for m in kept] == [0]

    def test_the_manifest_records_the_group_beside_the_workers(self, tmp_path, monkeypatch):
        pin(monkeypatch, 2)
        args = [
            "train-fed", "--out", str(tmp_path), "--set", "seed=3", "--set", "data.source=synth", "--set", "data.num_classes=3",
            "--set", "data.features=6", "--set", "data.train_samples=160", "--set", "data.test_samples=60",
            "--set", "model.layers=6,5,3", "--set", "partition.samples_per_client=10", "--set", "fed.num_clients=8",
            "--set", "fed.client_fraction=0.5", "--set", "fed.batch_size=5", "--set", "fed.client_lr=0.2",
            "--set", "fed.rounds=2",
        ]
        assert main(args) == 0
        lines = (tmp_path / "manifest.txt").read_text().splitlines()
        assert "run.workers = 2" in lines
        assert "run.client_group = 2" in lines  # cohorts of 4 on 2 processes
        with open(tmp_path / "rounds.csv", newline="") as f:
            assert len(list(csv.reader(f))) == 1 + 2

    def test_the_manifest_records_the_workers_each_run_forked_and_the_group_it_trained(self, tmp_path, monkeypatch):
        # cohorts of 6 on 2 CPUs; every full-shard step fits one BLAS thread but the 10 rows of the
        # 400-120-3 net (10 * 400 * 120 = 480,000), and its (K, P) stacks fit 1.5 MiB up to K = 2
        pin_workers(monkeypatch, 2)
        used = []  # per run: [processes, K of the parent's workspace, K of the pool or None]
        make_workspace, start_pool = federation.Workspace, pool.CohortPool.__init__

        def workspace(spec, rows, clients=1):
            used.append([1, clients, None])  # train_federated makes one a run, before its pool
            return make_workspace(spec, rows, clients)

        def init(self, workers, spec, config, shards, dataset, group):
            used[-1][0::2] = workers, group
            start_pool(self, workers, spec, config, shards, dataset, group)

        monkeypatch.setattr(federation, "Workspace", workspace)
        monkeypatch.setattr(pool.CohortPool, "__init__", init)
        args = [
            "train-fed", "--out", str(tmp_path), "--set", "experiment=samples_sweep", "--set", "seed=4",
            "--set", "data.source=synth", "--set", "data.num_classes=3", "--set", "data.features=400",
            "--set", "data.train_samples=200", "--set", "data.test_samples=30", "--set", "preset.arch.0=400,3",
            "--set", "preset.arch.1=400,120,3", "--set", "preset.arch.2=400,6,3", "--set", "preset.samples_per_client=5,10",
            "--set", "fed.num_clients=12", "--set", "fed.client_fraction=0.5", "--set", "fed.batch_size=full",
            "--set", "fed.rounds=1",
        ]
        assert main(args) == 0
        entries = dict(line.split(" = ", 1) for line in (tmp_path / "manifest.txt").read_text().splitlines())
        recorded = [[int(v) for v in entries[key].split(",")] for key in ("run.workers", "run.client_group")]
        assert [(n, k) for n, k, _ in used] == list(zip(*recorded)) == [(2, 3), (2, 3), (2, 2), (1, 2), (2, 3), (2, 3)]
        assert [g for n, k, g in used if n > 1] == [3, 3, 2, 3, 3]  # each worker trains groups of the parent's K
