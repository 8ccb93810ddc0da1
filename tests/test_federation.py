import math
import tracemalloc

import numpy as np
import pytest
from conftest import reference_client_update, reference_sgd_epoch

from fedsim.config import FieldError
from fedsim.data import (
    IID,
    SINGLE_LABEL,
    SINGLE_SAMPLE,
    ClientShard,
    Dataset,
    PartitionPlan,
    partition,
    synth_dataset,
)
from fedsim.federation import (
    CentralConfig,
    ClientDivergedError,
    FedConfig,
    GlobalState,
    aggregate_deltas,
    aggregate_weights,
    client_update,
    cohort_size,
    evaluate,
    group_update,
    run_round,
    select_clients,
    train_centralized,
    train_federated,
)
from fedsim.nn import (
    Batch,
    GradVector,
    MlpSpec,
    ParamVector,
    ServerOptimizerState,
    ShapeMismatchError,
    Workspace,
    init_params,
    loss,
    loss_and_grad_raw,
    loss_grad,
    server_apply,
    sgd_step,
    unflatten,
)
from fedsim.rng import derive_seed


def make_setup(kind=IID, num_classes=3, features=8, num_clients=6, spc=20, seed=0):
    ds = synth_dataset(num_classes, features, 4 * num_clients * max(spc, 1), seed=seed)
    shards = partition(ds, PartitionPlan(kind, num_clients=num_clients, samples_per_client=spc, seed=seed))
    spec = MlpSpec((features, num_classes))
    return ds, shards, spec


def fed_config(num_clients, **overrides):
    defaults = dict(
        num_clients=num_clients,
        client_fraction=1.0,
        local_epochs=1,
        batch_size=None,
        client_lr=0.2,
        rounds=1,
        seed=0,
    )
    defaults.update(overrides)
    return FedConfig(**defaults)


class TestClientUpdate:
    def test_zero_rate_returns_weights_unchanged(self):
        ds, shards, spec = make_setup()
        w = init_params(spec, 1)
        out = client_update(shards[0], ds, w, local_epochs=3, batch_size=5, client_lr=0.0, client_seed=1)
        assert np.array_equal(out.values, w.values)

    def test_one_full_batch_epoch_equals_one_gradient_step(self):
        ds, shards, spec = make_setup()
        w = init_params(spec, 2)
        shard = shards[1]
        out = client_update(shard, ds, w, local_epochs=1, batch_size=None, client_lr=0.3, client_seed=2)
        batch = Batch(ds.inputs[shard.indices], ds.labels[shard.indices])
        _, grad = loss_grad(w, batch)
        expected = sgd_step(w, grad, 0.3)
        assert np.allclose(out.values, expected.values, atol=1e-12)

    def test_two_full_batch_epochs_equal_two_sequential_steps(self):
        ds, shards, spec = make_setup()
        w = init_params(spec, 3)
        shard = shards[2]
        out = client_update(shard, ds, w, local_epochs=2, batch_size=None, client_lr=0.3, client_seed=3)
        batch = Batch(ds.inputs[shard.indices], ds.labels[shard.indices])
        step1 = sgd_step(w, loss_grad(w, batch)[1], 0.3)
        step2 = sgd_step(step1, loss_grad(step1, batch)[1], 0.3)
        assert np.allclose(out.values, step2.values, atol=1e-12)

    def test_input_weights_not_modified(self):
        ds, shards, spec = make_setup()
        w = init_params(spec, 4)
        before = w.values.copy()
        out = client_update(shards[0], ds, w, local_epochs=2, batch_size=4, client_lr=0.5, client_seed=4)
        assert np.array_equal(w.values, before)
        assert not np.shares_memory(out.values, w.values)

    def test_divergence_raises_with_client_id(self):
        ds, shards, _ = make_setup(spc=10)
        spec = MlpSpec((8, 6, 3))  # two layers so runaway weights overflow the forward pass
        w = init_params(spec, 5)
        with np.errstate(all="ignore"):
            with pytest.raises(ClientDivergedError) as err:
                client_update(shards[3], ds, w, local_epochs=5, batch_size=2, client_lr=1e160, client_seed=5)
        assert err.value.client_id == shards[3].client_id


class TestGroupOfOne:
    """group_update of one client, the call client_update makes, with the caller's workspace and out."""

    def test_out_is_trained_in_place_and_matches_client_update(self):
        ds, shards, _ = make_setup(spc=20, seed=30)
        spec = MlpSpec((8, 6, 3))
        w = init_params(spec, 30)
        before = w.values.copy()
        out = np.full((1, spec.parameter_count()), np.nan)
        failed = group_update([shards[1]], ds, w, 2, 6, 0.3, [30], Workspace(spec, 6), out)
        assert failed.tolist() == [False]
        assert np.array_equal(w.values, before)
        assert np.array_equal(out[0], client_update(shards[1], ds, w, 2, 6, 0.3, 30).values)

    def test_divergence_is_flagged_when_training_in_out(self):
        ds, shards, _ = make_setup(spc=10)
        spec = MlpSpec((8, 6, 3))
        w = init_params(spec, 5)
        out = np.empty((1, spec.parameter_count()))
        with np.errstate(all="ignore"):
            failed = group_update([shards[3]], ds, w, 5, 2, 1e160, [5], Workspace(spec, 2), out)
        assert failed.tolist() == [True]

    def test_workspace_must_fit_the_spec_and_batch(self):
        ds, shards, spec = make_setup(spc=20, seed=27)
        w = init_params(spec, 27)
        out = np.empty((1, spec.parameter_count()))
        with pytest.raises(ShapeMismatchError):
            group_update([shards[0]], ds, w, 1, 6, 0.1, [27], Workspace(spec, 5), out)
        with pytest.raises(ShapeMismatchError):
            group_update([shards[0]], ds, w, 1, 6, 0.1, [27], Workspace(MlpSpec((8, 4, 3)), 6), out)

    def test_clients_back_to_back_on_one_workspace_match_each_alone(self):
        ds = synth_dataset(3, 8, 200, seed=24)
        spec = MlpSpec((8, 6, 3))
        w = init_params(spec, 24)
        big, small = shard_of(ds, 0, np.arange(0, 20)), shard_of(ds, 1, np.arange(50, 57))
        workspace, out = Workspace(spec, 5), np.empty((1, spec.parameter_count()))
        for s in (big, small, big):
            group_update([s], ds, w, 2, 5, 0.3, [24 + s.client_id], workspace, out)
            assert np.array_equal(out[0], client_update(s, ds, w, 2, 5, 0.3, 24 + s.client_id).values)


def shard_of(ds, client_id, indices):
    indices = np.asarray(indices)
    return ClientShard(client_id, indices, np.bincount(ds.labels[indices], minlength=ds.num_classes))


class TestSharedSgdLoop:
    # shards of 20: batch 6 leaves a short last batch, None is full-shard, 50 exceeds the shard
    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("batch_size", [6, None, 50])
    def test_client_update_matches_allocating_loop_bitwise(self, activation, batch_size):
        ds, shards, _ = make_setup(spc=20, seed=21)
        spec = MlpSpec((8, 6, 3), activation)
        w = init_params(spec, 21)
        out = client_update(shards[2], ds, w, local_epochs=3, batch_size=batch_size, client_lr=0.3, client_seed=21)
        expected = reference_client_update(shards[2], ds, w, 3, batch_size, 0.3, 21)
        assert np.array_equal(out.values, expected)

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    @pytest.mark.parametrize("batch_size", [7, None, 200])
    def test_train_centralized_matches_allocating_loop_bitwise(self, activation, batch_size):
        ds = synth_dataset(3, 6, 90, seed=22)
        spec = MlpSpec((6, 5, 3), activation)
        history, final = train_centralized(spec, ds, None, CentralConfig(lr=0.2, batch_size=batch_size, epochs=2), seed=22)
        w = init_params(spec, derive_seed(22, "init")).values.copy()
        for epoch in range(2):
            perm = np.random.default_rng(derive_seed(22, "epoch", epoch)).permutation(len(ds))
            losses = reference_sgd_epoch(w, spec, ds, perm, len(ds) if batch_size is None else batch_size, 0.2)
            assert history[epoch].mean_client_loss == float(np.mean(losses))
        assert np.array_equal(final.values, w)

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_one_sample_client_matches_allocating_loop_bitwise(self, activation):
        ds = synth_dataset(3, 8, 40, seed=28)
        spec = MlpSpec((8, 6, 3), activation)
        w = init_params(spec, 28)
        for row in (0, 17, 39):
            shard = shard_of(ds, row, [row])
            out = client_update(shard, ds, w, local_epochs=3, batch_size=1, client_lr=0.3, client_seed=28 + row)
            expected = reference_client_update(shard, ds, w, 3, 1, 0.3, 28 + row)
            assert np.array_equal(out.values.view(np.int64), expected.view(np.int64))

    def test_diverged_run_keeps_completed_rounds(self, monkeypatch):
        import fedsim.federation as federation

        ds, shards, spec = make_setup()
        config = fed_config(6, client_fraction=0.5, rounds=4, seed=25)
        calls = []

        def diverges_in_round_2(shards, *args, **kwargs):
            calls.extend(shard.client_id for shard in shards)
            diverged = group_update(shards, *args, **kwargs)
            if len(calls) > 2 * config.cohort_size:  # the group's first client diverges: a nan row, flagged
                args[-1][0], diverged[0] = np.nan, True
            return diverged

        monkeypatch.setattr(federation, "group_update", diverges_in_round_2)
        monkeypatch.setattr(federation, "usable_cpus", lambda: 1)  # count every call in this process
        kept = []
        with pytest.raises(ClientDivergedError) as err:
            train_federated(spec, config, shards, ds, on_round=kept.append)
        assert err.value.round_index == 2
        assert [m.round_index for m in kept] == [0, 1]

    def test_diverged_centralized_run_keeps_completed_epochs(self, monkeypatch):
        import fedsim.federation as federation

        ds = synth_dataset(3, 6, 90, seed=26)
        calls = []

        def nan_loss_in_epoch_1(*args):
            calls.append(1)
            value, grad = loss_and_grad_raw(*args)
            return (np.nan if len(calls) > 6 else value), grad  # 90 rows in batches of 16: 6 steps an epoch

        monkeypatch.setattr(federation, "loss_and_grad_raw", nan_loss_in_epoch_1)
        kept, config = [], CentralConfig(lr=0.1, batch_size=16, epochs=3)
        with pytest.raises(ClientDivergedError) as err:
            train_centralized(MlpSpec((6, 3)), ds, None, config, seed=26, on_round=kept.append)
        assert err.value.round_index == 1
        assert [m.round_index for m in kept] == [0]
        assert len(calls) == 12  # the epoch of the first non-finite loss ends, and no later epoch starts

    def test_train_centralized_steps_a_stack_of_one(self, monkeypatch):
        import fedsim.federation as federation

        ranks = []

        def records_rank(values, *args):
            ranks.append(values.ndim)
            return loss_and_grad_raw(values, *args)

        monkeypatch.setattr(federation, "loss_and_grad_raw", records_rank)
        ds = synth_dataset(3, 6, 40, seed=29)
        train_centralized(MlpSpec((6, 5, 3)), ds, None, CentralConfig(lr=0.1, batch_size=16, epochs=2), seed=29)
        assert ranks == [2] * 6  # 40 rows in batches of 16: 3 steps an epoch


class TestAggregation:
    def _vec(self, spec, values):
        return ParamVector(np.asarray(values, dtype=float), spec)

    def test_identical_updates_are_a_fixed_point(self):
        spec = MlpSpec((2, 1))
        u = self._vec(spec, [1.0, -2.0, 0.5])
        out = aggregate_weights([(u, 3), (u, 7), (u, 1)])
        assert np.allclose(out.values, u.values, atol=1e-15)

    def test_equal_counts_give_plain_mean(self):
        spec = MlpSpec((1, 1))
        out = aggregate_weights([(self._vec(spec, [0.0, 0.0]), 5), (self._vec(spec, [2.0, 4.0]), 5)])
        assert np.allclose(out.values, [1.0, 2.0])

    def test_hand_computed_weighted_mean(self):
        # counts (1, 2, 3) on scalars (3, 6, 12): (1*3 + 2*6 + 3*12) / 6 = 8.5
        spec = MlpSpec((1, 1))
        out = aggregate_weights([
            (self._vec(spec, [3.0, 0.0]), 1),
            (self._vec(spec, [6.0, 0.0]), 2),
            (self._vec(spec, [12.0, 0.0]), 3),
        ])
        assert out.values[0] == pytest.approx(8.5, abs=1e-12)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_weights([])

    def test_output_within_coordinatewise_bounds(self):
        spec = MlpSpec((4, 3))
        rng = np.random.default_rng(6)
        updates = [(self._vec(spec, rng.normal(size=spec.parameter_count())), int(n)) for n in rng.integers(1, 9, size=5)]
        out = aggregate_weights(updates)
        stacked = np.stack([u.values for u, _ in updates])
        assert np.all(out.values >= stacked.min(axis=0) - 1e-12)
        assert np.all(out.values <= stacked.max(axis=0) + 1e-12)

    def test_order_invariance_within_float_noise(self):
        spec = MlpSpec((4, 3))
        rng = np.random.default_rng(7)
        updates = [(self._vec(spec, rng.normal(size=spec.parameter_count())), int(n)) for n in rng.integers(1, 9, size=6)]
        a = aggregate_weights(updates)
        b = aggregate_weights(list(reversed(updates)))
        assert np.max(np.abs(a.values - b.values)) <= 1e-12

    def test_zero_deltas_give_zero_pseudo_gradient(self):
        spec = MlpSpec((2, 1))
        zero = GradVector(np.zeros(3), spec)
        out = aggregate_deltas([(zero, 4), (zero, 2)])
        assert np.all(out.values == 0.0)

    def test_single_delta_inverts_through_unit_sgd(self):
        from fedsim.nn import server_apply

        spec = MlpSpec((2, 1))
        w = self._vec(spec, [1.0, 1.0, 1.0])
        delta = GradVector(np.array([0.5, -0.25, 0.0]), spec)
        pseudo = aggregate_deltas([(delta, 3)])
        updated, _ = server_apply(ServerOptimizerState(kind="sgd", lr=1.0), w, pseudo)
        assert np.allclose(updated.values, w.values + delta.values, atol=1e-15)


    def test_aggregates_fold_like_the_allocating_mean(self):
        # acc += (n / denom) * vec in list order, the formulation the fold must reproduce bitwise
        spec = MlpSpec((4, 3))
        rng = np.random.default_rng(8)
        vecs = [rng.normal(size=spec.parameter_count()) for _ in range(5)]
        counts = [3, 1, 7, 2, 5]
        for total in (None, 40.0):
            denom = total if total is not None else float(sum(counts))
            expected = np.zeros(spec.parameter_count())
            for vec, n in zip(vecs, counts):
                expected += (n / denom) * vec
            got_w = aggregate_weights([(ParamVector(v, spec), n) for v, n in zip(vecs, counts)], total)
            got_d = aggregate_deltas([(GradVector(v, spec), n) for v, n in zip(vecs, counts)], total)
            assert np.array_equal(got_w.values, expected)
            assert np.array_equal(got_d.values, -expected)


def reference_round(state, config, shards, ds):
    """One round the list-based way: collect every client's weights, then take the weighted mean."""
    t = state.round_index
    selected = select_clients(config.num_clients, config.client_fraction, derive_seed(config.seed, "round", t, "select"))
    updates, losses = [], []
    for c in selected:
        shard = shards[int(c)]
        seed = derive_seed(config.seed, "round", t, "client", int(c))
        local = ParamVector(
            reference_client_update(shard, ds, state.weights, config.local_epochs, config.batch_size, config.client_lr, seed),
            state.weights.spec,
        )
        updates.append((local, shard.num_samples))
        losses.append(loss(local, Batch(ds.inputs[shard.indices], ds.labels[shard.indices])))
    total = float(sum(s.num_samples for s in shards)) if config.alg1_literal_normalization else None
    if config.update_mode == "send_weights":
        new_weights, server = aggregate_weights(updates, total), state.server_opt_state
    else:
        deltas = [(GradVector(u.values - state.weights.values, u.spec), n) for u, n in updates]
        new_weights, server = server_apply(state.server_opt_state, state.weights, aggregate_deltas(deltas, total))
    return GlobalState(new_weights, t + 1, server), float(np.mean(losses))


class TestStreamedRound:
    @pytest.mark.parametrize(
        "mode, server, literal",
        [
            ("send_weights", "sgd", False),
            ("send_weights", "sgd", True),
            ("send_delta", "sgd", False),
            ("send_delta", "adam", False),
            ("send_delta", "rmsprop", False),
            ("send_delta", "adam", True),
        ],
    )
    def test_matches_the_list_based_round_bitwise(self, mode, server, literal):
        ds = synth_dataset(3, 8, 200, seed=31)
        sizes = [3, 7, 1, 12, 5, 9, 2, 6]  # unequal shards, so the weights n_k / denom differ
        bounds = np.cumsum([0] + sizes)
        shards = [shard_of(ds, k, np.arange(bounds[k], bounds[k + 1])) for k in range(len(sizes))]
        spec = MlpSpec((8, 6, 3))
        config = FedConfig(
            num_clients=len(sizes), client_fraction=0.5, local_epochs=2, batch_size=4, client_lr=0.2, rounds=3,
            seed=31, server_opt=ServerOptimizerState(kind=server, lr=0.5), update_mode=mode,
            alg1_literal_normalization=literal,
        )
        streamed = reference = GlobalState(init_params(spec, 31), 0, config.server_opt)
        for _ in range(config.rounds):
            streamed, metrics = run_round(streamed, config, shards, ds)
            reference, mean_loss = reference_round(reference, config, shards, ds)
            assert np.array_equal(streamed.weights.values, reference.weights.values)
            assert metrics.mean_client_loss == mean_loss
            for name in ("m", "v"):
                a, b = getattr(streamed.server_opt_state, name), getattr(reference.server_opt_state, name)
                assert (a is None and b is None) or np.array_equal(a, b)
            assert streamed.server_opt_state.step == reference.server_opt_state.step

    def test_peak_memory_does_not_grow_with_the_cohort(self, monkeypatch):
        import fedsim.federation as federation

        spec = MlpSpec((100, 400, 25))  # 50,425 parameters, 403 kB
        param_bytes = 8 * spec.parameter_count()
        ds = synth_dataset(25, 100, 400, seed=32)
        monkeypatch.setattr(federation, "usable_cpus", lambda: 1)  # one process: both cohorts train in groups of 4

        def round_peak(num_clients):
            shards = partition(ds, PartitionPlan(SINGLE_SAMPLE, num_clients=num_clients, samples_per_client=1, seed=32))
            config = fed_config(num_clients, batch_size=1, seed=32, update_mode="send_delta")
            assert federation.layout(spec, config, shards).group == 4  # the one-row budget's, not the cohort's
            state = GlobalState(init_params(spec, 32), 0, config.server_opt)
            run_round(state, config, shards, ds)  # warm up
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                run_round(state, config, shards, ds)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        small, large = round_peak(4), round_peak(40)
        assert large - small < 2 * param_bytes


class TestFedConfig:
    @pytest.mark.parametrize(
        "field, value", [("num_clients", 0), ("num_clients", -3), ("client_lr", float("nan")), ("client_lr", -0.1)]
    )
    def test_an_out_of_range_value_raises_a_field_error_naming_its_field(self, field, value):
        with pytest.raises(FieldError) as err:
            fed_config(**{"num_clients": 6, field: value})
        assert err.value.field == field


class TestCentralConfig:
    @pytest.mark.parametrize(
        "field, value", [("lr", float("nan")), ("lr", -0.1), ("batch_size", 0), ("epochs", -1)]
    )
    def test_an_out_of_range_value_raises_a_field_error_naming_its_field(self, field, value):
        with pytest.raises(FieldError) as err:
            CentralConfig(**{field: value})
        assert err.value.field == field


class TestSelectClients:
    def test_full_participation(self):
        assert select_clients(12, 1.0, round_seed=0).tolist() == list(range(12))

    def test_floor_of_one_client(self):
        assert select_clients(500, 0.002, round_seed=1).size == 1

    def test_cohort_size_ceiling(self):
        assert select_clients(10, 0.25, round_seed=2).size == 3

    # the 21 (C, K) of C = 0.01 ... 1.00 and these K whose float product C * K lands just above an integer
    FLOAT_CEILINGS = [
        (0.07, 100), (0.07, 200), (0.07, 5000), (0.14, 50), (0.14, 100), (0.14, 200), (0.14, 5000), (0.17, 5000),
        (0.28, 50), (0.28, 100), (0.28, 200), (0.28, 5000), (0.34, 5000), (0.55, 100), (0.55, 200), (0.56, 50),
        (0.56, 100), (0.56, 200), (0.56, 5000), (0.68, 5000), (0.81, 5000),
    ]

    def test_the_cohort_is_the_ceiling_of_the_fraction_as_written(self):
        # ceil(i * K / 100) in integers; 0.07 * 100 is 7.000000000000001 in floats, which gave 8
        sizes = [10, 12, 20, 40, 50, 100, 200, 500, 1000, 5000]
        for i in range(1, 101):
            for k in sizes:
                assert cohort_size(k, float(f"{i / 100}")) == -(-i * k // 100)
        for c, k in self.FLOAT_CEILINGS:
            assert math.ceil(c * k) == round(c * k) + 1  # the float product lands just above the integer
            config = FedConfig(num_clients=k, client_fraction=c, local_epochs=1, batch_size=1, client_lr=0.1,
                               rounds=1, seed=0)
            assert config.cohort_size == select_clients(k, c, round_seed=0).size == round(c * k)
        assert cohort_size(100, 0.071) == 8
        assert select_clients(100, 0.071, round_seed=0).size == 8

    def test_uniform_selection_frequency(self):
        counts = np.zeros(10)
        for draw in range(10_000):
            counts[select_clients(10, 0.3, round_seed=draw)] += 1
        freq = counts / 10_000
        assert np.all(np.abs(freq - 0.3) <= 0.02)


class TestRoundEquivalences:
    def test_full_participation_full_batch_round_is_a_central_batch_step(self):
        # one round with every client taking one full-shard step equals one
        # full-batch gradient step on the pooled data, for 10 straight rounds
        ds, shards, spec = make_setup(num_clients=5, spc=12, seed=1)
        union = np.sort(np.concatenate([s.indices for s in shards]))
        pooled = Batch(ds.inputs[union], ds.labels[union])
        config = fed_config(5, client_lr=0.25, seed=11)

        state = GlobalState(init_params(spec, 11), 0, config.server_opt)
        central = state.weights
        for _ in range(10):
            state, _ = run_round(state, config, shards, ds)
            central = sgd_step(central, loss_grad(central, pooled)[1], 0.25)
            assert np.max(np.abs(state.weights.values - central.values)) <= 1e-9

    def test_single_sample_round_is_a_minibatch_sgd_step(self):
        ds = synth_dataset(3, 8, 200, seed=2)
        shards = partition(ds, PartitionPlan(SINGLE_SAMPLE, num_clients=30, samples_per_client=1, seed=2))
        spec = MlpSpec((8, 3))
        config = fed_config(30, client_fraction=0.2, client_lr=0.4, seed=12)

        state = GlobalState(init_params(spec, 12), 0, config.server_opt)
        new_state, metrics = run_round(state, config, shards, ds)

        chosen = np.array([shards[c].indices[0] for c in metrics.selected_clients])
        minibatch = Batch(ds.inputs[chosen], ds.labels[chosen])
        expected = sgd_step(state.weights, loss_grad(state.weights, minibatch)[1], 0.4)
        assert np.max(np.abs(new_state.weights.values - expected.values)) <= 1e-9

    def test_delta_mode_with_unit_sgd_matches_weight_mode(self):
        ds, shards, spec = make_setup(num_clients=8, spc=15, seed=3)
        base = dict(num_clients=8, client_fraction=0.5, local_epochs=2, batch_size=5, client_lr=0.1, rounds=20, seed=13)
        cfg_w = FedConfig(update_mode="send_weights", **base)
        cfg_d = FedConfig(update_mode="send_delta", server_opt=ServerOptimizerState(kind="sgd", lr=1.0), **base)

        _, final_w = train_federated(spec, cfg_w, shards, ds)
        _, final_d = train_federated(spec, cfg_d, shards, ds)
        assert np.max(np.abs(final_w.weights.values - final_d.weights.values)) <= 1e-9

    def test_literal_normalization_shrinks_when_subsampled(self):
        ds, shards, spec = make_setup(num_clients=4, spc=10, seed=4)
        base = dict(num_clients=4, client_fraction=0.5, local_epochs=1, batch_size=None, client_lr=0.2, rounds=1, seed=14)
        state = GlobalState(init_params(spec, 14), 0, ServerOptimizerState())
        standard, _ = run_round(state, FedConfig(**base), shards, ds)
        literal, _ = run_round(state, FedConfig(alg1_literal_normalization=True, **base), shards, ds)
        # 2 of 4 equal-size shards participate, so the literal form halves the average
        assert np.allclose(literal.weights.values, 0.5 * standard.weights.values, atol=1e-12)


class TestTrainingLoops:
    def test_zero_rounds_returns_initial_state(self):
        ds, shards, spec = make_setup()
        config = fed_config(6, rounds=0, seed=15)
        history, state = train_federated(spec, config, shards, ds)
        assert history == []
        assert state.round_index == 0
        assert np.array_equal(state.weights.values, init_params(spec, state_seed(config)).values)

    def test_training_run_is_bitwise_reproducible(self):
        ds, shards, spec = make_setup(num_clients=5, spc=10, seed=5)
        config = fed_config(5, client_fraction=0.6, local_epochs=2, batch_size=4, rounds=6, seed=16)
        h1, s1 = train_federated(spec, config, shards, ds, test_set=ds)
        h2, s2 = train_federated(spec, config, shards, ds, test_set=ds)
        assert np.array_equal(s1.weights.values, s2.weights.values)
        for a, b in zip(h1, h2):
            assert a.round_index == b.round_index
            assert a.selected_clients == b.selected_clients
            assert a.mean_client_loss == b.mean_client_loss
            assert a.train_accuracy == b.train_accuracy
            assert a.test_accuracy == b.test_accuracy

    def test_accuracy_improves_on_separable_data(self):
        ds, shards, spec = make_setup(num_clients=10, spc=30, seed=6)
        config = fed_config(10, client_fraction=0.5, local_epochs=2, batch_size=10, client_lr=0.3, rounds=25, seed=17)
        history, _ = train_federated(spec, config, shards, ds, test_set=ds)
        assert history[-1].train_accuracy >= 0.85
        assert history[-1].train_accuracy > history[0].train_accuracy

    def test_centralized_online_and_batch_modes(self):
        ds = synth_dataset(3, 6, 90, seed=7)
        spec = MlpSpec((6, 3))
        batch_hist, _ = train_centralized(spec, ds, None, CentralConfig(lr=0.5, batch_size=None, epochs=3), seed=18)
        online_hist, _ = train_centralized(spec, ds, None, CentralConfig(lr=0.05, batch_size=1, epochs=1), seed=18)
        assert len(batch_hist) == 3 and len(online_hist) == 1
        assert batch_hist[-1].train_accuracy is not None

    def test_shards_covering_the_dataset_are_evaluated_without_a_copy(self, monkeypatch):
        import fedsim.federation as federation

        ds = synth_dataset(3, 8, 60, seed=33)
        spec = MlpSpec((8, 3))
        config = fed_config(60, client_fraction=0.1, batch_size=1, rounds=2, seed=33)
        covering = partition(ds, PartitionPlan(SINGLE_SAMPLE, num_clients=60, samples_per_client=1, seed=33))
        partial = partition(ds, PartitionPlan(SINGLE_SAMPLE, num_clients=60, samples_per_client=1, seed=33))[:59]
        partial.append(shard_of(ds, 59, [partial[0].indices[0]]))  # a repeated row, so one row is left out
        copies = []
        original = Dataset.__post_init__
        monkeypatch.setattr(Dataset, "__post_init__", lambda self: copies.append(len(self)) or original(self))
        rows_given = []
        monkeypatch.setattr(
            federation, "evaluate", lambda params, dataset, rows=None: rows_given.append(rows) or evaluate(params, dataset, rows)
        )

        history, state = train_federated(spec, config, covering, ds)
        assert copies == []
        assert rows_given == [None, None]  # every row once: scored as the whole dataset, read in place
        assert history[-1].train_accuracy == evaluate(state.weights, ds)

        rows_given.clear()
        history, state = train_federated(spec, config, partial, ds)
        assert copies == []  # partial shards are scored by gathering their rows a block at a time
        assert len(rows_given) == 2 and all(rows is not None for rows in rows_given)
        union = np.sort(np.concatenate([s.indices for s in partial]))
        scored = Dataset(ds.inputs[union], ds.labels[union], ds.num_classes)
        assert history[-1].train_accuracy == evaluate(state.weights, scored)

    def test_round_metrics_wall_clock_positive(self):
        ds, shards, spec = make_setup()
        config = fed_config(6, rounds=2, seed=19)
        history, _ = train_federated(spec, config, shards, ds)
        assert all(m.elapsed_s > 0 for m in history)


def reference_evaluate(params, ds, chunk):
    """The allocating evaluation: h @ w + b per layer, on contiguous chunks of rows."""
    layers = unflatten(params.values, params.spec)
    hits = 0
    for start in range(0, len(ds), chunk):
        h = ds.inputs[start : start + chunk]
        for i, (w, b) in enumerate(layers):
            h = h @ w + b
            if i < len(layers) - 1 and params.spec.activation == "relu":
                h = np.maximum(h, 0.0)
        hits += int((h.argmax(axis=1) == ds.labels[start : start + chunk]).sum())
    return hits / len(ds)


def state_seed(config):
    from fedsim.rng import derive_seed

    return derive_seed(config.seed, "init")


class TestEvaluate:
    def test_single_correct_sample(self):
        spec = MlpSpec((2, 2))
        # weights steer logit 1 above logit 0 for input (1, 0)
        params = ParamVector(np.array([0.0, 1.0, 0.0, 0.0, 0.0, 0.0]), spec)
        ds = Dataset(np.array([[1.0, 0.0]]), np.array([1]), num_classes=2)
        assert evaluate(params, ds) == 1.0

    def test_zero_params_predict_class_zero(self):
        spec = MlpSpec((6, 4))
        params = ParamVector(np.zeros(spec.parameter_count()), spec)
        ds = synth_dataset(4, 6, 400, seed=8)  # balanced 100 per class
        assert evaluate(params, ds) == pytest.approx(0.25)

    @pytest.mark.parametrize("activation", ["relu", "identity"])
    def test_matches_allocating_reference_with_and_without_rows(self, activation, monkeypatch):
        import fedsim.federation as federation

        spec = MlpSpec((5, 6, 4, 3), activation)
        ds = synth_dataset(3, 5, 61, seed=12)
        rows = np.sort(np.concatenate([np.arange(3, 50, 2), [7, 7, 60]]))  # repeats, like overlapping shards
        picked = Dataset(ds.inputs[rows], ds.labels[rows], ds.num_classes)
        for block in (federation._EVAL_ROWS, 7):  # one block at the default size, then 7-row blocks and a short last one
            monkeypatch.setattr(federation, "_EVAL_ROWS", block)
            for seed in range(4):
                params = init_params(spec, 60 + seed)
                assert evaluate(params, ds) == reference_evaluate(params, ds, block)
                assert evaluate(params, ds, rows) == reference_evaluate(params, picked, block)

    @pytest.mark.parametrize("given", [True, False], ids=["rows", "all-rows"])
    def test_peak_memory_does_not_grow_with_the_rows_scored(self, given):
        spec = MlpSpec((100, 50, 10))
        params = init_params(spec, 14)
        full = synth_dataset(10, 100, 12_000, seed=14)

        def peak(n):
            ds = full if given else Dataset(full.inputs[:n], full.labels[:n], full.num_classes)
            kwargs = {"rows": np.arange(n)} if given else {}
            evaluate(params, ds, **kwargs)  # warm up
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                evaluate(params, ds, **kwargs)
                return tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()

        small, large = peak(3_000), peak(12_000)
        assert large - small <= 4096

    def test_a_whole_dataset_is_read_in_place_with_the_bits_of_its_rows_gathered(self, monkeypatch):
        import fedsim.federation as federation
        from fedsim.nn import forward_logits

        spec = MlpSpec((5, 6, 4, 3))
        ds = synth_dataset(3, 5, 61, seed=15)
        fortran = Dataset(np.asfortranarray(ds.inputs), ds.labels, ds.num_classes)

        def score(dataset, rows=None):
            """The accuracy, and per block: was it read in place, is it C-contiguous, its logits."""
            blocks = []

            def spy(values, spec, inputs, buffers):
                logits = forward_logits(values, spec, inputs, buffers)
                blocks.append((np.shares_memory(inputs, dataset.inputs), inputs.flags.c_contiguous, logits.copy()))
                return logits

            monkeypatch.setattr(federation, "forward_logits", spy)
            return evaluate(params, dataset, rows), blocks

        for block in (federation._EVAL_ROWS, 7):  # one block, then 7-row blocks and a short last one
            monkeypatch.setattr(federation, "_EVAL_ROWS", block)
            for seed in range(3):
                params = init_params(spec, 70 + seed)
                accuracy, blocks = score(ds)
                assert accuracy == reference_evaluate(params, ds, block)
                assert [b[:2] for b in blocks] == [(True, True)] * -(-len(ds) // block)
                for other_accuracy, others in (score(ds, np.arange(len(ds))), score(fortran)):
                    assert other_accuracy == accuracy
                    assert [b[:2] for b in others] == [(False, True)] * len(blocks)  # gathered
                    assert all(np.array_equal(o[2], b[2]) for o, b in zip(others, blocks, strict=True))

    def test_a_whole_dataset_allocates_less_than_one_gathered_block(self):
        import fedsim.federation as federation

        spec = MlpSpec((100, 50, 10))
        params = init_params(spec, 16)
        ds = synth_dataset(10, 100, 3_000, seed=16)
        evaluate(params, ds)  # warm up
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            evaluate(params, ds)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < federation._EVAL_ROWS * ds.num_features * 8

    def test_rows_out_of_range_are_refused(self):
        spec = MlpSpec((5, 3))
        params = init_params(spec, 13)
        ds = synth_dataset(3, 5, 20, seed=13)
        for rows in ([0, 20], [-1, 3]):
            with pytest.raises(IndexError):
                evaluate(params, ds, rows=np.array(rows))

    def test_an_empty_row_set_is_refused(self):
        spec = MlpSpec((5, 3))
        params = init_params(spec, 13)
        ds = synth_dataset(3, 5, 20, seed=13)
        with pytest.raises(ValueError, match="rows is empty"):
            evaluate(params, ds, rows=np.array([], dtype=np.int64))

    def test_matches_per_sample_loop(self):
        from fedsim.nn import forward_logits

        spec = MlpSpec((5, 4, 3))
        params = init_params(spec, 20)
        ds = synth_dataset(3, 5, 150, seed=9)
        buffers = [np.empty((1, d)) for d in spec.layer_sizes[1:]]
        expected = np.mean([
            int(np.argmax(forward_logits(params.values, spec, x[None, :], buffers)[0]) == y)
            for x, y in zip(ds.inputs, ds.labels)
        ])
        assert evaluate(params, ds) == pytest.approx(float(expected))
